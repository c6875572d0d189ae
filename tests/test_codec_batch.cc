/**
 * @file
 * Property tests for the batched codec paths: every batch API must
 * produce byte-identical output (and identical sizes) to the
 * one-page-at-a-time stateless calls, for every codec kind, in any
 * batch shape — including empty and single-page batches. This is the
 * contract that lets PageCompressor::size share one batch state
 * across every unit it sizes without perturbing exact-mode reports.
 */

#include <gtest/gtest.h>

#include <vector>

#include "codec_test_util.hh"
#include "compress/chunked.hh"
#include "compress/registry.hh"
#include "swap/page_compressor.hh"
#include "workload/apps.hh"
#include "workload/page_synth.hh"

using namespace ariadne;
using namespace ariadne::testutil;

namespace
{

/** A batch of page-sized buffers with varied content classes. */
std::vector<std::vector<std::uint8_t>>
makePages(std::size_t n)
{
    std::vector<std::vector<std::uint8_t>> pages;
    pages.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        switch (i % 4) {
          case 0:
            pages.push_back(mixedBuffer(pageSize, 0x1000 + i));
            break;
          case 1:
            pages.push_back(repetitiveBuffer(pageSize));
            break;
          case 2:
            pages.push_back(randomBuffer(pageSize, 0x2000 + i));
            break;
          default:
            pages.emplace_back(pageSize, 0); // all zeros
            break;
        }
    }
    return pages;
}

std::vector<ConstBytes>
viewsOf(const std::vector<std::vector<std::uint8_t>> &pages)
{
    std::vector<ConstBytes> views;
    views.reserve(pages.size());
    for (const auto &p : pages)
        views.emplace_back(p.data(), p.size());
    return views;
}

class CodecBatch : public ::testing::TestWithParam<CodecKind>
{
};

} // namespace

TEST_P(CodecBatch, CompressBatchBytesMatchOneAtATime)
{
    auto codec = makeCodec(GetParam());
    for (std::size_t n : {std::size_t{0}, std::size_t{1},
                          std::size_t{7}, std::size_t{16}}) {
        auto pages = makePages(n);
        auto srcs = viewsOf(pages);

        const std::size_t bound = codec->compressBound(pageSize);
        std::vector<std::vector<std::uint8_t>> outs(
            n, std::vector<std::uint8_t>(bound));
        std::vector<MutableBytes> dsts;
        dsts.reserve(n);
        for (auto &o : outs)
            dsts.emplace_back(o.data(), o.size());

        auto sizes = codec->compressBatch(srcs, dsts);
        ASSERT_EQ(sizes.size(), n);

        for (std::size_t i = 0; i < n; ++i) {
            std::vector<std::uint8_t> solo(bound);
            std::size_t solo_size = codec->compress(
                srcs[i], {solo.data(), solo.size()});
            ASSERT_EQ(sizes[i], solo_size) << "page " << i;
            EXPECT_EQ(std::vector<std::uint8_t>(
                          outs[i].begin(),
                          outs[i].begin() +
                              static_cast<long>(sizes[i])),
                      std::vector<std::uint8_t>(
                          solo.begin(),
                          solo.begin() +
                              static_cast<long>(solo_size)))
                << "page " << i;
        }
    }
}

TEST_P(CodecBatch, SizeBatchMatchesStatelessSizes)
{
    auto codec = makeCodec(GetParam());
    for (std::size_t n : {std::size_t{0}, std::size_t{1},
                          std::size_t{9}}) {
        auto pages = makePages(n);
        auto srcs = viewsOf(pages);
        auto sizes = codec->sizeBatch(srcs);
        ASSERT_EQ(sizes.size(), n);
        std::vector<std::uint8_t> dst(codec->compressBound(pageSize));
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(sizes[i],
                      codec->compress(srcs[i],
                                      {dst.data(), dst.size()}))
                << "page " << i;
    }
}

TEST_P(CodecBatch, SharedStateIsOrderInsensitive)
{
    // One BatchState reused across the whole batch, pages compressed
    // twice in different orders: every output must equal the
    // stateless result both times.
    auto codec = makeCodec(GetParam());
    auto pages = makePages(6);
    auto srcs = viewsOf(pages);
    auto state = codec->makeBatchState();
    std::vector<std::uint8_t> dst(codec->compressBound(pageSize));
    std::vector<std::uint8_t> solo(codec->compressBound(pageSize));

    auto check = [&](std::size_t i) {
        std::size_t got = codec->compress(
            srcs[i], {dst.data(), dst.size()}, state.get());
        std::size_t want =
            codec->compress(srcs[i], {solo.data(), solo.size()});
        ASSERT_EQ(got, want) << "page " << i;
        EXPECT_TRUE(std::equal(dst.begin(),
                               dst.begin() + static_cast<long>(got),
                               solo.begin()))
            << "page " << i;
    };
    for (std::size_t i = 0; i < srcs.size(); ++i)
        check(i);
    for (std::size_t i = srcs.size(); i-- > 0;)
        check(i);
}

TEST_P(CodecBatch, ChunkedFrameStatefulMatchesStateless)
{
    auto codec = makeCodec(GetParam());
    auto state = codec->makeBatchState();
    std::vector<std::uint8_t> out;
    std::vector<std::uint8_t> scratch;
    for (std::size_t chunk : {std::size_t{1024}, std::size_t{4096}}) {
        for (const auto &page : makePages(5)) {
            ConstBytes src{page.data(), page.size()};
            auto plain = ChunkedFrame::compress(*codec, src, chunk);
            auto stateful =
                ChunkedFrame::compress(*codec, src, chunk,
                                       state.get());
            EXPECT_EQ(plain, stateful);
            std::size_t n = ChunkedFrame::compressInto(
                *codec, src, chunk, state.get(), out, scratch);
            ASSERT_EQ(n, plain.size());
            EXPECT_EQ(out, plain);
        }
    }
}

TEST_P(CodecBatch, CompressedSizeEachMatchesOne)
{
    // A reclaim batch sized page by page through one compressor, whose
    // buffers and batch state are shared across the batch, against a
    // fresh compressor per page.
    PageSynthesizer synth(standardApps());
    auto codec = makeCodec(GetParam());

    std::vector<PageRef> pages;
    for (std::uint32_t i = 0; i < 24; ++i)
        pages.push_back(PageRef{PageKey{1000 + (i % 3), i * 17}, i % 2});

    PageCompressor batch_side(synth);
    std::vector<std::size_t> sizes;
    for (const PageRef &page : pages)
        sizes.push_back(batch_side.size({&page, 1}, *codec, 1024));

    for (std::size_t i = 0; i < pages.size(); ++i) {
        PageCompressor one_side(synth);
        EXPECT_EQ(sizes[i], one_side.size({&pages[i], 1}, *codec, 1024))
            << "page " << i;
    }

    // And the batch was remembered: a re-run is all hits.
    std::uint64_t misses_before = batch_side.cacheMisses();
    for (std::size_t i = 0; i < pages.size(); ++i)
        EXPECT_EQ(batch_side.size({&pages[i], 1}, *codec, 1024), sizes[i]);
    EXPECT_EQ(batch_side.cacheMisses(), misses_before);
}

INSTANTIATE_TEST_SUITE_P(
    AllCodecs, CodecBatch, ::testing::ValuesIn(allCodecKinds()),
    [](const ::testing::TestParamInfo<CodecKind> &info) {
        return codecKindName(info.param);
    });
