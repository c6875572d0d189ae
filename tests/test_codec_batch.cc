/**
 * @file
 * Property tests for the stateful codec path: compressing under a
 * shared BatchState must produce byte-identical output (and identical
 * sizes) to the stateless calls, for every codec kind, in any call
 * order. This is the contract that lets PageCompressor::size share one
 * batch state across every unit it sizes without perturbing
 * exact-mode reports.
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
