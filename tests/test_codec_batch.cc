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

#include <array>
#include <string>
#include <vector>

#include "codec_test_util.hh"
#include "compress/batch_table.hh"
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

/** Compress @p src with @p state and without; the outputs must match. */
void
expectStatefulMatches(const Codec &codec, Codec::BatchState *state,
                      const std::vector<std::uint8_t> &src,
                      const std::string &what)
{
    std::vector<std::uint8_t> got(codec.compressBound(src.size()));
    std::vector<std::uint8_t> want(got.size());
    std::size_t n = codec.compress({src.data(), src.size()},
                                   {got.data(), got.size()}, state);
    std::size_t m =
        codec.compress({src.data(), src.size()}, {want.data(), want.size()});
    ASSERT_EQ(n, m) << what;
    got.resize(n);
    want.resize(m);
    EXPECT_EQ(got, want) << what;
}

class CodecBatch : public ::testing::TestWithParam<CodecKind>
{
};

/** FNV-1a over @p bytes, continuing from @p h. */
std::uint64_t
fnv1a64(std::uint64_t h, const std::vector<std::uint8_t> &bytes)
{
    for (std::uint8_t b : bytes) {
        h ^= b;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/**
 * One digest of every frame @p kind makes of a fixed corpus of
 * synthesized 1-page and 4-page units, framed at 1, 2, 4, 16 and 32
 * KiB, once through the stateless path (@p stateful false) or once
 * through one reused BatchState.
 */
std::uint64_t
corpusDigest(CodecKind kind, bool stateful)
{
    PageSynthesizer synth(standardApps());
    auto codec = makeCodec(kind);
    auto state = stateful ? codec->makeBatchState() : nullptr;
    std::vector<std::uint8_t> unit, frame, scratch;
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t pages : {std::size_t{1}, std::size_t{4}}) {
        for (AppId uid = 0; uid < 10; ++uid) {
            for (std::uint32_t k = 0; k < 3; ++k) {
                unit.resize(pages * pageSize);
                for (std::size_t p = 0; p < pages; ++p) {
                    synth.materialize(
                        PageKey{uid, static_cast<Pfn>(37 * k + 5 * p)},
                        k, {unit.data() + p * pageSize, pageSize});
                }
                ConstBytes src{unit.data(), unit.size()};
                for (std::size_t chunk : {1024, 2048, 4096, 16384, 32768}) {
                    if (stateful) {
                        ChunkedFrame::compressInto(*codec, src, chunk,
                                                   state.get(), frame,
                                                   scratch);
                    } else {
                        frame = ChunkedFrame::compress(*codec, src, chunk);
                    }
                    h = fnv1a64(h, frame);
                }
            }
        }
    }
    return h;
}

} // namespace

TEST(CodecBytes, FrameDigestsArePinned)
{
    // The compressed bytes themselves, not only their sizes: recorded
    // from the generation-1 match search. A faster search must leave
    // every digest unchanged; a deliberate format change re-records
    // them.
    constexpr std::array<std::uint64_t, 4> want = {
        0xe14cd1910e8c631dULL, // lz4
        0xec604caf35b20802ULL, // lzo
        0xc9e3e301c19b8cbfULL, // bdi
        0xec8aa2cb2464374fULL, // null
    };
    for (CodecKind kind : allCodecKinds()) {
        auto i = static_cast<std::size_t>(kind);
        EXPECT_EQ(corpusDigest(kind, false), want[i])
            << codecKindName(kind) << " stateless";
        EXPECT_EQ(corpusDigest(kind, true), want[i])
            << codecKindName(kind) << " stateful";
    }
}

TEST_P(CodecBatch, SharedStateIsOrderInsensitive)
{
    // One BatchState reused across the whole batch, pages compressed
    // twice in different orders: every output must equal the
    // stateless result both times.
    auto codec = makeCodec(GetParam());
    auto pages = makePages(6);
    auto state = codec->makeBatchState();
    for (std::size_t i = 0; i < pages.size(); ++i)
        expectStatefulMatches(*codec, state.get(), pages[i],
                              "page " + std::to_string(i));
    for (std::size_t i = pages.size(); i-- > 0;)
        expectStatefulMatches(*codec, state.get(), pages[i],
                              "page " + std::to_string(i));
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

TEST_P(CodecBatch, StatefulMatchesStatelessAcrossRefill)
{
    // Claims that walk the biased table up to the 32-bit wrap: the
    // first buffer ends exactly at the top, the next one zero-refills
    // and restarts the bias, where it meets the entries of the first
    // page compressed. Every frame must still equal a fresh table's.
    auto codec = makeCodec(GetParam());
    auto state = codec->makeBatchState();
    auto pages = makePages(8);
    expectStatefulMatches(*codec, state.get(), pages[0], "before");
    auto *pos = dynamic_cast<compress_detail::PosTableState *>(state.get());
    if (pos) {
        // Claim empty buffers until the next claim's bias is exactly
        // 2^32 - 1 - pageSize, so one page ends at the top.
        std::uint32_t bias = pos->claim(0);
        std::uint32_t step = pos->claim(0) - bias;
        std::uint64_t next = std::uint64_t{bias} + 2 * std::uint64_t{step};
        const std::uint64_t target = 0xffffffffULL - pageSize;
        while (next != target) {
            std::uint64_t n = std::min<std::uint64_t>(
                target - step - next, std::uint64_t{1} << 30);
            ASSERT_EQ(pos->claim(n), next);
            next += n + step;
        }
    }
    for (std::size_t i = 0; i < pages.size(); ++i)
        expectStatefulMatches(*codec, state.get(), pages[(i + 1) % 2],
                              "page " + std::to_string(i));
    if (pos) { // the table was refilled: biases restarted low
        EXPECT_LT(pos->claim(0), 1u << 20);
    }
}

TEST_P(CodecBatch, RepeatedTailWithinOneWindowMatchesStateless)
{
    // A buffer that opens with the previous buffer's last 1 KiB: its
    // first probes find the previous buffer's entries less than one
    // window away. The gap between claims must keep them invalid.
    auto codec = makeCodec(GetParam());
    auto state = codec->makeBatchState();
    for (std::size_t first : {std::size_t{4096}, std::size_t{16384}}) {
        auto a = randomBuffer(first, 0x3000 + first);
        auto b = randomBuffer(4096, 0x4000 + first);
        std::copy(a.end() - 1024, a.end(), b.begin());
        expectStatefulMatches(*codec, state.get(), a, "first");
        expectStatefulMatches(*codec, state.get(), b, "repeated tail");
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
