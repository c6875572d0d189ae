/**
 * @file
 * Torture tests for overlapping LZ matches: a match whose offset is
 * shorter than its length reads bytes its own copy produces, which is
 * exactly where a decoder that moves more than one byte at a time
 * corrupts output. Every small offset the encoders can emit gets an
 * explicit replication round trip through both LZ codecs.
 */

#include <gtest/gtest.h>

#include "codec_test_util.hh"
#include "compress/lz4.hh"
#include "compress/lzo.hh"

using namespace ariadne;
using namespace ariadne::testutil;

namespace
{

/** A page that forces matches at exactly @p offset: a seed of
 * `offset` distinct bytes replicated to the full length. */
std::vector<std::uint8_t>
replicatedPage(std::size_t offset, std::size_t n)
{
    std::vector<std::uint8_t> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<std::uint8_t>(
            i < offset ? 0x41 + i : v[i - offset]);
    return v;
}

/** RLE-style page: runs of one repeated byte, lengths from @p rng. */
std::vector<std::uint8_t>
rlePage(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::uint8_t> v;
    v.reserve(n);
    while (v.size() < n) {
        std::size_t run =
            std::min<std::size_t>(1 + rng.below(200), n - v.size());
        v.insert(v.end(), run,
                 static_cast<std::uint8_t>(rng.next32()));
    }
    return v;
}

} // namespace

class CodecOverlapTorture : public ::testing::TestWithParam<int>
{
};

TEST_P(CodecOverlapTorture, ReplicatedPagesEveryOffset)
{
    Lz4Codec lz4;
    LzoCodec lzo;
    std::size_t offset = static_cast<std::size_t>(GetParam());
    for (std::size_t n : {64u, 1024u, 4096u}) {
        auto src = replicatedPage(offset, n);
        EXPECT_EQ(roundtrip(lz4, src), src)
            << "lz4 offset=" << offset << " n=" << n;
        EXPECT_EQ(roundtrip(lzo, src), src)
            << "lzo offset=" << offset << " n=" << n;
    }
}

INSTANTIATE_TEST_SUITE_P(Offsets1To16, CodecOverlapTorture,
                         ::testing::Range(1, 17));

TEST(CodecOverlapTorture, RlePages)
{
    Lz4Codec lz4;
    LzoCodec lzo;
    for (std::uint64_t seed = 0; seed < 32; ++seed) {
        auto src = rlePage(4096, seed);
        EXPECT_EQ(roundtrip(lz4, src), src) << "seed=" << seed;
        EXPECT_EQ(roundtrip(lzo, src), src) << "seed=" << seed;
    }
}

TEST(CodecOverlapTorture, MatchEndingAtPageEnd)
{
    // Matches that run right up to the output end: build pages whose
    // final bytes are replicas at every small offset.
    Lz4Codec lz4;
    LzoCodec lzo;
    Rng rng(99);
    for (std::size_t offset = 1; offset <= 16; ++offset) {
        auto src = randomBuffer(4096, rng.next64());
        // Tail: 64 bytes replicating at `offset`.
        for (std::size_t i = 4096 - 64; i < 4096; ++i)
            src[i] = src[i - offset];
        EXPECT_EQ(roundtrip(lz4, src), src) << "offset=" << offset;
        EXPECT_EQ(roundtrip(lzo, src), src) << "offset=" << offset;
    }
}

TEST(CodecOverlapTorture, FuzzRandomStructuredPages)
{
    // Fuzz round-trip over structured random pages (the ASan/UBSan CI
    // job runs this binary; the sanitizers are the real assertion).
    Lz4Codec lz4;
    LzoCodec lzo;
    Rng rng(0xD1CE);
    for (int trial = 0; trial < 100; ++trial) {
        auto src = mixedBuffer(1 + rng.below(8192), rng.next64());
        EXPECT_EQ(roundtrip(lz4, src), src) << "trial=" << trial;
        EXPECT_EQ(roundtrip(lzo, src), src) << "trial=" << trial;
    }
}
