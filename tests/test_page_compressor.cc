/** @file Unit tests for the page compressor's size oracle. */

#include <gtest/gtest.h>

#include "compress/registry.hh"
#include "swap/page_compressor.hh"
#include "workload/apps.hh"
#include "workload/page_synth.hh"

using namespace ariadne;

class PageCompressorTest : public ::testing::Test
{
  protected:
    PageSynthesizer synth{standardApps()};
    PageCompressor compressor{synth};
    std::unique_ptr<Codec> lzo = makeCodec(CodecKind::Lzo);
    std::unique_ptr<Codec> lz4 = makeCodec(CodecKind::Lz4);

    std::size_t
    one(const PageRef &ref, const Codec &codec, std::size_t chunk)
    {
        return compressor.size({&ref, 1}, codec, chunk);
    }
};

TEST_F(PageCompressorTest, SizesArePlausible)
{
    std::size_t csize = one(PageRef{{0, 1}, 0}, *lzo, pageSize);
    EXPECT_GT(csize, 64u);
    EXPECT_LT(csize, pageSize + 256);
}

TEST_F(PageCompressorTest, CacheHitsOnRepeat)
{
    PageRef ref{{0, 1}, 0};
    std::size_t a = one(ref, *lzo, pageSize);
    EXPECT_EQ(compressor.cacheMisses(), 1u);
    std::size_t b = one(ref, *lzo, pageSize);
    EXPECT_EQ(a, b);
    EXPECT_EQ(compressor.cacheHits(), 1u);
    EXPECT_EQ(compressor.cacheMisses(), 1u);
}

TEST_F(PageCompressorTest, DistinctKeysMiss)
{
    PageRef ref{{0, 1}, 0};
    one(ref, *lzo, pageSize);
    one(ref, *lzo, 1024);                     // new chunk
    one(ref, *lz4, pageSize);                 // new codec
    one(PageRef{{0, 1}, 1}, *lzo, pageSize); // new version
    one(PageRef{{0, 2}, 0}, *lzo, pageSize); // new pfn
    EXPECT_EQ(compressor.cacheMisses(), 5u);
    EXPECT_EQ(compressor.cacheHits(), 0u);
}

TEST_F(PageCompressorTest, SmallChunksGiveWorseRatio)
{
    // Average over pages: larger chunks never compress worse.
    std::size_t small_total = 0, large_total = 0;
    for (Pfn pfn = 0; pfn < 32; ++pfn) {
        small_total += one(PageRef{{1, pfn}, 0}, *lz4, 256);
        large_total += one(PageRef{{1, pfn}, 0}, *lz4, pageSize);
    }
    EXPECT_LT(large_total, small_total);
}

TEST_F(PageCompressorTest, MultiPageUnitsCompressBetterPerByte)
{
    // A 4-page unit at 16 KB chunks vs the same pages individually.
    std::vector<PageRef> refs;
    for (Pfn pfn = 100; pfn < 104; ++pfn)
        refs.push_back(PageRef{{0, pfn}, 0});
    std::size_t unit = compressor.size(refs, *lz4, 16384);
    std::size_t individual = 0;
    for (const auto &ref : refs)
        individual += one(ref, *lz4, pageSize);
    EXPECT_LT(unit, individual);
}

TEST_F(PageCompressorTest, EmptyUnitIsZero)
{
    EXPECT_EQ(compressor.size({}, *lzo, 16384), 0u);
}

TEST_F(PageCompressorTest, TracksCompressedVolume)
{
    one(PageRef{{0, 5}, 0}, *lzo, pageSize);
    EXPECT_EQ(compressor.bytesCompressed(), pageSize);
    one(PageRef{{0, 5}, 0}, *lzo, pageSize);
    EXPECT_EQ(compressor.bytesCompressed(), pageSize); // cache hit
}
