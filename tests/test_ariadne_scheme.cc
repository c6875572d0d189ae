/** @file Unit tests for the integrated AriadneScheme. */

#include <gtest/gtest.h>

#include "core/ariadne.hh"
#include "scheme_test_util.hh"

using namespace ariadne;
using namespace ariadne::testutil;

namespace
{

AriadneConfig
testConfig(const std::string &text = "EHL-1K-2K-16K")
{
    AriadneConfig cfg = AriadneConfig::parse(text);
    cfg.zpoolBytes = 2048 * pageSize;
    cfg.flashBytes = 4096 * pageSize;
    cfg.defaultHotInitPages = 8;
    return cfg;
}

} // namespace

TEST(AriadneScheme, ColdBatchedIntoLargeUnits)
{
    SchemeHarness h(512);
    AriadneScheme scheme(h.context(), testConfig());
    scheme.seedProfile(1, 4);
    auto pages = h.admitPages(scheme, 1, 20);
    // Lists: hot {0..3}, cold {4..19}.
    std::size_t freed = scheme.reclaim(8, false);
    EXPECT_EQ(freed, 8u);
    // Victims are the oldest cold pages, 4 per 16 KB unit.
    for (std::size_t i = 4; i < 12; ++i)
        EXPECT_EQ(pages[i]->location, PageLocation::Zpool) << i;
    // Two units of four pages = two compression ops.
    EXPECT_EQ(scheme.totalStats().compOps, 2u);
    EXPECT_EQ(scheme.totalStats().inBytes, 8 * pageSize);
}

TEST(AriadneScheme, EhlProtectsHotList)
{
    SchemeHarness h(512);
    AriadneScheme scheme(h.context(), testConfig("EHL-1K-2K-16K"));
    scheme.seedProfile(1, 8);
    auto pages = h.admitPages(scheme, 1, 16);
    // Ask for more than cold+warm can provide: background reclaim
    // must stop rather than touch the hot list.
    std::size_t freed = scheme.reclaim(16, false);
    EXPECT_EQ(freed, 8u); // only the 8 cold pages
    for (std::size_t i = 0; i < 8; ++i)
        EXPECT_EQ(pages[i]->location, PageLocation::Resident) << i;
}

TEST(AriadneScheme, EhlEmergencyDirectReclaimTakesHot)
{
    SchemeHarness h(512);
    AriadneScheme scheme(h.context(), testConfig("EHL-1K-2K-16K"));
    scheme.seedProfile(1, 8);
    h.admitPages(scheme, 1, 8); // hot only
    std::size_t freed = scheme.reclaim(4, true); // direct = emergency
    EXPECT_EQ(freed, 4u);
}

TEST(AriadneScheme, AlCompressesHotOnBackground)
{
    SchemeHarness h(512);
    AriadneScheme scheme(h.context(), testConfig("AL-1K-2K-16K"));
    scheme.seedProfile(1, 8);
    auto pages = h.admitPages(scheme, 1, 8);
    scheme.onBackground(1);
    for (PageMeta *p : pages)
        EXPECT_EQ(p->location, PageLocation::Zpool);
    EXPECT_GT(scheme.backgroundReclaimCpuNs(), 0u);
    // Hot data compressed at SmallSize: single-page units.
    EXPECT_EQ(scheme.totalStats().compOps, 8u);
}

TEST(AriadneScheme, ColdUnitFaultResidentizesWholeUnit)
{
    SchemeHarness h(512);
    AriadneScheme scheme(h.context(), testConfig());
    scheme.seedProfile(1, 4);
    auto pages = h.admitPages(scheme, 1, 12);
    scheme.reclaim(8, false); // pages 4..11 into two cold units
    ASSERT_EQ(pages[4]->location, PageLocation::Zpool);

    SwapInResult res = scheme.swapIn(*pages[4]);
    EXPECT_GT(res.latencyNs, 0u);
    // Fig. 9(b): the whole 4-page unit came back.
    for (std::size_t i = 4; i < 8; ++i)
        EXPECT_EQ(pages[i]->location, PageLocation::Resident) << i;
    EXPECT_EQ(scheme.faultsByLevel(Hotness::Cold), 1u);
}

TEST(AriadneScheme, PreDecompChainsThroughSequentialFaults)
{
    SchemeHarness h(512);
    AriadneScheme scheme(h.context(), testConfig("AL-1K-2K-16K"));
    scheme.seedProfile(1, 16);
    auto pages = h.admitPages(scheme, 1, 16); // all hot
    scheme.onBackground(1); // compressed as 16 single-page units
    // Sequential touches: first faults, then the chain stages ahead.
    scheme.swapIn(*pages[0]);
    std::size_t staged_hits = 0;
    for (std::size_t i = 1; i < 16; ++i) {
        if (pages[i]->location == PageLocation::Staged) {
            SwapInResult res = scheme.swapIn(*pages[i]);
            EXPECT_TRUE(res.stagedHit);
            ++staged_hits;
        } else if (pages[i]->location == PageLocation::Resident) {
            scheme.onAccess(*pages[i]); // pre-swapped ahead
        } else {
            scheme.swapIn(*pages[i]);
        }
    }
    EXPECT_GT(staged_hits + scheme.preDecomp().hits(), 8u);
}

TEST(AriadneScheme, StagedHitIsMuchCheaperThanFault)
{
    SchemeHarness h(512);
    AriadneScheme scheme(h.context(), testConfig("AL-1K-2K-16K"));
    scheme.seedProfile(1, 8);
    auto pages = h.admitPages(scheme, 1, 8);
    scheme.onBackground(1);
    SwapInResult fault = scheme.swapIn(*pages[0]);
    ASSERT_EQ(pages[1]->location, PageLocation::Staged);
    SwapInResult hit = scheme.swapIn(*pages[1]);
    EXPECT_TRUE(hit.stagedHit);
    EXPECT_LT(hit.latencyNs, fault.latencyNs / 2);
}

TEST(AriadneScheme, ZpoolOverflowSpillsColdUnitsToFlashFirst)
{
    SchemeHarness h(4096);
    AriadneConfig cfg = testConfig();
    cfg.zpoolBytes = 32 * pageSize; // tiny pool forces writeback
    AriadneScheme scheme(h.context(), cfg);
    scheme.seedProfile(1, 8);
    auto pages = h.admitPages(scheme, 1, 512);
    scheme.reclaim(480, false);
    EXPECT_GT(scheme.flash()->hostWriteBytes(), 0u);
    EXPECT_EQ(scheme.lostPages(), 0u);
    // Some cold page must now be in flash; swapping it back works.
    PageMeta *flash_page = nullptr;
    for (PageMeta *p : pages) {
        if (p->location == PageLocation::Flash) {
            flash_page = p;
            break;
        }
    }
    ASSERT_NE(flash_page, nullptr);
    SwapInResult res = scheme.swapIn(*flash_page);
    EXPECT_TRUE(res.fromFlash);
    EXPECT_EQ(flash_page->location, PageLocation::Resident);
}

TEST(AriadneScheme, CompressedColdWritesLessFlashThanRaw)
{
    // D4: Ariadne writes compressed (not raw) data to flash.
    SchemeHarness h(4096);
    AriadneConfig cfg = testConfig();
    cfg.zpoolBytes = 32 * pageSize;
    AriadneScheme scheme(h.context(), cfg);
    scheme.seedProfile(1, 8);
    h.admitPages(scheme, 1, 512);
    scheme.reclaim(480, false);
    const CompStats stats = scheme.totalStats();
    // Everything written to flash was compressed.
    EXPECT_LT(scheme.flash()->hostWriteBytes(),
              static_cast<std::uint64_t>(stats.inBytes));
}

TEST(AriadneScheme, RelaunchWindowRoutesFaultsToHot)
{
    SchemeHarness h(512);
    AriadneScheme scheme(h.context(), testConfig());
    scheme.seedProfile(1, 4);
    auto pages = h.admitPages(scheme, 1, 12);
    scheme.reclaim(8, false);
    scheme.onRelaunchStart(1);
    scheme.swapIn(*pages[4]);
    EXPECT_EQ(pages[4]->level, Hotness::Hot);
    scheme.onRelaunchEnd(1);
    auto predicted = scheme.predictedHotSet(1);
    EXPECT_EQ(predicted.size(), 1u);
    EXPECT_EQ(predicted[0].pfn, 4u);
}

TEST(AriadneScheme, NameReflectsConfig)
{
    SchemeHarness h(64);
    AriadneScheme scheme(h.context(), testConfig("AL-256-2K-32K"));
    EXPECT_EQ(scheme.name(), "Ariadne-AL-256-2K-32K");
}

TEST(AriadneScheme, OnFreeCleansUpEverywhere)
{
    SchemeHarness h(512);
    AriadneScheme scheme(h.context(), testConfig());
    scheme.seedProfile(1, 2);
    auto pages = h.admitPages(scheme, 1, 10);
    scheme.reclaim(4, false); // one cold unit {2,3,4,5}
    // Freeing one page of a multi-page unit keeps the others valid.
    scheme.onFree(*pages[2]);
    EXPECT_EQ(pages[2]->location, PageLocation::Lost);
    SwapInResult res = scheme.swapIn(*pages[3]);
    (void)res;
    EXPECT_EQ(pages[3]->location, PageLocation::Resident);
    // Freeing a resident page releases DRAM.
    std::size_t used = h.dram.usedPages();
    scheme.onFree(*pages[9]);
    EXPECT_EQ(h.dram.usedPages(), used - 1);
}
