/** @file Unit tests for HotnessOrg (three-list data organization). */

#include <gtest/gtest.h>

#include <vector>

#include "core/hotness_org.hh"
#include "mem/page_arena.hh"

using namespace ariadne;

class HotnessOrgTest : public ::testing::Test
{
  protected:
    HotnessOrgTest() : org(&ops, profiles)
    {
        profiles.seed(1, 4);
    }

    PageMeta &
    page(AppId uid, Pfn pfn)
    {
        PageMeta *p = arena.alloc(); // alloc() defaults to Resident
        p->key = PageKey{uid, pfn};
        pages.push_back(p);
        return *p;
    }

    Counter ops;
    ProfileStore profiles{4};
    PageArena arena;
    HotnessOrg org;
    std::vector<PageMeta *> pages;
};

TEST_F(HotnessOrgTest, LaunchSeedsHotListToProfileSize)
{
    // First 4 admissions (the profile size) go hot, the rest cold.
    for (Pfn i = 0; i < 10; ++i)
        org.admit(page(1, i), 100 + i);
    EXPECT_EQ(org.listSize(1, Hotness::Hot), 4u);
    EXPECT_EQ(org.listSize(1, Hotness::Cold), 6u);
    EXPECT_EQ(org.listSize(1, Hotness::Warm), 0u);
}

TEST_F(HotnessOrgTest, ColdTouchPromotesToWarm)
{
    for (Pfn i = 0; i < 8; ++i)
        org.admit(page(1, i), i);
    PageMeta &cold_page = *pages[6]; // beyond the hot seed
    ASSERT_EQ(cold_page.level, Hotness::Cold);
    org.touchResident(cold_page, 100);
    EXPECT_EQ(cold_page.level, Hotness::Warm);
    EXPECT_EQ(org.listSize(1, Hotness::Warm), 1u);
    EXPECT_EQ(org.listSize(1, Hotness::Cold), 3u);
}

TEST_F(HotnessOrgTest, RelaunchDemotesOldHotAndRebuilds)
{
    for (Pfn i = 0; i < 8; ++i)
        org.admit(page(1, i), i);
    org.beginRelaunch(1, 1000);
    // Old hot list drained into warm.
    EXPECT_EQ(org.listSize(1, Hotness::Hot), 0u);
    EXPECT_EQ(org.listSize(1, Hotness::Warm), 4u);
    EXPECT_TRUE(org.inRelaunch(1));
    // Touches during the relaunch window promote to hot.
    org.touchResident(*pages[0], 1001);
    org.touchResident(*pages[5], 1002); // was cold
    EXPECT_EQ(org.listSize(1, Hotness::Hot), 2u);
    org.endRelaunch(1);
    EXPECT_FALSE(org.inRelaunch(1));
    // The observed relaunch size feeds the profile store.
    EXPECT_EQ(profiles.hotInitPages(1), (4 + 2 + 1) / 2);
}

TEST_F(HotnessOrgTest, PredictedHotSetTracksRelaunchTouches)
{
    for (Pfn i = 0; i < 6; ++i)
        org.admit(page(1, i), i);
    org.beginRelaunch(1, 10);
    org.touchResident(*pages[2], 11);
    org.touchResident(*pages[3], 12);
    org.touchResident(*pages[2], 13); // duplicate, counted once
    org.endRelaunch(1);
    auto predicted = org.predictedHotSet(1);
    ASSERT_EQ(predicted.size(), 2u);
    EXPECT_EQ(predicted[0].pfn, 2u);
    EXPECT_EQ(predicted[1].pfn, 3u);
}

TEST_F(HotnessOrgTest, EvictionOrderColdWarmHot)
{
    profiles.seed(1, 2);
    for (Pfn i = 0; i < 6; ++i)
        org.admit(page(1, i), i);
    org.touchResident(*pages[3], 50); // cold -> warm
    // Lists now: hot {0,1}, warm {3}, cold {2,4,5}.
    EXPECT_EQ(org.popVictim(Hotness::Cold)->key.pfn, 2u);
    EXPECT_EQ(org.popVictim(Hotness::Cold)->key.pfn, 4u);
    EXPECT_EQ(org.popVictim(Hotness::Cold)->key.pfn, 5u);
    EXPECT_EQ(org.popVictim(Hotness::Cold), nullptr);
    EXPECT_EQ(org.popVictim(Hotness::Warm)->key.pfn, 3u);
    EXPECT_EQ(org.popVictim(Hotness::Hot)->key.pfn, 0u);
}

TEST_F(HotnessOrgTest, CrossAppLruOrder)
{
    profiles.seed(2, 4);
    for (Pfn i = 0; i < 6; ++i)
        org.admit(page(1, i), 10 + i);
    for (Pfn i = 0; i < 6; ++i)
        org.admit(page(2, i), 100 + i);
    // App 1 is older: its cold pages are victimized first.
    PageMeta *victim = org.popVictim(Hotness::Cold);
    ASSERT_NE(victim, nullptr);
    EXPECT_EQ(victim->key.uid, 1u);
    // Touching app 1 makes app 2 the oldest.
    org.touchResident(*pages[1], 1000);
    victim = org.popVictim(Hotness::Cold);
    ASSERT_NE(victim, nullptr);
    EXPECT_EQ(victim->key.uid, 2u);
}

TEST_F(HotnessOrgTest, PlaceAfterSwapInDependsOnWindow)
{
    for (Pfn i = 0; i < 5; ++i)
        org.admit(page(1, i), i);
    PageMeta &p = page(1, 100);
    org.placeAfterSwapIn(p, 200); // outside a relaunch -> warm
    EXPECT_EQ(p.level, Hotness::Warm);

    PageMeta &q = page(1, 101);
    org.beginRelaunch(1, 300);
    org.placeAfterSwapIn(q, 301); // inside a relaunch -> hot
    EXPECT_EQ(q.level, Hotness::Hot);
    org.endRelaunch(1);
}

TEST_F(HotnessOrgTest, ColdSiblingsStayCold)
{
    org.admit(page(1, 0), 0);
    PageMeta &sibling = page(1, 50);
    org.placeColdSibling(sibling, 10);
    EXPECT_EQ(sibling.level, Hotness::Cold);
}

TEST_F(HotnessOrgTest, UnlinkIsIdempotent)
{
    org.admit(page(1, 0), 0);
    PageMeta &p = *pages[0];
    org.unlink(p);
    EXPECT_EQ(p.lruOwner, nullptr);
    org.unlink(p); // second unlink must be a no-op
}

TEST_F(HotnessOrgTest, PopVictimFromSpecificApp)
{
    profiles.seed(2, 1);
    for (Pfn i = 0; i < 4; ++i)
        org.admit(page(1, i), i);
    for (Pfn i = 0; i < 4; ++i)
        org.admit(page(2, i), 100 + i);
    PageMeta *victim = org.popVictim(2, Hotness::Cold);
    ASSERT_NE(victim, nullptr);
    EXPECT_EQ(victim->key.uid, 2u);
    EXPECT_EQ(org.popVictim(3, Hotness::Cold), nullptr);
}

TEST_F(HotnessOrgTest, ListOperationsAreCounted)
{
    std::uint64_t before = ops.value();
    for (Pfn i = 0; i < 8; ++i)
        org.admit(page(1, i), i);
    EXPECT_GE(ops.value() - before, 8u);
}
