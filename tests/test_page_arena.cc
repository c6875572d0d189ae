/** @file Unit tests for the PageMeta slab arena and PfnBitmap. */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "mem/lru_list.hh"
#include "mem/page_arena.hh"

using namespace ariadne;

TEST(PageArena, AllocGivesFreshRecordsWithStableHandles)
{
    PageArena arena;
    PageMeta *a = arena.alloc();
    PageMeta *b = arena.alloc();
    ASSERT_NE(a, b);
    EXPECT_EQ(arena.liveCount(), 2u);
    EXPECT_EQ(a->location, PageLocation::Resident);
    EXPECT_EQ(a->lruOwner, nullptr);
}

TEST(PageArena, PageStateDefaultsOnEveryAllocPath)
{
    // Page state lives in the record itself without growing it.
    static_assert(sizeof(PageMeta) <= 80);
    auto expect_fresh = [](const PageMeta &page) {
        EXPECT_EQ(page.level, Hotness::Cold);
        EXPECT_EQ(page.location, PageLocation::Resident);
    };
    auto dirty = [](PageMeta &page) {
        page.level = Hotness::Hot;
        page.location = PageLocation::Zpool;
    };

    PageArena arena;
    PageMeta *a = arena.alloc();
    expect_fresh(*a);
    dirty(*a);
    // A neighbouring record is unaffected.
    PageMeta *b = arena.alloc();
    expect_fresh(*b);

    // A free-list-recycled record comes back fresh...
    arena.free(*a);
    PageMeta *recycled = arena.alloc();
    ASSERT_EQ(recycled, a);
    expect_fresh(*recycled);

    // ...and so does a record handed out again after reset().
    dirty(*recycled);
    dirty(*b);
    arena.reset();
    PageMeta *first = arena.alloc();
    PageMeta *second = arena.alloc();
    ASSERT_EQ(first, a);
    ASSERT_EQ(second, b);
    expect_fresh(*first);
    expect_fresh(*second);
}

TEST(PageArena, ResetRecyclesSlabsAndReinitializesRecords)
{
    PageArena arena;
    const std::size_t count = PageArena::slabPages + 5;
    std::vector<PageMeta *> first;
    for (std::size_t i = 0; i < count; ++i) {
        PageMeta *page = arena.alloc();
        page->key = PageKey{9, static_cast<Pfn>(i)};
        page->level = Hotness::Hot;
        page->location = PageLocation::Flash;
        first.push_back(page);
    }
    const std::size_t slabs_before = arena.slabCount();
    arena.reset();
    EXPECT_EQ(arena.liveCount(), 0u);
    // Slabs are retained for reuse...
    EXPECT_EQ(arena.slabCount(), slabs_before);
    // ...and re-allocation hands back the same records, fully reset
    // to fresh defaults despite the dirt left by the first life.
    for (std::size_t i = 0; i < count; ++i) {
        PageMeta *page = arena.alloc();
        EXPECT_EQ(page, first[i]);
        EXPECT_EQ(page->key.pfn, PageKey{}.pfn);
        EXPECT_EQ(page->level, Hotness::Cold);
        EXPECT_EQ(page->location, PageLocation::Resident);
    }
    EXPECT_EQ(arena.slabCount(), slabs_before);
    EXPECT_EQ(arena.liveCount(), count);
}

TEST(PageArena, ResetAfterFreeDiscardsFreeList)
{
    // A free-list survivor from before reset() must not leak into the
    // fresh allocation order (reset rewinds to slab start instead).
    PageArena arena;
    PageMeta *a = arena.alloc();
    PageMeta *b = arena.alloc();
    arena.free(*b);
    arena.reset();
    PageMeta *first = arena.alloc();
    EXPECT_EQ(first, a); // slab slot 0, not the stale free-list head b
    EXPECT_EQ(arena.liveCount(), 1u);
}

TEST(PageArena, PointersStayValidAcrossSlabGrowth)
{
    // Allocate well past one slab and make sure early records
    // survive every growth step.
    PageArena arena;
    std::vector<PageMeta *> pages;
    const std::size_t count = PageArena::slabPages * 3 + 17;
    for (std::size_t i = 0; i < count; ++i) {
        PageMeta *page = arena.alloc();
        page->key = PageKey{1, static_cast<Pfn>(i)};
        pages.push_back(page);
    }
    EXPECT_GE(arena.slabCount(), 4u);
    EXPECT_EQ(arena.liveCount(), count);
    for (std::size_t i = 0; i < count; ++i)
        EXPECT_EQ(pages[i]->key.pfn, static_cast<Pfn>(i));
}

TEST(PageArena, FreeListRecyclesRecords)
{
    PageArena arena;
    PageMeta *a = arena.alloc();
    a->key = PageKey{7, 99};
    arena.free(*a);
    EXPECT_EQ(arena.liveCount(), 0u);

    // The freed record comes back first, reset to a fresh PageMeta.
    PageMeta *b = arena.alloc();
    EXPECT_EQ(b, a);
    EXPECT_EQ(b->key.pfn, PageKey{}.pfn); // reset, not our 99
    EXPECT_EQ(b->lruOwner, nullptr);
    EXPECT_EQ(arena.liveCount(), 1u);
    // No new slab was needed for the recycled record.
    EXPECT_EQ(arena.slabCount(), 1u);
}

TEST(PageArena, RecyclingDoesNotDisturbLiveListMembers)
{
    // Free half the records while the other half stays linked on a
    // live intrusive list; recycled records must not corrupt it.
    PageArena arena;
    LruList list;
    std::vector<PageMeta *> kept;
    std::vector<PageMeta *> dropped;
    for (std::size_t i = 0; i < 256; ++i) {
        PageMeta *page = arena.alloc();
        page->key = PageKey{1, static_cast<Pfn>(i)};
        if (i % 2 == 0) {
            list.pushFront(*page);
            kept.push_back(page);
        } else {
            dropped.push_back(page);
        }
    }
    for (PageMeta *page : dropped)
        arena.free(*page);
    // Recycle: the new allocations reuse exactly the dropped records.
    std::set<PageMeta *> recycled;
    for (std::size_t i = 0; i < dropped.size(); ++i)
        recycled.insert(arena.alloc());
    EXPECT_EQ(recycled,
              std::set<PageMeta *>(dropped.begin(), dropped.end()));
    // The list still holds every kept page, newest first.
    EXPECT_EQ(list.size(), kept.size());
    PageMeta *cursor = list.front();
    for (auto it = kept.rbegin(); it != kept.rend(); ++it) {
        ASSERT_NE(cursor, nullptr);
        EXPECT_EQ(cursor, *it);
        cursor = cursor->lruNext;
    }
    EXPECT_EQ(cursor, nullptr);
}

TEST(PageArenaDeathTest, DoubleFreePanics)
{
    PageArena arena;
    PageMeta *page = arena.alloc();
    arena.free(*page);
    EXPECT_DEATH(arena.free(*page), "double free");
}

TEST(PageArenaDeathTest, FreeWhileOnListPanics)
{
    PageArena arena;
    LruList list;
    PageMeta *page = arena.alloc();
    list.pushFront(*page);
    EXPECT_DEATH(arena.free(*page), "still linked");
}

TEST(PageArenaDeathTest, ForeignRecordPanics)
{
    PageArena arena;
    arena.alloc();
    PageMeta stray;
    stray.arenaIndex = 0; // plausible index, wrong address
    EXPECT_DEATH(arena.free(stray), "not from this arena");
}

TEST(PfnBitmap, SetTestAndSortedExtraction)
{
    PfnBitmap bits;
    EXPECT_TRUE(bits.empty());
    EXPECT_TRUE(bits.set(130));
    EXPECT_TRUE(bits.set(2));
    EXPECT_TRUE(bits.set(63));
    EXPECT_FALSE(bits.set(130)); // already set
    EXPECT_TRUE(bits.test(63));
    EXPECT_FALSE(bits.test(64));
    EXPECT_FALSE(bits.empty());
    EXPECT_EQ(bits.toSortedVector(),
              (std::vector<Pfn>{2, 63, 130}));
    bits.clear();
    EXPECT_TRUE(bits.empty());
    EXPECT_FALSE(bits.test(130));
}
