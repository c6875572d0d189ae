/**
 * @file
 * Slab arena for PageMeta records.
 *
 * The simulator's hot loop allocates and looks up page metadata for
 * every touch; a general-purpose heap allocation per page (plus the
 * hashed map that used to own the unique_ptrs) dominated that loop.
 * The arena replaces both:
 *
 *  - records live in fixed-size slabs, so a PageMeta's address is
 *    stable for its whole lifetime (the intrusive LruList hooks and
 *    the zpool cookies that store raw PageMeta pointers stay valid
 *    across any number of later allocations);
 *  - a free-list recycles records in O(1) without returning memory to
 *    the heap, the way hemem's memsim keeps page structs in one flat
 *    pool;
 *  - reset() recycles the whole arena for the next simulated
 *    session, so a fleet worker thread reuses one warmed-up arena
 *    instead of re-faulting fresh slabs per session.
 *
 * Page state (level, location) lives in the PageMeta records
 * themselves (mem/page.hh); the arena only hands them out. Each
 * record keeps its slab index, so freeing a record that is not from
 * this arena, freeing it twice or freeing it while it is still linked
 * on an LRU list is a lifetime bug the arena detects immediately
 * (panic) instead of leaving to a later crash.
 */

#ifndef ARIADNE_MEM_PAGE_ARENA_HH
#define ARIADNE_MEM_PAGE_ARENA_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "mem/page.hh"

namespace ariadne
{

/** Slab allocator with free-list recycling for PageMeta records. */
class PageArena
{
  public:
    /** Records per slab; power of two so index math is shift/mask. */
    static constexpr std::size_t slabPages = std::size_t{1} << 12;

    PageArena() = default;
    PageArena(const PageArena &) = delete;
    PageArena &operator=(const PageArena &) = delete;

    /**
     * Allocate a record. The record is default-initialized (as a
     * fresh PageMeta) except for its arena index. Never invalidates
     * previously returned pointers.
     */
    PageMeta *alloc();

    /**
     * Return @p page to the free-list. The page must have come from
     * this arena, must not currently be linked on an LruList, and
     * must not already be free — violations panic.
     */
    void free(PageMeta &page);

    /**
     * Recycle the arena for a fresh session: every record returns to
     * the not-yet-handed-out pool while the slabs keep their memory.
     * All outstanding PageMeta pointers become invalid; the caller
     * must have dropped every structure that stored them (LRU lists,
     * page directories, zpool cookies).
     */
    void reset() noexcept;

    /** Currently allocated records. */
    std::size_t liveCount() const noexcept { return liveRecords; }

    /** Records ever created (live + free-listed). */
    std::size_t totalRecords() const noexcept { return freshUsed; }

    /** Slabs allocated so far. */
    std::size_t slabCount() const noexcept { return slabs.size(); }

  private:
    static constexpr std::uint32_t slabShift = 12;
    static constexpr std::uint32_t slabMask = slabPages - 1;

    void growSlab();

    std::vector<std::unique_ptr<PageMeta[]>> slabs;
    /** Free-list head, chained through PageMeta::lruNext. */
    PageMeta *freeHead = nullptr;
    /** Records handed out fresh so far (monotonic within a session;
     * rewound to zero by reset()). Indices [0, freshUsed) are the
     * records that exist. */
    std::size_t freshUsed = 0;
    std::size_t liveRecords = 0;
};

/**
 * Dense per-app page-frame bitmap (pfns are allocated densely from 0
 * by the workload generator). Used for touch-capture sets and
 * relaunch dedup where an unordered_set<Pfn> used to hash every
 * insert.
 */
class PfnBitmap
{
  public:
    /** Mark @p pfn; returns true when it was newly set. */
    bool
    set(Pfn pfn)
    {
        std::size_t word = static_cast<std::size_t>(pfn >> 6);
        if (word >= words.size())
            words.resize(word + 1 + words.size() / 2, 0);
        std::uint64_t bit = std::uint64_t{1} << (pfn & 63);
        if (words[word] & bit)
            return false;
        words[word] |= bit;
        return true;
    }

    /** True when @p pfn is marked. */
    bool
    test(Pfn pfn) const noexcept
    {
        std::size_t word = static_cast<std::size_t>(pfn >> 6);
        return word < words.size() &&
               (words[word] >> (pfn & 63)) & 1;
    }

    /** Clear all marks, keeping capacity. */
    void
    clear() noexcept
    {
        for (std::uint64_t &w : words)
            w = 0;
    }

    /** All marked pfns in ascending order. */
    std::vector<Pfn> toSortedVector() const;

    bool
    empty() const noexcept
    {
        for (std::uint64_t w : words)
            if (w)
                return false;
        return true;
    }

  private:
    std::vector<std::uint64_t> words;
};

} // namespace ariadne

#endif // ARIADNE_MEM_PAGE_ARENA_HH
