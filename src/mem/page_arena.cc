#include "mem/page_arena.hh"

#include "sim/log.hh"

namespace ariadne
{

void
PageArena::growSlab()
{
    fatalIf(slabs.size() * slabPages + slabPages > std::size_t{UINT32_MAX},
            "PageArena exhausted its 32-bit index space");
    slabs.push_back(std::make_unique<PageMeta[]>(slabPages));
}

PageMeta *
PageArena::alloc()
{
    PageMeta *page;
    std::uint32_t index;
    if (freeHead) {
        page = freeHead;
        freeHead = page->lruNext;
        index = page->arenaIndex;
    } else {
        // After a reset() the fresh path re-walks slabs that were
        // handed out before, so records are re-initialized here, not
        // just on free-list recycling.
        if (freshUsed == slabs.size() * slabPages)
            growSlab();
        index = static_cast<std::uint32_t>(freshUsed);
        ++freshUsed;
        page = &slabs[index >> slabShift][index & slabMask];
    }
    *page = PageMeta{};
    page->arenaIndex = index;
    ++liveRecords;
    return page;
}

void
PageArena::free(PageMeta &page)
{
    std::uint32_t index = page.arenaIndex;
    panicIf(index >= totalRecords() ||
                &slabs[index >> slabShift][index & slabMask] != &page,
            "PageArena::free on a record not from this arena");
    panicIf(page.arenaFree, "PageArena::free: double free");
    panicIf(page.lruOwner != nullptr,
            "PageArena::free: record still linked on an LruList");
    page.arenaFree = true;
    page.lruNext = freeHead;
    freeHead = &page;
    --liveRecords;
}

void
PageArena::reset() noexcept
{
    // Records do not need scrubbing here: alloc() fully re-initializes
    // a record whichever path hands it out.
    freeHead = nullptr;
    freshUsed = 0;
    liveRecords = 0;
}

std::vector<Pfn>
PfnBitmap::toSortedVector() const
{
    std::vector<Pfn> out;
    for (std::size_t w = 0; w < words.size(); ++w) {
        std::uint64_t bits = words[w];
        while (bits) {
            unsigned bit =
                static_cast<unsigned>(__builtin_ctzll(bits));
            out.push_back(static_cast<Pfn>(w * 64 + bit));
            bits &= bits - 1;
        }
    }
    return out;
}

} // namespace ariadne
