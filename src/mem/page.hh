/**
 * @file
 * Anonymous-page metadata.
 *
 * The simulator tracks anonymous pages as metadata records; page
 * *contents* are a deterministic function of (uid, pfn, version)
 * materialized on demand by a PageContentSource (the workload's
 * synthesizer). This keeps host memory bounded while every
 * compression still runs the real codec over real bytes.
 */

#ifndef ARIADNE_MEM_PAGE_HH
#define ARIADNE_MEM_PAGE_HH

#include <cstdint>
#include <vector>

#include "compress/codec.hh"
#include "sim/types.hh"

namespace ariadne
{

class LruList;

/**
 * Hotness level of anonymous data (§1): hot is used during relaunch,
 * warm potentially during execution after relaunch, cold usually not
 * again. Used both as workload ground truth and as the level of the
 * list a scheme keeps a page on.
 */
enum class Hotness : std::uint8_t { Hot = 0, Warm = 1, Cold = 2 };

/** Stable display name of a hotness level. */
const char *hotnessName(Hotness h) noexcept;

/** Where a page's data currently lives. */
enum class PageLocation : std::uint8_t
{
    Resident, //!< uncompressed in main memory
    Zpool,    //!< compressed in the DRAM zpool
    Flash,    //!< in the flash swap space
    Staged,   //!< pre-decompressed in the PreDecomp buffer
    Lost,     //!< dropped under extreme pressure (app data loss)
};

/** Identity of a page: owning app plus page frame number. */
struct PageKey
{
    AppId uid = invalidApp;
    Pfn pfn = invalidPfn;

    bool operator==(const PageKey &o) const noexcept = default;
};

/**
 * Metadata record for one anonymous page: identity, the scheme's
 * view of it (list level, location) and intrusive LRU hooks managed
 * exclusively by LruList. Schemes find victims by popping list
 * tails, never by scanning records, so all of a page's state lives
 * here (80 bytes on x86-64).
 */
struct PageMeta
{
    PageKey key;
    /** Content version; bumps when the app overwrites the page. */
    std::uint32_t version = 0;
    /** Ground-truth hotness assigned by the workload generator. */
    Hotness truth = Hotness::Cold;
    /** Which hotness list the scheme currently keeps the page on. */
    Hotness level = Hotness::Cold;
    /** Where the page's data currently lives. */
    PageLocation location = PageLocation::Resident;
    /** zpool object holding this page (invalid when not in zpool). */
    std::uint64_t objectId = UINT64_MAX;
    /** Index of this page inside a multi-page compressed object. */
    std::uint32_t objectSlot = 0;
    /** Flash slot holding this page (invalid when not in flash). */
    std::uint64_t flashSlot = UINT64_MAX;

    // Intrusive LRU hooks; only LruList may touch these.
    PageMeta *lruPrev = nullptr;
    PageMeta *lruNext = nullptr;
    LruList *lruOwner = nullptr;

    // Arena bookkeeping; only PageArena may touch these. The index
    // survives free()/alloc() recycling of the record.
    std::uint32_t arenaIndex = UINT32_MAX;
    bool arenaFree = false;
};

/**
 * Supplier of page contents. Implemented by the workload synthesizer;
 * materialize() must be a pure function of (uid, pfn, version) so the
 * same page always yields identical bytes, and safe to call from
 * several threads at once: a fleet worker's codec helpers
 * (swap/codec_pool.hh) materialize the pages of one size batch
 * concurrently. PageSynthesizer only reads its pools.
 */
class PageContentSource
{
  public:
    virtual ~PageContentSource() = default;

    /** Fill @p out (pageSize bytes) with the page's contents. */
    virtual void materialize(const PageKey &key, std::uint32_t version,
                             MutableBytes out) const = 0;

    /**
     * Append to @p out every input besides (uid, pfn, version) that
     * decides the bytes of @p uid's pages, such that any two sources
     * appending equal bytes for a uid materialize identical pages for
     * every (pfn, version). Returns false if the source cannot name
     * them; sizes of that uid's pages are then never shared beyond
     * this source.
     */
    virtual bool
    contentInputs(AppId /*uid*/,
                  std::vector<std::uint8_t> & /*out*/) const
    {
        return false;
    }
};

} // namespace ariadne

#endif // ARIADNE_MEM_PAGE_HH
