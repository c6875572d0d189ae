/**
 * @file
 * PreDecomp — proactive, predictive decompression (§4.4).
 *
 * A small FIFO staging buffer of pre-decompressed pages. When a fault
 * decompresses the object at zpool sector s, the scheme asks the pool
 * for the object at the next position in sector order (Insight 3) and
 * stages its page here. A staged page keeps its zpool object intact;
 * a hit consumes the staged copy (hiding the decompression latency
 * from the fault), while FIFO eviction of an unused entry simply
 * reverts the page to its compressed state — matching the paper's
 * "otherwise, the data will be compressed again" at zero extra cost
 * because the compressed copy was never discarded.
 */

#ifndef ARIADNE_CORE_PREDECOMP_HH
#define ARIADNE_CORE_PREDECOMP_HH

#include <cstdint>
#include <deque>
#include <unordered_map>

#include "mem/page.hh"

namespace ariadne
{

/** FIFO staging buffer for pre-decompressed pages. */
class PreDecomp
{
  public:
    /**
     * @param capacity_pages Buffer capacity (paper: small FIFO).
     */
    explicit PreDecomp(std::size_t capacity_pages)
        : capacity(capacity_pages)
    {}

    /**
     * Stage @p page (currently compressed, single-page unit).
     * If the buffer is full the oldest entry is evicted first; the
     * evicted page's location reverts to Zpool.
     * @return false when the page was already staged or capacity is 0.
     */
    bool stage(PageMeta &page);

    /**
     * Consume a staged page on access (hit). The page's location is
     * left for the caller to set to Resident.
     * @return true when @p page was staged.
     */
    bool consume(PageMeta &page);

    /** Drop a staged page without counting a hit (page freed). */
    void invalidate(PageMeta &page);

    /** True when @p page currently sits in the buffer. */
    bool contains(const PageMeta &page) const;

    std::size_t size() const noexcept { return present.size(); }
    std::size_t capacityPages() const noexcept { return capacity; }

    /** Successful consumptions (prediction hits). */
    std::uint64_t hits() const noexcept { return hitCount; }

    /** Pages staged in total. */
    std::uint64_t staged() const noexcept { return stageCount; }

    /** Entries evicted unused (wasted pre-decompressions). */
    std::uint64_t wasted() const noexcept { return wasteCount; }

    /** Hit rate over staged pages (0 when nothing staged). */
    double
    hitRate() const noexcept
    {
        return stageCount ? static_cast<double>(hitCount) /
                                static_cast<double>(stageCount)
                          : 0.0;
    }

  private:
    void evictOldest();

    std::size_t capacity;
    std::deque<PageMeta *> order;
    std::unordered_map<const PageMeta *, bool> present;
    std::uint64_t hitCount = 0;
    std::uint64_t stageCount = 0;
    std::uint64_t wasteCount = 0;
};

} // namespace ariadne

#endif // ARIADNE_CORE_PREDECOMP_HH
