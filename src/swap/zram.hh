/**
 * @file
 * Baseline ZRAM scheme (state of the art in the paper, §2.2/§5).
 *
 * Reproduces modern Android behaviour: single-page (4 KB) compression
 * chunks, LRU victim selection with per-application page grouping and
 * an LRU order across applications, on-demand decompression only (no
 * speculation), and a zpool of configurable size S. With `writeback`
 * enabled the scheme becomes ZSWAP: when the zpool fills, the oldest
 * compressed objects spill to the flash swap space instead of being
 * dropped.
 */

#ifndef ARIADNE_SWAP_ZRAM_HH
#define ARIADNE_SWAP_ZRAM_HH

#include <deque>
#include <memory>
#include <vector>

#include "compress/registry.hh"
#include "swap/app_lru.hh"
#include "swap/scheme_registry.hh"

namespace ariadne
{

/** Configuration for ZramScheme. */
struct ZramConfig
{
    CodecKind codec = CodecKind::Lzo;
    /** zpool capacity (the paper's S = 3 GB, scaled by callers). */
    std::size_t zpoolBytes = std::size_t{3} * 1024 * 1024 * 1024;
    /** Compression chunk size; baseline Android uses one page. */
    std::size_t chunkBytes = pageSize;
    /** Enable ZSWAP-style writeback of compressed data to flash. */
    bool writeback = false;
    /** Flash swap-space capacity (used when writeback is on). */
    std::size_t flashBytes = std::size_t{8} * 1024 * 1024 * 1024;
    /** Pages compressed per reclaim batch. */
    std::size_t reclaimBatch = 32;

    /**
     * Fraction of a backgrounded app's resident pages compressed
     * proactively (vendors "aggressively free up memory by
     * proactively and periodically compressing data", §2.3). This is
     * CPU the ZRAM baseline pays on every app switch.
     */
    double proactiveFraction = 0.03;
};

/** The state-of-the-art compressed swap baseline. */
class ZramScheme : public AppLruScheme
{
  public:
    ZramScheme(SwapContext context, ZramConfig config);

    std::string name() const override;


    const Zpool *zpool() const override { return &pool; }
    const FlashDevice *flash() const override { return flashDev.get(); }

    /** Compression-order log: (sequence number, page, truth). Feeds
     * the Fig. 4 decile analysis. */
    struct CompressionEvent
    {
        PageKey key;
        Hotness truthAtCompression;
    };

    const std::vector<CompressionEvent> &
    compressionLog() const noexcept
    {
        return compLog;
    }

    /** Sector access log during swap-ins (Table 3 locality input). */
    const std::vector<Sector> &
    sectorAccessLog() const noexcept
    {
        return sectorLog;
    }

    /** Clear the analysis logs (between scenario phases). */
    void
    clearLogs()
    {
        compLog.clear();
        sectorLog.clear();
    }

  private:
    bool planBackground(AppId uid) override;
    void releaseStored(PageMeta &page) override;
    bool storeUnit(std::span<PageMeta *const> pages,
                   const PlannedUnit &unit, std::size_t csize,
                   bool synchronous) override;
    SwapInResult fetch(PageMeta &page) override;

    /**
     * Make room in the zpool for an object of @p csize, evicting (or
     * writing back) oldest compressed objects.
     * @return false when space cannot be found.
     */
    bool ensureZpoolSpace(std::size_t csize, bool synchronous);

    ZramConfig cfg;
    Zpool pool;
    std::unique_ptr<FlashDevice> flashDev;
    /** Compressed objects in insertion order with owner cross-check. */
    std::deque<std::pair<ZObjectId, const PageMeta *>> compressedFifo;

    std::vector<CompressionEvent> compLog;
    std::vector<Sector> sectorLog;
};

/** Registry entry for `scheme = zram` (see scheme_registry.cc). */
SchemeInfo zramSchemeInfo();

/** Registry entry for `scheme = zswap` (ZramScheme with flash
 * writeback enabled). */
SchemeInfo zswapSchemeInfo();

} // namespace ariadne

#endif // ARIADNE_SWAP_ZRAM_HH
