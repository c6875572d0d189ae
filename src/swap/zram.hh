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
#include "mem/lru_list.hh"
#include "swap/scheme.hh"
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
class ZramScheme : public SwapScheme
{
  public:
    ZramScheme(SwapContext context, ZramConfig config);

    std::string name() const override;

    void onAdmit(PageMeta &page) override;
    void onAccess(PageMeta &page) override;
    SwapInResult swapIn(PageMeta &page) override;
    void onFree(PageMeta &page) override;
    std::size_t reclaim(std::size_t pages, bool direct) override;
    void onBackground(AppId uid) override;

    std::size_t compressedStoredBytes() const override;
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
    struct AppState
    {
        AppState(AppId uid_, Counter *ops)
            : uid(uid_), resident(ops)
        {}
        AppId uid;
        LruList resident;
        Tick lastAccess = 0;
    };

    AppState &stateFor(AppId uid);
    AppState *oldestAppWithPages();

    /**
     * Make room in the zpool for an object of @p csize, evicting (or
     * writing back) oldest compressed objects.
     * @return false when space cannot be found.
     */
    bool ensureZpoolSpace(std::size_t csize, bool synchronous);

    /** Store one victim page, compressed to @p csize bytes, in the
     * pool (or spill/lose it). */
    void compressOut(PageMeta &victim, std::size_t csize,
                     bool synchronous);

    /** Pop up to @p limit LRU-tail victims of @p app into victims. */
    std::size_t popTail(AppState &app, std::size_t limit);

    /** Size every page of victims as one batch, then compress each
     * out in order (victims is empty afterwards). */
    void compressVictims(bool synchronous);

    ZramConfig cfg;
    std::unique_ptr<Codec> codec;
    Zpool pool;
    std::unique_ptr<FlashDevice> flashDev;
    /** Sorted by uid (intrusive list heads need stable addresses,
     * hence unique_ptr; scans run in uid order like std::map did). */
    std::vector<std::unique_ptr<AppState>> appStates;
    /** Compressed objects in insertion order with owner cross-check. */
    std::deque<std::pair<ZObjectId, const PageMeta *>> compressedFifo;

    std::vector<CompressionEvent> compLog;
    std::vector<Sector> sectorLog;

    /** Pages of the pass being planned, in pop order. */
    std::vector<PageMeta *> victims;
    /** Set while compressVictims() commits; reclaim() must not run. */
    bool committing = false;
    // Size-batch scratch of compressVictims().
    std::vector<PageRef> victimRefs;
    std::vector<SizeRequest> victimRequests;
    std::vector<std::size_t> victimSizes;
};

/** Registry entry for `scheme = zram` (see scheme_registry.cc). */
SchemeInfo zramSchemeInfo();

/** Registry entry for `scheme = zswap` (ZramScheme with flash
 * writeback enabled). */
SchemeInfo zswapSchemeInfo();

} // namespace ariadne

#endif // ARIADNE_SWAP_ZRAM_HH
