/**
 * @file
 * Swap-scheme interface and shared machinery.
 *
 * A SwapScheme decides where anonymous pages live (resident, zpool,
 * flash), picks reclaim victims, and services swap-in faults. The
 * surrounding MobileSystem drives it through page admissions, touches
 * and reclaim requests. Four implementations reproduce the paper's
 * evaluated configurations: DramOnlyScheme (ideal "DRAM"),
 * FlashSwapScheme ("SWAP"), ZramScheme ("ZRAM", optionally with
 * ZSWAP-style writeback) and core/AriadneScheme.
 */

#ifndef ARIADNE_SWAP_SCHEME_HH
#define ARIADNE_SWAP_SCHEME_HH

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "compress/codec.hh"
#include "mem/dram.hh"
#include "mem/flash.hh"
#include "mem/page.hh"
#include "mem/page_arena.hh"
#include "mem/zpool.hh"
#include "sim/clock.hh"
#include "sim/cpu_account.hh"
#include "sim/energy_model.hh"
#include "sim/stats.hh"
#include "sim/timing_model.hh"
#include "swap/page_compressor.hh"

namespace ariadne
{

/** Shared services every scheme operates against. */
struct SwapContext
{
    Clock &clock;
    const TimingModel &timing;
    CpuAccount &cpu;
    ActivityTotals &activity;
    Dram &dram;
    PageCompressor &compressor;
    /** Arena owning every PageMeta plus the SoA scan metadata
     * (level / location / lastAccess accessors). */
    PageArena &arena;
};

/** Per-app compression/decompression accounting (Figs. 11-13). */
struct CompStats
{
    Tick compNs = 0;
    Tick decompNs = 0;
    std::uint64_t inBytes = 0;   //!< uncompressed bytes compressed
    std::uint64_t outBytes = 0;  //!< compressed bytes produced
    std::uint64_t decompBytes = 0; //!< uncompressed bytes recovered
    std::uint64_t compOps = 0;
    std::uint64_t decompOps = 0;

    /** Compression ratio original/compressed (0 when empty). */
    double
    ratio() const noexcept
    {
        return outBytes ? static_cast<double>(inBytes) /
                              static_cast<double>(outBytes)
                        : 0.0;
    }

    /** Merge @p o into this. */
    void add(const CompStats &o) noexcept;
};

/**
 * Optional hotness-prediction capability of a scheme. The system and
 * the benches query it through SwapScheme::hotness() instead of
 * downcasting to a concrete scheme type, so any future scheme with
 * per-app hot-set knowledge (e.g. a TRRIP-style temperature
 * predictor) plugs into profile seeding and Fig. 14 scoring without
 * driver changes.
 */
class HotnessAware
{
  public:
    virtual ~HotnessAware() = default;

    /** Seed the per-app hot-set size profile (offline profiling). */
    virtual void seedProfile(AppId uid, std::size_t hot_pages) = 0;

    /** The scheme's current relaunch prediction for @p uid. */
    virtual std::vector<PageKey> predictedHotSet(AppId uid) const = 0;
};

/** Outcome of a swap-in fault. */
struct SwapInResult
{
    Tick latencyNs = 0;   //!< synchronous latency charged to the fault
    bool fromFlash = false;
    bool stagedHit = false; //!< served from the PreDecomp buffer
};

/**
 * Abstract swap scheme: every step the schemes share, and its counter,
 * is written once here (reclaim pass, drop, flash I/O, fault entry,
 * taking a DRAM page). A scheme adds its policy: victims and units
 * (planReclaim, planBackground), storeUnit and fetch.
 */
class SwapScheme
{
  public:
    explicit SwapScheme(SwapContext context,
                        std::unique_ptr<Codec> unit_codec = nullptr,
                        std::size_t reclaim_batch = 0)
        : ctx(context), codec(std::move(unit_codec)),
          reclaimBatch(reclaim_batch)
    {}
    virtual ~SwapScheme() = default;

    SwapScheme(const SwapScheme &) = delete;
    SwapScheme &operator=(const SwapScheme &) = delete;

    /** Scheme display name (used in reports). */
    virtual std::string name() const = 0;

    /** A freshly allocated page became resident. */
    virtual void onAdmit(PageMeta &page) = 0;

    /** A resident page was touched. */
    virtual void onAccess(PageMeta &page) = 0;

    /** Bring a non-resident page back; advances the clock. */
    SwapInResult swapIn(PageMeta &page);

    /** Page is going away (app killed / freed). */
    virtual void onFree(PageMeta &page) = 0;

    /**
     * Evict at least @p pages resident pages.
     * @param direct True when called synchronously from a fault path
     * (advances the clock); false for background kswapd work.
     * @return pages actually freed.
     */
    std::size_t reclaim(std::size_t pages, bool direct);

    /** App lifecycle hints. */
    virtual void onRelaunchStart(AppId) {}
    virtual void onRelaunchEnd(AppId) {}

    /** App backgrounded: run the scheme's proactive pass, if any. */
    void onBackground(AppId uid);

    /** Compressed bytes stored: the zpool and, when the scheme has
     * one, the flash its writeback fills (0 without a zpool). */
    std::size_t compressedStoredBytes() const;

    /** Underlying pool, when the scheme has one. */
    virtual const Zpool *zpool() const { return nullptr; }

    /** Underlying flash swap device, when the scheme has one. */
    virtual const FlashDevice *flash() const { return nullptr; }

    /** Resident page counts per hotness level, when the scheme
     * organizes pages that way (gauge sampling only). Returns false
     * — outputs untouched — otherwise. */
    virtual bool
    levelPopulations(std::size_t &, std::size_t &, std::size_t &) const
    {
        return false;
    }

    /** Hotness-prediction capability, when the scheme has one. */
    virtual HotnessAware *hotness() noexcept { return nullptr; }
    const HotnessAware *
    hotness() const noexcept
    {
        return const_cast<SwapScheme *>(this)->hotness();
    }

    /** Per-app compression statistics. */
    const CompStats &appStats(AppId uid) const;

    /** Aggregate compression statistics. */
    CompStats totalStats() const;

    /** Pages dropped under extreme pressure (potential app kill). */
    std::uint64_t lostPages() const noexcept { return lost; }

    /** Direct-reclaim invocations (on-demand compression events). */
    std::uint64_t directReclaims() const noexcept { return directRuns; }

    /** Pages freed by all reclaim passes (kswapd, direct, proactive). */
    std::uint64_t reclaimedPages() const noexcept { return reclaimed; }

    /** LRU list operations performed by this scheme. */
    std::uint64_t lruOps() const noexcept { return lruOpCounter.value(); }

    /**
     * CPU spent in proactive background reclaim (onBackground work:
     * the vendors' periodic compression for ZRAM, the AL scenario's
     * hot-list compression for Ariadne). Runs on the reclaim daemon,
     * so Fig. 3 counts it alongside kswapd.
     */
    Tick backgroundReclaimCpuNs() const noexcept { return bgReclaimNs; }

  protected:
    /** Planned pages [first, first + pages) as one unit. */
    struct PlannedUnit
    {
        std::size_t first;
        std::size_t pages;
        std::size_t chunkBytes;
        Hotness level;
    };

    /** Policy: plan (planPage, planUnit) victims for a pass freeing
     * at least @p pages; planning only pops them. */
    virtual void planReclaim(std::size_t pages, bool direct) = 0;

    /** Policy: plan the proactive pass for backgrounded @p uid;
     * false when the scheme has none. */
    virtual bool planBackground(AppId) { return false; }

    /** Policy: store a planned unit of @p csize bytes (raw size when
     * there is no codec); false drops its pages. */
    virtual bool storeUnit(std::span<PageMeta *const> pages,
                           const PlannedUnit &unit, std::size_t csize,
                           bool synchronous) = 0;

    /** Policy: make non-resident @p page resident again. */
    virtual SwapInResult fetch(PageMeta &page) = 0;

    /** Plan @p page as the next page of the unit being planned. */
    void planPage(PageMeta &page) { planPages.push_back(&page); }

    /** Close the unit of the pages planned since the last one. */
    void planUnit(std::size_t chunk_bytes, Hotness level);

    /** Lose @p page's data; an access must recreate it. */
    void dropPage(PageMeta &page);

    /** Write @p bytes of @p pages pages to @p dev (the clock waits for
     * the submission only when @p synchronous).
     * @return invalidFlashSlot when the device is full. */
    FlashSlot writeFlash(FlashDevice &dev, std::size_t bytes,
                         std::size_t pages, bool synchronous);

    /** Read and free @p slot on the fault path; the clock waits for
     * the submission and @p device_ns. @return bytes read. */
    std::size_t readFlash(FlashDevice &dev, FlashSlot slot,
                          Tick device_ns);

    /** Charge the base cost of a major fault. */
    void enterMajorFault();

    /** Allocate one DRAM page, direct-reclaiming when DRAM is full. */
    void takeDramPage();

    /**
     * Account one compression of @p in_bytes -> @p out_bytes at
     * @p chunk_bytes chunks: model CPU time, energy-relevant DRAM
     * traffic, per-app stats; advances the clock when @p synchronous.
     * @return modeled compression time.
     */
    Tick chargeCompression(AppId uid, std::size_t chunk_bytes,
                           std::size_t in_bytes, std::size_t out_bytes,
                           bool synchronous);

    /** Mirror of chargeCompression for decompression. */
    Tick chargeDecompression(AppId uid, std::size_t chunk_bytes,
                             std::size_t out_bytes,
                             std::size_t stored_bytes,
                             bool synchronous);

    /**
     * Charge accumulated LRU operations since the last call. List
     * surgery is CPU-accounted but never advances the clock: a list
     * op is ~100x cheaper than a swap (§6.4) and its latency is
     * already folded into the fault/touch base costs.
     */
    void chargeLruOps();

    SwapContext ctx;
    /** Unit codec; nullptr when pages are stored uncompressed. */
    std::unique_ptr<Codec> codec;
    /** Pages per reclaim batch; takeDramPage() reclaims this many. */
    const std::size_t reclaimBatch;
    Counter lruOpCounter;

  private:
    /** Size the plan as one batch, then store its units in plan
     * order. @return pages freed. */
    std::size_t commitPlan(bool synchronous);

    /** Charge one flash I/O submission; a synchronous caller waits
     * for it and @p device_ns. */
    void submitFlash(Tick device_ns, bool synchronous);

    std::map<AppId, CompStats> perApp;
    std::uint64_t chargedLruOps = 0;
    std::uint64_t lost = 0;
    std::uint64_t directRuns = 0;
    std::uint64_t reclaimed = 0;
    Tick bgReclaimNs = 0;

    // The pass being planned, and its size-batch scratch.
    std::vector<PageMeta *> planPages;
    std::vector<PlannedUnit> planUnits;
    std::vector<PageRef> planRefs;
    std::vector<SizeRequest> planRequests;
    std::vector<std::size_t> planSizes;
    /** Set while commitPlan() stores; reclaim() must not run. */
    bool committing = false;
};

} // namespace ariadne

#endif // ARIADNE_SWAP_SCHEME_HH
