/**
 * @file
 * AriadneScheme — the paper's contribution (§4).
 *
 * Combines the three techniques on top of the zpool/flash substrate:
 *
 *  - HotnessOrg picks reclaim victims cold-first (then warm, then —
 *    only under emergency direct reclaim in EHL mode — hot);
 *  - AdaptiveComp compresses victims at a hotness-dependent chunk
 *    size, batching coldUnitPages() cold pages into one large unit;
 *  - PreDecomp speculatively decompresses the next object in zpool
 *    sector order into a small staging buffer during faults, hiding
 *    decompression latency behind application work.
 *
 * When the zpool fills, compressed *cold* units spill to flash first
 * (the paper's "cold data is swapped out first" policy), keeping
 * writes small because they are compressed.
 */

#ifndef ARIADNE_CORE_ARIADNE_HH
#define ARIADNE_CORE_ARIADNE_HH

#include <array>
#include <deque>
#include <unordered_map>

#include "compress/registry.hh"
#include "core/adaptive_comp.hh"
#include "core/config.hh"
#include "core/hotness_org.hh"
#include "core/predecomp.hh"
#include "core/profile_store.hh"
#include "swap/scheme.hh"
#include "swap/scheme_registry.hh"

namespace ariadne
{

/** Hotness-aware, size-adaptive compressed swap scheme. */
class AriadneScheme : public SwapScheme, public HotnessAware
{
  public:
    AriadneScheme(SwapContext context, AriadneConfig config);

    std::string name() const override { return cfg.toString(); }

    void onAdmit(PageMeta &page) override;
    void onAccess(PageMeta &page) override;
    void onFree(PageMeta &page) override;

    void onRelaunchStart(AppId uid) override;
    void onRelaunchEnd(AppId uid) override;

    const Zpool *zpool() const override { return &pool; }
    const FlashDevice *flash() const override { return &flashDev; }

    /** Hotness capability (profile seeding, Fig. 14 scoring). */
    HotnessAware *hotness() noexcept override { return this; }

    bool
    levelPopulations(std::size_t &hot, std::size_t &warm,
                     std::size_t &cold) const override
    {
        hot = hotOrg.population(Hotness::Hot);
        warm = hotOrg.population(Hotness::Warm);
        cold = hotOrg.population(Hotness::Cold);
        return true;
    }

    /** Seed the per-app hot-set size profile (offline profiling). */
    void seedProfile(AppId uid, std::size_t hot_pages) override;

    /** The scheme's relaunch prediction for Fig. 14 scoring. */
    std::vector<PageKey> predictedHotSet(AppId uid) const override;

    /** PreDecomp staging statistics. */
    const PreDecomp &preDecomp() const noexcept { return stagingBuf; }

    /** Hotness organization (exposed for tests and analysis). */
    const HotnessOrg &hotnessOrg() const noexcept { return hotOrg; }

    /** Configuration in effect. */
    const AriadneConfig &config() const noexcept { return cfg; }

    /** Swap-in faults by the hotness the unit was compressed at. */
    std::uint64_t
    faultsByLevel(Hotness level) const noexcept
    {
        return faultsPerLevel[static_cast<std::size_t>(level)];
    }

  private:
    void planReclaim(std::size_t pages, bool direct) override;
    bool planBackground(AppId uid) override;
    bool storeUnit(std::span<PageMeta *const> pages,
                   const PlannedUnit &unit, std::size_t csize,
                   bool synchronous) override;
    SwapInResult fetch(PageMeta &page) override;

    /** Spill compressed units to flash until @p csize fits. */
    bool ensureZpoolSpace(std::size_t csize, bool synchronous);

    /** Write one unit's object back to flash; pages -> Flash. */
    void writebackUnit(UnitId id, bool synchronous);

    /** Try to stage / pre-swap the data owning zpool object @p obj. */
    void tryStage(ZObjectId obj);

    /** Remember that touching @p page should speculate on @p next. */
    void armPrediction(PageMeta &page, ZObjectId next);

    /** Fire and clear a pending prediction for @p page, if any. */
    void firePrediction(const PageMeta &page);

    /** Make the pages of @p unit resident; faulting page is @p hit. */
    void residentizeUnit(CompUnit &unit, PageMeta *hit);

    AriadneConfig cfg;
    Zpool pool;
    FlashDevice flashDev;
    ProfileStore profiles;
    HotnessOrg hotOrg;
    AdaptiveComp units;
    PreDecomp stagingBuf;

    /** Writeback order: cold units first, then warm/hot units. */
    std::deque<UnitId> coldUnitFifo;
    std::deque<UnitId> pageUnitFifo;

    std::array<std::uint64_t, 3> faultsPerLevel{};

    /**
     * Prediction chain: after a speculative pre-swap, the first touch
     * of a pre-swapped page triggers speculation on the following
     * object so sequential runs keep exactly one unit of lookahead.
     */
    std::unordered_map<const PageMeta *, ZObjectId> pendingPredictions;
};

/** Registry entry for `scheme = ariadne` (see scheme_registry.cc). */
SchemeInfo ariadneSchemeInfo();

} // namespace ariadne

#endif // ARIADNE_CORE_ARIADNE_HH
