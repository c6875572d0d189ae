/**
 * @file
 * Swap accounting reconciles under every registered scheme.
 *
 * The swap.* counters are incremented once, in SwapScheme's shared
 * steps, for every scheme. These tests check them against totals kept
 * elsewhere: the schemes' compression stats and drop counts, the
 * system's major-fault counter, kswapd's reclaimed pages, and the
 * values reclaim() and swapIn() hand back to their callers.
 */

#include <gtest/gtest.h>

#include "driver/fleet_runner.hh"
#include "scheme_test_util.hh"
#include "swap/scheme_registry.hh"
#include "sys/mobile_system.hh"
#include "telemetry/telemetry.hh"

using namespace ariadne;
using namespace ariadne::driver;

namespace
{

/** RAII: counters on and zeroed; off and zeroed again on exit. */
class CountersOn
{
  public:
    CountersOn()
    {
        telemetry::Registry::global().reset();
        telemetry::setEnabled(true);
    }
    ~CountersOn()
    {
        telemetry::setEnabled(false);
        telemetry::Registry::global().reset();
    }
    CountersOn(const CountersOn &) = delete;
    CountersOn &operator=(const CountersOn &) = delete;

    std::uint64_t
    operator[](const char *name) const
    {
        return telemetry::Registry::global().snapshot().counter(name);
    }
};

bool
hasKnob(const SchemeInfo &info, const std::string &name)
{
    for (const SchemeKnob &knob : info.knobs)
        if (knob.name == name)
            return true;
    return false;
}

/**
 * daily's switching on a two-session fleet, with the zpool and flash
 * shrunk so writeback, flash faults and drops run too.
 */
ScenarioSpec
pressureSpec(const SchemeInfo &info)
{
    ScenarioSpec spec = ScenarioSpec::parseString(R"(
name = swap-accounting
scale = 0.0625
seed = 42
fleet = 2
event = warmup
event = repeat 30
event =   switch_next 2s 1s
event = end
)");
    spec.scheme = info.key;
    if (hasKnob(info, "zpool_mb"))
        spec.params.set("zpool_mb", "128");
    if (hasKnob(info, "flash_mb"))
        spec.params.set("flash_mb", "64");
    return spec;
}

/** Scheme totals summed over a fleet's sessions. */
struct SchemeTotals
{
    std::uint64_t compressedPages = 0;
    std::uint64_t lostPages = 0;
    std::uint64_t reclaimedPages = 0;
};

/** Run @p spec on one worker; read every session's scheme at its end. */
SchemeTotals
runFleet(ScenarioSpec spec)
{
    SchemeTotals totals;
    SessionHook read_scheme = [&totals](MobileSystem &sys,
                                        SessionDriver &,
                                        SessionResult &) {
        const SwapScheme &scheme = sys.scheme();
        totals.compressedPages += scheme.totalStats().inBytes / pageSize;
        totals.lostPages += scheme.lostPages();
        totals.reclaimedPages += scheme.reclaimedPages();
    };
    spec.program.push_back(Event::custom(0));
    FleetRunner(std::move(spec), {read_scheme}).run(0, 1);
    return totals;
}

void
expectReconciled(const CountersOn &c, const SchemeTotals &totals,
                 const std::string &key)
{
    SCOPED_TRACE(key);
    EXPECT_EQ(c["swap.compress_pages"], totals.compressedPages);
    EXPECT_EQ(c["swap.lost_pages"], totals.lostPages);
    std::uint64_t counted_faults =
        c["swap.swapin_flash"] + c["swap.swapin_staged"];
    if (key == "swap") {
        EXPECT_EQ(counted_faults, c["sys.major_fault"]);
    } else {
        EXPECT_LE(counted_faults, c["sys.major_fault"]);
    }
    EXPECT_EQ(c["kswapd.reclaimed_pages"] +
                  c["swap.reclaim_pages.direct"] +
                  c["swap.reclaim_pages.background"],
              totals.reclaimedPages);
}

} // namespace

TEST(SwapAccounting, FleetCountersReconcileForEveryScheme)
{
    for (const SchemeInfo *info : SchemeRegistry::instance().infos()) {
        CountersOn counters;
        SchemeTotals totals = runFleet(pressureSpec(*info));
        expectReconciled(counters, totals, info->key);
        if (!info->unboundedDram) {
            EXPECT_GT(totals.reclaimedPages, 0u) << info->key;
        }
    }
}

TEST(SwapAccounting, AriadneCountsEveryStepOnDaily)
{
    const SchemeInfo &ariadne = SchemeRegistry::instance().at("ariadne");
    {
        // The paper's EHL configuration: reclaim, writeback of cold
        // units, flash faults and drops once the flash fills.
        CountersOn c;
        expectReconciled(c, runFleet(pressureSpec(ariadne)), "EHL");
        EXPECT_GT(c["swap.compress_pages"], 0u);
        EXPECT_GT(c["swap.flash_write_pages"], 0u);
        EXPECT_GT(c["swap.lost_pages"], 0u);
        EXPECT_GT(c["swap.swapin_flash"], 0u);
    }
    {
        // AL compresses a backgrounded app's hot list proactively.
        ScenarioSpec spec = pressureSpec(ariadne);
        spec.params.set("config", "AL-1K-2K-16K");
        CountersOn c;
        expectReconciled(c, runFleet(std::move(spec)), "AL");
        EXPECT_GT(c["swap.reclaim_pages.background"], 0u);
    }
}

TEST(SwapAccounting, DirectReclaimAndFaultsCountWhatCallersSee)
{
    // Fill a small DRAM past capacity with explicit direct reclaims,
    // then fault every page back so the schemes reclaim on their own
    // fault paths too.
    for (const SchemeInfo *info : SchemeRegistry::instance().infos()) {
        if (info->unboundedDram)
            continue;
        SCOPED_TRACE(info->key);
        CountersOn c;
        testutil::SchemeHarness h(128);
        auto scheme = info->build(h.context(), SchemeParams{}, 1.0);

        std::uint64_t direct_freed = 0;
        std::vector<PageMeta *> pages;
        for (Pfn pfn = 0; pfn < 512; ++pfn) {
            PageMeta &p = h.page(1, pfn);
            if (!h.dram.allocate(1)) {
                direct_freed += scheme->reclaim(32, true);
                ASSERT_TRUE(h.dram.allocate(1));
            }
            h.arena.setLocation(p, PageLocation::Resident);
            scheme->onAdmit(p);
            pages.push_back(&p);
        }
        EXPECT_EQ(c["swap.reclaim_pages.direct"], direct_freed);
        EXPECT_GT(direct_freed, 0u);

        std::uint64_t flash_faults = 0;
        for (PageMeta *p : pages) {
            if (h.arena.location(*p) == PageLocation::Resident)
                continue;
            if (h.arena.location(*p) == PageLocation::Lost)
                continue;
            flash_faults += scheme->swapIn(*p).fromFlash;
        }
        EXPECT_GT(c["swap.reclaim_pages.direct"], direct_freed);
        EXPECT_EQ(c["swap.reclaim_pages.direct"],
                  scheme->reclaimedPages());
        EXPECT_EQ(c["swap.swapin_flash"], flash_faults);
        EXPECT_EQ(c["swap.lost_pages"], scheme->lostPages());
    }
}

TEST(SwapAccounting, StagedHitsCountWhatCallersSee)
{
    CountersOn c;
    testutil::SchemeHarness h(512);
    SchemeParams params;
    params.set("config", "AL-1K-2K-16K");
    auto scheme = SchemeRegistry::instance().build("ariadne", h.context(),
                                                   params, 1.0);
    scheme->hotness()->seedProfile(1, 16);
    auto pages = h.admitPages(*scheme, 1, 16);
    scheme->onBackground(1); // 16 single-page hot units
    EXPECT_EQ(c["swap.reclaim_pages.background"], 16u);

    // Sequential faults: PreDecomp stages the next unit ahead.
    std::uint64_t staged_hits = 0;
    for (PageMeta *p : pages) {
        if (h.arena.location(*p) == PageLocation::Resident)
            scheme->onAccess(*p);
        else
            staged_hits += scheme->swapIn(*p).stagedHit;
    }
    EXPECT_GT(staged_hits, 0u);
    EXPECT_EQ(c["swap.swapin_staged"], staged_hits);
}
