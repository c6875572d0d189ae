#include "workloads.hh"

#include <stdexcept>

#include "sim/types.hh"

namespace perfbench
{

using ariadne::operator""_ms;
using ariadne::operator""_s;
using ariadne::driver::Event;
using ariadne::driver::ScenarioSpec;
using ariadne::driver::WorkloadKind;

namespace
{

// Footprint scale of scenarios/*.cfg: 1/16 of the paper's volumes.
constexpr double scale = 0.0625;

// scenarios/daily.cfg: the paper's scheme under the paper's daily
// usage. Reclaim, the hotness lists, pre-decompression and the
// size-adaptive multi-page cold units all run.
ScenarioSpec
dailyAriadne(std::uint64_t seed)
{
    ScenarioSpec s;
    s.name = "daily-ariadne";
    s.scheme = "ariadne";
    s.params.set("config", "EHL-1K-2K-16K");
    s.scale = scale;
    s.seed = seed;
    s.program = {Event::warmup(),
                 Event::repeat(120, {Event::switchNext(2_s, 1_s)})};
    return s;
}

// scenarios/heavy.cfg: single-page compression through the identity
// cache and the memo, zpool churn, and one swap-in per 2.5
// compressions.
ScenarioSpec
heavyZram(std::uint64_t seed)
{
    ScenarioSpec s;
    s.name = "heavy-zram";
    s.scheme = "zram";
    s.scale = scale;
    s.seed = seed;
    s.program = {Event::warmup(),
                 Event::repeat(60, {Event::switchNext(250_ms, 0)})};
    return s;
}

// scenarios/population.cfg: users of 5 apps each never fill DRAM, so
// compression, kswapd and faults never run. The control workload.
ScenarioSpec
noswapPopulation(std::uint64_t seed)
{
    ScenarioSpec s;
    s.name = "noswap-population";
    s.scheme = "ariadne";
    s.params.set("config", "EHL-1K-2K-16K");
    s.scale = scale;
    s.seed = seed;
    s.workload = WorkloadKind::Synthetic;
    s.population.appsPerUser = 5;
    s.population.footprintSpread = 0.3;
    s.population.lightShare = 0.3;
    s.population.heavyShare = 0.2;
    s.population.switches = 40;
    s.population.useTime = 2_s;
    s.population.gap = 1_s;
    return s;
}

} // namespace

const std::vector<Workload> &
workloads()
{
    // daily and heavy run on one worker: with more, the memo's hit
    // counters depend on which worker ran which session. population
    // never compresses, so its counters stay exact on two workers and
    // it covers the parallel fleet path.
    static const std::vector<Workload> all = {
        {"daily-ariadne", 16, 1, SwapRegime::Swaps, dailyAriadne},
        {"heavy-zram", 28, 1, SwapRegime::Swaps, heavyZram},
        {"noswap-population", 96, 2, SwapRegime::NoSwap,
         noswapPopulation},
    };
    return all;
}

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : workloads())
        if (w.name == name)
            return &w;
    return nullptr;
}

std::size_t
measuredRelaunches(const std::vector<Event> &program)
{
    std::size_t n = 0;
    for (const Event &e : program) {
        switch (e.kind) {
          case Event::Kind::Relaunch:
          case Event::Kind::SwitchNext:
            ++n;
            break;
          case Event::Kind::Repeat:
            n += e.count * measuredRelaunches(e.body);
            break;
          case Event::Kind::Launch:
          case Event::Kind::Execute:
          case Event::Kind::Background:
          case Event::Kind::Idle:
          case Event::Kind::Warmup:
            break;
          default:
            throw std::invalid_argument(
                "measuredRelaunches: unmodelled event kind");
        }
    }
    return n;
}

} // namespace perfbench
