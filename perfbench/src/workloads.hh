/**
 * @file
 * The benchmark's three workloads, defined in code with public
 * ScenarioSpec fields.
 *
 * Each workload is a closed loop: a fixed fleet of sessions runs in
 * one process on a fixed number of FleetRunner worker threads, and a
 * worker starts its next session only when its previous one has
 * finished. The fleets are sized so that every fleet run holds at
 * least 1,680 measured relaunches. Relaunch latencies tie often, and
 * this size keeps at least ten samples beyond the relaunch p99 on
 * every seed tried.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "driver/scenario_spec.hh"

namespace perfbench
{

/** Which swap layers a workload must prove it exercised. */
enum class SwapRegime
{
    Swaps,  //!< reclaim, compression and major faults all run
    NoSwap, //!< none of them runs
};

struct Workload
{
    std::string name;
    /** Sessions per FleetRunner::run call. */
    std::size_t fleet = 1;
    /** FleetRunner worker threads (the closed loop's client count). */
    unsigned workers = 1;
    SwapRegime regime = SwapRegime::Swaps;
    /** Builds the scenario for base seed @p seed. */
    ariadne::driver::ScenarioSpec (*spec)(std::uint64_t seed) = nullptr;
};

/** Every workload, in BENCHMARK.json order. */
const std::vector<Workload> &workloads();

/** The workload named @p name, or nullptr. */
const Workload *findWorkload(const std::string &name);

/**
 * Measured relaunches @p program performs: one per `relaunch` and per
 * `switch_next`, multiplied through `repeat`. Throws
 * std::invalid_argument on event kinds whose relaunch count the
 * benchmark does not model (none of its workloads uses them).
 */
std::size_t
measuredRelaunches(const std::vector<ariadne::driver::Event> &program);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
