/**
 * @file
 * Metric derivation and the correctness gate, kept apart from the
 * timing loop so that both can be tested on canned inputs.
 *
 * Per-layer metrics come from one traced fleet run's telemetry
 * snapshot. The program's probes nest (`kswapd.run` contains
 * `compressor.compress.*`; `fleet.session` contains everything), so
 * inclusive times are reported as they are and never summed across
 * layers. Only leaf probes (`compressor.compress.*`, `zram.swapin`,
 * `hotness.decay`) may be read as self time.
 */

#ifndef PERFBENCH_DERIVE_HH
#define PERFBENCH_DERIVE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "driver/fleet_runner.hh"
#include "telemetry/telemetry.hh"
#include "workloads.hh"

namespace perfbench
{

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

using Metrics = std::vector<Metric>;
using Snapshot = ariadne::telemetry::Registry::Snapshot;

/** Spans the benchmark records around its own calls into the
 * program (traced runs only). */
inline constexpr const char *spanConstruct = "bench.construct";
inline constexpr const char *spanRun = "bench.run";
inline constexpr const char *spanReport = "bench.report";

/** A tail percentile is reported only with this many samples beyond
 * it. */
inline constexpr std::size_t minTailSamples = 10;

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** Samples strictly greater than @p threshold. */
std::size_t countAbove(const std::vector<double> &samples,
                       double threshold);

/**
 * The highest of "p99", "p90" and "p50" that has at least
 * minTailSamples samples beyond it, given the percentile values the
 * program reported for @p samples; "" when none has.
 */
std::string tailPercentile(const std::vector<double> &samples,
                           double p50, double p90, double p99);

/** Every measured relaunch latency of a run that kept its sessions. */
std::vector<double> relaunchSamples(const ariadne::driver::FleetResult &r);

/**
 * Per-layer metrics of one traced fleet run on @p workers worker
 * threads. Times are per fleet run; ratios whose base is zero read 0.
 */
Metrics layerMetrics(const Snapshot &snap, unsigned workers);

/** Simulated per-layer metrics read from the fleet report itself. */
Metrics reportMetrics(const ariadne::driver::FleetResult &r);

/**
 * Checks one fleet run against its workload: every session completed,
 * each performed the relaunches its program holds (@p expected, one
 * entry per session), the relaunch tail has enough samples for p99,
 * and major faults appear exactly when the workload swaps. Returns
 * one message per failed check.
 */
std::vector<std::string>
checkFleet(const Workload &w, const ariadne::driver::FleetResult &r,
           const std::vector<std::size_t> &expected);

/**
 * Checks one traced fleet run's counters: the workload exercised
 * exactly the swap layers it claims, and the scheme-agnostic
 * compression count reconciles with the compressor's own
 * (`swap.compress_units` = `compressor.cache_hit` +
 * `compressor.calls`). Returns one message per failed check.
 */
std::vector<std::string> checkCounters(const Workload &w,
                                       const Snapshot &snap);

} // namespace perfbench

#endif // PERFBENCH_DERIVE_HH
