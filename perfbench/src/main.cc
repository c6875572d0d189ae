/**
 * @file
 * perfbench: runs one benchmark workload through the public
 * driver::FleetRunner API and prints its metrics as one JSON line.
 *
 *   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *
 * Untraced (--trace 0): fleet runs repeat for S seconds with telemetry
 * off and give the end-to-end metrics, each followed by a batch of
 * timed set-ups; then one traced fleet run feeds the counter gate.
 * Traced (--trace 1): untraced and traced fleet runs alternate for S
 * seconds and give the per-layer metrics, including the tracing
 * overhead. Every fleet run is checked (derive.hh); the sessions of a
 * run that fails a check count as failed. The last line of standard
 * output is
 *
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 *
 * Progress and diagnostics go to standard error. Exit status: 0 after
 * printing a result, 2 on a usage error.
 */

#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "derive.hh"
#include "driver/json_writer.hh"
#include "driver/workload_source.hh"
#include "heap_meter.hh"
#include "report/partial_report.hh"
#include "sys/mobile_system.hh"
#include "telemetry/bench_report.hh"
#include "workloads.hh"

namespace
{

using namespace perfbench;
using ariadne::driver::FleetResult;
using ariadne::driver::FleetRunner;
using ariadne::driver::SyntheticPopulationSource;
namespace telemetry = ariadne::telemetry;
using Clock = std::chrono::steady_clock;

telemetry::DurationProbe p_construct(spanConstruct);
telemetry::DurationProbe p_run(spanRun);
telemetry::DurationProbe p_report(spanReport);

/** Set-ups timed after each untraced fleet run; the median of all of
 * them is setup_s. Spreading them over the run makes setup_s sample
 * the host as sessions_per_s does. */
constexpr int setupsPerFleetRun = 31;
/** Fewest untraced fleet runs behind an end-to-end median. */
constexpr std::size_t minUntracedRuns = 3;

struct Options
{
    std::string workload;
    std::uint64_t seed = 42;
    unsigned seconds = 30;
    bool trace = false;
};

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** One fleet run and what it produced. */
struct FleetRun
{
    FleetResult result;
    double runS = 0.0;
    /** Highest heap use from construction to the finished report. */
    std::size_t peakHeapBytes = 0;
    std::uint64_t digest = 0;
    std::vector<std::string> failures;
};

std::vector<std::size_t>
expectedRelaunches(const FleetRunner &runner, std::size_t fleet)
{
    const auto *synthetic =
        dynamic_cast<const SyntheticPopulationSource *>(&runner.workload());
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < fleet; ++i)
        out.push_back(measuredRelaunches(
            synthetic ? synthetic->sessionProgram(i)
                      : runner.spec().program));
    return out;
}

/** Builds the workload's runner inside the bench.construct span. */
FleetRunner
construct(const Workload &w, std::uint64_t seed)
{
    telemetry::ScopedTimer span(p_construct);
    return FleetRunner(w.spec(seed));
}

/**
 * Times what precedes the first session's first event: building the
 * runner, then session 0's config, profiles and MobileSystem the way
 * FleetRunner::run builds them.
 */
double
timeSetup(const Workload &w, std::uint64_t seed)
{
    const auto t0 = Clock::now();
    FleetRunner runner = construct(w, seed);
    ariadne::MobileSystem system(runner.spec().systemConfig(0),
                                 runner.workload().sessionProfiles(0));
    return secondsSince(t0);
}

FleetRun
runFleet(const Workload &w, std::uint64_t seed)
{
    FleetRun out;
    heap::resetPeak();
    FleetRunner runner = construct(w, seed);
    const auto t0 = Clock::now();
    {
        telemetry::ScopedTimer span(p_run);
        out.result = runner.run(w.fleet, w.workers, true);
    }
    out.runS = secondsSince(t0);
    {
        telemetry::ScopedTimer span(p_report);
        std::ostringstream report;
        out.result.writeJson(report);
        out.digest = ariadne::report::fnv1a64(report.str());
    }
    out.peakHeapBytes = heap::peakBytes();
    out.failures = checkFleet(w, out.result,
                              expectedRelaunches(runner, w.fleet));
    return out;
}

/** Runs one traced fleet run into a freshly zeroed registry. */
FleetRun
runTraced(const Workload &w, std::uint64_t seed, Snapshot &snap)
{
    telemetry::Registry::global().reset();
    telemetry::setEnabled(true);
    FleetRun run = runFleet(w, seed);
    telemetry::setEnabled(false);
    snap = telemetry::Registry::global().snapshot();
    for (std::string &f : checkCounters(w, snap))
        run.failures.push_back(std::move(f));
    return run;
}

/** Tallies runs against the first untraced run's report digest. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t digest = 0;
    bool haveDigest = false;

    void
    add(FleetRun &run, const char *label)
    {
        if (!haveDigest) {
            digest = run.digest;
            haveDigest = true;
        } else if (run.digest != digest) {
            char buf[96];
            std::snprintf(buf, sizeof buf,
                          "report digest %016" PRIx64 " != %016" PRIx64,
                          run.digest, digest);
            run.failures.emplace_back(buf);
        }
        attempted += run.result.fleet;
        if (!run.failures.empty())
            failed += run.result.fleet;
        for (const std::string &f : run.failures)
            std::cerr << "perfbench: " << label << " run failed: " << f
                      << "\n";
    }
};

/** Per-metric medians over traced runs, in first-seen order. */
class MedianTable
{
  public:
    void
    add(const Metrics &ms)
    {
        for (const Metric &m : ms) {
            auto [it, fresh] = values.try_emplace(m.name);
            if (fresh)
                order.push_back(m);
            it->second.push_back(m.value);
        }
    }

    Metrics
    medians() const
    {
        Metrics out = order;
        for (Metric &m : out)
            m.value = median(values.at(m.name));
        return out;
    }

  private:
    Metrics order;
    std::map<std::string, std::vector<double>> values;
};

double
mebibytes(std::size_t bytes)
{
    return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

Metrics
endToEnd(const FleetResult &r, const std::vector<double> &rates,
         const std::vector<double> &setups,
         const std::vector<double> &peakHeapMb)
{
    return {
        {"sessions_per_s", median(rates), "1/s"},
        {"setup_s", median(setups), "s"},
        {"peak_heap_mb", median(peakHeapMb), "MiB"},
        {"relaunch_ms.mean", r.relaunchMs.mean, "ms"},
        {"relaunch_ms.p99", r.relaunchMs.p99, "ms"},
        {"kswapd_cpu_ms", r.kswapdCpuMs.mean, "ms"},
        {"energy_j", r.energyJ.mean, "J"},
    };
}

void
printResult(bool correct, const Tally &t, const Metrics &metrics)
{
    std::ostringstream os;
    ariadne::driver::JsonWriter w(os, 0);
    w.beginObject();
    w.field("correct", correct);
    w.field("attempted", t.attempted);
    w.field("failed", t.failed);
    w.key("metrics");
    w.beginObject();
    for (const Metric &m : metrics) {
        w.key(m.name);
        w.beginObject();
        w.field("value", m.value);
        w.field("unit", m.unit);
        w.endObject();
    }
    w.endObject();
    w.endObject();
    std::cout << os.str() << std::endl;
}

int
run(const Workload &w, const Options &opt)
{
    const auto start = Clock::now();
    const double budget = opt.seconds;
    Tally tally;

    Metrics metrics;
    FleetResult first;
    if (!opt.trace) {
        std::vector<double> rates, setupTimes, peakHeapMb;
        double last = 0.0;
        do {
            const auto t0 = Clock::now();
            FleetRun run = runFleet(w, opt.seed);
            rates.push_back(static_cast<double>(w.fleet) / run.runS);
            peakHeapMb.push_back(mebibytes(run.peakHeapBytes));
            for (int i = 0; i < setupsPerFleetRun; ++i)
                setupTimes.push_back(timeSetup(w, opt.seed));
            last = secondsSince(t0);
            tally.add(run, "untraced");
            if (rates.size() == 1)
                first = std::move(run.result);
        } while (rates.size() < minUntracedRuns ||
                 secondsSince(start) + last <= budget);
        metrics = endToEnd(first, rates, setupTimes, peakHeapMb);
        Snapshot snap;
        FleetRun traced = runTraced(w, opt.seed, snap);
        tally.add(traced, "traced");
        std::cerr << "perfbench: " << w.name << " seed " << opt.seed
                  << ": " << rates.size() << " untraced runs of "
                  << w.fleet << " sessions on " << w.workers
                  << " worker(s), sessions/s:";
        for (double r : rates)
            std::cerr << " " << r;
        std::cerr << "\n";
    } else {
        MedianTable layers;
        std::vector<double> untraced, traced;
        double last = 0.0;
        do {
            const auto t0 = Clock::now();
            FleetRun plain = runFleet(w, opt.seed);
            untraced.push_back(plain.runS);
            tally.add(plain, "untraced");
            if (untraced.size() == 1)
                first = std::move(plain.result);
            Snapshot snap;
            FleetRun run = runTraced(w, opt.seed, snap);
            traced.push_back(run.runS);
            tally.add(run, "traced");
            layers.add(layerMetrics(snap, w.workers));
            last = secondsSince(t0);
        } while (secondsSince(start) + last <= budget);
        metrics = layers.medians();
        for (Metric &m : reportMetrics(first))
            metrics.push_back(std::move(m));
        metrics.push_back({"trace.overhead_share",
                           median(traced) / median(untraced) - 1.0,
                           "share"});
        metrics.push_back(
            {"peak_rss_mb",
             mebibytes(telemetry::currentPeakRssBytes()), "MiB"});
        std::cerr << "perfbench: " << w.name << " seed " << opt.seed
                  << ": " << untraced.size()
                  << " untraced/traced run pairs of " << w.fleet
                  << " sessions on " << w.workers << " worker(s)\n";
    }

    const std::vector<double> samples = relaunchSamples(first);
    std::cerr << "perfbench: report digest " << std::hex << tally.digest
              << std::dec << ", " << samples.size()
              << " relaunch samples, "
              << countAbove(samples, first.relaunchMs.p99)
              << " beyond p99\n";

    bool correct = tally.failed == 0;
    for (const Metric &m : metrics) {
        if (!std::isfinite(m.value)) {
            std::cerr << "perfbench: metric " << m.name
                      << " is not finite\n";
            correct = false;
        }
    }
    printResult(correct, tally, metrics);
    return 0;
}

bool
parseUnsigned(const std::string &text, std::uint64_t max,
              std::uint64_t &out)
{
    if (text.empty() || text.size() > 20 ||
        text.find_first_not_of("0123456789") != std::string::npos)
        return false;
    try {
        unsigned long long v = std::stoull(text);
        if (v > max)
            return false;
        out = v;
        return true;
    } catch (const std::exception &) {
        return false;
    }
}

int
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload NAME [--seed N] "
                 "[--seconds 1..600] [--trace 0|1]\nworkloads:";
    for (const Workload &w : workloads())
        std::cerr << " " << w.name;
    std::cerr << "\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage("missing value for " + flag);
        const std::string value = argv[++i];
        std::uint64_t n = 0;
        if (flag == "--workload") {
            opt.workload = value;
        } else if (flag == "--seed") {
            if (!parseUnsigned(value, UINT64_MAX, n))
                return usage("bad --seed " + value);
            opt.seed = n;
        } else if (flag == "--seconds") {
            if (!parseUnsigned(value, 600, n) || n == 0)
                return usage("bad --seconds " + value);
            opt.seconds = static_cast<unsigned>(n);
        } else if (flag == "--trace") {
            if (!parseUnsigned(value, 1, n))
                return usage("bad --trace " + value);
            opt.trace = n == 1;
        } else {
            return usage("unknown flag " + flag);
        }
    }
    const Workload *w = findWorkload(opt.workload);
    if (!w)
        return usage("unknown workload '" + opt.workload + "'");
    try {
        return run(*w, opt);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
