#include "derive.hh"

#include <algorithm>
#include <string_view>

namespace perfbench
{

using ariadne::driver::FleetResult;

namespace
{

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

double
seconds(std::uint64_t ns)
{
    return static_cast<double>(ns) / 1e9;
}

double
count(std::uint64_t n)
{
    return static_cast<double>(n);
}

/** Totals of the per-codec leaf probes `compressor.compress.<codec>`. */
struct CompressTotals
{
    std::uint64_t calls = 0;
    std::uint64_t ns = 0;
};

CompressTotals
compressTotals(const Snapshot &snap)
{
    constexpr std::string_view prefix = "compressor.compress.";
    CompressTotals t;
    for (const auto &d : snap.durations) {
        if (std::string_view(d.name).starts_with(prefix)) {
            t.calls += d.count;
            t.ns += d.totalNs;
        }
    }
    return t;
}

} // namespace

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t mid = v.size() / 2;
    return v.size() % 2 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

std::size_t
countAbove(const std::vector<double> &samples, double threshold)
{
    return static_cast<std::size_t>(
        std::count_if(samples.begin(), samples.end(),
                      [threshold](double x) { return x > threshold; }));
}

std::string
tailPercentile(const std::vector<double> &samples, double p50,
               double p90, double p99)
{
    if (countAbove(samples, p99) >= minTailSamples)
        return "p99";
    if (countAbove(samples, p90) >= minTailSamples)
        return "p90";
    if (countAbove(samples, p50) >= minTailSamples)
        return "p50";
    return "";
}

std::vector<double>
relaunchSamples(const FleetResult &r)
{
    std::vector<double> out;
    for (const auto &s : r.sessions)
        for (const auto &rl : s.relaunches)
            out.push_back(rl.fullScaleMs);
    return out;
}

Metrics
layerMetrics(const Snapshot &snap, unsigned workers)
{
    const double wall_ns = count(snap.duration(spanRun).totalNs);
    const auto session = snap.duration("fleet.session");
    const auto launch = snap.duration("sys.launch");
    const auto execute = snap.duration("sys.execute");
    const auto relaunch = snap.duration("sys.relaunch");
    const auto kswapd = snap.duration("kswapd.run");
    const auto swapin = snap.duration("zram.swapin");
    const auto decay = snap.duration("hotness.decay");
    const CompressTotals comp = compressTotals(snap);
    const std::uint64_t touches = snap.counter("sys.touch");
    const std::uint64_t scanned = snap.counter("kswapd.scan_pages");
    const std::uint64_t decay_pages = snap.counter("hotness.decay_pages");
    const std::uint64_t cache_hit = snap.counter("compressor.cache_hit");
    const std::uint64_t cache_miss =
        snap.counter("compressor.cache_miss");
    const std::uint64_t memo_hit = snap.counter("compressor.memo.hit");
    const std::uint64_t memo_miss = snap.counter("compressor.memo.miss");
    const double session_ns = count(session.totalNs);
    // Inclusive times of the three foreground operations; what is left
    // of the session is background, idle and system construction.
    const double foreground_ns = count(launch.totalNs) +
                                 count(execute.totalNs) +
                                 count(relaunch.totalNs);

    return {
        {"bench.construct_ms",
         count(snap.duration(spanConstruct).totalNs) / 1e6, "ms"},
        {"bench.run_s", wall_ns / 1e9, "s"},
        {"bench.report_ms", count(snap.duration(spanReport).totalNs) / 1e6,
         "ms"},
        {"driver.session_ms", session.meanNs() / 1e6, "ms"},
        {"driver.outside_sessions_share",
         1.0 - ratio(session_ns, wall_ns * workers), "share"},
        {"sys.launch_s", seconds(launch.totalNs), "s"},
        {"sys.execute_s", seconds(execute.totalNs), "s"},
        {"sys.relaunch_s", seconds(relaunch.totalNs), "s"},
        {"sys.other_s", (session_ns - foreground_ns) / 1e9, "s"},
        {"sys.touches", count(touches), "count"},
        {"sys.page_allocs", count(snap.counter("sys.page_alloc")),
         "count"},
        {"sys.major_faults", count(snap.counter("sys.major_fault")),
         "count"},
        {"sys.ns_per_touch", ratio(session_ns, count(touches)), "ns"},
        {"kswapd.run_s", seconds(kswapd.totalNs), "s"},
        {"kswapd.wakeups", count(snap.counter("kswapd.wakeup")), "count"},
        {"kswapd.scan_pages", count(scanned), "count"},
        {"kswapd.reclaim_ratio",
         ratio(count(snap.counter("kswapd.reclaimed_pages")),
               count(scanned)),
         "share"},
        {"compressor.compress_s", seconds(comp.ns), "s"},
        {"compressor.calls", count(comp.calls), "count"},
        {"compressor.ns_per_call", ratio(count(comp.ns), count(comp.calls)),
         "ns"},
        {"compressor.share", ratio(count(comp.ns), session_ns), "share"},
        {"compressor.cache_hit_ratio",
         ratio(count(cache_hit), count(cache_hit + cache_miss)), "share"},
        {"compressor.memo_hit_ratio",
         ratio(count(memo_hit), count(memo_hit + memo_miss)), "share"},
        // Calls that went through neither the identity cache nor the
        // memo: Ariadne's multi-page cold units.
        {"compressor.unkeyed_calls",
         comp.calls >= cache_miss ? count(comp.calls - cache_miss) : 0.0,
         "count"},
        {"swap.compress_units",
         count(snap.histogram("swap.compress_ns").count()), "count"},
        {"swap.decompressions",
         count(snap.histogram("swap.decompress_ns").count()), "count"},
        {"swap.compressed_bytes.mean",
         snap.histogram("swap.compressed_size").mean(), "B"},
        {"zram.swapin_s", seconds(swapin.totalNs), "s"},
        {"zram.swapins", count(swapin.count), "count"},
        {"hotness.decay_s", seconds(decay.totalNs), "s"},
        {"hotness.decay_pages", count(decay_pages), "count"},
        {"hotness.ns_per_decay_page",
         ratio(count(decay.totalNs), count(decay_pages)), "ns"},
    };
}

Metrics
reportMetrics(const FleetResult &r)
{
    std::vector<double> samples = relaunchSamples(r);
    return {
        {"swap_cpu_ms", r.compDecompCpuMs.mean, "ms"},
        {"comp_ratio", r.compRatio.mean, "ratio"},
        {"relaunch_ms.p50", r.relaunchMs.p50, "ms"},
        {"relaunch.samples", count(samples.size()), "count"},
        {"relaunch.beyond_p99",
         count(countAbove(samples, r.relaunchMs.p99)), "count"},
        {"predecomp.staged_hit_ratio",
         ratio(count(r.totalStagedHits),
               count(r.totalStagedHits + r.totalMajorFaults)),
         "share"},
    };
}

std::vector<std::string>
checkFleet(const Workload &w, const FleetResult &r,
           const std::vector<std::size_t> &expected)
{
    std::vector<std::string> fail;
    if (r.fleet != w.fleet || r.sessions.size() != w.fleet ||
        expected.size() != w.fleet) {
        fail.push_back("fleet of " + std::to_string(w.fleet) +
                       " sessions did not complete");
        return fail;
    }
    std::size_t total = 0;
    for (std::size_t i = 0; i < w.fleet; ++i) {
        const auto &s = r.sessions[i];
        total += expected[i];
        if (s.index != i || s.relaunches.size() != expected[i])
            fail.push_back("session " + std::to_string(i) + " made " +
                           std::to_string(s.relaunches.size()) +
                           " relaunches, its program holds " +
                           std::to_string(expected[i]));
    }
    if (r.totalRelaunches != total || r.relaunchMs.samples != total)
        fail.push_back("relaunch total " +
                       std::to_string(r.totalRelaunches) +
                       " differs from the programs' " +
                       std::to_string(total));
    std::vector<double> samples = relaunchSamples(r);
    if (tailPercentile(samples, r.relaunchMs.p50, r.relaunchMs.p90,
                       r.relaunchMs.p99) != "p99")
        fail.push_back("fewer than " + std::to_string(minTailSamples) +
                       " relaunches beyond p99");
    bool swaps = w.regime == SwapRegime::Swaps;
    if (swaps != (r.totalMajorFaults > 0))
        fail.push_back("relaunch major faults = " +
                       std::to_string(r.totalMajorFaults));
    return fail;
}

std::vector<std::string>
checkCounters(const Workload &w, const Snapshot &snap)
{
    std::vector<std::string> fail;
    const std::uint64_t units = snap.histogram("swap.compress_ns").count();
    const std::uint64_t hits = snap.counter("compressor.cache_hit");
    const std::uint64_t calls = compressTotals(snap).calls;
    if (units != hits + calls)
        fail.push_back("swap.compress_units " + std::to_string(units) +
                       " != compressor.cache_hit " +
                       std::to_string(hits) + " + compressor.calls " +
                       std::to_string(calls));
    if (snap.counter("fleet.sessions") != w.fleet)
        fail.push_back("fleet.sessions = " +
                       std::to_string(snap.counter("fleet.sessions")));
    const bool swaps = w.regime == SwapRegime::Swaps;
    for (const auto &[name, n] :
         {std::pair{"swap.compress_units", units},
          std::pair{"sys.major_fault", snap.counter("sys.major_fault")},
          std::pair{"kswapd.wakeup", snap.counter("kswapd.wakeup")}}) {
        if (swaps != (n > 0))
            fail.push_back(std::string(name) + " = " + std::to_string(n) +
                           (swaps ? ", expected > 0" : ", expected 0"));
    }
    return fail;
}

} // namespace perfbench
