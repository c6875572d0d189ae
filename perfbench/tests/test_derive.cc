/**
 * @file
 * Self-test of perfbench's metric derivation and correctness gate on
 * canned inputs: a hand-built registry snapshot and fleet report whose
 * derived numbers are known. Also checks the heap meter against
 * allocations of known size. Exits 1 on the first failed check.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <stdexcept>

#include "derive.hh"
#include "heap_meter.hh"

namespace
{

using namespace perfbench;
using ariadne::driver::Event;
using ariadne::driver::FleetResult;
using Registry = ariadne::telemetry::Registry;

/** Allocated through the aligned operator new. */
struct alignas(64) Aligned
{
    char bytes[256];
};

int checks = 0;

void
expect(bool ok, const char *what, int line)
{
    ++checks;
    if (!ok) {
        std::fprintf(stderr, "test_derive:%d: check failed: %s\n", line,
                     what);
        std::exit(1);
    }
}

#define EXPECT(cond) expect((cond), #cond, __LINE__)
#define EXPECT_NEAR(a, b) expect(std::fabs((a) - (b)) < 1e-9, #a " ~ " #b, __LINE__)

double
metric(const Metrics &ms, const std::string &name)
{
    for (const Metric &m : ms)
        if (m.name == name)
            return m.value;
    std::fprintf(stderr, "test_derive: no metric %s\n", name.c_str());
    std::exit(1);
}

Registry::HistogramValue
histogram(const std::string &name, std::uint64_t n, std::uint64_t sum)
{
    Registry::HistogramValue h;
    h.name = name;
    h.buckets[1] = n;
    h.sum = sum;
    return h;
}

/**
 * Two workers ran for 2 s; four sessions took 3 s of worker time.
 * kswapd.run (1.5 s) is inclusive of the 1.2 s of compression under
 * it; the compressor's per-codec probes are leaves.
 */
Snapshot
cannedSwapSnapshot()
{
    Snapshot s;
    s.durations = {
        {"bench.construct", 1, 40000},
        {"bench.report", 1, 3000000},
        {"bench.run", 1, 2000000000},
        {"compressor.compress.lz4", 20, 200000000},
        {"compressor.compress.lzo", 100, 1000000000},
        {"fleet.session", 4, 3000000000},
        {"hotness.decay", 10, 50000000},
        {"kswapd.run", 5, 1500000000},
        {"sys.execute", 40, 200000000},
        {"sys.launch", 4, 100000000},
        {"sys.relaunch", 40, 300000000},
        {"zram.swapin", 60, 6000000},
    };
    s.counters = {
        {"compressor.cache_hit", 30},   {"compressor.cache_miss", 110},
        {"compressor.memo.hit", 10},    {"compressor.memo.miss", 100},
        {"fleet.sessions", 4},          {"hotness.decay_pages", 1000},
        {"kswapd.reclaimed_pages", 75}, {"kswapd.scan_pages", 100},
        {"kswapd.wakeup", 5},           {"sys.major_fault", 60},
        {"sys.page_alloc", 500},        {"sys.touch", 1500000},
    };
    s.histograms = {
        histogram("swap.compress_ns", 150, 0),
        histogram("swap.compressed_size", 150, 300000),
        histogram("swap.decompress_ns", 60, 0),
    };
    return s;
}

void
testMedian()
{
    EXPECT(median({}) == 0.0);
    EXPECT(median({3, 1, 2}) == 2.0);
    EXPECT(median({4, 1, 3, 2}) == 2.5);
}

void
testTailPercentile()
{
    // 1..1000: ten samples lie beyond p99 = 990.
    std::vector<double> v;
    for (int i = 1; i <= 1000; ++i)
        v.push_back(i);
    EXPECT(countAbove(v, 990) == 10);
    EXPECT(tailPercentile(v, 500, 900, 990) == "p99");
    // 1..500: five beyond p99 = 495 is too few, fifty beyond p90.
    v.resize(500);
    EXPECT(tailPercentile(v, 250, 450, 495) == "p90");
    // Ties at the top: samples equal to the percentile are not beyond
    // it.
    std::vector<double> tied(985, 1.0);
    tied.resize(1000, 7.0);
    EXPECT(countAbove(tied, 7.0) == 0);
    EXPECT(tailPercentile(tied, 1.0, 1.0, 7.0) == "p90");
    EXPECT(tailPercentile({1, 2, 3, 4, 5}, 3, 5, 5) == "");
}

void
testLayerMetrics()
{
    Metrics m = layerMetrics(cannedSwapSnapshot(), 2);
    EXPECT_NEAR(metric(m, "bench.run_s"), 2.0);
    EXPECT_NEAR(metric(m, "bench.construct_ms"), 0.04);
    EXPECT_NEAR(metric(m, "driver.session_ms"), 750.0);
    // 3 s of sessions over 2 s x 2 workers.
    EXPECT_NEAR(metric(m, "driver.outside_sessions_share"), 0.25);
    // Session time minus the three foreground operations.
    EXPECT_NEAR(metric(m, "sys.other_s"), 2.4);
    EXPECT_NEAR(metric(m, "sys.ns_per_touch"), 2000.0);
    EXPECT_NEAR(metric(m, "sys.major_faults"), 60.0);
    // Inclusive kswapd time is reported as is, never net of the
    // compression it contains.
    EXPECT_NEAR(metric(m, "kswapd.run_s"), 1.5);
    EXPECT_NEAR(metric(m, "kswapd.reclaim_ratio"), 0.75);
    // Compression is the sum of the per-codec leaves only.
    EXPECT_NEAR(metric(m, "compressor.compress_s"), 1.2);
    EXPECT_NEAR(metric(m, "compressor.calls"), 120.0);
    EXPECT_NEAR(metric(m, "compressor.ns_per_call"), 1e7);
    EXPECT_NEAR(metric(m, "compressor.share"), 0.4);
    EXPECT_NEAR(metric(m, "compressor.cache_hit_ratio"), 30.0 / 140.0);
    EXPECT_NEAR(metric(m, "compressor.memo_hit_ratio"), 10.0 / 110.0);
    EXPECT_NEAR(metric(m, "compressor.unkeyed_calls"), 10.0);
    EXPECT_NEAR(metric(m, "swap.compress_units"), 150.0);
    EXPECT_NEAR(metric(m, "swap.decompressions"), 60.0);
    EXPECT_NEAR(metric(m, "swap.compressed_bytes.mean"), 2000.0);
    EXPECT_NEAR(metric(m, "zram.swapins"), 60.0);
    EXPECT_NEAR(metric(m, "hotness.ns_per_decay_page"), 50000.0);

    // An empty snapshot has zero bases everywhere; ratios read 0.
    Metrics empty = layerMetrics(Snapshot{}, 1);
    for (const Metric &e : empty)
        EXPECT(e.value == 0.0 || e.name == "driver.outside_sessions_share");
    EXPECT_NEAR(metric(empty, "driver.outside_sessions_share"), 1.0);
}

FleetResult
cannedFleet(std::size_t sessions, std::size_t relaunches)
{
    FleetResult r;
    r.fleet = sessions;
    for (std::size_t i = 0; i < sessions; ++i) {
        ariadne::driver::SessionResult s;
        s.index = i;
        for (std::size_t j = 0; j < relaunches; ++j) {
            ariadne::driver::RelaunchSample rs;
            rs.fullScaleMs = static_cast<double>(i * relaunches + j + 1);
            s.relaunches.push_back(rs);
        }
        r.sessions.push_back(s);
    }
    std::uint64_t n = sessions * relaunches;
    r.totalRelaunches = n;
    r.relaunchMs.samples = n;
    r.relaunchMs.p50 = static_cast<double>(n) * 0.5;
    r.relaunchMs.p90 = static_cast<double>(n) * 0.9;
    r.relaunchMs.p99 = static_cast<double>(n) * 0.99;
    return r;
}

void
testCheckFleet()
{
    Workload swaps{"swaps", 10, 1, SwapRegime::Swaps, nullptr};
    Workload noswap{"noswap", 10, 1, SwapRegime::NoSwap, nullptr};
    const std::vector<std::size_t> expected(10, 120);

    FleetResult r = cannedFleet(10, 120);
    r.totalMajorFaults = 5;
    EXPECT(checkFleet(swaps, r, expected).empty());
    EXPECT(checkFleet(noswap, r, expected).size() == 1);

    Metrics rm = reportMetrics(r);
    EXPECT_NEAR(metric(rm, "relaunch.samples"), 1200.0);
    EXPECT_NEAR(metric(rm, "relaunch.beyond_p99"), 12.0);
    EXPECT_NEAR(metric(rm, "predecomp.staged_hit_ratio"), 0.0);
    r.totalStagedHits = 15;
    EXPECT_NEAR(metric(reportMetrics(r), "predecomp.staged_hit_ratio"),
                0.75);

    // A session that relaunched one app fewer than its program says.
    FleetResult short_run = r;
    short_run.sessions[3].relaunches.pop_back();
    EXPECT(checkFleet(swaps, short_run, expected).size() == 1);

    // A fleet whose tail is too thin for p99.
    FleetResult thin = cannedFleet(10, 12);
    thin.totalMajorFaults = 1;
    EXPECT(!checkFleet(swaps, thin, std::vector<std::size_t>(10, 12))
                .empty());

    // A missing session fails the whole fleet.
    FleetResult lost = r;
    lost.sessions.pop_back();
    EXPECT(!checkFleet(swaps, lost, expected).empty());
}

void
testCheckCounters()
{
    Workload swaps{"swaps", 4, 1, SwapRegime::Swaps, nullptr};
    Workload noswap{"noswap", 4, 1, SwapRegime::NoSwap, nullptr};
    Snapshot s = cannedSwapSnapshot();
    EXPECT(checkCounters(swaps, s).empty());
    // Compressions, faults and wakeups are all unexpected here.
    EXPECT(checkCounters(noswap, s).size() == 3);

    // swap.compress_units must equal cache hits plus compressor calls.
    Snapshot off = s;
    off.histograms[0] = histogram("swap.compress_ns", 149, 0);
    EXPECT(checkCounters(swaps, off).size() == 1);

    Snapshot idle;
    idle.counters = {{"fleet.sessions", 4}};
    EXPECT(checkCounters(noswap, idle).empty());
    EXPECT(checkCounters(swaps, idle).size() == 3);
}

void
testMeasuredRelaunches()
{
    using namespace ariadne;
    EXPECT(measuredRelaunches({Event::warmup(),
                               Event::repeat(120, {Event::switchNext(
                                                      2_s, 1_s)})}) ==
           120);
    EXPECT(measuredRelaunches(
               {Event::relaunch("YouTube"),
                Event::repeat(3, {Event::repeat(
                                      2, {Event::switchNext(1_s, 0),
                                          Event::idle(1_s)})})}) == 7);
    bool threw = false;
    try {
        measuredRelaunches({Event::heavyUsage(1_s)});
    } catch (const std::invalid_argument &) {
        threw = true;
    }
    EXPECT(threw);
}

} // namespace

void
testHeapMeter()
{
    constexpr std::size_t mib = std::size_t{1} << 20;
    const std::size_t before = heap::liveBytes();
    heap::resetPeak();
    EXPECT(heap::peakBytes() == before);
    {
        auto block = std::make_unique<char[]>(mib);
        EXPECT(heap::liveBytes() >= before + mib);
        auto aligned = std::make_unique<Aligned>();
        EXPECT(heap::liveBytes() >= before + mib + sizeof(Aligned));
    }
    EXPECT(heap::liveBytes() == before);
    EXPECT(heap::peakBytes() >= before + mib + sizeof(Aligned));
    heap::resetPeak();
    EXPECT(heap::peakBytes() == before);
}

int
main()
{
    testMedian();
    testTailPercentile();
    testLayerMetrics();
    testCheckFleet();
    testCheckCounters();
    testMeasuredRelaunches();
    testHeapMeter();
    std::printf("test_derive: %d checks passed\n", checks);
    return 0;
}
