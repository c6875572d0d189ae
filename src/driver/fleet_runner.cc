#include "driver/fleet_runner.hh"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "driver/json_writer.hh"
#include "driver/workload_source.hh"
#include "mem/page_arena.hh"
#include "report/report_merger.hh"
#include "sim/log.hh"
#include "swap/codec_pool.hh"
#include "swap/page_compressor.hh"
#include "swap/scheme_registry.hh"
#include "telemetry/progress.hh"
#include "telemetry/telemetry.hh"
#include "telemetry/timeline.hh"
#include "telemetry/trace_log.hh"
#include "workload/apps.hh"

namespace ariadne::driver
{

namespace
{

telemetry::Counter c_sessions("fleet.sessions");
telemetry::DurationProbe d_session("fleet.session");

void
writeSummary(JsonWriter &w, const std::string &name,
             const MetricSummary &m, PercentileMode mode)
{
    w.key(name);
    w.beginObject();
    w.field("samples", m.samples);
    w.field("mean", m.mean);
    w.field("min", m.min);
    w.field("max", m.max);
    w.field("p50", m.p50);
    w.field("p90", m.p90);
    w.field("p99", m.p99);
    if (mode == PercentileMode::Sketch)
        w.field("rankErrorBound", m.rankErrorBound);
    w.endObject();
}

void
writeCompStats(JsonWriter &w, const CompStats &c)
{
    w.beginObject();
    w.field("compNs", c.compNs);
    w.field("decompNs", c.decompNs);
    w.field("inBytes", c.inBytes);
    w.field("outBytes", c.outBytes);
    w.field("decompBytes", c.decompBytes);
    w.field("compOps", c.compOps);
    w.field("decompOps", c.decompOps);
    w.field("ratio", c.ratio());
    w.endObject();
}

/**
 * Apply a what-if replay override to the recorded scenario: knob
 * overrides overlay the recorded knobs when the scheme is unchanged
 * (so `--scheme ariadne` on an Ariadne trace — or a pure knob tweak —
 * keeps the recorded configuration), and start from a fresh bag when
 * the scheme differs (another scheme's knobs would fail its schema).
 * The result is validated against the registry; errors surface as
 * SpecError, the driver's configuration-error currency.
 */
void
applySchemeOverride(ScenarioSpec &spec,
                    const std::string &override_scheme,
                    const SchemeParams &override_params)
{
    if (override_scheme.empty() || override_scheme == spec.scheme) {
        for (const auto &[knob, value] : override_params.entries())
            spec.params.set(knob, value);
    } else {
        spec.scheme = override_scheme;
        spec.params = override_params;
    }
    try {
        SchemeRegistry::instance().validate(spec.scheme, spec.params);
    } catch (const SchemeError &e) {
        throw SpecError(std::string("what-if replay override: ") +
                        e.what());
    }
}

} // namespace

unsigned
usableCores()
{
    cpu_set_t mask;
    if (sched_getaffinity(0, sizeof mask, &mask) == 0) {
        int n = CPU_COUNT(&mask);
        if (n > 0)
            return static_cast<unsigned>(n);
    }
    return std::max(1u, std::thread::hardware_concurrency());
}

double
SessionResult::compDecompCpuMs(double scale) const noexcept
{
    return ticksToMs(compCpuNs + decompCpuNs) / scale;
}

FleetRunner::FleetRunner(ScenarioSpec spec,
                         std::vector<SessionHook> hooks)
    : scenario(std::move(spec)), sessionHooks(std::move(hooks))
{
    if (scenario.workload == WorkloadKind::Trace) {
        // The trace carries the recorded scenario; adopt it as the
        // effective spec so the replayed report is byte-identical to
        // the recorded one. An explicit name in the replay spec
        // survives (sweep variants rely on it for side-by-side
        // reports), and a what-if override swaps the scheme the
        // recorded workload runs under; everything else comes from
        // the recording.
        auto replay =
            std::make_shared<TraceReplaySource>(scenario.tracePath);
        ScenarioSpec effective = replay->recordedSpec();
        effective.workload = WorkloadKind::Trace;
        effective.tracePath = scenario.tracePath;
        if (scenario.name != "unnamed")
            effective.name = scenario.name;
        bool what_if = !scenario.replayScheme.empty() ||
                       !scenario.replayParams.empty();
        if (what_if)
            applySchemeOverride(effective, scenario.replayScheme,
                                scenario.replayParams);
        scenario = std::move(effective);
        recordedForEmbed = replay->recordedSpec();
        recordedForEmbed->name = scenario.name;
        if (what_if) {
            // Re-recording a what-if replay must embed the scheme it
            // actually ran (the workload axes stay the recording's).
            recordedForEmbed->scheme = scenario.scheme;
            recordedForEmbed->params = scenario.params;
        }
        source = std::move(replay);
    } else {
        source = makeWorkloadSource(scenario);
    }
}

SessionResult
FleetRunner::runSession(std::size_t index) const
{
    return runSession(index, nullptr, nullptr);
}

std::size_t
FleetRunner::codecHelpers(unsigned workers) const
{
    if (helperOverride)
        return *helperOverride;
    unsigned per_worker = usableCores() / std::max(1u, workers);
    return per_worker > 1 ? per_worker - 1 : 0;
}

SessionResult
FleetRunner::runSession(std::size_t index, TraceRecorder *recorder,
                        PageArena *arena, SizeTable *sizes,
                        CodecPool *codecs) const
{
    c_sessions.add();
    telemetry::ScopedTimer timer(d_session);
    telemetry::TraceSpan span("session", "index", index);
    telemetry::beginSession(static_cast<std::uint32_t>(index));
    SessionResult result;
    result.index = index;
    result.seed = scenario.sessionSeed(index);

    MobileSystem sys(scenario.systemConfig(index),
                     source->sessionProfiles(index), arena, sizes,
                     codecs);
    SessionDriver driver(sys);

    if (recorder) {
        recorder->beginSession(index);
        sys.setObserver(recorder);
    }
    SessionRun run(sys, driver, result, sessionHooks, scenario.scale,
                   recorder);
    source->drive(index, run);
    auto uids = sys.appIds();

    result.compCpuNs = sys.cpu().total(CpuRole::Compression);
    result.decompCpuNs = sys.cpu().total(CpuRole::Decompression);
    result.kswapdCpuNs = sys.kswapdCpuNs();
    result.grandCpuNs = sys.cpu().grandTotal();
    result.energyJ = sys.energyJoules();
    result.simulatedNs = sys.clock().now();
    result.comp = sys.scheme().totalStats();
    for (AppId uid : uids)
        result.appComp[uid] = sys.scheme().appStats(uid);
    result.lostPages = sys.lostRecreations();
    result.directReclaims = sys.scheme().directReclaims();
    for (const auto &sample : result.relaunches) {
        result.stagedHits += sample.stats.stagedHits;
        result.majorFaults += sample.stats.majorFaults;
        result.flashFaults += sample.stats.flashFaults;
    }
    return result;
}

FleetResult
FleetRunner::run(std::size_t fleet, unsigned threads,
                 bool keep_sessions) const
{
    return runFleet(fleet, threads, keep_sessions, nullptr);
}

FleetResult
FleetRunner::runRecorded(const std::string &trace_path,
                         std::size_t fleet, bool keep_sessions) const
{
    TraceWriter writer(trace_path, embeddableSpecText(fleet));
    TraceRecorder recorder(writer);
    FleetResult result = runFleet(fleet, 1, keep_sessions, &recorder);
    writer.close();
    return result;
}

std::string
FleetRunner::embeddableSpecText(std::size_t fleet) const
{
    // Embed the recorded scenario with the fleet size that was
    // actually captured, so a plain replay (`--fleet` omitted) runs
    // exactly the recorded sessions.
    ScenarioSpec spec = recordedForEmbed.value_or(scenario);
    if (fleet != 0)
        spec.fleet = fleet;
    else
        spec.fleet = scenario.fleet;
    return spec.toString();
}

std::size_t
FleetRunner::resolveFleet(std::size_t fleet) const
{
    if (fleet == 0)
        fleet = scenario.fleet;
    fatalIf(fleet == 0, "fleet size must be >= 1");
    if (std::size_t limit = source->sessionLimit();
        limit != 0 && fleet > limit)
        throw SpecError("workload source '" +
                        std::string(source->kind()) + "' supplies " +
                        std::to_string(limit) +
                        " session(s) but the run asked for " +
                        std::to_string(fleet) +
                        " (trace replays cannot exceed the recorded "
                        "fleet)");
    return fleet;
}

report::FleetPartial
FleetRunner::makePartial(std::size_t fleet,
                         const report::ShardPlan &plan) const
{
    report::FleetPartial p(scenario.percentiles, scenario.sketchK);
    p.scenario = scenario.name;
    p.scheme =
        SchemeRegistry::instance().at(scenario.scheme).displayName;
    p.ariadneConfig = scenario.params.getString("config", "");
    p.scale = scenario.scale;
    p.seed = scenario.seed;
    p.fleet = fleet;
    auto [begin, end] = plan.sessionRange(fleet);
    p.sessionsBegin = begin;
    p.sessionsEnd = end;
    return p;
}

void
FleetRunner::runPartialInto(report::FleetPartial &partial,
                            unsigned threads,
                            std::vector<SessionResult> *kept,
                            std::size_t &peak,
                            TraceRecorder *recorder) const
{
    const std::size_t begin = partial.sessionsBegin;
    const std::size_t end = partial.sessionsEnd;
    peak = 0;
    if (begin == end)
        return; // a small fleet can leave a shard empty
    const std::size_t span = end - begin;
    if (recorder) {
        // Recording serializes sessions into one stream; parallel
        // workers would interleave it.
        threads = 1;
    }
    if (threads == 0)
        threads = usableCores();
    if (threads > span)
        threads = static_cast<unsigned>(span);
    const std::size_t helpers = codecHelpers(threads);
    if (kept)
        kept->resize(span);

    // Streaming aggregation. Session indices are claimed in order
    // from an atomic counter; finished results enter a reorder buffer
    // and are folded strictly in index order, so the aggregate cannot
    // observe scheduling. A worker whose index is too far ahead of
    // the fold frontier waits, which bounds the buffer (and therefore
    // peak retained SessionResults) at `window`, independent of the
    // fleet size.
    const std::size_t window = std::size_t{2} * threads;
    std::atomic<std::size_t> next{begin};
    std::mutex mu;
    std::condition_variable room;
    std::map<std::size_t, SessionResult> pending;
    std::size_t fold_frontier = begin;
    std::size_t high_water = 0;

    auto worker = [&](unsigned t) {
        // One arena per worker thread, recycled across every session
        // this worker runs: slabs reach steady-state capacity after
        // the first session and later sessions allocate nothing. Sessions only read/write their own arena, so the
        // aggregate stays bit-identical to private-arena runs.
        PageArena workerArena;
        // The compressed-size table rides along with the arena: same
        // worker-lifetime scope, same bit-identity guarantee (stored
        // sizes equal fresh compressions). With compress_memo = off
        // each session sizes through a table of its own instead.
        SizeTable workerSizes;
        // And so do the codec helpers, which start on the worker's
        // first size batch with two misses and are joined when it
        // ends. Sizes are pure functions of their keys, so reports
        // cannot tell which thread ran a codec.
        CodecPool workerCodecs(helpers, std::to_string(t));
        for (;;) {
            std::size_t i = next.fetch_add(1);
            if (i >= end)
                return;
            {
                std::unique_lock<std::mutex> lk(mu);
                room.wait(lk,
                          [&] { return i < fold_frontier + window; });
            }
            SessionResult s = runSession(
                i, recorder, &workerArena,
                scenario.compressMemo ? &workerSizes : nullptr,
                &workerCodecs);
            std::size_t folded = 0;
            {
                std::unique_lock<std::mutex> lk(mu);
                pending.emplace(i, std::move(s));
                high_water = std::max(high_water, pending.size());
                while (!pending.empty() &&
                       pending.begin()->first == fold_frontier) {
                    SessionResult &head = pending.begin()->second;
                    partial.fold(head);
                    if (kept)
                        (*kept)[fold_frontier - begin] =
                            std::move(head);
                    pending.erase(pending.begin());
                    ++fold_frontier;
                    ++folded;
                }
                room.notify_all();
            }
            // Heartbeats happen outside the fold lock; the meter has
            // its own synchronization and may block on stderr.
            if (folded)
                telemetry::ProgressMeter::global().tick(folded);
        }
    };
    if (threads == 1) {
        telemetry::TraceLog::global().nameThisThread("fleet-main");
        worker(0);
    } else {
        std::vector<std::thread> pool;
        pool.reserve(threads);
        for (unsigned t = 0; t < threads; ++t) {
            pool.emplace_back([&worker, t]() {
                telemetry::TraceLog::global().nameThisThread(
                    "worker-" + std::to_string(t));
                worker(t);
            });
        }
        for (auto &th : pool)
            th.join();
    }
    fatalIf(fold_frontier != end,
            "fleet aggregation lost sessions (internal bug)");
    peak = high_water;
}

FleetResult
FleetRunner::runFleet(std::size_t fleet, unsigned threads,
                      bool keep_sessions,
                      TraceRecorder *recorder) const
{
    fleet = resolveFleet(fleet);
    // An in-process run is the 1/1 shard of the sharded pipeline:
    // fold into a FleetPartial, finalize through the merge code path.
    report::FleetPartial partial =
        makePartial(fleet, report::ShardPlan{});
    std::vector<SessionResult> kept;
    std::size_t peak = 0;
    runPartialInto(partial, threads, keep_sessions ? &kept : nullptr,
                   peak, recorder);
    FleetResult result = report::finalizeFleet(partial);
    result.sessions = std::move(kept);
    result.peakRetainedSessions = peak;
    return result;
}

report::PartialReport
FleetRunner::runShard(const report::ShardPlan &plan, std::size_t fleet,
                      unsigned threads) const
{
    fleet = resolveFleet(fleet);
    report::PartialReport rep;
    rep.kind = report::PartialReport::Kind::Fleet;
    rep.shard = plan;
    rep.fleet = makePartial(fleet, plan);
    std::size_t peak = 0;
    runPartialInto(rep.fleet, threads, nullptr, peak, nullptr);
    return rep;
}

report::PartialReport
FleetRunner::runSweepShard(const SweepSpec &sweep,
                           const report::ShardPlan &plan,
                           std::size_t fleet, unsigned threads)
{
    report::PartialReport rep;
    rep.kind = report::PartialReport::Kind::Sweep;
    rep.shard = plan;
    rep.sweepName = sweep.name;
    rep.variantCount = sweep.variants.size();
    // Shards own disjoint variants, so the merger cannot infer run
    // consistency from overlap the way fleet shards' session ranges
    // do; stamp the run identity for it to cross-check instead.
    rep.sweepSpecHash = report::fnv1a64(sweep.toString());
    rep.fleetOverride = fleet;
    for (std::size_t j = 0; j < sweep.variants.size(); ++j) {
        if (!plan.ownsVariant(j))
            continue;
        // Each owned variant runs its whole fleet as a complete (1/1)
        // partial; the sweep-level shard identity lives on `rep`.
        report::PartialReport variant =
            FleetRunner(sweep.variants[j])
                .runShard(report::ShardPlan{}, fleet, threads);
        rep.variants.push_back({j, std::move(variant.fleet)});
    }
    return rep;
}

SweepResult
FleetRunner::runSweep(const SweepSpec &sweep, std::size_t fleet,
                      unsigned threads, bool keep_sessions)
{
    SweepResult result;
    result.name = sweep.name;
    result.variants.reserve(sweep.variants.size());
    for (const ScenarioSpec &variant : sweep.variants)
        result.variants.push_back(
            FleetRunner(variant).run(fleet, threads, keep_sessions));
    return result;
}

void
FleetResult::writeJson(std::ostream &os, bool per_session) const
{
    JsonWriter w(os);
    writeJson(w, per_session);
    os << "\n";
}

void
FleetResult::writeJson(JsonWriter &w, bool per_session) const
{
    w.beginObject();
    w.field("scenario", scenario);
    w.field("scheme", scheme);
    if (!ariadneConfig.empty())
        w.field("ariadneConfig", ariadneConfig);
    w.field("scale", scale);
    w.field("seed", seed);
    w.field("fleet", fleet);
    w.field("percentiles", percentileModeName(percentiles));
    w.field("totalRelaunches", totalRelaunches);
    w.field("totalStagedHits", totalStagedHits);
    w.field("totalMajorFaults", totalMajorFaults);
    w.field("totalFlashFaults", totalFlashFaults);
    w.field("totalLostPages", totalLostPages);
    w.field("totalDirectReclaims", totalDirectReclaims);

    w.key("metrics");
    w.beginObject();
    writeSummary(w, "relaunchMs", relaunchMs, percentiles);
    writeSummary(w, "compDecompCpuMs", compDecompCpuMs, percentiles);
    writeSummary(w, "kswapdCpuMs", kswapdCpuMs, percentiles);
    writeSummary(w, "energyJoules", energyJ, percentiles);
    writeSummary(w, "compressionRatio", compRatio, percentiles);
    w.endObject();

    if (per_session) {
        w.key("sessions");
        w.beginArray();
        for (const SessionResult &s : sessions) {
            w.beginObject();
            w.field("index", s.index);
            w.field("seed", s.seed);
            w.field("compCpuNs", s.compCpuNs);
            w.field("decompCpuNs", s.decompCpuNs);
            w.field("kswapdCpuNs", s.kswapdCpuNs);
            w.field("grandCpuNs", s.grandCpuNs);
            w.field("energyJoules", s.energyJ);
            w.field("simulatedNs", s.simulatedNs);
            w.field("directReclaims", s.directReclaims);
            w.field("lostPages", s.lostPages);
            w.key("comp");
            writeCompStats(w, s.comp);
            w.key("relaunches");
            w.beginArray();
            for (const auto &sample : s.relaunches) {
                w.beginObject();
                w.field("uid", static_cast<std::uint64_t>(sample.uid));
                w.field("fullScaleMs", sample.fullScaleMs);
                w.field("pagesTouched", sample.stats.pagesTouched);
                w.field("majorFaults", sample.stats.majorFaults);
                w.field("stagedHits", sample.stats.stagedHits);
                w.field("flashFaults", sample.stats.flashFaults);
                w.endObject();
            }
            w.endArray();
            w.endObject();
        }
        w.endArray();
    }
    w.endObject();
}

void
SweepResult::writeJson(std::ostream &os, bool per_session) const
{
    JsonWriter w(os);
    w.beginObject();
    w.field("sweep", name);
    w.field("variantCount",
            static_cast<std::uint64_t>(variants.size()));
    w.key("variants");
    w.beginArray();
    for (const FleetResult &variant : variants)
        variant.writeJson(w, per_session);
    w.endArray();
    w.endObject();
    os << "\n";
}

} // namespace ariadne::driver
