/**
 * @file
 * ariadne_sim — config-driven fleet experiment runner.
 *
 * Runs a fleet of independent simulated devices through one scenario
 * config and reports aggregate percentiles, optionally as JSON:
 *
 *     ariadne_sim --config scenarios/daily.cfg --fleet 64 \
 *                 --threads 8 --json out.json
 *
 * or runs a multi-scenario sweep, comparing named variants side by
 * side in one report:
 *
 *     ariadne_sim --sweep scenarios/sweep_schemes.cfg --json out.json
 *
 * or replays a recorded trace — optionally under a *different*
 * registered scheme (what-if replay; the recorded workload stream is
 * re-run bit-identically), or under *every* registered scheme as one
 * side-by-side sweep:
 *
 *     ariadne_sim --record daily.trace --config scenarios/daily.cfg
 *     ariadne_sim --replay daily.trace --scheme zswap
 *     ariadne_sim --replay daily.trace --sweep-schemes
 *
 * Runs also distribute across processes/machines: each worker runs
 * one deterministic shard and writes a mergeable partial report, and
 * a merge folds the partials into the standard report — in exact
 * percentile mode byte-identical to the unsharded run:
 *
 *     ariadne_sim --config daily.cfg --shard 1/2 --partial a.json
 *     ariadne_sim --config daily.cfg --shard 2/2 --partial b.json
 *     ariadne_sim --merge a.json b.json -o report.json
 *
 * Aggregates are bit-identical regardless of --threads; every
 * session derives its seed from the scenario's base seed and its own
 * index, and sweep variants run in declaration order.
 */

#include <algorithm>
#include <cctype>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/report.hh"
#include "driver/fleet_runner.hh"
#include "report/partial_report.hh"
#include "report/report_merger.hh"
#include "sim/log.hh"
#include "swap/scheme_registry.hh"
#include "telemetry/bench_report.hh"
#include "telemetry/journey.hh"
#include "telemetry/progress.hh"
#include "telemetry/telemetry.hh"
#include "telemetry/timeline.hh"
#include "telemetry/trace_log.hh"
#include "workload/trace.hh"

using namespace ariadne;
using namespace ariadne::driver;

namespace
{

void
usage(std::ostream &os)
{
    os << "usage: ariadne_sim (--config FILE | --sweep FILE | "
          "--replay TRACE |\n"
          "                    --merge PARTIAL...) [options]\n"
          "\n"
          "options:\n"
          "  --config FILE    scenario config (one scenario; sweep "
          "configs are\n"
          "                   auto-detected and run as sweeps)\n"
          "  --sweep FILE     sweep config (named variants, one "
          "side-by-side report)\n"
          "  --replay TRACE   replay a recorded trace (shorthand for "
          "a config with\n"
          "                   `workload = trace` and `trace = "
          "TRACE`)\n"
          "  --scheme NAME    what-if replay: re-run the recorded "
          "workload under\n"
          "                   registered scheme NAME instead of the "
          "recorded one\n"
          "                   (--replay only; see --list-schemes)\n"
          "  --sweep-schemes  what-if sweep: replay the trace under "
          "every registered\n"
          "                   scheme as sweep variants in one "
          "side-by-side report\n"
          "                   (--replay only)\n"
          "  --shard I/N      run only shard I of N (fleets: a "
          "contiguous session\n"
          "                   range; sweeps: round-robin variants) "
          "and write the\n"
          "                   mergeable partial report to --partial. "
          "Merging all N\n"
          "                   partials reproduces the unsharded "
          "report —\n"
          "                   byte-identically with `percentiles = "
          "exact`\n"
          "  --partial FILE   partial-report destination for --shard "
          "('-' = stdout)\n"
          "  --merge P...     fold partial reports (one per shard) "
          "into the final\n"
          "                   report; write it with -o/--json\n"
          "  -o FILE          alias of --json\n"
          "  --fleet N        session count (default: the config's "
          "fleet size)\n"
          "  --threads T      worker threads (default 1; 0 = usable "
          "cores); cores\n"
          "                   the workers leave spare run their codec "
          "work\n"
          "  --record FILE    record the run as a replayable trace "
          "(--config or\n"
          "                   --replay; forces one worker). Replay it "
          "with --replay\n"
          "                   FILE — the replayed report is "
          "byte-identical to the\n"
          "                   recorded one\n"
          "  --json FILE      write the aggregate report as JSON "
          "('-' = stdout)\n"
          "  --per-session    include per-session records in the JSON\n"
          "  --print-config   echo the parsed config and exit\n"
          "  --list-events    document the event vocabulary and exit\n"
          "  --list-schemes   list every registered scheme with its "
          "knob schema\n"
          "  --metrics FILE   write the run's telemetry counters, "
          "durations,\n"
          "                   gauges and histograms as JSON ('-' = "
          "stdout;\n"
          "                   out-of-band: the report is "
          "byte-identical with\n"
          "                   or without it)\n"
          "  --timeline FILE  write sampled gauge time-series as JSON "
          "('-' =\n"
          "                   stdout; one point per "
          "timeline_interval_ms of\n"
          "                   simulated time per session)\n"
          "  --journeys FILE  write sampled page-lifecycle journeys "
          "as JSON\n"
          "                   ('-' = stdout; every journey_sample-th "
          "page,\n"
          "                   chosen deterministically by page key). "
          "With\n"
          "                   --trace-events the journeys also appear "
          "as\n"
          "                   instant events on synthetic trace "
          "threads\n"
          "  --trace-events FILE\n"
          "                   write a Chrome trace-event timeline of "
          "the run\n"
          "                   (load it in Perfetto or "
          "chrome://tracing)\n"
          "  --progress       live heartbeat lines on stderr "
          "(sessions done,\n"
          "                   sessions/sec, ETA)\n"
          "  --quiet          suppress the human-readable summary and "
          "all\n"
          "                   log output\n"
          "  -v, -vv          raise log verbosity (info / debug)\n"
          "  --help           this message\n";
}

void
listEvents(std::ostream &os)
{
    os << "Scenario event vocabulary (one `event = ...` line each; "
          "durations take ns/us/ms/s suffixes):\n"
          "\n"
          "  launch APP               cold-launch APP\n"
          "  execute APP DURATION     run APP in the foreground\n"
          "  background APP           move APP to the background\n"
          "  relaunch APP             hot-relaunch APP and measure it\n"
          "                           (first visit cold-launches "
          "unmeasured)\n"
          "  idle DURATION            idle wall time (kswapd catches "
          "up)\n"
          "  warmup                   launch-use-background every app\n"
          "  switch_next USE GAP      round-robin: relaunch next app, "
          "use USE,\n"
          "                           background, idle GAP\n"
          "  target_scenario APP V    the paper's SS5 measured-relaunch "
          "trace,\n"
          "                           usage-order variant V\n"
          "  prepare_target APP V     target_scenario minus the "
          "measured relaunch\n"
          "  light_usage DURATION [GAP]\n"
          "                           Table 2 light mix (round-robin "
          "switches with\n"
          "                           an intermission; GAP defaults to "
          "1s)\n"
          "  heavy_usage DURATION     Table 2 heavy mix (continuous "
          "switches)\n"
          "  repeat N ... end         run the enclosed block N times "
          "(nestable)\n"
          "\n"
          "Sweep configs add `sweep = NAME` and `variant = NAME` "
          "section lines;\n"
          "lines before the first variant form the base scenario every "
          "variant\n"
          "inherits, and a variant that declares events replaces the "
          "base program.\n"
          "\n"
          "Workload sources (`workload = profiles|trace|synthetic`, "
          "default profiles):\n"
          "\n"
          "  profiles    run the event program over the `apps` mix "
          "(the default)\n"
          "  trace       replay a recorded trace bit-identically; "
          "needs `trace = FILE`\n"
          "              (record one with --record). A `scheme = "
          "NAME` line (plus\n"
          "              scheme.* knobs) re-runs the recorded "
          "workload under another\n"
          "              scheme (what-if replay); no other keys are "
          "allowed\n"
          "  synthetic   generate a heterogeneous user population; "
          "each session\n"
          "              draws its own app subset, footprint spread "
          "and switch-rate\n"
          "              class from the population_* keys:\n"
          "                population_apps_per_user    apps per user "
          "(0 = all)\n"
          "                population_footprint_spread volume spread "
          "in [0, 1)\n"
          "                population_light_share      share of light "
          "users\n"
          "                population_heavy_share      share of heavy "
          "users\n"
          "                population_switches         switches per "
          "regular user\n"
          "                population_use              foreground use "
          "per switch\n"
          "                population_gap              intermission "
          "per switch\n";
}

/** Registry-driven scheme listing (--list-schemes). */
void
listSchemes(std::ostream &os)
{
    os << "Registered swap schemes (select one with `scheme = NAME`; "
          "set policy knobs\n"
          "with namespaced `scheme.<knob> = value` lines, or replay "
          "a recorded trace\n"
          "under another scheme with `--replay TRACE --scheme "
          "NAME`):\n";
    for (const SchemeInfo *info :
         SchemeRegistry::instance().infos()) {
        os << "\n  " << info->key << " (" << info->displayName
           << ")\n      " << info->description << "\n";
        if (info->knobs.empty()) {
            os << "      (no knobs)\n";
            continue;
        }
        for (const SchemeKnob &knob : info->knobs) {
            os << "      scheme." << knob.name << " = <" << knob.type
               << ">  [default " << knob.defaultValue << "]\n"
               << "          " << knob.description << "\n";
        }
    }
}

struct Options
{
    std::string configPath;
    std::string sweepPath;
    std::string replayPath;
    std::string schemeName;
    bool sweepSchemes = false;
    std::size_t fleet = 0;   // 0 = use the spec's
    unsigned threads = 1;
    std::string jsonPath;
    std::string recordPath;
    bool sharded = false;
    report::ShardPlan shard;
    std::string partialPath;
    bool mergeMode = false;
    std::vector<std::string> mergeInputs;
    bool perSession = false;
    bool printConfig = false;
    bool quiet = false;
    int verbosity = 0; // count of -v (1 = info, 2+ = debug)
    std::string metricsPath;
    std::string traceEventsPath;
    std::string timelinePath;
    std::string journeysPath;
    bool progress = false;
};

/**
 * Stream for human-readable status output. A '-' path (`--json -`,
 * `--partial -`, `--metrics -`, `--timeline -`, `--journeys -`) hands
 * stdout to a JSON consumer, so every summary, status line and
 * heartbeat must go to stderr to keep the stream pure JSON.
 */
std::ostream &
statusStream(const Options &opt)
{
    if (opt.jsonPath == "-" || opt.partialPath == "-" ||
        opt.metricsPath == "-" || opt.timelinePath == "-" ||
        opt.journeysPath == "-")
        return std::cerr;
    return std::cout;
}

/** Parse argv; returns false (after printing a message) on error. */
bool
parseArgs(int argc, char **argv, Options &opt)
{
    auto need_value = [&](int i, const char *flag) {
        if (i + 1 >= argc) {
            std::cerr << "ariadne_sim: " << flag
                      << " needs a value\n";
            return false;
        }
        return true;
    };
    auto parse_count = [](const char *flag, const char *text,
                          unsigned long &out) {
        // Digits only: stoul would happily wrap "-1" to a huge value.
        std::string s(text);
        if (!s.empty() &&
            std::all_of(s.begin(), s.end(), [](unsigned char c) {
                return std::isdigit(c);
            })) {
            try {
                out = std::stoul(s);
                return true;
            } catch (const std::out_of_range &) {
            }
        }
        std::cerr << "ariadne_sim: " << flag
                  << " needs a non-negative integer, got '" << text
                  << "'\n";
        return false;
    };
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (!std::strcmp(arg, "--help") || !std::strcmp(arg, "-h")) {
            usage(std::cout);
            std::exit(0);
        } else if (!std::strcmp(arg, "--list-events")) {
            listEvents(std::cout);
            std::exit(0);
        } else if (!std::strcmp(arg, "--list-schemes")) {
            listSchemes(std::cout);
            std::exit(0);
        } else if (!std::strcmp(arg, "--config")) {
            if (!need_value(i, arg))
                return false;
            opt.configPath = argv[++i];
        } else if (!std::strcmp(arg, "--sweep")) {
            if (!need_value(i, arg))
                return false;
            opt.sweepPath = argv[++i];
        } else if (!std::strcmp(arg, "--replay")) {
            if (!need_value(i, arg))
                return false;
            opt.replayPath = argv[++i];
        } else if (!std::strcmp(arg, "--scheme")) {
            if (!need_value(i, arg))
                return false;
            opt.schemeName = argv[++i];
        } else if (!std::strcmp(arg, "--sweep-schemes")) {
            opt.sweepSchemes = true;
        } else if (!std::strcmp(arg, "--shard")) {
            if (!need_value(i, arg))
                return false;
            try {
                opt.shard = report::ShardPlan::parse(argv[++i]);
            } catch (const report::ReportError &e) {
                std::cerr << "ariadne_sim: --shard: " << e.what()
                          << "\n";
                return false;
            }
            opt.sharded = true;
        } else if (!std::strcmp(arg, "--partial")) {
            if (!need_value(i, arg))
                return false;
            opt.partialPath = argv[++i];
        } else if (!std::strcmp(arg, "--merge")) {
            opt.mergeMode = true;
            // Consume the run of partial-report paths that follows.
            while (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) &&
                   std::strcmp(argv[i + 1], "-o"))
                opt.mergeInputs.push_back(argv[++i]);
        } else if (!std::strcmp(arg, "--fleet")) {
            if (!need_value(i, arg))
                return false;
            unsigned long v = 0;
            if (!parse_count(arg, argv[++i], v))
                return false;
            opt.fleet = v;
        } else if (!std::strcmp(arg, "--threads")) {
            if (!need_value(i, arg))
                return false;
            unsigned long v = 0;
            if (!parse_count(arg, argv[++i], v))
                return false;
            opt.threads = static_cast<unsigned>(v);
        } else if (!std::strcmp(arg, "--record")) {
            if (!need_value(i, arg))
                return false;
            opt.recordPath = argv[++i];
        } else if (!std::strcmp(arg, "--json") ||
                   !std::strcmp(arg, "-o")) {
            if (!need_value(i, arg))
                return false;
            opt.jsonPath = argv[++i];
        } else if (!std::strcmp(arg, "--per-session")) {
            opt.perSession = true;
        } else if (!std::strcmp(arg, "--print-config")) {
            opt.printConfig = true;
        } else if (!std::strcmp(arg, "--quiet")) {
            opt.quiet = true;
        } else if (!std::strcmp(arg, "-v")) {
            opt.verbosity = std::max(opt.verbosity, 1);
        } else if (!std::strcmp(arg, "-vv")) {
            opt.verbosity = std::max(opt.verbosity, 2);
        } else if (!std::strcmp(arg, "--metrics")) {
            if (!need_value(i, arg))
                return false;
            opt.metricsPath = argv[++i];
        } else if (!std::strcmp(arg, "--trace-events")) {
            if (!need_value(i, arg))
                return false;
            opt.traceEventsPath = argv[++i];
        } else if (!std::strcmp(arg, "--timeline")) {
            if (!need_value(i, arg))
                return false;
            opt.timelinePath = argv[++i];
        } else if (!std::strcmp(arg, "--journeys")) {
            if (!need_value(i, arg))
                return false;
            opt.journeysPath = argv[++i];
        } else if (!std::strcmp(arg, "--progress")) {
            opt.progress = true;
        } else {
            std::cerr << "ariadne_sim: unknown option '" << arg
                      << "'\n";
            usage(std::cerr);
            return false;
        }
    }
    int sources = (opt.configPath.empty() ? 0 : 1) +
                  (opt.sweepPath.empty() ? 0 : 1) +
                  (opt.replayPath.empty() ? 0 : 1) +
                  (opt.mergeMode ? 1 : 0);
    if (sources != 1) {
        std::cerr << "ariadne_sim: exactly one of --config / --sweep "
                     "/ --replay / --merge is required\n";
        usage(std::cerr);
        return false;
    }
    if (opt.mergeMode) {
        if (opt.mergeInputs.empty()) {
            std::cerr << "ariadne_sim: --merge needs at least one "
                         "partial report file (one per shard)\n";
            usage(std::cerr);
            return false;
        }
        if (opt.sharded || !opt.partialPath.empty() ||
            !opt.recordPath.empty() || opt.perSession) {
            std::cerr << "ariadne_sim: --merge only folds existing "
                         "partial reports; it cannot combine with "
                         "--shard, --partial, --record or "
                         "--per-session\n";
            return false;
        }
    }
    if (!opt.schemeName.empty() && opt.replayPath.empty()) {
        std::cerr << "ariadne_sim: --scheme is a what-if replay "
                     "override and requires --replay (put a `scheme "
                     "= ...` line in the config otherwise)\n";
        return false;
    }
    if (opt.sweepSchemes && opt.replayPath.empty()) {
        std::cerr << "ariadne_sim: --sweep-schemes replays a recorded "
                     "trace under every registered scheme and "
                     "requires --replay\n";
        return false;
    }
    if (opt.sweepSchemes && !opt.schemeName.empty()) {
        std::cerr << "ariadne_sim: --sweep-schemes already replays "
                     "under every scheme; drop --scheme\n";
        return false;
    }
    if (opt.sharded && opt.partialPath.empty()) {
        std::cerr << "ariadne_sim: --shard writes a mergeable partial "
                     "report; add --partial FILE ('-' = stdout)\n";
        return false;
    }
    if (!opt.partialPath.empty() && !opt.sharded) {
        std::cerr << "ariadne_sim: --partial requires --shard I/N "
                     "(an unsharded run writes a final report with "
                     "--json)\n";
        return false;
    }
    if (opt.sharded &&
        (!opt.recordPath.empty() || !opt.jsonPath.empty() ||
         opt.perSession)) {
        std::cerr << "ariadne_sim: --shard produces a partial report "
                     "only; it cannot combine with --record, --json "
                     "or --per-session (merge the partials for the "
                     "final report)\n";
        return false;
    }
    if (!opt.recordPath.empty() && !opt.sweepPath.empty()) {
        std::cerr << "ariadne_sim: --record works with --config or "
                     "--replay only (record each sweep variant "
                     "separately)\n";
        return false;
    }
    if (!opt.recordPath.empty() && opt.sweepSchemes) {
        std::cerr << "ariadne_sim: --record works on single runs, not "
                     "the --sweep-schemes what-if sweep\n";
        return false;
    }
    if (!opt.recordPath.empty() && opt.threads != 1) {
        std::cerr << "ariadne_sim: --record forces --threads 1 (the "
                     "trace serializes sessions in index order)\n";
        opt.threads = 1;
    }
    int stdout_claims = (opt.jsonPath == "-" ? 1 : 0) +
                        (opt.partialPath == "-" ? 1 : 0) +
                        (opt.metricsPath == "-" ? 1 : 0) +
                        (opt.timelinePath == "-" ? 1 : 0) +
                        (opt.journeysPath == "-" ? 1 : 0) +
                        (opt.traceEventsPath == "-" ? 1 : 0);
    if (stdout_claims > 1) {
        std::cerr << "ariadne_sim: only one artifact can stream to "
                     "stdout ('-'); give the others real paths\n";
        return false;
    }
    return true;
}

std::vector<std::string>
summaryRow(const std::string &name, const MetricSummary &m, int prec)
{
    return {name,
            std::to_string(m.samples),
            ReportTable::num(m.mean, prec),
            ReportTable::num(m.p50, prec),
            ReportTable::num(m.p90, prec),
            ReportTable::num(m.p99, prec),
            ReportTable::num(m.min, prec),
            ReportTable::num(m.max, prec)};
}

void
printSummary(std::ostream &os, const FleetResult &r)
{
    printBanner(os, "ariadne_sim: scenario '" + r.scenario + "' — " +
                        r.scheme +
                        (r.ariadneConfig.empty()
                             ? ""
                             : " (" + r.ariadneConfig + ")"));
    os << "fleet " << r.fleet << ", base seed " << r.seed << ", scale "
       << r.scale;
    if (r.percentiles == PercentileMode::Sketch)
        os << ", sketch percentiles (rank-error bounds in the JSON "
              "report)";
    os << "\n\n";

    ReportTable table({"metric", "n", "mean", "p50", "p90", "p99",
                       "min", "max"});
    table.addRow(summaryRow("relaunch latency (ms)", r.relaunchMs, 1));
    table.addRow(
        summaryRow("comp+decomp CPU (ms)", r.compDecompCpuMs, 1));
    table.addRow(summaryRow("kswapd CPU (ms)", r.kswapdCpuMs, 1));
    table.addRow(summaryRow("energy (J)", r.energyJ, 2));
    table.addRow(summaryRow("compression ratio", r.compRatio, 2));
    table.print(os);

    os << "\nrelaunches " << r.totalRelaunches << ", staged hits "
       << r.totalStagedHits << ", major faults " << r.totalMajorFaults
       << ", flash faults " << r.totalFlashFaults << ", lost pages "
       << r.totalLostPages << "\n";
}

void
printSweepSummary(std::ostream &os, const SweepResult &r)
{
    printBanner(os, "ariadne_sim: sweep '" + r.name + "' — " +
                        std::to_string(r.variants.size()) +
                        " variant(s)");

    ReportTable table({"variant", "scheme", "fleet", "relaunch p50",
                       "p90", "p99", "cpu mean (ms)", "energy (J)",
                       "ratio"});
    for (const FleetResult &v : r.variants) {
        std::string scheme = v.scheme;
        if (!v.ariadneConfig.empty())
            scheme += " (" + v.ariadneConfig + ")";
        table.addRow({v.scenario, scheme, std::to_string(v.fleet),
                      ReportTable::num(v.relaunchMs.p50, 1),
                      ReportTable::num(v.relaunchMs.p90, 1),
                      ReportTable::num(v.relaunchMs.p99, 1),
                      ReportTable::num(v.compDecompCpuMs.mean, 1),
                      ReportTable::num(v.energyJ.mean, 2),
                      ReportTable::num(v.compRatio.mean, 2)});
    }
    table.print(os);
}

/** Write the report to --json's target; returns the exit code. */
template <typename Result>
int
emitJson(const Options &opt, const Result &result)
{
    if (opt.jsonPath.empty())
        return 0;
    if (opt.jsonPath == "-") {
        result.writeJson(std::cout, opt.perSession);
        return 0;
    }
    std::ofstream out(opt.jsonPath);
    if (!out) {
        std::cerr << "ariadne_sim: cannot write " << opt.jsonPath
                  << "\n";
        return 1;
    }
    result.writeJson(out, opt.perSession);
    if (!opt.quiet)
        statusStream(opt) << "\nJSON report written to " << opt.jsonPath
                          << "\n";
    return 0;
}

/** Write a shard's partial report; returns the exit code. */
int
emitPartial(const Options &opt, const report::PartialReport &p)
{
    if (opt.partialPath == "-") {
        p.writeJson(std::cout);
        return 0;
    }
    std::ofstream out(opt.partialPath);
    if (!out) {
        std::cerr << "ariadne_sim: cannot write " << opt.partialPath
                  << "\n";
        return 1;
    }
    p.writeJson(out);
    if (!opt.quiet)
        statusStream(opt) << "partial report (shard "
                          << p.shard.toString() << ") written to "
                          << opt.partialPath << "\n";
    return 0;
}

/**
 * Arm telemetry and the progress meter for a run of @p total sessions
 * (0 = unknown) labeled @p label. Called after config parsing so a
 * usage error never produces telemetry files. @p journey_sample is
 * the scenario's journey_sample knob (sample every K-th page).
 */
void
startObservability(const Options &opt, std::uint64_t total,
                   const std::string &label,
                   std::uint64_t journey_sample)
{
    if (!opt.metricsPath.empty())
        telemetry::setEnabled(true);
    if (!opt.traceEventsPath.empty()) {
        telemetry::setEnabled(true);
        telemetry::setTraceEnabled(true);
    }
    if (!opt.timelinePath.empty()) {
        // Gauge sampling rides the telemetry master switch; the
        // timeline switch additionally records each sample as a
        // time-series point.
        telemetry::setEnabled(true);
        telemetry::setTimelineEnabled(true);
    }
    if (!opt.journeysPath.empty())
        telemetry::setJourneyEnabled(true, journey_sample);
    if (opt.progress)
        telemetry::ProgressMeter::global().enable(total, label);
}

/** Write one out-of-band JSON artifact to @p path ('-' = stdout);
 * returns 1 on an unwritable path, else 0. */
template <typename WriteFn>
int
emitArtifact(const std::string &path, WriteFn &&write)
{
    if (path == "-") {
        write(std::cout);
        return 0;
    }
    std::ofstream out(path);
    if (!out) {
        std::cerr << "ariadne_sim: cannot write " << path << "\n";
        return 1;
    }
    write(out);
    return 0;
}

/**
 * Inject the recorded page journeys into the Chrome trace as instant
 * events, one synthetic thread per session so each session's journeys
 * form their own named track. Journey timestamps are *simulated* ns
 * (host-time spans and sim-time instants share the timeline; the
 * track name flags the difference).
 */
void
injectJourneysIntoTrace()
{
    telemetry::TraceLog &log = telemetry::TraceLog::global();
    for (const telemetry::JourneyLog::Event &e :
         telemetry::JourneyLog::global().events()) {
        std::uint32_t tid = 1000 + e.session;
        log.nameSyntheticThread(
            tid, "journeys session " + std::to_string(e.session));
        std::string name = "u" + std::to_string(e.uid) + ".p" +
                           std::to_string(e.pfn) + " " +
                           telemetry::journeyStepName(e.step);
        log.instant(std::move(name), e.tNs, tid,
                    e.detail ? "detail" : nullptr, e.detail);
    }
}

/**
 * Emit the out-of-band artifacts (--metrics / --timeline / --journeys
 * / --trace-events) and the final progress line. Never touches stdout
 * unless an artifact path is explicitly '-'; returns 1 on an
 * unwritable path. @p interval_ms is the run's sampling cadence for
 * the timeline header (0 = mixed/unknown, e.g. across sweep
 * variants); @p journey_sample its sampling stride.
 */
int
finishObservability(const Options &opt, const std::string &scenario,
                    const std::string &spec_text,
                    std::uint64_t interval_ms,
                    std::uint64_t journey_sample)
{
    if (opt.progress) {
        telemetry::ProgressMeter::global().finish();
        telemetry::ProgressMeter::global().disable();
    }
    telemetry::RunMeta meta = telemetry::RunMeta::current();
    meta.threads = opt.threads;
    meta.scenario = scenario;
    meta.scenarioHash =
        spec_text.empty() ? 0 : report::fnv1a64(spec_text);
    int rc = 0;
    if (!opt.metricsPath.empty()) {
        rc |= emitArtifact(opt.metricsPath, [&](std::ostream &os) {
            telemetry::writeMetricsJson(
                os, meta, telemetry::Registry::global().snapshot());
        });
    }
    if (!opt.timelinePath.empty()) {
        rc |= emitArtifact(opt.timelinePath, [&](std::ostream &os) {
            telemetry::writeTimelineJson(os, meta, interval_ms);
        });
    }
    if (!opt.journeysPath.empty()) {
        rc |= emitArtifact(opt.journeysPath, [&](std::ostream &os) {
            telemetry::writeJourneysJson(os, meta, journey_sample);
        });
    }
    if (!opt.traceEventsPath.empty()) {
        if (telemetry::journeyEnabled())
            injectJourneysIntoTrace();
        std::ofstream out(opt.traceEventsPath);
        if (!out) {
            std::cerr << "ariadne_sim: cannot write "
                      << opt.traceEventsPath << "\n";
            rc = 1;
        } else {
            telemetry::TraceLog::global().writeChromeTrace(out);
        }
    }
    return rc;
}

/** The spec a run executes: the --config file, or the --replay
 * trace reference with its optional --scheme what-if override. */
ScenarioSpec
loadSpec(const Options &opt)
{
    if (opt.replayPath.empty())
        return ScenarioSpec::loadFile(opt.configPath);
    ScenarioSpec spec;
    spec.workload = WorkloadKind::Trace;
    spec.tracePath = opt.replayPath;
    if (!opt.schemeName.empty())
        spec.replayScheme = parseSchemeName(opt.schemeName);
    return spec;
}

int
runScenario(const Options &opt)
{
    ScenarioSpec spec = loadSpec(opt);
    if (opt.printConfig) {
        std::cout << spec.toString();
        return 0;
    }
    FleetRunner runner(std::move(spec));
    // For trace replays spec().fleet is the recorded fleet, so the
    // progress total is right in every mode.
    std::size_t fleet =
        opt.fleet ? opt.fleet : runner.spec().fleet;
    if (opt.sharded) {
        auto [begin, end] = opt.shard.sessionRange(fleet);
        startObservability(opt, end - begin,
                           "shard " + opt.shard.toString(),
                           runner.spec().journeySample);
        report::PartialReport part =
            runner.runShard(opt.shard, opt.fleet, opt.threads);
        if (!opt.quiet)
            statusStream(opt)
                << "shard " << part.shard.toString()
                << ": ran sessions [" << part.fleet.sessionsBegin
                << ", " << part.fleet.sessionsEnd << ") of fleet "
                << part.fleet.fleet << "\n";
        int rc = emitPartial(opt, part);
        int obs = finishObservability(opt, runner.spec().name,
                                      runner.spec().toString(),
                                      runner.spec().timelineIntervalMs,
                                      runner.spec().journeySample);
        return rc ? rc : obs;
    }
    startObservability(opt, fleet, runner.spec().name,
                       runner.spec().journeySample);
    // Sessions are only worth retaining when a JSON report will
    // actually carry them; otherwise streaming keeps memory bounded.
    bool keep = opt.perSession && !opt.jsonPath.empty();
    FleetResult result;
    if (opt.recordPath.empty()) {
        result = runner.run(opt.fleet, opt.threads, keep);
    } else {
        result = runner.runRecorded(opt.recordPath, opt.fleet, keep);
        if (!opt.quiet)
            statusStream(opt)
                << "trace recorded to " << opt.recordPath << "\n";
    }
    if (!opt.quiet)
        printSummary(statusStream(opt), result);
    int rc = emitJson(opt, result);
    int obs = finishObservability(opt, runner.spec().name,
                                  runner.spec().toString(),
                                  runner.spec().timelineIntervalMs,
                                  runner.spec().journeySample);
    return rc ? rc : obs;
}

int
runSweep(const Options &opt, const SweepSpec &sweep)
{
    if (opt.printConfig) {
        std::cout << sweep.toString();
        return 0;
    }
    // Sweep session totals are not known up front (variants may carry
    // their own fleet sizes); heartbeats omit percentage and ETA.
    // Variants may disagree on the sampling knobs, so the timeline
    // header reports a mixed cadence (0) and journeys use the default
    // stride.
    startObservability(opt, 0, sweep.name,
                       ScenarioSpec::defaultJourneySample);
    if (opt.sharded) {
        report::PartialReport part = FleetRunner::runSweepShard(
            sweep, opt.shard, opt.fleet, opt.threads);
        if (!opt.quiet)
            statusStream(opt)
                << "shard " << part.shard.toString() << ": ran "
                << part.variants.size() << " of " << part.variantCount
                << " variant(s)\n";
        int rc = emitPartial(opt, part);
        int obs = finishObservability(
            opt, sweep.name, sweep.toString(), 0,
            ScenarioSpec::defaultJourneySample);
        return rc ? rc : obs;
    }
    bool keep = opt.perSession && !opt.jsonPath.empty();
    SweepResult result =
        FleetRunner::runSweep(sweep, opt.fleet, opt.threads, keep);
    if (!opt.quiet)
        printSweepSummary(statusStream(opt), result);
    int rc = emitJson(opt, result);
    int obs = finishObservability(opt, sweep.name, sweep.toString(), 0,
                                  ScenarioSpec::defaultJourneySample);
    return rc ? rc : obs;
}

/**
 * The --sweep-schemes sweep: one variant per registered scheme, each
 * a what-if replay of the trace, so the side-by-side report compares
 * every scheme over the *identical* recorded workload stream.
 */
SweepSpec
schemeSweep(const std::string &trace_path)
{
    SweepSpec sweep;
    sweep.name = "whatif-schemes";
    for (const SchemeInfo *info : SchemeRegistry::instance().infos()) {
        ScenarioSpec variant;
        variant.name = info->key;
        variant.workload = WorkloadKind::Trace;
        variant.tracePath = trace_path;
        variant.replayScheme = info->key;
        sweep.variants.push_back(std::move(variant));
    }
    return sweep;
}

int
runMerge(const Options &opt)
{
    report::MergedReport merged =
        report::mergeReportFiles(opt.mergeInputs);
    if (merged.kind == report::PartialReport::Kind::Fleet) {
        if (!opt.quiet)
            printSummary(statusStream(opt), merged.fleet);
        return emitJson(opt, merged.fleet);
    }
    if (!opt.quiet)
        printSweepSummary(statusStream(opt), merged.sweep);
    return emitJson(opt, merged.sweep);
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parseArgs(argc, argv, opt))
        return 2;

    // --quiet silences everything (including warnings) so scripted
    // pipelines get pure streams; -v / -vv raise verbosity.
    if (opt.quiet)
        setLogLevel(LogLevel::Silent);
    else if (opt.verbosity >= 2)
        setLogLevel(LogLevel::Debug);
    else if (opt.verbosity == 1)
        setLogLevel(LogLevel::Inform);

    // A sweep config handed to --config runs as a sweep: the two
    // formats share their grammar, so the section lines identify it.
    if (opt.sweepPath.empty() && !opt.configPath.empty()) {
        std::ifstream probe(opt.configPath);
        if (probe && looksLikeSweepConfig(probe)) {
            opt.sweepPath = opt.configPath;
            opt.configPath.clear();
        }
    }

    try {
        if (opt.mergeMode)
            return runMerge(opt);
        if (opt.sweepSchemes)
            return runSweep(opt, schemeSweep(opt.replayPath));
        if (!opt.sweepPath.empty())
            return runSweep(opt, SweepSpec::loadFile(opt.sweepPath));
        return runScenario(opt);
    } catch (const SpecError &e) {
        std::cerr << "ariadne_sim: " << e.what() << "\n";
        return 2;
    } catch (const TraceError &e) {
        std::cerr << "ariadne_sim: " << e.what() << "\n";
        return 2;
    } catch (const SchemeError &e) {
        std::cerr << "ariadne_sim: " << e.what() << "\n";
        return 2;
    } catch (const report::ReportError &e) {
        std::cerr << "ariadne_sim: " << e.what() << "\n";
        return 2;
    } catch (const std::exception &e) {
        std::cerr << "ariadne_sim: " << e.what() << "\n";
        return 1;
    }
}
