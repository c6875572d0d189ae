#include "driver/workload_source.hh"

#include <algorithm>

#include "sim/log.hh"
#include "sim/rng.hh"

namespace ariadne::driver
{

namespace
{

/** Distinct salts for the independent per-session draw streams. */
constexpr std::uint64_t profileStreamSalt = 0x70726f66ULL; // "prof"
constexpr std::uint64_t programStreamSalt = 0x70726f67ULL; // "prog"

/** Scale a byte volume by a user's footprint multiplier. */
std::size_t
scaleBytes(std::size_t bytes, double multiplier)
{
    auto scaled = static_cast<std::size_t>(
        static_cast<double>(bytes) * multiplier);
    return std::max(scaled, pageSize);
}

} // namespace

// --- SessionRun ------------------------------------------------------

SessionRun::SessionRun(MobileSystem &sys, SessionDriver &driver,
                       SessionResult &result,
                       const std::vector<SessionHook> &hooks,
                       double scale, TraceRecorder *recorder)
    : sys(sys), sessionDriver(driver), sessionResult(result),
      hooks(hooks), scale(scale), recorder(recorder),
      uids(sys.appIds())
{
}

void
SessionRun::recordSample(AppId uid, const RelaunchStats &st)
{
    RelaunchSample sample;
    sample.uid = uid;
    sample.stats = st;
    sample.fullScaleMs = ticksToMs(st.fullScaleNs(scale));
    sessionResult.relaunches.push_back(sample);
    if (recorder)
        recorder->sampleRecorded(uid, sys.clock().now());
}

void
SessionRun::callHook(std::size_t index)
{
    if (index >= hooks.size())
        panic("custom event references hook " + std::to_string(index) +
              " but only " + std::to_string(hooks.size()) +
              " hook(s) were supplied");
    hooks[index](sys, sessionDriver, sessionResult);
}

AppId
SessionRun::lookup(const std::string &name) const
{
    // Spec validation guarantees the name exists in this mix.
    for (AppId uid : uids)
        if (sys.app(uid).profile().name == name)
            return uid;
    panic("event references app absent from the mix: " + name);
}

AppId
SessionRun::nextApp()
{
    return uids[cursor++ % uids.size()];
}

// --- Event interpreter ----------------------------------------------

void
runEventProgram(SessionRun &run, const std::vector<Event> &program)
{
    MobileSystem &sys = run.system();
    SessionDriver &driver = run.driver();
    for (const Event &ev : program) {
        switch (ev.kind) {
          case Event::Kind::Launch:
            driver.visit(run.lookup(ev.app));
            break;
          case Event::Kind::Execute:
            sys.appExecute(run.lookup(ev.app), ev.duration);
            break;
          case Event::Kind::Background:
            sys.appBackground(run.lookup(ev.app));
            break;
          case Event::Kind::Relaunch: {
            AppId uid = run.lookup(ev.app);
            // A first visit can only cold-launch; visit() reports
            // that with uid == invalidApp and there is nothing to
            // measure.
            RelaunchStats st = driver.visit(uid);
            if (st.uid != invalidApp)
                run.recordSample(uid, st);
            break;
          }
          case Event::Kind::Idle:
            sys.idle(ev.duration);
            break;
          case Event::Kind::Warmup:
            driver.warmUpAllApps();
            break;
          case Event::Kind::SwitchNext: {
            AppId uid = run.nextApp();
            RelaunchStats st = driver.visit(uid);
            if (st.uid != invalidApp)
                run.recordSample(uid, st);
            sys.appExecute(uid, ev.duration);
            sys.appBackground(uid);
            if (ev.gap > 0)
                sys.idle(ev.gap);
            break;
          }
          case Event::Kind::TargetScenario: {
            AppId uid = run.lookup(ev.app);
            run.recordSample(
                uid, driver.targetRelaunchScenario(uid, ev.variant));
            break;
          }
          case Event::Kind::PrepareTarget:
            driver.prepareTargetScenario(run.lookup(ev.app),
                                         ev.variant);
            break;
          case Event::Kind::LightUsage:
            driver.lightUsageScenario(ev.duration, ev.gap);
            break;
          case Event::Kind::HeavyUsage:
            driver.heavyUsageScenario(ev.duration);
            break;
          case Event::Kind::Custom:
            run.callHook(ev.hook);
            break;
          case Event::Kind::Repeat:
            for (std::size_t i = 0; i < ev.count; ++i)
                runEventProgram(run, ev.body);
            break;
        }
    }
}

// --- ProfileProgramSource -------------------------------------------

ProfileProgramSource::ProfileProgramSource(ScenarioSpec spec)
    : spec(std::move(spec))
{
}

std::vector<AppProfile>
ProfileProgramSource::sessionProfiles(std::size_t) const
{
    return spec.appProfiles();
}

void
ProfileProgramSource::drive(std::size_t, SessionRun &run) const
{
    runEventProgram(run, spec.program);
}

// --- SyntheticPopulationSource --------------------------------------

SyntheticPopulationSource::SyntheticPopulationSource(ScenarioSpec spec)
    : spec(std::move(spec)), pool(this->spec.appProfiles())
{
}

std::vector<AppProfile>
SyntheticPopulationSource::sessionProfiles(std::size_t index) const
{
    const PopulationConfig &pop = spec.population;
    Rng rng(mix64(spec.seed ^ mix64(profileStreamSalt + index)));

    // Draw the user's app subset with a partial Fisher-Yates shuffle;
    // the draw order becomes the session's app order, so warmup and
    // round-robin switching differ between users too.
    std::vector<AppProfile> selected = pool;
    std::size_t k = pop.appsPerUser;
    if (k == 0 || k > selected.size())
        k = selected.size();
    for (std::size_t i = 0; i < k; ++i) {
        std::size_t j = i + static_cast<std::size_t>(
                                rng.below(selected.size() - i));
        std::swap(selected[i], selected[j]);
    }
    selected.resize(k);

    // Spread the footprints: one multiplier per app models how much
    // of each app this user actually exercises.
    for (AppProfile &p : selected) {
        double m = 1.0 +
                   pop.footprintSpread * (2.0 * rng.uniform() - 1.0);
        p.anonBytes10s = scaleBytes(p.anonBytes10s, m);
        p.anonBytes5min = scaleBytes(p.anonBytes5min, m);
    }
    return selected;
}

SyntheticPopulationSource::UserClass
SyntheticPopulationSource::sessionClass(std::size_t index) const
{
    const PopulationConfig &pop = spec.population;
    Rng rng(mix64(spec.seed ^ mix64(programStreamSalt + index)));
    double u = rng.uniform();
    if (u < pop.lightShare)
        return UserClass::Light;
    if (u < pop.lightShare + pop.heavyShare)
        return UserClass::Heavy;
    return UserClass::Regular;
}

std::vector<Event>
SyntheticPopulationSource::sessionProgram(std::size_t index) const
{
    const PopulationConfig &pop = spec.population;
    std::size_t switches = pop.switches;
    Tick use = pop.useTime;
    Tick gap = pop.gap;
    switch (sessionClass(index)) {
      case UserClass::Light:
        switches = std::max<std::size_t>(1, switches / 2);
        gap *= 2;
        break;
      case UserClass::Heavy:
        switches *= 2;
        use = std::max<Tick>(1, use / 2);
        gap = 0;
        break;
      case UserClass::Regular:
        break;
    }

    std::vector<Event> program;
    program.push_back(Event::warmup());
    if (switches > 0)
        program.push_back(
            Event::repeat(switches, {Event::switchNext(use, gap)}));
    return program;
}

void
SyntheticPopulationSource::drive(std::size_t index,
                                 SessionRun &run) const
{
    runEventProgram(run, sessionProgram(index));
}

// --- TraceReplaySource ----------------------------------------------

TraceReplaySource::TraceReplaySource(std::string trace_path)
    : path(std::move(trace_path))
{
    TraceReader reader(path, TraceReader::OnError::Throw);
    if (reader.spec().empty())
        throw SpecError(
            "trace " + path + " carries no embedded scenario; only "
            "traces written by `ariadne_sim --record` (or "
            "FleetRunner::runRecorded) can be replayed");
    try {
        recorded = ScenarioSpec::parseString(reader.spec());
    } catch (const SpecError &e) {
        throw SpecError("embedded scenario in " + path +
                        " is invalid: " + e.what());
    }
    if (recorded.workload == WorkloadKind::Trace)
        throw SpecError("embedded scenario in " + path +
                        " is itself a trace replay (corrupt trace?)");
    profileSource = makeWorkloadSource(recorded);

    TraceRecord rec;
    while (reader.next(rec)) {
        if (rec.op == TraceOp::SessionStart) {
            sessions.push_back({records.size(), records.size()});
            continue;
        }
        if (sessions.empty())
            throw SpecError("trace " + path +
                            ": record before the first session");
        records.push_back(rec);
        sessions.back().end = records.size();
    }
    if (sessions.size() != reader.sessionCount())
        throw SpecError(
            "trace " + path + ": header promises " +
            std::to_string(reader.sessionCount()) +
            " session(s) but the file contains " +
            std::to_string(sessions.size()));

    // Structural validation up front, so drive() — which may run on
    // worker threads — can assume a well-formed stream.
    for (std::size_t i = 0; i < records.size(); ++i) {
        if (records[i].op != TraceOp::Touch)
            continue;
        if (i == 0 || (records[i - 1].op != TraceOp::Touch &&
                       records[i - 1].op != TraceOp::Launch &&
                       records[i - 1].op != TraceOp::Execute &&
                       records[i - 1].op != TraceOp::Relaunch))
            throw SpecError("trace " + path + ": touch record " +
                            std::to_string(i) +
                            " outside an op block");
    }
}

std::vector<AppProfile>
TraceReplaySource::sessionProfiles(std::size_t index) const
{
    return profileSource->sessionProfiles(index);
}

void
TraceReplaySource::drive(std::size_t index, SessionRun &run) const
{
    panicIf(index >= sessions.size(),
            "trace replay session index out of range");
    MobileSystem &sys = run.system();
    const Span &span = sessions[index];
    std::size_t idx = span.begin;

    auto collect_touches = [&](std::vector<TouchEvent> &out) {
        while (idx < span.end &&
               records[idx].op == TraceOp::Touch) {
            const TraceRecord &t = records[idx++];
            out.push_back(TouchEvent{t.pfn, t.version, t.truth,
                                     t.newAllocation, false});
        }
    };

    while (idx < span.end) {
        const TraceRecord &rec = records[idx++];
        std::vector<TouchEvent> touches;
        switch (rec.op) {
          case TraceOp::Launch:
            collect_touches(touches);
            sys.runColdLaunch(rec.uid, touches);
            break;
          case TraceOp::Execute:
            collect_touches(touches);
            sys.runExecute(rec.uid, rec.pfn, touches);
            break;
          case TraceOp::Background:
            sys.appBackground(rec.uid);
            break;
          case TraceOp::Relaunch: {
            collect_touches(touches);
            RelaunchStats st = sys.runRelaunch(rec.uid, touches);
            if (idx < span.end &&
                records[idx].op == TraceOp::RelaunchEnd)
                ++idx;
            if (idx < span.end &&
                records[idx].op == TraceOp::Sample) {
                ++idx;
                run.recordSample(rec.uid, st);
            }
            break;
          }
          case TraceOp::Idle:
            sys.idle(rec.pfn);
            break;
          case TraceOp::RelaunchEnd:
          case TraceOp::Sample:
          case TraceOp::Free:
            // Stray markers are harmless; Free is reserved.
            break;
          case TraceOp::Touch:
          case TraceOp::SessionStart:
            panic("trace replay hit an unexpected record (validated "
                  "at load — internal bug)");
        }
    }
}

// --- Factory ---------------------------------------------------------

std::shared_ptr<const WorkloadSource>
makeWorkloadSource(const ScenarioSpec &spec)
{
    switch (spec.workload) {
      case WorkloadKind::Profiles:
        return std::make_shared<ProfileProgramSource>(spec);
      case WorkloadKind::Synthetic:
        return std::make_shared<SyntheticPopulationSource>(spec);
      case WorkloadKind::Trace:
        return std::make_shared<TraceReplaySource>(spec.tracePath);
    }
    panic("unknown workload kind");
}

// --- TraceRecorder ---------------------------------------------------

void
TraceRecorder::beginSession(std::size_t index)
{
    writer.beginSession(index);
}

void
TraceRecorder::onOp(TraceOp op, AppId uid, Tick arg, Tick now)
{
    TraceRecord rec;
    rec.time = now;
    rec.op = op;
    rec.uid = uid;
    rec.pfn = arg;
    writer.append(rec);
}

void
TraceRecorder::onTouch(AppId uid, const TouchEvent &ev, Tick now)
{
    TraceRecord rec;
    rec.time = now;
    rec.op = TraceOp::Touch;
    rec.uid = uid;
    rec.pfn = ev.pfn;
    rec.version = ev.version;
    rec.truth = ev.truth;
    rec.newAllocation = ev.newAllocation;
    writer.append(rec);
}

void
TraceRecorder::sampleRecorded(AppId uid, Tick now)
{
    TraceRecord rec;
    rec.time = now;
    rec.op = TraceOp::Sample;
    rec.uid = uid;
    rec.pfn = 0;
    writer.append(rec);
}

} // namespace ariadne::driver
