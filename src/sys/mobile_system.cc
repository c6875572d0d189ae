#include "sys/mobile_system.hh"

#include <algorithm>

#include "mem/flash.hh"
#include "mem/zpool.hh"
#include "sim/log.hh"
#include "telemetry/journey.hh"
#include "telemetry/telemetry.hh"
#include "telemetry/timeline.hh"
#include "telemetry/trace_log.hh"

namespace ariadne
{

namespace
{

// Hot-path probes (subsystem.verb). Namespace-scope statics so the
// name→slot interning happens once, before any hot loop.
telemetry::Counter c_touch("sys.touch");
telemetry::Counter c_alloc("sys.page_alloc");
telemetry::Counter c_majorFault("sys.major_fault");
telemetry::Counter c_lostRecreate("sys.lost_recreate");
telemetry::Counter c_launch("sys.launch");
telemetry::Counter c_relaunch("sys.relaunch");
telemetry::Counter c_background("sys.background");
telemetry::Counter c_execute("sys.execute");
telemetry::Counter c_idle("sys.idle");
telemetry::DurationProbe d_launch("sys.launch");
telemetry::DurationProbe d_execute("sys.execute");
telemetry::DurationProbe d_relaunch("sys.relaunch");

// Flight-recorder gauges, sampled on the timeline_interval_ms
// cadence (sampleGauges). Values are simulated state at simulated
// times, so summaries are thread- and shard-invariant — except the
// compressor.* rate, whose backing size table is shared across the
// sessions one worker happens to run (volatile, like the compressor
// counters).
telemetry::TimelineGauge g_freePages("mem.free_pages");
telemetry::TimelineGauge g_watermarkHeadroom("mem.watermark_headroom");
telemetry::TimelineGauge g_zpoolBytes("swap.zpool_bytes");
telemetry::TimelineGauge g_flashBytes("swap.flash_bytes");
telemetry::TimelineGauge g_compressedBytes("swap.compressed_bytes");
telemetry::TimelineGauge g_hotPages("hotness.hot_pages");
telemetry::TimelineGauge g_warmPages("hotness.warm_pages");
telemetry::TimelineGauge g_coldPages("hotness.cold_pages");
telemetry::TimelineGauge
    g_cacheHitPermille("compressor.cache_hit_permille");
telemetry::TimelineGauge g_cpuBusyPermille("cpu.busy_permille");

// Latency distributions of *simulated* nanoseconds, with per-app
// breakdowns for the leading uids.
telemetry::AppHistogram h_faultNs("sys.major_fault_ns");
telemetry::AppHistogram h_relaunchNs("sys.relaunch_ns");

} // namespace

MobileSystem::MobileSystem(const SystemConfig &config,
                           const std::vector<AppProfile> &profiles,
                           PageArena *shared_arena,
                           SizeTable *sizes, CodecPool *codecs)
    : cfg(config), timing(cfg.timing), appProfiles(profiles),
      ownedArena(shared_arena ? nullptr
                              : std::make_unique<PageArena>()),
      arena(shared_arena ? *shared_arena : *ownedArena)
{
    fatalIf(appProfiles.empty(), "MobileSystem needs at least one app");
    // A shared arena carries the previous session's records; recycle
    // them (an owned arena is empty, so this is free).
    arena.reset();

    // Size the anonymous-page budget. Ideal-DRAM-style schemes get
    // enough memory to never reclaim (the paper's optimistic bound).
    std::size_t dram_bytes = static_cast<std::size_t>(
        static_cast<double>(cfg.dramBytes) * cfg.scale);
    if (SchemeRegistry::instance().at(cfg.scheme).unboundedDram) {
        std::size_t need = 0;
        for (const auto &p : appProfiles)
            need += p.anonBytes5min;
        dram_bytes = static_cast<std::size_t>(
                         static_cast<double>(need) * cfg.scale) *
                         2 +
                     (std::size_t{64} << 20);
    }
    dramModel = std::make_unique<Dram>(dram_bytes, cfg.lowWatermark,
                                       cfg.highWatermark);

    synth = std::make_unique<PageSynthesizer>(appProfiles);
    pageCompressor =
        std::make_unique<PageCompressor>(*synth, sizes, codecs);
    makeScheme();
    reclaimDaemon = std::make_unique<Kswapd>(
        SwapContext{simClock, timing, cpuAccount, activity, *dramModel,
                    *pageCompressor},
        *swapScheme);

    for (const auto &p : appProfiles) {
        instances.emplace(
            std::piecewise_construct, std::forward_as_tuple(p.uid),
            std::forward_as_tuple(p, cfg.scale,
                                  mix64(cfg.seed ^ p.uid)));
    }

    // Arm the flight recorder's sampling cadence. Only when telemetry
    // is on: disarmed, maybeSample() is one load and a branch.
    if (telemetry::enabled() && cfg.timelineIntervalMs > 0) {
        sampleIntervalNs =
            static_cast<Tick>(cfg.timelineIntervalMs) * 1'000'000;
        nextSampleNs = sampleIntervalNs;
    }
}

void
MobileSystem::makeScheme()
{
    SwapContext ctx{simClock,   timing,     cpuAccount,
                    activity,   *dramModel, *pageCompressor};

    swapScheme = SchemeRegistry::instance().build(
        cfg.scheme, ctx, cfg.schemeParams, cfg.scale);

    // Offline profiling seed: expected hot pages per app (§4.2),
    // derived from the profiles this system carries — which is why
    // the system layer, not the scheme factory, performs it. Any
    // scheme with the hotness capability participates; the
    // `seed_profiles` knob is the D1 ablation axis.
    HotnessAware *predictor = swapScheme->hotness();
    if (predictor &&
        cfg.schemeParams.getBool("seed_profiles", true)) {
        for (const auto &p : appProfiles) {
            auto hot_pages = static_cast<std::size_t>(
                p.hotFraction *
                static_cast<double>(p.anonBytes10s) * cfg.scale /
                static_cast<double>(pageSize));
            predictor->seedProfile(
                p.uid, std::max<std::size_t>(1, hot_pages));
        }
    }
}

AppInstance &
MobileSystem::app(AppId uid)
{
    auto it = instances.find(uid);
    panicIf(it == instances.end(), "unknown app uid");
    return it->second;
}

std::vector<AppId>
MobileSystem::appIds() const
{
    std::vector<AppId> uids;
    uids.reserve(appProfiles.size());
    for (const auto &p : appProfiles)
        uids.push_back(p.uid);
    return uids;
}

MobileSystem::AppDir &
MobileSystem::dirFor(AppId uid)
{
    auto it = std::lower_bound(
        appDirs.begin(), appDirs.end(), uid,
        [](const std::unique_ptr<AppDir> &d, AppId u) {
            return d->uid < u;
        });
    if (it != appDirs.end() && (*it)->uid == uid)
        return **it;
    auto dir = std::make_unique<AppDir>();
    dir->uid = uid;
    return **appDirs.insert(it, std::move(dir));
}

PageMeta &
MobileSystem::metaFor(const PageKey &key)
{
    PageMeta *meta = dirFor(key.uid).page(key.pfn);
    panicIf(!meta, "metaFor on unknown page");
    return *meta;
}

void
MobileSystem::chargeFileWriteback(std::size_t new_pages)
{
    filePageDebt += cfg.fileWritebackPerAnonAlloc *
                    static_cast<double>(new_pages);
    if (filePageDebt >= 1.0) {
        auto pages = static_cast<std::uint64_t>(filePageDebt);
        filePageDebt -= static_cast<double>(pages);
        // File writeback runs on the kswapd thread; CPU only.
        cpuAccount.charge(CpuRole::FileWriteback,
                          pages * timing.params().fileWritebackCpuNs);
        activity.flashWriteBytes += pages * pageSize;
    }
}

void
MobileSystem::maybeKswapd()
{
    if (!inRelaunch)
        reclaimDaemon->maybeRun();
}

void
MobileSystem::sampleGauges()
{
    Tick now = simClock.now();
    // One sample per crossing: after a long idle jump, one point
    // lands at `now` and the cadence realigns to the next boundary.
    nextSampleNs = now - now % sampleIntervalNs + sampleIntervalNs;

    std::size_t free = dramModel->freePages();
    std::size_t low = dramModel->lowWatermarkPages();
    g_freePages.sample(now, free);
    g_watermarkHeadroom.sample(now, free > low ? free - low : 0);

    if (const Zpool *pool = swapScheme->zpool())
        g_zpoolBytes.sample(now, pool->storedBytes());
    if (const FlashDevice *fl = swapScheme->flash())
        g_flashBytes.sample(now, fl->liveBytes());
    g_compressedBytes.sample(now,
                             swapScheme->compressedStoredBytes());

    std::size_t hot = 0, warm = 0, cold = 0;
    if (swapScheme->levelPopulations(hot, warm, cold)) {
        g_hotPages.sample(now, hot);
        g_warmPages.sample(now, warm);
        g_coldPages.sample(now, cold);
    }

    auto permille = [](std::uint64_t part, std::uint64_t whole) {
        return whole ? part * 1000 / whole : 0;
    };
    std::uint64_t ch = pageCompressor->cacheHits();
    std::uint64_t cm = pageCompressor->cacheMisses();
    if (ch + cm)
        g_cacheHitPermille.sample(now, permille(ch, ch + cm));
    if (now)
        g_cpuBusyPermille.sample(
            now, permille(cpuAccount.grandTotal(), now));
}

void
MobileSystem::processTouch(AppDir &dir, const TouchEvent &ev,
                           RelaunchStats *stats)
{
    c_touch.add();
    if (stats)
        ++stats->pagesTouched;
    if (dir.capturing)
        dir.capture.set(ev.pfn);

    PageMeta *slot = dir.page(ev.pfn);
    if (!slot) {
        // First allocation of this page.
        PageMeta &ref = *arena.alloc();
        ref.key = PageKey{dir.uid, ev.pfn};
        ref.version = ev.version;
        ref.truth = ev.truth; // alloc() defaults location to Resident
        if (ev.pfn >= dir.pages.size())
            dir.pages.resize(
                std::max<std::size_t>(ev.pfn + 1,
                                      dir.pages.size() * 2),
                nullptr);
        dir.pages[ev.pfn] = &ref;

        c_alloc.add();
        if (!dramModel->allocate(1)) {
            swapScheme->reclaim(cfg.directReclaimBatch, true);
            panicIf(!dramModel->allocate(1),
                    "allocation failed after direct reclaim");
        }
        telemetry::journeyMark(dir.uid, ev.pfn,
                               telemetry::JourneyStep::Alloc,
                               simClock.now());
        swapScheme->onAdmit(ref);
        cpuAccount.charge(CpuRole::AppExecution, cfg.pageTouchNs);
        simClock.advance(cfg.pageTouchNs);
        activity.dramBytes += pageSize;
        chargeFileWriteback(1);
        if (!inRelaunch)
            maybeKswapd();
        maybeSample();
        return;
    }

    PageMeta &meta = *slot;
    meta.truth = ev.truth;

    switch (meta.location) {
      case PageLocation::Resident:
        cpuAccount.charge(CpuRole::AppExecution, cfg.pageTouchNs);
        simClock.advance(cfg.pageTouchNs);
        activity.dramBytes += pageSize;
        swapScheme->onAccess(meta);
        break;

      case PageLocation::Lost: {
        // Data was dropped under pressure; the app must rebuild it.
        c_lostRecreate.add();
        ++lostPages;
        if (stats)
            ++stats->lostRecreated;
        if (!dramModel->allocate(1)) {
            swapScheme->reclaim(cfg.directReclaimBatch, true);
            panicIf(!dramModel->allocate(1),
                    "allocation failed after direct reclaim");
        }
        meta.location = PageLocation::Resident;
        swapScheme->onAdmit(meta);
        Tick rebuild = cfg.pageTouchNs + timing.params().dramPageCopyNs;
        cpuAccount.charge(CpuRole::AppExecution, rebuild);
        simClock.advance(rebuild);
        activity.dramBytes += pageSize;
        telemetry::journeyMark(dir.uid, ev.pfn,
                               telemetry::JourneyStep::Recreate,
                               simClock.now());
        break;
      }

      default: {
        c_majorFault.add();
        SwapInResult res = swapScheme->swapIn(meta);
        if (stats) {
            ++stats->majorFaults;
            if (res.stagedHit)
                ++stats->stagedHits;
            if (res.fromFlash)
                ++stats->flashFaults;
        }
        h_faultNs.record(dir.uid, res.latencyNs);
        telemetry::journeyMark(dir.uid, ev.pfn,
                               telemetry::JourneyStep::SwapIn,
                               simClock.now(), res.latencyNs);
        cpuAccount.charge(CpuRole::AppExecution, cfg.pageTouchNs);
        simClock.advance(cfg.pageTouchNs);
        break;
      }
    }
    meta.version = ev.version;
    if (!inRelaunch)
        maybeKswapd();
    maybeSample();
}

void
MobileSystem::runTouches(AppId uid,
                         const std::vector<TouchEvent> &events,
                         RelaunchStats *stats)
{
    AppDir &dir = dirFor(uid);
    for (const auto &ev : events) {
        if (observer)
            observer->onTouch(uid, ev, simClock.now());
        processTouch(dir, ev, stats);
    }
}

void
MobileSystem::appColdLaunch(AppId uid)
{
    runColdLaunch(uid, app(uid).coldLaunch());
}

void
MobileSystem::runColdLaunch(AppId uid,
                            const std::vector<TouchEvent> &events)
{
    c_launch.add();
    telemetry::ScopedTimer timer(d_launch);
    telemetry::TraceSpan span("cold_launch", "uid", uid);
    if (observer)
        observer->onOp(TraceOp::Launch, uid, 0, simClock.now());
    Tick create = timing.params().processCreateNs;
    cpuAccount.charge(CpuRole::AppExecution, create);
    simClock.advance(create);
    runTouches(uid, events, nullptr);
    maybeKswapd();
}

void
MobileSystem::appExecute(AppId uid, Tick dt)
{
    runExecute(uid, dt, app(uid).execute(dt));
}

void
MobileSystem::runExecute(AppId uid, Tick dt,
                         const std::vector<TouchEvent> &events)
{
    c_execute.add();
    telemetry::ScopedTimer timer(d_execute);
    if (observer)
        observer->onOp(TraceOp::Execute, uid, dt, simClock.now());
    Tick start = simClock.now();
    runTouches(uid, events, nullptr);
    simClock.advanceTo(start + dt);
    maybeKswapd();
    maybeSample();
}

void
MobileSystem::appBackground(AppId uid)
{
    c_background.add();
    if (observer)
        observer->onOp(TraceOp::Background, uid, 0, simClock.now());
    swapScheme->onBackground(uid);
    maybeKswapd();
}

RelaunchStats
MobileSystem::appRelaunch(AppId uid)
{
    return runRelaunch(uid, app(uid).relaunch());
}

RelaunchStats
MobileSystem::runRelaunch(AppId uid,
                          const std::vector<TouchEvent> &events)
{
    c_relaunch.add();
    telemetry::ScopedTimer timer(d_relaunch);
    telemetry::TraceSpan span("relaunch", "uid", uid);
    if (observer)
        observer->onOp(TraceOp::Relaunch, uid, 0, simClock.now());
    RelaunchStats stats;
    stats.uid = uid;

    // Capture the scheme's prediction before the relaunch clears it.
    std::vector<PageKey> predicted;
    if (const HotnessAware *predictor = swapScheme->hotness())
        predicted = predictor->predictedHotSet(uid);

    swapScheme->onRelaunchStart(uid);
    inRelaunch = true;
    Stopwatch sw(simClock);

    Tick base = timing.params().relaunchBaseNs;
    cpuAccount.charge(CpuRole::AppExecution, base);
    simClock.advance(base);

    runTouches(uid, events, &stats);

    stats.totalNs = sw.elapsed();
    stats.baseNs = base;
    stats.pagingNs = stats.totalNs - base;
    h_relaunchNs.record(uid, stats.totalNs);

    inRelaunch = false;
    swapScheme->onRelaunchEnd(uid);
    maybeKswapd();
    if (observer)
        observer->onOp(TraceOp::RelaunchEnd, uid, 0, simClock.now());

    // Coverage of the prediction against what the relaunch touched.
    if (!predicted.empty()) {
        PfnBitmap predicted_set;
        for (const auto &key : predicted)
            predicted_set.set(key.pfn);
        std::size_t covered = 0;
        std::size_t distinct = 0;
        PfnBitmap seen;
        for (const auto &ev : events) {
            if (seen.set(ev.pfn)) {
                ++distinct;
                if (predicted_set.test(ev.pfn))
                    ++covered;
            }
        }
        stats.predictedPages = predicted.size();
        stats.coverage = distinct == 0
                             ? 0.0
                             : static_cast<double>(covered) /
                                   static_cast<double>(distinct);
    }
    return stats;
}

void
MobileSystem::idle(Tick dt)
{
    c_idle.add();
    if (observer)
        observer->onOp(TraceOp::Idle, invalidApp, dt, simClock.now());
    simClock.advance(dt);
    maybeKswapd();
    maybeSample();
}

void
MobileSystem::startTouchCapture(AppId uid)
{
    AppDir &dir = dirFor(uid);
    dir.capture.clear();
    dir.capturing = true;
}

std::vector<Pfn>
MobileSystem::stopTouchCapture(AppId uid)
{
    AppDir &dir = dirFor(uid);
    if (!dir.capturing)
        return {};
    std::vector<Pfn> result = dir.capture.toSortedVector();
    dir.capture.clear();
    dir.capturing = false;
    return result;
}

Tick
MobileSystem::kswapdCpuNs() const noexcept
{
    return reclaimDaemon->cpuNs() +
           swapScheme->backgroundReclaimCpuNs() +
           cpuAccount.total(CpuRole::FileWriteback);
}

ActivityTotals
MobileSystem::activityTotals() const
{
    ActivityTotals totals = activity;
    totals.wallTimeNs = simClock.now();
    totals.cpuBusyNs = cpuAccount.grandTotal();
    return totals;
}

double
MobileSystem::energyJoules() const
{
    return EnergyModel(cfg.energy).joules(activityTotals());
}

double
MobileSystem::windowEnergyJoules(const ActivityTotals &before,
                                 Tick wall_ns, double scale) const
{
    ActivityTotals totals = activityTotals();
    totals.cpuBusyNs -= before.cpuBusyNs;
    totals.dramBytes -= before.dramBytes;
    totals.flashReadBytes -= before.flashReadBytes;
    totals.flashWriteBytes -= before.flashWriteBytes;
    totals.wallTimeNs = wall_ns;
    totals.cpuBusyNs = static_cast<Tick>(
        static_cast<double>(totals.cpuBusyNs) / scale);
    totals.dramBytes = static_cast<std::size_t>(
        static_cast<double>(totals.dramBytes) / scale);
    totals.flashReadBytes = static_cast<std::size_t>(
        static_cast<double>(totals.flashReadBytes) / scale);
    totals.flashWriteBytes = static_cast<std::size_t>(
        static_cast<double>(totals.flashWriteBytes) / scale);
    return EnergyModel(cfg.energy).joules(totals);
}

} // namespace ariadne
