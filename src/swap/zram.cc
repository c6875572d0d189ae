#include "swap/zram.hh"

#include <algorithm>

#include "sim/log.hh"
#include "telemetry/journey.hh"
#include "telemetry/telemetry.hh"

namespace ariadne
{

namespace
{

telemetry::Counter c_compressOut("zram.compress_out");
telemetry::Counter c_writeback("zram.writeback");
telemetry::Counter c_dropped("zram.dropped");
telemetry::Counter c_swapinZpool("zram.swapin_zpool");
telemetry::Counter c_swapinFlash("zram.swapin_flash");
telemetry::DurationProbe d_swapin("zram.swapin");

} // namespace

ZramScheme::ZramScheme(SwapContext context, ZramConfig config)
    : SwapScheme(context), cfg(config), codec(makeCodec(cfg.codec)),
      pool(cfg.zpoolBytes)
{
    if (cfg.writeback)
        flashDev = std::make_unique<FlashDevice>(cfg.flashBytes);
}

std::string
ZramScheme::name() const
{
    return cfg.writeback ? "zswap" : "zram";
}

namespace
{

/** Shared schema/factory of the zram and zswap registrations; they
 * differ only in the writeback axis (and zswap's flash knob). */
SchemeInfo
zramFamilyInfo(bool writeback)
{
    SchemeInfo info;
    info.key = writeback ? "zswap" : "zram";
    info.displayName = writeback ? "ZSWAP" : "ZRAM";
    info.description =
        writeback ? "ZRAM baseline with ZSWAP-style writeback: "
                    "oldest compressed objects spill to flash when "
                    "the zpool fills"
                  : "state-of-the-art Android baseline: 4 KB "
                    "compression chunks, LRU victims, on-demand "
                    "decompression";
    info.knobs = {
        {"zpool_mb", "mb", "3072", "zpool capacity (paper scale)"},
        {"reclaim_batch", "u64", "32",
         "pages compressed per reclaim batch"},
        {"proactive_fraction", "double", "0.03",
         "share of a backgrounded app's resident pages compressed "
         "proactively",
         [](const std::string &value) {
             SchemeParams probe;
             probe.set("proactive_fraction", value);
             double v = probe.getDouble("proactive_fraction", 0.0);
             if (v < 0.0 || v > 1.0)
                 throw SchemeError("scheme knob 'proactive_fraction' "
                                   "must be in [0, 1], got '" + value +
                                   "'");
         }},
        {"codec", "string", "lzo",
         "compression codec (lzo|lz4|bdi|null)",
         [](const std::string &value) { parseCodecKnob(value); }},
    };
    if (writeback)
        info.knobs.push_back({"flash_mb", "mb", "8192",
                              "flash swap-space capacity for "
                              "compressed writeback (paper scale)"});
    info.build = [writeback](SwapContext ctx,
                             const SchemeParams &params,
                             double scale) {
        ZramConfig zc;
        zc.writeback = writeback;
        zc.zpoolBytes = scaledBytes(
            params.getMiB("zpool_mb", zc.zpoolBytes), scale);
        zc.flashBytes = scaledBytes(
            params.getMiB("flash_mb", zc.flashBytes), scale);
        zc.reclaimBatch =
            params.getU64("reclaim_batch", zc.reclaimBatch);
        // Range-checked by the knob's check lambda at validate time.
        zc.proactiveFraction = params.getDouble("proactive_fraction",
                                                zc.proactiveFraction);
        if (const std::string *codec = params.raw("codec"))
            zc.codec = parseCodecKnob(*codec);
        return std::make_unique<ZramScheme>(ctx, zc);
    };
    return info;
}

} // namespace

SchemeInfo
zramSchemeInfo()
{
    return zramFamilyInfo(/*writeback=*/false);
}

SchemeInfo
zswapSchemeInfo()
{
    return zramFamilyInfo(/*writeback=*/true);
}

ZramScheme::AppState &
ZramScheme::stateFor(AppId uid)
{
    auto it = std::lower_bound(
        appStates.begin(), appStates.end(), uid,
        [](const std::unique_ptr<AppState> &a, AppId u) {
            return a->uid < u;
        });
    if (it != appStates.end() && (*it)->uid == uid)
        return **it;
    return **appStates.insert(
        it, std::make_unique<AppState>(uid, &lruOpCounter));
}

ZramScheme::AppState *
ZramScheme::oldestAppWithPages()
{
    AppState *oldest = nullptr;
    for (const auto &state : appStates) {
        if (state->resident.empty())
            continue;
        if (!oldest || state->lastAccess < oldest->lastAccess)
            oldest = state.get();
    }
    return oldest;
}

void
ZramScheme::onAdmit(PageMeta &page)
{
    AppState &app = stateFor(page.key.uid);
    app.resident.pushFront(page);
    app.lastAccess = ctx.clock.now();
}

void
ZramScheme::onAccess(PageMeta &page)
{
    AppState &app = stateFor(page.key.uid);
    app.resident.touch(page);
    app.lastAccess = ctx.clock.now();
}

bool
ZramScheme::ensureZpoolSpace(std::size_t csize, bool synchronous)
{
    while (!pool.canFit(csize)) {
        // Oldest live compressed object; skip stale FIFO entries.
        PageMeta *victim = nullptr;
        ZObjectId obj = invalidObject;
        while (!compressedFifo.empty()) {
            auto [candidate, owner] = compressedFifo.front();
            compressedFifo.pop_front();
            if (pool.live(candidate) &&
                pool.cookie(candidate) ==
                    reinterpret_cast<std::uint64_t>(owner)) {
                obj = candidate;
                victim = const_cast<PageMeta *>(owner);
                break;
            }
        }
        if (!victim)
            return false;

        std::size_t obj_size = pool.objectSize(obj);
        if (cfg.writeback && flashDev) {
            FlashSlot slot = flashDev->write(obj_size);
            if (slot != invalidFlashSlot) {
                Tick submit = ctx.timing.params().flashSubmitCpuNs;
                ctx.cpu.charge(CpuRole::IoSubmit, submit);
                if (synchronous)
                    ctx.clock.advance(submit);
                c_writeback.add();
                telemetry::journeyMark(
                    victim->key.uid, victim->key.pfn,
                    telemetry::JourneyStep::Writeback,
                    ctx.clock.now());
                ctx.arena.setLocation(*victim, PageLocation::Flash);
                victim->flashSlot = slot;
                victim->objectId = invalidObject;
                pool.erase(obj);
                continue;
            }
        }
        // No writeback possible: data is dropped (§2.2 — the system
        // deletes inactive compressed data, risking app termination).
        c_dropped.add();
        telemetry::journeyMark(victim->key.uid, victim->key.pfn,
                               telemetry::JourneyStep::Lost,
                               ctx.clock.now());
        ctx.arena.setLocation(*victim, PageLocation::Lost);
        victim->objectId = invalidObject;
        ++lost;
        pool.erase(obj);
    }
    return true;
}

void
ZramScheme::compressOut(PageMeta &victim, std::size_t csize,
                        bool synchronous)
{
    c_compressOut.add();
    if (!ensureZpoolSpace(csize, synchronous)) {
        telemetry::journeyMark(victim.key.uid, victim.key.pfn,
                               telemetry::JourneyStep::Lost,
                               ctx.clock.now());
        ctx.arena.setLocation(victim, PageLocation::Lost);
        ++lost;
        ctx.dram.release(1);
        return;
    }
    ZObjectId obj =
        pool.insert(csize, reinterpret_cast<std::uint64_t>(&victim));
    panicIf(obj == invalidObject,
            "zpool insert failed after ensureZpoolSpace");

    telemetry::journeyMark(victim.key.uid, victim.key.pfn,
                           telemetry::JourneyStep::Zram,
                           ctx.clock.now(), csize);
    ctx.arena.setLocation(victim, PageLocation::Zpool);
    victim.objectId = obj;
    compressedFifo.emplace_back(obj, &victim);
    compLog.push_back(CompressionEvent{victim.key, victim.truth});

    chargeCompression(victim.key.uid, codec->cost(), cfg.chunkBytes,
                      pageSize, csize, synchronous);
    ctx.dram.release(1);
}

std::size_t
ZramScheme::popTail(AppState &app, std::size_t limit)
{
    std::size_t done = 0;
    for (; done < limit; ++done) {
        PageMeta *victim = app.resident.popBack();
        if (!victim)
            break;
        victims.push_back(victim);
    }
    return done;
}

void
ZramScheme::compressVictims(bool synchronous)
{
    victimRefs.clear();
    for (const PageMeta *p : victims)
        victimRefs.push_back(PageRef{p->key, p->version});
    victimRequests.clear();
    for (const PageRef &ref : victimRefs)
        victimRequests.push_back(SizeRequest{{&ref, 1}, cfg.chunkBytes});
    victimSizes.resize(victims.size());
    ctx.compressor.sizeAll(victimRequests, *codec, victimSizes);

    // Popping every victim before the first commit is popping each
    // just before its own commit only while commits leave the LRU
    // lists alone.
    std::uint64_t list_ops = lruOps();
    committing = true;
    for (std::size_t i = 0; i < victims.size(); ++i)
        compressOut(*victims[i], victimSizes[i], synchronous);
    committing = false;
    panicIf(lruOps() != list_ops,
            "zram reclaim commit changed a victim list");
    victims.clear();
}

std::size_t
ZramScheme::reclaim(std::size_t pages, bool direct)
{
    panicIf(committing, "zram reclaim re-entered from a commit");
    if (direct)
        ++directRuns;
    // Plan the whole pass, then size it as one batch and commit it.
    std::size_t freed = 0;
    while (freed < pages) {
        AppState *app = oldestAppWithPages();
        if (!app)
            break;
        std::size_t batch = std::min(cfg.reclaimBatch, pages - freed);
        std::size_t done = popTail(*app, batch);
        if (done == 0)
            break;
        freed += done;
    }
    compressVictims(direct);
    chargeLruOps(direct);
    return freed;
}

void
ZramScheme::onBackground(AppId uid)
{
    if (cfg.proactiveFraction <= 0.0)
        return;
    // Proactive periodic compression of the backgrounded app's LRU
    // tail (the vendor behaviour §2.3 describes): frees memory early
    // at the price of extra compression CPU on every switch.
    AppState &app = stateFor(uid);
    auto target = static_cast<std::size_t>(
        cfg.proactiveFraction *
        static_cast<double>(app.resident.size()));
    Tick before = ctx.cpu.grandTotal();
    popTail(app, target);
    compressVictims(/*synchronous=*/false);
    chargeLruOps(false);
    bgReclaimNs += ctx.cpu.grandTotal() - before;
}

SwapInResult
ZramScheme::swapIn(PageMeta &page)
{
    telemetry::ScopedTimer timer(d_swapin);
    SwapInResult res;
    Stopwatch sw(ctx.clock);

    Tick fault = ctx.timing.params().majorFaultBaseNs;
    ctx.cpu.charge(CpuRole::FaultPath, fault);
    ctx.clock.advance(fault);

    if (ctx.arena.location(page) == PageLocation::Zpool) {
        c_swapinZpool.add();
        sectorLog.push_back(pool.sectorOf(page.objectId));
        std::size_t csize = pool.objectSize(page.objectId);
        pool.erase(page.objectId);
        page.objectId = invalidObject;
        chargeDecompression(page.key.uid, codec->cost(), cfg.chunkBytes,
                            pageSize, csize, true);
    } else if (ctx.arena.location(page) == PageLocation::Flash) {
        c_swapinFlash.add();
        panicIf(!flashDev, "flash swap-in without writeback device");
        std::size_t csize = flashDev->read(page.flashSlot);
        flashDev->free(page.flashSlot);
        page.flashSlot = invalidFlashSlot;
        Tick submit = ctx.timing.params().flashSubmitCpuNs;
        ctx.cpu.charge(CpuRole::IoSubmit, submit);
        ctx.clock.advance(submit + ctx.timing.flashReadNs(1));
        ctx.activity.flashReadBytes += csize;
        chargeDecompression(page.key.uid, codec->cost(), cfg.chunkBytes,
                            pageSize, csize, true);
        res.fromFlash = true;
    } else {
        panic("ZramScheme::swapIn on page not in zpool/flash");
    }

    if (!ctx.dram.allocate(1)) {
        // On-demand compression to make room (§2.3, Fig. 2): this is
        // the direct-reclaim cost ZRAM adds to relaunches.
        reclaim(cfg.reclaimBatch, true);
        panicIf(!ctx.dram.allocate(1),
                "direct reclaim failed to free memory");
    }
    ctx.arena.setLocation(page, PageLocation::Resident);
    AppState &app = stateFor(page.key.uid);
    app.resident.pushFront(page);
    app.lastAccess = ctx.clock.now();
    chargeLruOps(true);

    res.latencyNs = sw.elapsed();
    return res;
}

void
ZramScheme::onFree(PageMeta &page)
{
    switch (ctx.arena.location(page)) {
      case PageLocation::Resident: {
        AppState &app = stateFor(page.key.uid);
        if (app.resident.contains(page))
            app.resident.remove(page);
        ctx.dram.release(1);
        break;
      }
      case PageLocation::Zpool:
        pool.erase(page.objectId);
        page.objectId = invalidObject;
        break;
      case PageLocation::Flash:
        flashDev->free(page.flashSlot);
        page.flashSlot = invalidFlashSlot;
        break;
      default:
        break;
    }
    telemetry::journeyMark(page.key.uid, page.key.pfn,
                           telemetry::JourneyStep::Free,
                           ctx.clock.now());
    ctx.arena.setLocation(page, PageLocation::Lost);
}

std::size_t
ZramScheme::compressedStoredBytes() const
{
    std::size_t total = pool.storedBytes();
    if (flashDev)
        total += flashDev->liveBytes();
    return total;
}

} // namespace ariadne
