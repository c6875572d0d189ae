#include "core/ariadne.hh"

#include "sim/log.hh"
#include "telemetry/journey.hh"

namespace ariadne
{

AriadneScheme::AriadneScheme(SwapContext context, AriadneConfig config)
    : SwapScheme(context, makeCodec(config.codec), config.reclaimBatch),
      cfg(config), pool(cfg.zpoolBytes), flashDev(cfg.flashBytes),
      profiles(cfg.defaultHotInitPages),
      hotOrg(&lruOpCounter, profiles), units(cfg),
      stagingBuf(cfg.preDecompEnabled ? cfg.preDecompBufferPages : 0)
{
}

SchemeInfo
ariadneSchemeInfo()
{
    SchemeInfo info;
    info.key = "ariadne";
    info.displayName = "Ariadne";
    info.description = "hotness-aware, size-adaptive compressed swap "
                       "(the paper's scheme: HotnessOrg + "
                       "AdaptiveComp + PreDecomp)";
    info.knobs = {
        {"config", "string", "EHL-1K-2K-16K",
         "Table-5 configuration string: scenario (EHL|AL) plus "
         "small/medium/large chunk sizes",
         [](const std::string &value) {
             std::string error;
             if (!AriadneConfig::tryParse(value, &error))
                 throw SchemeError("invalid value for scheme knob "
                                   "'config': " + error);
         }},
        {"zpool_mb", "mb", "3072", "zpool capacity (paper scale)"},
        {"flash_mb", "mb", "8192", "flash swap space for compressed "
                                   "cold writeback (paper scale)"},
        {"reclaim_batch", "u64", "32",
         "pages reclaimed per batch"},
        {"codec", "string", "lzo",
         "compression codec (lzo|lz4|bdi|null)",
         [](const std::string &value) { parseCodecKnob(value); }},
        {"predecomp", "bool", "true",
         "predictive pre-decompression (the D3 ablation axis)"},
        {"predecomp_buffer_pages", "u64", "8",
         "staging-buffer capacity in pages"},
        {"hot_init_pages", "u64", "4096",
         "fallback hot-list seed when no profile exists (the D1 "
         "ablation axis)"},
        {"seed_profiles", "bool", "true",
         "seed per-app hot-set profiles from offline data "
         "(consumed by the system layer; the D1 ablation axis)"},
    };
    info.build = [](SwapContext ctx, const SchemeParams &params,
                    double scale) {
        AriadneConfig ac;
        if (const std::string *text = params.raw("config")) {
            std::string error;
            auto parsed = AriadneConfig::tryParse(*text, &error);
            if (!parsed)
                throw SchemeError("invalid value for scheme knob "
                                  "'config': " + error);
            ac = *parsed;
        }
        ac.zpoolBytes = params.getMiB("zpool_mb", ac.zpoolBytes);
        ac.flashBytes = params.getMiB("flash_mb", ac.flashBytes);
        ac.reclaimBatch =
            params.getU64("reclaim_batch", ac.reclaimBatch);
        if (const std::string *codec = params.raw("codec"))
            ac.codec = parseCodecKnob(*codec);
        ac.preDecompEnabled =
            params.getBool("predecomp", ac.preDecompEnabled);
        ac.preDecompBufferPages = params.getU64(
            "predecomp_buffer_pages", ac.preDecompBufferPages);
        ac.defaultHotInitPages = params.getU64(
            "hot_init_pages", ac.defaultHotInitPages);
        // `seed_profiles` is schema-validated here but consumed by
        // MobileSystem, which owns the app profiles the seeding
        // derives its hot-set sizes from.
        ac.zpoolBytes = scaledBytes(ac.zpoolBytes, scale);
        ac.flashBytes = scaledBytes(ac.flashBytes, scale);
        return std::make_unique<AriadneScheme>(ctx, ac);
    };
    return info;
}

void
AriadneScheme::seedProfile(AppId uid, std::size_t hot_pages)
{
    profiles.seed(uid, hot_pages);
}

std::vector<PageKey>
AriadneScheme::predictedHotSet(AppId uid) const
{
    return hotOrg.predictedHotSet(uid);
}

void
AriadneScheme::onAdmit(PageMeta &page)
{
    hotOrg.admit(page, ctx.clock.now());
}

void
AriadneScheme::onAccess(PageMeta &page)
{
    hotOrg.touchResident(page, ctx.clock.now());
    firePrediction(page);
}

void
AriadneScheme::onRelaunchStart(AppId uid)
{
    hotOrg.beginRelaunch(uid, ctx.clock.now());
}

void
AriadneScheme::onRelaunchEnd(AppId uid)
{
    hotOrg.endRelaunch(uid);
}

bool
AriadneScheme::planBackground(AppId uid)
{
    if (cfg.excludeHotList)
        return false;
    // AL scenario (§5): all lists are compressed. Like the vendors'
    // proactive compression (§2.3), the backgrounded app's hot list
    // is compressed too — at SmallSize, so the relaunch decompresses
    // it fast and PreDecomp chains hide most of the latency. Its list
    // ops are charged by the next pass that charges them.
    while (PageMeta *victim = hotOrg.popVictim(uid, Hotness::Hot)) {
        planPage(*victim);
        planUnit(units.chunkFor(Hotness::Hot), Hotness::Hot);
    }
    return true;
}

void
AriadneScheme::writebackUnit(UnitId id, bool synchronous)
{
    CompUnit &u = units.unit(id);
    panicIf(u.object == invalidObject, "writeback of non-zpool unit");

    FlashSlot slot =
        writeFlash(flashDev, u.csize, u.pages.size(), synchronous);
    if (slot == invalidFlashSlot) {
        // Swap space exhausted: drop the unit (data loss).
        for (PageMeta *p : u.pages) {
            stagingBuf.invalidate(*p);
            dropPage(*p);
        }
        pool.erase(u.object);
        units.destroy(id);
        return;
    }
    ctx.activity.flashWriteBytes += u.csize;

    for (PageMeta *p : u.pages) {
        stagingBuf.invalidate(*p);
        telemetry::journeyMark(p->key.uid, p->key.pfn,
                               telemetry::JourneyStep::Writeback,
                               ctx.clock.now(), u.csize);
        p->location = PageLocation::Flash;
        p->flashSlot = slot;
    }
    pool.erase(u.object);
    u.object = invalidObject;
    u.flashSlot = slot;
}

bool
AriadneScheme::ensureZpoolSpace(std::size_t csize, bool synchronous)
{
    auto pop_valid = [this](std::deque<UnitId> &fifo) -> UnitId {
        while (!fifo.empty()) {
            UnitId id = fifo.front();
            fifo.pop_front();
            if (units.live(id) &&
                units.unit(id).object != invalidObject) {
                return id;
            }
        }
        return invalidUnit;
    };

    while (!pool.canFit(csize)) {
        // Cold data is swapped out first (§4.2 eviction policy).
        UnitId id = pop_valid(coldUnitFifo);
        if (id == invalidUnit)
            id = pop_valid(pageUnitFifo);
        if (id == invalidUnit)
            return false;
        writebackUnit(id, synchronous);
    }
    return true;
}

bool
AriadneScheme::storeUnit(std::span<PageMeta *const> pages,
                         const PlannedUnit &unit, std::size_t csize,
                         bool synchronous)
{
    if (!ensureZpoolSpace(csize, synchronous))
        return false;

    for (PageMeta *p : pages)
        pendingPredictions.erase(p);
    UnitId id = units.create(
        std::vector<PageMeta *>(pages.begin(), pages.end()),
        unit.chunkBytes, csize, unit.level, invalidObject);
    CompUnit &u = units.unit(id);
    ZObjectId obj = pool.insert(csize, id);
    panicIf(obj == invalidObject,
            "zpool insert failed after ensureZpoolSpace");
    u.object = obj;

    for (PageMeta *p : u.pages) {
        telemetry::journeyMark(p->key.uid, p->key.pfn,
                               telemetry::JourneyStep::Zram,
                               ctx.clock.now(), csize);
        p->location = PageLocation::Zpool;
    }

    (unit.level == Hotness::Cold ? coldUnitFifo : pageUnitFifo)
        .push_back(id);

    chargeCompression(u.pages.front()->key.uid, unit.chunkBytes,
                      u.uncompressedBytes(), csize, synchronous);
    return true;
}

void
AriadneScheme::planReclaim(std::size_t pages, bool direct)
{
    auto plan_one = [this](PageMeta &victim, Hotness level) {
        planPage(victim);
        planUnit(units.chunkFor(level), level);
    };
    std::size_t freed = 0;
    while (freed < pages) {
        // 1. Cold victims, batched into large multi-page units.
        if (PageMeta *victim = hotOrg.popVictim(Hotness::Cold)) {
            planPage(*victim);
            std::size_t batch = 1;
            while (batch < cfg.coldUnitPages()) {
                PageMeta *next = hotOrg.peekVictim(Hotness::Cold);
                if (!next || next->key.uid != victim->key.uid)
                    break;
                planPage(*hotOrg.popVictim(Hotness::Cold));
                ++batch;
            }
            planUnit(units.chunkFor(Hotness::Cold), Hotness::Cold);
            freed += batch;
            continue;
        }
        // 2. Warm victims, one page per medium-chunk unit.
        if (PageMeta *victim = hotOrg.popVictim(Hotness::Warm)) {
            plan_one(*victim, Hotness::Warm);
            ++freed;
            continue;
        }
        // 3. Hot victims: normal in AL mode; emergency-only in EHL.
        if (!cfg.excludeHotList || direct) {
            if (PageMeta *victim = hotOrg.popVictim(Hotness::Hot)) {
                plan_one(*victim, Hotness::Hot);
                ++freed;
                continue;
            }
        }
        break;
    }
}

void
AriadneScheme::residentizeUnit(CompUnit &unit, PageMeta *hit)
{
    Tick now = ctx.clock.now();
    for (PageMeta *p : unit.pages) {
        takeDramPage();
        p->location = PageLocation::Resident;
        p->objectId = invalidObject;
        p->flashSlot = invalidFlashSlot;
        if (p == hit) {
            hotOrg.placeAfterSwapIn(*p, now);
        } else {
            telemetry::journeyMark(p->key.uid, p->key.pfn,
                                   telemetry::JourneyStep::Resident,
                                   now);
            hotOrg.placeColdSibling(*p, now);
        }
        ctx.activity.dramBytes += pageSize;
    }
}

void
AriadneScheme::armPrediction(PageMeta &page, ZObjectId next)
{
    if (next == invalidObject)
        return;
    pendingPredictions[&page] = next;
}

void
AriadneScheme::firePrediction(const PageMeta &page)
{
    // Runs on every resident touch; armed predictions are rare, so
    // the empty check keeps the common path to one branch instead of
    // a hash lookup.
    if (pendingPredictions.empty())
        return;
    auto it = pendingPredictions.find(&page);
    if (it == pendingPredictions.end())
        return;
    ZObjectId next = it->second;
    pendingPredictions.erase(it);
    tryStage(next);
}

void
AriadneScheme::tryStage(ZObjectId obj)
{
    if (obj == invalidObject || !pool.live(obj))
        return;
    UnitId id = pool.cookie(obj);
    if (!units.live(id))
        return;
    CompUnit &u = units.unit(id);
    ZObjectId next = pool.nextInSectorOrder(obj);

    if (u.pages.size() == 1) {
        // Single page: decompress into the staging buffer ("we
        // pre-decompress only one compressed page at a time", §4.4).
        PageMeta *p = u.pages.front();
        if (p->location != PageLocation::Zpool)
            return;
        if (stagingBuf.stage(*p)) {
            telemetry::journeyMark(p->key.uid, p->key.pfn,
                                   telemetry::JourneyStep::Staged,
                                   ctx.clock.now());
            // Speculative decompression runs off the critical path:
            // CPU is charged, the faulting task's clock is not.
            chargeDecompression(p->key.uid, u.chunkBytes, pageSize,
                                u.csize, /*synchronous=*/false);
            armPrediction(*p, next);
        }
        return;
    }

    // Multi-page (cold) unit: pre-swap it — decompress and write all
    // pages back to main memory ahead of use. Only when memory is
    // comfortably free; speculation must not force reclaim.
    if (ctx.dram.freePages() <
        u.pages.size() + ctx.dram.lowWatermarkPages()) {
        return;
    }
    for (PageMeta *p : u.pages) {
        if (p->location != PageLocation::Zpool)
            return;
    }
    AppId uid = u.pages.front()->key.uid;
    pool.erase(u.object);
    u.object = invalidObject;
    chargeDecompression(uid, u.chunkBytes, u.uncompressedBytes(),
                        u.csize, /*synchronous=*/false);
    residentizeUnit(u, nullptr);
    // Chain the speculation through the first touch of any page.
    for (PageMeta *p : u.pages)
        armPrediction(*p, next);
    units.destroy(id);
}

SwapInResult
AriadneScheme::fetch(PageMeta &page)
{
    SwapInResult res;
    AppId uid = page.key.uid;

    if (page.location == PageLocation::Staged) {
        // PreDecomp hit: only a page copy plus bookkeeping remains.
        stagingBuf.consume(page);
        UnitId id = page.objectId;
        CompUnit &u = units.unit(id);
        ZObjectId next = pool.nextInSectorOrder(u.object);
        pool.erase(u.object);
        units.destroy(id);

        // The decompression already ran off the critical path and the
        // page is mapped into the swap cache; the access itself is
        // billed by the system's touch cost. Only the copy remains.
        Tick t = ctx.timing.params().dramPageCopyNs;
        ctx.cpu.charge(CpuRole::FaultPath, t);
        ctx.clock.advance(t);

        takeDramPage();
        page.location = PageLocation::Resident;
        page.objectId = invalidObject;
        hotOrg.placeAfterSwapIn(page, ctx.clock.now());
        ctx.activity.dramBytes += pageSize;
        if (cfg.preDecompEnabled)
            tryStage(next);
        res.stagedHit = true;
        return res;
    }

    enterMajorFault();

    if (page.location == PageLocation::Zpool) {
        UnitId id = page.objectId;
        CompUnit &u = units.unit(id);
        faultsPerLevel[static_cast<std::size_t>(
            u.levelAtCompression)] += 1;

        // Find the speculation candidate before the object vanishes.
        ZObjectId next = pool.nextInSectorOrder(u.object);

        pool.erase(u.object);
        u.object = invalidObject;
        chargeDecompression(uid, u.chunkBytes, u.uncompressedBytes(),
                            u.csize, true);
        residentizeUnit(u, &page);
        units.destroy(id);

        if (cfg.preDecompEnabled)
            tryStage(next);
    } else if (page.location == PageLocation::Flash) {
        UnitId id = page.objectId;
        CompUnit &u = units.unit(id);
        std::size_t csize_pages = (u.csize + pageSize - 1) / pageSize;
        readFlash(flashDev, u.flashSlot,
                  ctx.timing.flashReadNs(csize_pages));

        chargeDecompression(uid, u.chunkBytes, u.uncompressedBytes(),
                            u.csize, true);
        residentizeUnit(u, &page);
        units.destroy(id);
        res.fromFlash = true;
    } else {
        panic("AriadneScheme::swapIn on resident/lost page");
    }

    chargeLruOps();
    return res;
}

void
AriadneScheme::onFree(PageMeta &page)
{
    pendingPredictions.erase(&page);
    switch (page.location) {
      case PageLocation::Resident:
        hotOrg.unlink(page);
        ctx.dram.release(1);
        break;
      case PageLocation::Staged:
        stagingBuf.invalidate(page);
        [[fallthrough]];
      case PageLocation::Zpool:
      case PageLocation::Flash: {
        UnitId id = page.objectId;
        if (units.live(id)) {
            CompUnit &u = units.unit(id);
            // Freeing one page of a multi-page unit keeps the unit
            // but forgets the page; single-page units are destroyed.
            if (u.pages.size() == 1) {
                if (u.object != invalidObject)
                    pool.erase(u.object);
                if (u.flashSlot != invalidFlashSlot)
                    flashDev.free(u.flashSlot);
                units.destroy(id);
            } else {
                std::erase(u.pages, &page);
            }
        }
        break;
      }
      default:
        break;
    }
    telemetry::journeyMark(page.key.uid, page.key.pfn,
                           telemetry::JourneyStep::Free,
                           ctx.clock.now());
    page.location = PageLocation::Lost;
    page.objectId = invalidObject;
    page.flashSlot = invalidFlashSlot;
}

} // namespace ariadne
