#include "swap/zram.hh"

#include "sim/log.hh"
#include "telemetry/journey.hh"
#include "telemetry/telemetry.hh"

namespace ariadne
{

namespace
{

telemetry::DurationProbe d_swapin("zram.swapin");

} // namespace

ZramScheme::ZramScheme(SwapContext context, ZramConfig config)
    : AppLruScheme(context, makeCodec(config.codec),
                   config.reclaimBatch, config.chunkBytes),
      cfg(config), pool(cfg.zpoolBytes)
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

        // ZSWAP writeback leaves activity.flashWriteBytes alone, so
        // zswap energy does not count these flash writes.
        FlashSlot slot =
            flashDev ? writeFlash(*flashDev, pool.objectSize(obj), 1,
                                  synchronous)
                     : invalidFlashSlot;
        if (slot != invalidFlashSlot) {
            telemetry::journeyMark(victim->key.uid, victim->key.pfn,
                                   telemetry::JourneyStep::Writeback,
                                   ctx.clock.now());
            ctx.arena.setLocation(*victim, PageLocation::Flash);
            victim->flashSlot = slot;
            victim->objectId = invalidObject;
        } else {
            // No writeback possible: data is dropped (§2.2 — the
            // system deletes inactive compressed data, risking app
            // termination).
            dropPage(*victim);
        }
        pool.erase(obj);
    }
    return true;
}

bool
ZramScheme::storeUnit(std::span<PageMeta *const> pages,
                      const PlannedUnit &unit, std::size_t csize,
                      bool synchronous)
{
    PageMeta &victim = *pages.front();
    if (!ensureZpoolSpace(csize, synchronous))
        return false;
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

    chargeCompression(victim.key.uid, unit.chunkBytes, pageSize, csize,
                      synchronous);
    return true;
}

bool
ZramScheme::planBackground(AppId uid)
{
    if (cfg.proactiveFraction <= 0.0)
        return false;
    // Proactive periodic compression of the backgrounded app's LRU
    // tail (the vendor behaviour §2.3 describes): frees memory early
    // at the price of extra compression CPU on every switch.
    planTailShare(uid, cfg.proactiveFraction);
    // The pass is billed to background reclaim, list ops included.
    chargeLruOps();
    return true;
}

SwapInResult
ZramScheme::fetch(PageMeta &page)
{
    telemetry::ScopedTimer timer(d_swapin);
    SwapInResult res;
    enterMajorFault();

    if (ctx.arena.location(page) == PageLocation::Zpool) {
        sectorLog.push_back(pool.sectorOf(page.objectId));
        std::size_t csize = pool.objectSize(page.objectId);
        pool.erase(page.objectId);
        page.objectId = invalidObject;
        chargeDecompression(page.key.uid, cfg.chunkBytes, pageSize,
                            csize, true);
    } else if (ctx.arena.location(page) == PageLocation::Flash) {
        panicIf(!flashDev, "flash swap-in without writeback device");
        std::size_t csize =
            readFlash(*flashDev, page.flashSlot, ctx.timing.flashReadNs(1));
        page.flashSlot = invalidFlashSlot;
        chargeDecompression(page.key.uid, cfg.chunkBytes, pageSize,
                            csize, true);
        res.fromFlash = true;
    } else {
        panic("ZramScheme::swapIn on page not in zpool/flash");
    }

    readmit(page);
    return res;
}

void
ZramScheme::releaseStored(PageMeta &page)
{
    if (ctx.arena.location(page) == PageLocation::Zpool) {
        pool.erase(page.objectId);
        page.objectId = invalidObject;
    } else if (ctx.arena.location(page) == PageLocation::Flash) {
        flashDev->free(page.flashSlot);
        page.flashSlot = invalidFlashSlot;
    }
}

} // namespace ariadne
