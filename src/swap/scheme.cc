#include "swap/scheme.hh"

#include "sim/log.hh"
#include "telemetry/journey.hh"
#include "telemetry/telemetry.hh"

namespace ariadne
{

namespace
{

// Distributions of *modeled* compression work — simulated ns and
// compressed output bytes — recorded where every scheme charges its
// codec costs, so the histograms cover zram, zswap and ariadne
// uniformly, with per-app breakdowns for the leading uids.
telemetry::AppHistogram h_compressNs("swap.compress_ns");
telemetry::AppHistogram h_decompressNs("swap.decompress_ns");
telemetry::AppHistogram h_compressedSize("swap.compressed_size");

// Pages through each swap step, counted once for every scheme. Units
// are the swap.compress_ns count and kswapd's pages are
// kswapd.reclaimed_pages, so neither has a counter here.
telemetry::Counter c_compressPages("swap.compress_pages");
telemetry::Counter c_flashWritePages("swap.flash_write_pages");
telemetry::Counter c_lostPages("swap.lost_pages");
telemetry::Counter c_swapinFlash("swap.swapin_flash");
telemetry::Counter c_swapinStaged("swap.swapin_staged");
telemetry::Counter c_reclaimDirect("swap.reclaim_pages.direct");
telemetry::Counter c_reclaimBackground("swap.reclaim_pages.background");

} // namespace

void
CompStats::add(const CompStats &o) noexcept
{
    compNs += o.compNs;
    decompNs += o.decompNs;
    inBytes += o.inBytes;
    outBytes += o.outBytes;
    decompBytes += o.decompBytes;
    compOps += o.compOps;
    decompOps += o.decompOps;
}

SwapInResult
SwapScheme::swapIn(PageMeta &page)
{
    Stopwatch sw(ctx.clock);
    SwapInResult res = fetch(page);
    if (res.fromFlash)
        c_swapinFlash.add();
    if (res.stagedHit)
        c_swapinStaged.add();
    res.latencyNs = sw.elapsed();
    return res;
}

std::size_t
SwapScheme::reclaim(std::size_t pages, bool direct)
{
    panicIf(committing, "reclaim re-entered from a commit");
    if (direct)
        ++directRuns;
    // Plan the whole pass, then size it as one batch and commit it.
    planReclaim(pages, direct);
    std::size_t freed = commitPlan(direct);
    chargeLruOps();
    if (direct)
        c_reclaimDirect.add(freed);
    return freed;
}

void
SwapScheme::onBackground(AppId uid)
{
    Tick before = ctx.cpu.grandTotal();
    if (!planBackground(uid))
        return;
    c_reclaimBackground.add(commitPlan(/*synchronous=*/false));
    bgReclaimNs += ctx.cpu.grandTotal() - before;
}

void
SwapScheme::planUnit(std::size_t chunk_bytes, Hotness level)
{
    std::size_t first = planUnits.empty()
                            ? 0
                            : planUnits.back().first +
                                  planUnits.back().pages;
    panicIf(first == planPages.size(), "empty compression unit");
    planUnits.push_back(PlannedUnit{first, planPages.size() - first,
                                    chunk_bytes, level});
}

std::size_t
SwapScheme::commitPlan(bool synchronous)
{
    if (codec) {
        planRefs.clear();
        for (const PageMeta *p : planPages)
            planRefs.push_back(PageRef{p->key, p->version});
        planRequests.clear();
        for (const PlannedUnit &unit : planUnits) {
            planRequests.push_back(
                SizeRequest{{planRefs.data() + unit.first, unit.pages},
                            unit.chunkBytes});
        }
        planSizes.resize(planUnits.size());
        ctx.compressor.sizeAll(planRequests, *codec, planSizes);
    }

    // Popping every victim before the first commit is popping each
    // just before its own commit only while commits leave the victim
    // lists alone.
    std::uint64_t list_ops = lruOps();
    committing = true;
    for (std::size_t i = 0; i < planUnits.size(); ++i) {
        const PlannedUnit &unit = planUnits[i];
        std::span<PageMeta *const> pages(planPages.data() + unit.first,
                                         unit.pages);
        std::size_t csize = codec ? planSizes[i] : unit.pages * pageSize;
        if (!storeUnit(pages, unit, csize, synchronous)) {
            for (PageMeta *p : pages)
                dropPage(*p);
        }
        ctx.dram.release(unit.pages);
    }
    committing = false;
    panicIf(lruOps() != list_ops, "reclaim commit changed a victim list");
    std::size_t freed = planPages.size();
    reclaimed += freed;
    planPages.clear();
    planUnits.clear();
    return freed;
}

void
SwapScheme::dropPage(PageMeta &page)
{
    c_lostPages.add();
    telemetry::journeyMark(page.key.uid, page.key.pfn,
                           telemetry::JourneyStep::Lost,
                           ctx.clock.now());
    ctx.arena.setLocation(page, PageLocation::Lost);
    page.objectId = invalidObject;
    ++lost;
}

void
SwapScheme::submitFlash(Tick device_ns, bool synchronous)
{
    Tick submit = ctx.timing.params().flashSubmitCpuNs;
    ctx.cpu.charge(CpuRole::IoSubmit, submit);
    if (synchronous)
        ctx.clock.advance(submit + device_ns);
}

FlashSlot
SwapScheme::writeFlash(FlashDevice &dev, std::size_t bytes,
                       std::size_t pages, bool synchronous)
{
    FlashSlot slot = dev.write(bytes);
    if (slot == invalidFlashSlot)
        return slot;
    c_flashWritePages.add(pages);
    submitFlash(0, synchronous);
    return slot;
}

std::size_t
SwapScheme::readFlash(FlashDevice &dev, FlashSlot slot, Tick device_ns)
{
    std::size_t bytes = dev.read(slot);
    dev.free(slot);
    submitFlash(device_ns, /*synchronous=*/true);
    ctx.activity.flashReadBytes += bytes;
    return bytes;
}

void
SwapScheme::enterMajorFault()
{
    Tick fault = ctx.timing.params().majorFaultBaseNs;
    ctx.cpu.charge(CpuRole::FaultPath, fault);
    ctx.clock.advance(fault);
}

void
SwapScheme::takeDramPage()
{
    if (ctx.dram.allocate(1))
        return;
    // On-demand compression to make room (§2.3, Fig. 2): this is the
    // direct-reclaim cost swap adds to relaunches.
    reclaim(reclaimBatch, true);
    panicIf(!ctx.dram.allocate(1), "direct reclaim failed to free memory");
}

std::size_t
SwapScheme::compressedStoredBytes() const
{
    const Zpool *pool = zpool();
    const FlashDevice *dev = flash();
    if (!pool)
        return 0;
    return pool->storedBytes() + (dev ? dev->liveBytes() : 0);
}

const CompStats &
SwapScheme::appStats(AppId uid) const
{
    static const CompStats empty;
    auto it = perApp.find(uid);
    return it == perApp.end() ? empty : it->second;
}

CompStats
SwapScheme::totalStats() const
{
    CompStats total;
    for (const auto &[uid, stats] : perApp)
        total.add(stats);
    return total;
}

Tick
SwapScheme::chargeCompression(AppId uid, std::size_t chunk_bytes,
                              std::size_t in_bytes,
                              std::size_t out_bytes, bool synchronous)
{
    Tick t = ctx.timing.compressNs(codec->cost(), chunk_bytes, in_bytes);
    ctx.cpu.charge(CpuRole::Compression, t);
    if (synchronous)
        ctx.clock.advance(t);
    ctx.activity.dramBytes += in_bytes + out_bytes;

    CompStats &stats = perApp[uid];
    stats.compNs += t;
    stats.inBytes += in_bytes;
    stats.outBytes += out_bytes;
    ++stats.compOps;
    c_compressPages.add(in_bytes / pageSize);
    h_compressNs.record(uid, t);
    h_compressedSize.record(uid, out_bytes);
    return t;
}

Tick
SwapScheme::chargeDecompression(AppId uid, std::size_t chunk_bytes,
                                std::size_t out_bytes,
                                std::size_t stored_bytes,
                                bool synchronous)
{
    Tick t = ctx.timing.decompressNs(codec->cost(), chunk_bytes,
                                     out_bytes);
    ctx.cpu.charge(CpuRole::Decompression, t);
    if (synchronous)
        ctx.clock.advance(t);
    ctx.activity.dramBytes += out_bytes + stored_bytes;

    CompStats &stats = perApp[uid];
    stats.decompNs += t;
    stats.decompBytes += out_bytes;
    ++stats.decompOps;
    h_decompressNs.record(uid, t);
    return t;
}

void
SwapScheme::chargeLruOps()
{
    std::uint64_t now = lruOpCounter.value();
    if (now <= chargedLruOps)
        return;
    Tick t = (now - chargedLruOps) * ctx.timing.params().lruOpNs;
    chargedLruOps = now;
    ctx.cpu.charge(CpuRole::FaultPath, t);
}

} // namespace ariadne
