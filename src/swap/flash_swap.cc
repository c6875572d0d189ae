#include "swap/flash_swap.hh"

#include <algorithm>

#include "sim/log.hh"
#include "telemetry/journey.hh"
#include "telemetry/telemetry.hh"

namespace ariadne
{

namespace
{

telemetry::DurationProbe d_swapin("flash.swapin");

} // namespace

FlashSwapScheme::FlashSwapScheme(SwapContext context,
                                 FlashSwapConfig config)
    : AppLruScheme(context, nullptr, config.reclaimBatch, pageSize),
      flashDev(config.flashBytes)
{
}

SchemeInfo
flashSwapSchemeInfo()
{
    SchemeInfo info;
    info.key = "swap";
    info.displayName = "SWAP";
    info.description = "uncompressed flash swap with readahead "
                       "clustering (low CPU, high latency and wear)";
    info.knobs = {
        {"flash_mb", "mb", "8192",
         "swap partition capacity (paper scale)"},
        {"reclaim_batch", "u64", "32", "pages written per reclaim "
                                       "batch"},
    };
    info.build = [](SwapContext ctx, const SchemeParams &params,
                    double scale) {
        FlashSwapConfig fc;
        fc.flashBytes = scaledBytes(
            params.getMiB("flash_mb", fc.flashBytes), scale);
        fc.reclaimBatch =
            params.getU64("reclaim_batch", fc.reclaimBatch);
        return std::make_unique<FlashSwapScheme>(ctx, fc);
    };
    return info;
}

bool
FlashSwapScheme::storeUnit(std::span<PageMeta *const> pages,
                           const PlannedUnit &, std::size_t csize,
                           bool synchronous)
{
    PageMeta &victim = *pages.front();
    // Submission is cheap CPU; the program happens in the device
    // while the CPU runs other work. A full swap space drops the page.
    FlashSlot slot = writeFlash(flashDev, csize, 1, synchronous);
    if (slot == invalidFlashSlot)
        return false;
    ctx.activity.flashWriteBytes += csize;
    telemetry::journeyMark(victim.key.uid, victim.key.pfn,
                           telemetry::JourneyStep::Flash,
                           ctx.clock.now());
    ctx.arena.setLocation(victim, PageLocation::Flash);
    victim.flashSlot = slot;
    return true;
}

SwapInResult
FlashSwapScheme::fetch(PageMeta &page)
{
    panicIf(ctx.arena.location(page) != PageLocation::Flash,
            "FlashSwapScheme::swapIn on non-flash page");
    telemetry::ScopedTimer timer(d_swapin);
    SwapInResult res;
    res.fromFlash = true;
    enterMajorFault();

    // Effective per-fault read latency: one device access amortized
    // over the readahead cluster it brings in.
    unsigned cluster =
        std::max(1u, ctx.timing.params().flashReadaheadPages);
    readFlash(flashDev, page.flashSlot,
              ctx.timing.params().flashReadPageNs / cluster);
    page.flashSlot = invalidFlashSlot;
    ctx.activity.dramBytes += pageSize;

    readmit(page);
    return res;
}

void
FlashSwapScheme::releaseStored(PageMeta &page)
{
    if (ctx.arena.location(page) == PageLocation::Flash) {
        flashDev.free(page.flashSlot);
        page.flashSlot = invalidFlashSlot;
    }
}

} // namespace ariadne
