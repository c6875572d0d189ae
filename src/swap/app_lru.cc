#include "swap/app_lru.hh"

#include "telemetry/journey.hh"

namespace ariadne
{

AppLruScheme::AppState *
AppLruScheme::oldestAppWithPages()
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

std::size_t
AppLruScheme::planTail(AppState &app, std::size_t limit)
{
    std::size_t done = 0;
    for (; done < limit; ++done) {
        PageMeta *victim = app.resident.popBack();
        if (!victim)
            break;
        planPage(*victim);
        planUnit(chunkBytes, Hotness::Cold);
    }
    return done;
}

void
AppLruScheme::planReclaim(std::size_t pages, bool)
{
    std::size_t planned = 0;
    while (planned < pages) {
        AppState *app = oldestAppWithPages();
        if (!app)
            break;
        planned +=
            planTail(*app, std::min(reclaimBatch, pages - planned));
    }
}

void
AppLruScheme::planTailShare(AppId uid, double share)
{
    AppState &app = stateFor(uid);
    planTail(app, static_cast<std::size_t>(
                      share * static_cast<double>(app.resident.size())));
}

void
AppLruScheme::readmit(PageMeta &page)
{
    takeDramPage();
    page.location = PageLocation::Resident;
    AppLruScheme::onAdmit(page);
    chargeLruOps();
}

void
AppLruScheme::onFree(PageMeta &page)
{
    if (page.location == PageLocation::Resident) {
        AppState &app = stateFor(page.key.uid);
        if (app.resident.contains(page))
            app.resident.remove(page);
        ctx.dram.release(1);
    } else {
        releaseStored(page);
    }
    telemetry::journeyMark(page.key.uid, page.key.pfn,
                           telemetry::JourneyStep::Free,
                           ctx.clock.now());
    page.location = PageLocation::Lost;
}

} // namespace ariadne
