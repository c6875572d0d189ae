/**
 * @file
 * The ZRAM and SWAP victim order (§2.2): one LRU list per app, apps
 * ordered by last access; reclaim takes one-page units from the LRU
 * tail of the least recently used app.
 */

#ifndef ARIADNE_SWAP_APP_LRU_HH
#define ARIADNE_SWAP_APP_LRU_HH

#include <algorithm>
#include <memory>
#include <vector>

#include "mem/lru_list.hh"
#include "swap/scheme.hh"

namespace ariadne
{

/** A swap scheme whose victims come from per-app LRU lists. */
class AppLruScheme : public SwapScheme
{
  public:
    // Inline: these run on every simulated page touch.
    void
    onAdmit(PageMeta &page) override
    {
        AppState &app = stateFor(page.key.uid);
        app.resident.pushFront(page);
        app.lastAccess = ctx.clock.now();
    }

    void
    onAccess(PageMeta &page) override
    {
        AppState &app = stateFor(page.key.uid);
        app.resident.touch(page);
        app.lastAccess = ctx.clock.now();
    }

    void onFree(PageMeta &page) override;

  protected:
    /** Units are single pages compressed in @p chunk_bytes chunks. */
    AppLruScheme(SwapContext context, std::unique_ptr<Codec> unit_codec,
                 std::size_t reclaim_batch, std::size_t chunk_bytes)
        : SwapScheme(context, std::move(unit_codec), reclaim_batch),
          chunkBytes(chunk_bytes)
    {}

    void planReclaim(std::size_t pages, bool direct) override;

    /** Plan the LRU-tail @p share of @p uid's resident pages. */
    void planTailShare(AppId uid, double share);

    /** Policy: free the swapped-out copy of @p page. */
    virtual void releaseStored(PageMeta &page) = 0;

    /** Faulted-in @p page becomes its app's MRU resident page. */
    void readmit(PageMeta &page);

  private:
    struct AppState
    {
        AppState(AppId uid_, Counter *ops) : uid(uid_), resident(ops) {}
        AppId uid;
        LruList resident;
        Tick lastAccess = 0;
    };

    AppState &
    stateFor(AppId uid)
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

    AppState *oldestAppWithPages();
    std::size_t planTail(AppState &app, std::size_t limit);

    std::size_t chunkBytes;
    /** Sorted by uid (intrusive list heads need stable addresses,
     * hence unique_ptr; scans run in uid order like std::map did). */
    std::vector<std::unique_ptr<AppState>> appStates;
};

} // namespace ariadne

#endif // ARIADNE_SWAP_APP_LRU_HH
