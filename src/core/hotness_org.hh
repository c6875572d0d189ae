/**
 * @file
 * HotnessOrg — low-overhead hotness-aware data organization (§4.2).
 *
 * Keeps three LRU lists (hot / warm / cold) per application instead
 * of the kernel's two, plus an LRU order across applications:
 *
 *  - hotness initialization: the first profile-sized batch of pages
 *    admitted during a launch joins the hot list; later allocations
 *    join the cold list;
 *  - promotion: cold pages touched during execution move to warm
 *    (mirrors the kernel's inactive->active promotion);
 *  - relaunch update: when a relaunch begins, the whole old hot list
 *    is demoted to warm and every page touched during the relaunch
 *    window joins the hot list;
 *  - eviction order: cold first (app-LRU order), then warm, then —
 *    only if unavoidable — hot.
 *
 * Lists hold resident pages only; everything is O(1) list surgery
 * with no data movement, preserving the paper's overhead argument.
 */

#ifndef ARIADNE_CORE_HOTNESS_ORG_HH
#define ARIADNE_CORE_HOTNESS_ORG_HH

#include <memory>
#include <vector>

#include "core/profile_store.hh"
#include "mem/lru_list.hh"
#include "mem/page_arena.hh"
#include "sim/stats.hh"

namespace ariadne
{

/** Three-list per-app data organization with cross-app LRU. */
class HotnessOrg
{
  public:
    /**
     * @param op_counter Shared LRU operation counter (CPU charging).
     * @param profiles Hot-set size estimates for initialization.
     */
    HotnessOrg(Counter *op_counter, ProfileStore &profiles)
        : ops(op_counter), profileStore(profiles)
    {}

    /** New resident page admitted (first allocation). */
    void admit(PageMeta &page, Tick now);

    /** Resident page touched by the app. */
    void touchResident(PageMeta &page, Tick now);

    /**
     * Page became resident again after a swap-in fault. Joins hot if
     * the app is inside a relaunch window, else warm.
     */
    void placeAfterSwapIn(PageMeta &page, Tick now);

    /**
     * Sibling page of a decompressed cold unit that was *not* the
     * faulting page: resident now, still presumed cold.
     */
    void placeColdSibling(PageMeta &page, Tick now);

    /** Remove a page from whatever list it is on (pre-eviction). */
    void unlink(PageMeta &page);

    /** Relaunch window control. */
    void beginRelaunch(AppId uid, Tick now);
    void endRelaunch(AppId uid);

    /** True while @p uid is inside a relaunch window. */
    bool inRelaunch(AppId uid) const;

    /**
     * LRU victim selection: the tail page of the given level's list
     * of the least recently used app that has one.
     * @return nullptr when no app has pages at that level.
     */
    PageMeta *popVictim(Hotness level);

    /** Victim preview without removal. */
    PageMeta *peekVictim(Hotness level);

    /** Pop the LRU victim of @p level from a specific app. */
    PageMeta *popVictim(AppId uid, Hotness level);

    /** Resident pages on @p uid's list of @p level. */
    std::size_t listSize(AppId uid, Hotness level) const;

    /** Resident pages at @p level summed across every app (gauge
     * sampling; a handful of apps, so a cheap read-only walk). */
    std::size_t population(Hotness level) const;

    /**
     * The scheme's current relaunch prediction for @p uid: pages
     * touched during the most recent relaunch window (falls back to
     * the initialization-time hot list before the first relaunch).
     */
    std::vector<PageKey> predictedHotSet(AppId uid) const;

    /** Number of pages touched in the current/last relaunch window. */
    std::size_t lastRelaunchTouched(AppId uid) const;

  private:
    struct AppLists
    {
        AppLists(AppId uid_, Counter *ops)
            : uid(uid_), hot(ops), warm(ops), cold(ops)
        {}

        AppId uid;
        LruList hot;
        LruList warm;
        LruList cold;
        Tick lastAccess = 0;
        bool relaunchActive = false;
        std::size_t hotAdmitted = 0;   //!< launch-time hot fill count
        std::size_t hotInitTarget = 0; //!< from ProfileStore
        bool initialized = false;
        /** Pages touched during the last relaunch window. */
        std::vector<PageKey> relaunchTouched;
        PfnBitmap relaunchSeen;
    };

    AppLists &listsFor(AppId uid);
    const AppLists *findLists(AppId uid) const;
    AppLists *findLists(AppId uid);
    LruList &listOf(AppLists &app, Hotness level);
    void noteRelaunchTouch(AppLists &app, const PageMeta &page);

    Counter *ops;
    ProfileStore &profileStore;
    /** Sorted by uid. LruList is address-stable (intrusive heads), so
     * entries live behind unique_ptr; victim scans walk the flat
     * vector in uid order exactly as the old std::map iteration did. */
    std::vector<std::unique_ptr<AppLists>> apps;
    /** Touches arrive in long single-app runs; remembering the last
     * resolved entry turns almost every listsFor into one compare
     * (AppLists addresses are stable, so the cache never dangles). */
    AppLists *lastLists = nullptr;
};

} // namespace ariadne

#endif // ARIADNE_CORE_HOTNESS_ORG_HH
