/**
 * @file
 * Deterministic page-content synthesizer.
 *
 * Replaces the paper's captured page payloads (which we cannot ship)
 * with synthetic anonymous pages that preserve the properties the
 * paper's insights rest on:
 *
 *  - pages are composed of 128-512 B typed regions ("similar types of
 *    data are gathered within a small region", Insight 2), so small-
 *    chunk compression already finds intra-region redundancy;
 *  - apps share per-app pools (text phrases, pointer bases, media
 *    tiles), so wider compression windows discover progressively more
 *    cross-region and cross-page redundancy — the mechanism behind
 *    Fig. 6's ratio growth from ~1.7 (128 B) to ~3.9 (128 KB);
 *  - content is a pure function of (uid, pfn, version), so every
 *    experiment is reproducible and pages never need to be stored.
 */

#ifndef ARIADNE_WORKLOAD_PAGE_SYNTH_HH
#define ARIADNE_WORKLOAD_PAGE_SYNTH_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "mem/page.hh"
#include "workload/app_model.hh"

namespace ariadne
{

/** Synthesizes page contents for a set of registered applications. */
class PageSynthesizer : public PageContentSource
{
  public:
    /** Register @p apps; pages of unknown uids use a default mix. */
    explicit PageSynthesizer(const std::vector<AppProfile> &apps);

    void materialize(const PageKey &key, std::uint32_t version,
                     MutableBytes out) const override;

    /** Whether @p uid is registered, then its ContentMix weights bit
     * for bit: the only inputs its pools are built from. */
    bool contentInputs(AppId uid,
                       std::vector<std::uint8_t> &out) const override;

  private:
    /** Per-application shared pools driving cross-page redundancy. */
    struct AppPools
    {
        ContentMix mix;
        double mixTotal = 0.0;
        std::vector<std::string> phrases;     //!< text building blocks
        std::vector<std::uint64_t> ptrBases;  //!< pointer high bits
        std::vector<std::array<std::uint8_t, 64>> tiles; //!< media
        /** Whole-region templates: regions duplicated across pages
         * (shared assets / framework data; Android dedup studies find
         * 30-60% duplicate anonymous data). Only windows spanning
         * multiple regions can exploit these. */
        std::vector<std::vector<std::uint8_t>> templates;
    };

    static AppPools buildPools(AppId uid, const ContentMix &mix);

    const AppPools &poolsFor(AppId uid) const;

    RegionType pickRegionType(const AppPools &pools,
                              double roll) const noexcept;

    std::unordered_map<AppId, AppPools> apps;
    AppPools defaultPools;
};

} // namespace ariadne

#endif // ARIADNE_WORKLOAD_PAGE_SYNTH_HH
