/**
 * @file
 * Ideal DRAM scheme (the paper's "DRAM" upper bound).
 *
 * Assumes main memory is large enough to keep every anonymous page
 * resident: no compression, no swapping, no reclaim. Used as the
 * optimal baseline in Fig. 2/3/10 and Table 2.
 */

#ifndef ARIADNE_SWAP_DRAM_ONLY_HH
#define ARIADNE_SWAP_DRAM_ONLY_HH

#include "swap/scheme.hh"
#include "swap/scheme_registry.hh"

namespace ariadne
{

/** No-swap ideal baseline. */
class DramOnlyScheme : public SwapScheme
{
  public:
    explicit DramOnlyScheme(SwapContext context) : SwapScheme(context)
    {}

    std::string name() const override { return "dram"; }

    void onAdmit(PageMeta &) override {}

    void onAccess(PageMeta &) override {}

    void
    onFree(PageMeta &page) override
    {
        if (page.location == PageLocation::Resident)
            ctx.dram.release(1);
        page.location = PageLocation::Lost;
    }

  private:
    /** Nothing to reclaim: anonymous pages are never evicted. */
    void planReclaim(std::size_t, bool) override {}

    bool
    storeUnit(std::span<PageMeta *const>, const PlannedUnit &,
              std::size_t, bool) override
    {
        panic("DramOnlyScheme plans no units");
    }

    SwapInResult
    fetch(PageMeta &) override
    {
        panic("DramOnlyScheme never swaps pages out");
    }
};

/** Registry entry for `scheme = dram` (see scheme_registry.cc). */
SchemeInfo dramOnlySchemeInfo();

} // namespace ariadne

#endif // ARIADNE_SWAP_DRAM_ONLY_HH
