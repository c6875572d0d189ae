/**
 * @file
 * Lightweight statistics package: event counters, exact sample
 * distributions and mergeable percentile sketches.
 */

#ifndef ARIADNE_SIM_STATS_HH
#define ARIADNE_SIM_STATS_HH

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace ariadne
{

/** Monotonic event counter. */
class Counter
{
  public:
    Counter() = default;

    /** Increment by @p n (default 1). */
    void
    inc(std::uint64_t n = 1) noexcept
    {
        count += n;
    }

    /** Current value. */
    std::uint64_t value() const noexcept { return count; }

    /** Reset to zero. */
    void reset() noexcept { count = 0; }

  private:
    std::uint64_t count = 0;
};

/**
 * Exact sample distribution: stores every sample and answers
 * percentile queries by rank. Costs memory proportional to the sample
 * count, so it is meant for per-run aggregates (relaunch latencies,
 * per-session CPU), not per-page events.
 */
class Distribution
{
  public:
    Distribution() = default;

    /** Record one sample. */
    void
    sample(double v)
    {
        values.push_back(v);
        sorted = false;
    }

    std::uint64_t samples() const noexcept { return values.size(); }

    double min() const noexcept;
    double max() const noexcept;

    /** Arithmetic mean; 0 when empty. */
    double mean() const noexcept;

    /**
     * Nearest-rank percentile: the smallest sample v such that at
     * least ceil(p * samples) samples are <= v. @p p is clamped to
     * [0, 1]; an empty distribution reports 0.
     */
    double percentile(double p) const;

    /** Reset to the empty state. */
    void
    reset() noexcept
    {
        values.clear();
        sorted = false;
    }

  private:
    // percentile() sorts lazily; recording order is irrelevant to
    // every accessor, so logical constness is preserved.
    mutable std::vector<double> values;
    mutable bool sorted = false;
};

/** How a metric aggregates percentiles: exact sample vectors (memory
 * O(samples), byte-reproducible) or a mergeable PercentileSketch
 * (memory O(sketch), rank-error-bounded). */
enum class PercentileMode
{
    Exact,
    Sketch,
};

/** Stable config-format name ("exact" / "sketch"). */
const char *percentileModeName(PercentileMode mode) noexcept;

/** Parse a mode name (case-insensitive); nullopt when unknown. */
std::optional<PercentileMode>
parsePercentileModeName(const std::string &text);

/**
 * Mergeable rank-error-bounded percentile sketch (Munro–Paterson /
 * KLL-style compactors with a *deterministic* compaction schedule).
 *
 * Samples enter a level-0 buffer of capacity k; a full level-ℓ buffer
 * is sorted and halved — every other item survives with doubled
 * weight 2^(ℓ+1) — into level ℓ+1. The surviving parity alternates
 * per level (a counter, never a coin flip), so a given sample/merge
 * sequence always produces the same sketch; there is no randomness to
 * make two runs disagree. Two sketches merge by concatenating levels
 * and re-compacting, so shard order determines the result exactly —
 * ReportMerger canonicalizes shard order, which is what makes merged
 * sketch reports reproducible no matter how the CLI was invoked.
 *
 * Accuracy: halving a level-ℓ buffer perturbs the weighted rank of
 * any threshold by at most 2^ℓ, so the sketch *tracks* its own
 * worst-case bound — rankErrorBound() is the sum of 2^ℓ over every
 * compaction performed (merges add the bounds). percentile(p) is
 * guaranteed to return a value whose true rank is within
 * rankErrorBound() of ceil(p * samples). For n samples the bound
 * grows as (n/k) * log2(n/k) — about 5 % of n at k = 256, n = 10^6 —
 * while retained() stays at O(k * log2(n/k)) items regardless of n.
 */
class PercentileSketch
{
  public:
    /** Smallest accepted buffer size. */
    static constexpr std::size_t minK = 8;
    /** Default buffer size (rank error ≈ 5 % at a million samples). */
    static constexpr std::size_t defaultK = 256;

    /** One compactor level: items all carrying weight 2^level. */
    struct Level
    {
        std::vector<double> items;
    };

    /** @param k Per-level buffer capacity; clamped up to minK and to
     * the next even value (compaction halves pairs). */
    explicit PercentileSketch(std::size_t k = defaultK);

    /** Record one sample. */
    void sample(double v);

    /** Fold @p o into this sketch (capacities must match, see
     * compatible()); both bounds and counts add. */
    void merge(const PercentileSketch &o);

    /** Whether @p o can merge into this sketch (same capacity). */
    bool
    compatible(const PercentileSketch &o) const noexcept
    {
        return cap == o.cap;
    }

    std::uint64_t samples() const noexcept { return n; }
    std::size_t k() const noexcept { return cap; }

    /** Items currently buffered across all levels (the sketch's whole
     * memory footprint; O(k log(n/k)), never O(n)). */
    std::size_t retained() const noexcept;

    /**
     * Worst-case absolute rank error of any percentile query, in
     * sample-count units: the value returned for percentile(p) has a
     * true rank within this bound of ceil(p * samples()). 0 until the
     * first compaction (small inputs are exact).
     */
    std::uint64_t rankErrorBound() const noexcept { return errBound; }

    /**
     * Nearest-rank percentile over the weighted retained items; @p p
     * is clamped to [0, 1] (NaN clamps to 0) and an empty sketch
     * reports 0, mirroring Distribution::percentile.
     */
    double percentile(double p) const;

    /** Compactor levels, bottom (weight 1) first — the serializable
     * state; level i items carry weight 2^i. */
    const std::vector<Level> &levels() const noexcept { return lvls; }

    /**
     * Rebuild a sketch from serialized state (the partial-report
     * parse path). Compaction parity counters restart at zero, which
     * is itself deterministic: the same partial files always merge to
     * the same result.
     */
    static PercentileSketch restore(std::size_t k, std::uint64_t count,
                                    std::uint64_t rank_error_bound,
                                    std::vector<Level> levels);

    /** Reset to the empty state (capacity kept). */
    void reset();

  private:
    void compactLevel(std::size_t level);
    void compactOverfull();

    std::size_t cap;
    std::uint64_t n = 0;
    std::uint64_t errBound = 0;
    std::vector<Level> lvls;
    /** Per-level compaction counters; parity picks the surviving
     * offset, alternating deterministically. */
    std::vector<std::uint64_t> compactions;
};

} // namespace ariadne

#endif // ARIADNE_SIM_STATS_HH
