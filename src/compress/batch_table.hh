/**
 * @file
 * Shared batch state for the LZ-family codecs: a position hash table
 * reused across every buffer of a batch.
 *
 * A fresh per-call table must be filled with a "never stored"
 * sentinel; at page granularity that fill (32 KB for lz4, 16 KB for
 * lzo) costs more than the match search itself. The batch state
 * instead keeps one zero-filled table alive and *biases* stored
 * positions: a call claiming bias b stores position p as p + b.
 *
 * Each claim leaves a gap of the codec's window (its largest match
 * offset W) past the end of the previous buffer, and the first bias
 * is W + 1. So an entry e probed at position p is a valid reference
 * for the call iff p + b - e <= W: entries of earlier buffers and
 * empty (zero) slots are all more than W below p + b, and for this
 * buffer's entries p + b - e is the match distance. That one
 * comparison is exactly the fresh-table sentinel test plus the window
 * test, so the compressed output is byte-identical to a stateless
 * call, with no refill and no allocation per buffer.
 *
 * The bias grows monotonically by each buffer's length plus the gap;
 * when the next claim would push a stored position past 32 bits, the
 * table is zero-refilled once and the bias restarts at W + 1
 * (amortized over ~4 GB of input).
 */

#ifndef ARIADNE_COMPRESS_BATCH_TABLE_HH
#define ARIADNE_COMPRESS_BATCH_TABLE_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "compress/codec.hh"

namespace ariadne::compress_detail
{

/**
 * @p v, hidden from the optimizer. The match loops compute their
 * window flag and reference mask arithmetically so that match or
 * literal is the only data-dependent branch; without this barrier
 * GCC turns the flag back into a compare-and-branch.
 */
template <typename T>
inline T
opaque(T v) noexcept
{
    asm("" : "+r"(v));
    return v;
}

/** Biased position-table batch state shared by Lz4Codec/LzoCodec. */
class PosTableState final : public Codec::BatchState
{
  public:
    /** A zero-filled table of @p slots for a codec whose largest
     * match offset is @p window. */
    PosTableState(std::size_t slots, std::uint32_t window)
        : table(slots, 0), gap(window), next(std::uint64_t{window} + 1)
    {
    }

    /**
     * Claim the bias window for an @p n byte buffer, zero-refilling
     * the table when the window would wrap 32 bits.
     * @return the bias the caller must add to stored positions.
     */
    std::uint32_t
    claim(std::size_t n)
    {
        if (next + n > 0xffffffffu) {
            std::fill(table.begin(), table.end(), 0u);
            next = std::uint64_t{gap} + 1;
        }
        auto claimed = static_cast<std::uint32_t>(next);
        next += n + gap;
        return claimed;
    }

    /** Slots in the table (codec-specific hash size). */
    std::size_t slots() const noexcept { return table.size(); }

    /** The position table; entries are position + bias, 0 = empty. */
    std::uint32_t *data() noexcept { return table.data(); }

  private:
    std::vector<std::uint32_t> table;
    /** The codec's window: the least distance between buffers. */
    std::uint32_t gap;
    /** Bias of the next claim; positions stored as p + bias. */
    std::uint64_t next;
};

} // namespace ariadne::compress_detail

#endif // ARIADNE_COMPRESS_BATCH_TABLE_HH
