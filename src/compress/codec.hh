/**
 * @file
 * Abstract lossless-codec interface.
 *
 * All codecs are implemented from scratch in this repository (the
 * kernel's LZ4/LZO are unavailable to a userspace artifact); they are
 * byte-exact, bounds-checked, and deterministic. Each codec also
 * carries the CodecCost coefficients the TimingModel uses to convert
 * its work into simulated nanoseconds.
 */

#ifndef ARIADNE_COMPRESS_CODEC_HH
#define ARIADNE_COMPRESS_CODEC_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "sim/timing_model.hh"

namespace ariadne
{

/** Byte span aliases used across the compression layer. */
using ConstBytes = std::span<const std::uint8_t>;
using MutableBytes = std::span<std::uint8_t>;

/** Identity of a compression algorithm. */
enum class CodecKind { Lz4, Lzo, Bdi, Null };

/** Stable lowercase name for a codec kind. */
const char *codecKindName(CodecKind kind) noexcept;

/**
 * A block compressor/decompressor.
 *
 * compress() writes at most compressBound(src.size()) bytes and
 * returns the compressed size; it never fails for a destination of at
 * least bound bytes. decompress() returns the decompressed size or 0
 * if the input is corrupt or the destination too small — it never
 * reads or writes out of bounds.
 *
 * The simulator charges swap-in through TimingModel::decompressNs and
 * never decodes, so decompress() is a plain reference decoder: it
 * exists as the correctness oracle for round-trip tests.
 */
class Codec
{
  public:
    virtual ~Codec() = default;

    /** Algorithm identity. */
    virtual CodecKind kind() const noexcept = 0;

    /** Human-readable name. */
    virtual std::string name() const = 0;

    /** Timing coefficients for the TimingModel. */
    virtual const CodecCost &cost() const noexcept = 0;

    /** Worst-case compressed size for an @p n byte input. */
    virtual std::size_t compressBound(std::size_t n) const noexcept = 0;

    /**
     * Compress @p src into @p dst.
     * @return compressed size, or 0 if dst is smaller than the bound.
     */
    virtual std::size_t compress(ConstBytes src,
                                 MutableBytes dst) const = 0;

    /**
     * Decompress @p src into @p dst.
     * @return decompressed size, or 0 on corrupt input / short dst.
     */
    virtual std::size_t decompress(ConstBytes src,
                                   MutableBytes dst) const = 0;

    /**
     * Opaque reusable per-batch codec state (match tables, scratch).
     * Obtained from makeBatchState() and fed back to the stateful
     * compress(); reusing one state across a whole reclaim batch
     * amortizes the per-call setup (for the LZ-family codecs, the
     * 16-32 KB hash-table fill that otherwise dominates small pages).
     */
    class BatchState
    {
      public:
        virtual ~BatchState() = default;
    };

    /**
     * Create reusable batch state for the stateful compress().
     * Codecs with no per-call setup return nullptr; passing a null
     * state to the stateful compress() is always valid.
     */
    virtual std::unique_ptr<BatchState>
    makeBatchState() const
    {
        return nullptr;
    }

    /**
     * Compress @p src into @p dst, reusing @p state across calls.
     * Output is byte-identical to the stateless compress() for every
     * call, in any call order. @p state must have come from this
     * codec's makeBatchState() (or be null, which falls back to the
     * stateless path).
     */
    virtual std::size_t
    compress(ConstBytes src, MutableBytes dst, BatchState *state) const
    {
        (void)state;
        return compress(src, dst);
    }
};

} // namespace ariadne

#endif // ARIADNE_COMPRESS_CODEC_HH
