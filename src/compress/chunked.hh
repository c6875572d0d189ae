/**
 * @file
 * Chunked compression framing.
 *
 * AdaptiveComp's central primitive: a buffer is split into fixed-size
 * chunks, each compressed independently with an inner codec. Chunks
 * that do not shrink are stored raw (per-chunk stored flag), so the
 * frame never expands pathologically. The frame is self-describing,
 * which is also what the Fig. 6 experiment sweeps (chunk sizes from
 * 128 B to 128 KB over the same input).
 *
 * Frame layout (little endian):
 *   u32 magic       'A''R''C''F'
 *   u32 chunkBytes  configured chunk size
 *   u64 originalSize
 *   u32 chunkCount
 *   u32 sizes[chunkCount]   bit31 set => chunk stored raw
 *   payload bytes, chunks back to back
 */

#ifndef ARIADNE_COMPRESS_CHUNKED_HH
#define ARIADNE_COMPRESS_CHUNKED_HH

#include <cstdint>
#include <vector>

#include "compress/codec.hh"

namespace ariadne
{

/** Static helpers for building and reading chunked frames. */
class ChunkedFrame
{
  public:
    /** Frame magic number. */
    static constexpr std::uint32_t magic = 0x46435241u; // "ARCF"

    /** Size of the fixed header before the chunk size table. */
    static constexpr std::size_t headerBytes = 20;

    /**
     * Compress @p src into a frame with @p chunk_bytes chunks.
     * @param codec Inner block codec.
     * @param src Input buffer (may be empty).
     * @param chunk_bytes Chunk size, must be > 0.
     */
    static std::vector<std::uint8_t> compress(const Codec &codec,
                                              ConstBytes src,
                                              std::size_t chunk_bytes);

    /**
     * As compress(), but reusing @p state (may be null) across chunks,
     * writing the frame into the caller-owned @p out (replaced) and
     * reusing @p scratch (grown as needed) — no allocations once both
     * buffers have warmed up.
     * @return the frame size (== out.size()).
     */
    static std::size_t compressInto(const Codec &codec, ConstBytes src,
                                    std::size_t chunk_bytes,
                                    Codec::BatchState *state,
                                    std::vector<std::uint8_t> &out,
                                    std::vector<std::uint8_t> &scratch);

    /**
     * Decompress an entire frame into @p dst.
     * @return original size, or 0 on corrupt frame / short dst.
     */
    static std::size_t decompress(const Codec &codec, ConstBytes frame,
                                  MutableBytes dst);

    /**
     * Decompress only chunk @p index into @p dst (sized at least
     * chunkBytes(frame)).
     * @return chunk's decompressed size, or 0 on error.
     */
    static std::size_t decompressChunk(const Codec &codec,
                                       ConstBytes frame,
                                       std::size_t index,
                                       MutableBytes dst);

    /** Original (uncompressed) size recorded in the frame; 0 if bad. */
    static std::size_t originalSize(ConstBytes frame) noexcept;

    /** Number of chunks in the frame; 0 if bad. */
    static std::size_t chunkCount(ConstBytes frame) noexcept;

    /** Configured chunk size of the frame; 0 if bad. */
    static std::size_t chunkBytes(ConstBytes frame) noexcept;

    /** True when the header is structurally valid. */
    static bool valid(ConstBytes frame) noexcept;
};

} // namespace ariadne

#endif // ARIADNE_COMPRESS_CHUNKED_HH
