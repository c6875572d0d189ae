#include "compress/chunked.hh"

#include <cstring>

#include "sim/log.hh"
#include "telemetry/telemetry.hh"

namespace ariadne
{

namespace
{

constexpr std::uint32_t storedFlag = 0x80000000u;

// Host-time cost of real decompression work (the swap-in critical
// path), indexed by CodecKind — the decompress mirror of
// compressor.compress.<codec>.
telemetry::DurationProbe &
decompressProbe(CodecKind kind)
{
    static telemetry::DurationProbe probes[] = {
        telemetry::DurationProbe("codec.decompress.lz4"),
        telemetry::DurationProbe("codec.decompress.lzo"),
        telemetry::DurationProbe("codec.decompress.bdi"),
        telemetry::DurationProbe("codec.decompress.null"),
    };
    auto i = static_cast<std::size_t>(kind);
    return probes[i < 4 ? i : 3];
}

std::uint32_t
readU32(const std::uint8_t *p) noexcept
{
    std::uint32_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

std::uint64_t
readU64(const std::uint8_t *p) noexcept
{
    std::uint64_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

void
writeU32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    auto *p = reinterpret_cast<const std::uint8_t *>(&v);
    out.insert(out.end(), p, p + sizeof(v));
}

void
writeU64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    auto *p = reinterpret_cast<const std::uint8_t *>(&v);
    out.insert(out.end(), p, p + sizeof(v));
}

/** Parsed header view; sizes pointer aliases into the frame. */
struct Header
{
    std::size_t chunkBytes;
    std::size_t originalSize;
    std::size_t chunkCount;
    const std::uint8_t *sizes;   //!< chunk size table
    const std::uint8_t *payload; //!< first payload byte
    std::size_t payloadBytes;
};

bool
parse(ConstBytes frame, Header &h) noexcept
{
    if (frame.size() < ChunkedFrame::headerBytes)
        return false;
    const std::uint8_t *p = frame.data();
    if (readU32(p) != ChunkedFrame::magic)
        return false;
    h.chunkBytes = readU32(p + 4);
    h.originalSize = readU64(p + 8);
    h.chunkCount = readU32(p + 16);
    if (h.chunkBytes == 0)
        return false;
    std::size_t expected_chunks =
        h.originalSize == 0
            ? 0
            : (h.originalSize + h.chunkBytes - 1) / h.chunkBytes;
    if (h.chunkCount != expected_chunks)
        return false;
    std::size_t table_bytes = h.chunkCount * 4;
    if (frame.size() < ChunkedFrame::headerBytes + table_bytes)
        return false;
    h.sizes = p + ChunkedFrame::headerBytes;
    h.payload = h.sizes + table_bytes;
    h.payloadBytes =
        frame.size() - ChunkedFrame::headerBytes - table_bytes;
    return true;
}

} // namespace

std::vector<std::uint8_t>
ChunkedFrame::compress(const Codec &codec, ConstBytes src,
                       std::size_t chunk_bytes)
{
    std::vector<std::uint8_t> out;
    std::vector<std::uint8_t> scratch;
    compressInto(codec, src, chunk_bytes, nullptr, out, scratch);
    return out;
}

std::size_t
ChunkedFrame::compressInto(const Codec &codec, ConstBytes src,
                           std::size_t chunk_bytes,
                           Codec::BatchState *state,
                           std::vector<std::uint8_t> &out,
                           std::vector<std::uint8_t> &scratch)
{
    fatalIf(chunk_bytes == 0, "chunk size must be > 0");

    std::size_t chunks =
        src.empty() ? 0 : (src.size() + chunk_bytes - 1) / chunk_bytes;

    out.clear();
    out.reserve(headerBytes + chunks * 4 + src.size() / 2 + 64);
    writeU32(out, magic);
    writeU32(out, static_cast<std::uint32_t>(chunk_bytes));
    writeU64(out, src.size());
    writeU32(out, static_cast<std::uint32_t>(chunks));

    std::size_t table_off = out.size();
    out.resize(out.size() + chunks * 4);

    std::size_t bound = codec.compressBound(chunk_bytes);
    if (scratch.size() < bound)
        scratch.resize(bound);

    for (std::size_t i = 0; i < chunks; ++i) {
        std::size_t off = i * chunk_bytes;
        std::size_t len = std::min(chunk_bytes, src.size() - off);
        ConstBytes in = src.subspan(off, len);
        std::size_t csize =
            codec.compress(in, {scratch.data(), bound}, state);

        std::uint32_t record;
        if (csize == 0 || csize >= len) {
            // Store raw: the codec failed or did not shrink the chunk.
            record = storedFlag | static_cast<std::uint32_t>(len);
            out.insert(out.end(), in.begin(), in.end());
        } else {
            record = static_cast<std::uint32_t>(csize);
            out.insert(out.end(), scratch.begin(),
                       scratch.begin() + static_cast<long>(csize));
        }
        std::memcpy(out.data() + table_off + i * 4, &record, 4);
    }
    return out.size();
}

std::size_t
ChunkedFrame::decompress(const Codec &codec, ConstBytes frame,
                         MutableBytes dst)
{
    telemetry::ScopedTimer timer(decompressProbe(codec.kind()));
    Header h;
    if (!parse(frame, h))
        return 0;
    if (dst.size() < h.originalSize)
        return 0;

    const std::uint8_t *payload = h.payload;
    std::size_t remaining_payload = h.payloadBytes;
    std::size_t out_off = 0;

    for (std::size_t i = 0; i < h.chunkCount; ++i) {
        std::uint32_t record = readU32(h.sizes + i * 4);
        bool stored = (record & storedFlag) != 0;
        std::size_t csize = record & ~storedFlag;
        if (csize > remaining_payload)
            return 0;

        std::size_t want = std::min(h.chunkBytes,
                                    h.originalSize - out_off);
        if (stored) {
            if (csize != want)
                return 0;
            std::memcpy(dst.data() + out_off, payload, csize);
        } else {
            std::size_t got = codec.decompress(
                {payload, csize}, {dst.data() + out_off, want});
            if (got != want)
                return 0;
        }
        payload += csize;
        remaining_payload -= csize;
        out_off += want;
    }
    return out_off == h.originalSize ? h.originalSize : 0;
}

std::size_t
ChunkedFrame::decompressChunk(const Codec &codec, ConstBytes frame,
                              std::size_t index, MutableBytes dst)
{
    telemetry::ScopedTimer timer(decompressProbe(codec.kind()));
    Header h;
    if (!parse(frame, h))
        return 0;
    if (index >= h.chunkCount)
        return 0;

    const std::uint8_t *payload = h.payload;
    std::size_t remaining_payload = h.payloadBytes;
    for (std::size_t i = 0; i < index; ++i) {
        std::size_t csize = readU32(h.sizes + i * 4) & ~storedFlag;
        if (csize > remaining_payload)
            return 0;
        payload += csize;
        remaining_payload -= csize;
    }

    std::uint32_t record = readU32(h.sizes + index * 4);
    bool stored = (record & storedFlag) != 0;
    std::size_t csize = record & ~storedFlag;
    if (csize > remaining_payload)
        return 0;

    std::size_t off = index * h.chunkBytes;
    std::size_t want = std::min(h.chunkBytes, h.originalSize - off);
    if (dst.size() < want)
        return 0;
    if (stored) {
        if (csize != want)
            return 0;
        std::memcpy(dst.data(), payload, csize);
        return want;
    }
    std::size_t got = codec.decompress({payload, csize},
                                       {dst.data(), want});
    return got == want ? want : 0;
}

std::size_t
ChunkedFrame::originalSize(ConstBytes frame) noexcept
{
    Header h;
    return parse(frame, h) ? h.originalSize : 0;
}

std::size_t
ChunkedFrame::chunkCount(ConstBytes frame) noexcept
{
    Header h;
    return parse(frame, h) ? h.chunkCount : 0;
}

std::size_t
ChunkedFrame::chunkBytes(ConstBytes frame) noexcept
{
    Header h;
    return parse(frame, h) ? h.chunkBytes : 0;
}

bool
ChunkedFrame::valid(ConstBytes frame) noexcept
{
    Header h;
    return parse(frame, h);
}

} // namespace ariadne
