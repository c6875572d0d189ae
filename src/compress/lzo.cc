#include "compress/lzo.hh"

#include <cstring>
#include <vector>

#include "compress/batch_table.hh"

namespace ariadne
{

namespace
{

constexpr std::size_t minMatch = 3;
constexpr std::size_t maxMatch = 18;
constexpr std::size_t maxOffset = 4095;
constexpr unsigned hashBits = 12;
constexpr std::size_t hashSize = std::size_t{1} << hashBits;

std::uint32_t
read32(const std::uint8_t *p) noexcept
{
    std::uint32_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

std::uint64_t
read64(const std::uint8_t *p) noexcept
{
    std::uint64_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

/** The three match bytes as a little-endian word. */
std::uint32_t
load24(const std::uint8_t *p) noexcept
{
    return p[0] | (std::uint32_t{p[1]} << 8) |
                  (std::uint32_t{p[2]} << 16);
}

std::uint32_t
hashOf24(std::uint32_t v) noexcept
{
    return (v * 2654435761u) >> (32 - hashBits);
}

std::size_t
boundFor(std::size_t n) noexcept
{
    // All-literal worst case: one flag byte per 8 literals.
    return n + n / 8 + 2;
}

/**
 * The match loop over a biased position table (see batch_table.hh):
 * @p table entries are position + @p bias, and every entry this call
 * did not write, empty slots included, lies more than maxOffset below
 * @p bias. So an entry e probed at position p is a valid reference
 * iff p + bias - e <= maxOffset: one test for "written by this
 * buffer" and "within the window". The stateless call passes a
 * zero-filled table and bias maxOffset + 1.
 */
std::size_t
compressWith(ConstBytes src, MutableBytes dst, std::uint32_t *table,
             std::uint32_t bias)
{
    const std::size_t n = src.size();
    if (dst.size() < boundFor(n))
        return 0;

    const std::uint8_t *ip = src.data();
    const std::uint8_t *const iend = ip + n;
    std::uint8_t *op = dst.data();

    // A group far enough from the end can never exhaust the input
    // (8 items consume at most 8 * maxMatch bytes) and every 4-byte
    // load stays in bounds, so its items skip all per-item bounds
    // checks. The checked loop below handles the remainder; both
    // produce identical items.
    constexpr std::size_t fastGroupBytes = 8 * maxMatch + 4;

    while (ip < iend) {
        // One flag byte per group of 8 items, accumulated in a
        // register and stored once when the group closes.
        std::uint8_t *flags = op++;
        std::uint8_t flag_byte = 0;
        if (static_cast<std::size_t>(iend - ip) >= fastGroupBytes) {
            // One 64-bit load holds the 3-byte probe windows of six
            // consecutive positions; literal items slide through it
            // instead of reloading. Reload after a match (ip jumped)
            // or once the window is spent. Always in bounds: even the
            // group's last item has >= fastGroupBytes - 7 * maxMatch
            // = 22 input bytes left.
            std::uint64_t w = 0;
            unsigned wpos = 6; // spent — forces a load on entry
            for (unsigned bit = 0; bit < 8; ++bit) {
                if (wpos >= 6) {
                    w = read64(ip);
                    wpos = 0;
                }
                std::uint32_t v24 =
                    static_cast<std::uint32_t>(w >> (8 * wpos)) &
                    0xffffffu;
                std::uint32_t h = hashOf24(v24);
                std::uint32_t entry = table[h];
                auto cur_pos =
                    static_cast<std::uint32_t>(ip - src.data());
                table[h] = cur_pos + bias;
                // One window test, kept off the branch predictor: an
                // invalid entry's reference is clamped to ip itself,
                // and bit 24 of the compared word is set so it can
                // never equal the 24-bit probe.
                std::uint32_t dist = cur_pos + bias - entry;
                auto invalid = compress_detail::opaque(
                    static_cast<std::uint32_t>(dist > maxOffset));
                std::uint32_t keep =
                    compress_detail::opaque(invalid - 1);
                std::uint32_t ref_pos = cur_pos - (dist & keep);
                if (((read32(src.data() + ref_pos) & 0xffffffu) |
                     (invalid << 24)) == v24) {
                    const std::uint8_t *ref = src.data() + ref_pos;
                    // Extend eight bytes per compare (in bounds: the
                    // group keeps maxMatch + word slack ahead), then
                    // byte-wise — the same length a byte loop finds.
                    std::size_t len = minMatch;
                    while (len + 8 <= maxMatch) {
                        std::uint64_t diff = read64(ip + len) ^
                                             read64(ref + len);
                        if (diff) {
                            len += static_cast<std::size_t>(
                                       __builtin_ctzll(diff)) >>
                                   3;
                            break;
                        }
                        len += 8;
                    }
                    while (len < maxMatch && ref[len] == ip[len])
                        ++len;
                    flag_byte |=
                        static_cast<std::uint8_t>(1u << bit);
                    *op++ = static_cast<std::uint8_t>(
                        ((len - minMatch) << 4) | ((dist >> 8) & 0x0f));
                    *op++ = static_cast<std::uint8_t>(dist & 0xff);
                    ip += len;
                    wpos = 6; // window no longer covers ip
                } else {
                    *op++ = *ip++;
                    ++wpos;
                }
            }
            *flags = flag_byte;
            continue;
        }
        for (unsigned bit = 0; bit < 8 && ip < iend; ++bit) {
            bool matched = false;
            if (ip + minMatch <= iend) {
                // Off the last three bytes, a single 4-byte load
                // (masked to 24 bits) replaces the byte-at-a-time
                // gather for both the hash input and the candidate
                // compare; the values — and therefore the output —
                // are identical.
                bool word_safe =
                    static_cast<std::size_t>(iend - ip) >= 4;
                std::uint32_t v24 =
                    word_safe ? (read32(ip) & 0xffffffu) : load24(ip);
                std::uint32_t h = hashOf24(v24);
                std::uint32_t entry = table[h];
                auto cur_pos =
                    static_cast<std::uint32_t>(ip - src.data());
                table[h] = cur_pos + bias;
                std::uint32_t dist = cur_pos + bias - entry;
                std::uint32_t ref_pos = cur_pos - dist;
                if (dist <= maxOffset &&
                    (word_safe
                         ? (read32(src.data() + ref_pos) &
                            0xffffffu) == v24
                         : std::memcmp(src.data() + ref_pos, ip,
                                       minMatch) == 0)) {
                    const std::uint8_t *ref = src.data() + ref_pos;
                    std::size_t len = minMatch;
                    std::size_t limit = std::min(
                        maxMatch,
                        static_cast<std::size_t>(iend - ip));
                    while (len < limit && ref[len] == ip[len])
                        ++len;
                    flag_byte |=
                        static_cast<std::uint8_t>(1u << bit);
                    *op++ = static_cast<std::uint8_t>(
                        ((len - minMatch) << 4) | ((dist >> 8) & 0x0f));
                    *op++ = static_cast<std::uint8_t>(dist & 0xff);
                    ip += len;
                    matched = true;
                }
            }
            if (!matched)
                *op++ = *ip++;
        }
        *flags = flag_byte;
    }
    return static_cast<std::size_t>(op - dst.data());
}

} // namespace

std::size_t
LzoCodec::compressBound(std::size_t n) const noexcept
{
    return boundFor(n);
}

std::size_t
LzoCodec::compress(ConstBytes src, MutableBytes dst) const
{
    std::vector<std::uint32_t> table(hashSize, 0);
    return compressWith(src, dst, table.data(), maxOffset + 1);
}

std::unique_ptr<Codec::BatchState>
LzoCodec::makeBatchState() const
{
    return std::make_unique<compress_detail::PosTableState>(hashSize,
                                                            maxOffset);
}

std::size_t
LzoCodec::compress(ConstBytes src, MutableBytes dst,
                   BatchState *state) const
{
    if (!state)
        return compress(src, dst);
    auto &pos = static_cast<compress_detail::PosTableState &>(*state);
    return compressWith(src, dst, pos.data(), pos.claim(src.size()));
}

std::size_t
LzoCodec::decompress(ConstBytes src, MutableBytes dst) const
{
    const std::uint8_t *ip = src.data();
    const std::uint8_t *const iend = ip + src.size();
    std::uint8_t *op = dst.data();
    std::uint8_t *const oend = op + dst.size();

    while (ip < iend) {
        std::uint8_t flags = *ip++;
        for (unsigned bit = 0; bit < 8 && ip < iend; ++bit) {
            if (flags & (1u << bit)) {
                if (iend - ip < 2)
                    return 0;
                std::size_t len = (ip[0] >> 4) + minMatch;
                std::size_t offset =
                    (static_cast<std::size_t>(ip[0] & 0x0f) << 8) |
                    ip[1];
                ip += 2;
                if (offset == 0 ||
                    offset > static_cast<std::size_t>(op - dst.data())) {
                    return 0;
                }
                if (static_cast<std::size_t>(oend - op) < len)
                    return 0;
                // Forward byte copy: an overlapping match (offset <
                // length) reads the bytes it has just written.
                const std::uint8_t *match = op - offset;
                for (std::size_t i = 0; i < len; ++i)
                    op[i] = match[i];
                op += len;
            } else {
                if (op >= oend)
                    return 0;
                *op++ = *ip++;
            }
        }
    }
    return static_cast<std::size_t>(op - dst.data());
}

} // namespace ariadne
