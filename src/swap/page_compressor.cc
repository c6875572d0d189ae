#include "swap/page_compressor.hh"

#include <algorithm>

#include "sim/rng.hh"
#include "telemetry/telemetry.hh"

namespace ariadne
{

namespace
{

telemetry::Counter c_cacheHit("compressor.cache_hit");
telemetry::Counter c_cacheMiss("compressor.cache_miss");

// Per-codec host-time compression cost, indexed by CodecKind. These
// are the only probes measuring *real* compression work (the schemes
// charge modeled sim-time separately).
telemetry::DurationProbe &
compressProbe(CodecKind kind)
{
    static telemetry::DurationProbe probes[] = {
        telemetry::DurationProbe("compressor.compress.lz4"),
        telemetry::DurationProbe("compressor.compress.lzo"),
        telemetry::DurationProbe("compressor.compress.bdi"),
        telemetry::DurationProbe("compressor.compress.null"),
    };
    auto i = static_cast<std::size_t>(kind);
    return probes[i < 4 ? i : 3];
}

} // namespace

std::uint64_t
SizeTable::hash(std::span<const std::uint64_t> key) noexcept
{
    std::uint64_t h = key.size();
    for (std::uint64_t w : key)
        h = mix64(h ^ w);
    return h;
}

std::size_t
SizeTable::probe(std::span<const std::uint64_t> key,
                 std::uint64_t h) const noexcept
{
    std::size_t mask = slots.size() - 1;
    for (std::size_t idx = h & mask;; idx = (idx + 1) & mask) {
        const Slot &slot = slots[idx];
        if (slot.keyAt == empty)
            return idx;
        const std::uint64_t *stored = keys.data() + slot.keyAt;
        if (slot.hash == h && stored[0] == key.size() &&
            std::equal(key.begin(), key.end(), stored + 1)) {
            return idx;
        }
    }
}

std::uint32_t
SizeTable::find(std::span<const std::uint64_t> key,
                std::uint64_t h) const noexcept
{
    if (slots.empty())
        return notFound;
    const Slot &slot = slots[probe(key, h)];
    return slot.keyAt == empty ? notFound : slot.csize;
}

void
SizeTable::insert(std::span<const std::uint64_t> key, std::uint64_t h,
                  std::uint32_t csize)
{
    if (live == capacity || keys.size() + 1 + key.size() > maxKeyWords) {
        // Full: start over. Tags handed out stay unique, since
        // nextTag never rewinds.
        slots.clear();
        keys.clear();
        interned.clear();
        live = 0;
    }
    if (slots.empty())
        slots.resize(capacity * 2);
    slots[probe(key, h)] =
        Slot{h, static_cast<std::uint32_t>(keys.size()), csize};
    keys.push_back(key.size());
    keys.insert(keys.end(), key.begin(), key.end());
    ++live;
}

std::uint32_t
SizeTable::tagFor(AppId uid, const std::vector<std::uint8_t> &inputs)
{
    for (const Inputs &in : interned) {
        if (in.uid == uid && in.bytes == inputs)
            return in.tag;
    }
    interned.push_back(Inputs{uid, inputs, freshTag()});
    return interned.back().tag;
}

std::uint32_t
PageCompressor::tagFor(AppId uid)
{
    for (const auto &[u, tag] : tags) {
        if (u == uid)
            return tag;
    }
    std::vector<std::uint8_t> inputs;
    std::uint32_t tag = content.contentInputs(uid, inputs)
                            ? table.tagFor(uid, inputs)
                            : table.freshTag();
    tags.emplace_back(uid, tag);
    return tag;
}

Codec::BatchState *
PageCompressor::batchStateFor(const Codec &codec)
{
    auto i = static_cast<std::size_t>(codec.kind());
    BatchSlot &slot = batchStates[i < 4 ? i : 3];
    if (!slot.made) {
        slot.state = codec.makeBatchState();
        slot.made = true;
    }
    return slot.state.get();
}

std::size_t
PageCompressor::size(std::span<const PageRef> pages, const Codec &codec,
                     std::size_t chunk_bytes)
{
    if (pages.empty())
        return 0;
    key.clear();
    key.push_back(
        (std::uint64_t{static_cast<std::uint8_t>(codec.kind())} << 32) |
        pages.size());
    key.push_back(chunk_bytes);
    for (const PageRef &page : pages) {
        key.push_back(page.key.pfn);
        key.push_back((std::uint64_t{tagFor(page.key.uid)} << 32) |
                      page.version);
    }
    std::uint64_t h = SizeTable::hash(key);
    std::uint32_t csize = table.find(key, h);
    if (csize != SizeTable::notFound) {
        c_cacheHit.add();
        ++hits;
        return csize;
    }

    telemetry::ScopedTimer timer(compressProbe(codec.kind()));
    c_cacheMiss.add();
    ++misses;
    unitScratch.resize(pages.size() * pageSize);
    for (std::size_t i = 0; i < pages.size(); ++i) {
        content.materialize(pages[i].key, pages[i].version,
                            {unitScratch.data() + i * pageSize,
                             pageSize});
    }
    csize = static_cast<std::uint32_t>(ChunkedFrame::compressInto(
        codec, {unitScratch.data(), unitScratch.size()}, chunk_bytes,
        batchStateFor(codec), frameScratch, chunkScratch));
    compressedVolume += unitScratch.size();
    table.insert(key, h, csize);
    return csize;
}

} // namespace ariadne
