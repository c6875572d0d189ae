#include "swap/page_compressor.hh"

#include <algorithm>

#include "sim/log.hh"
#include "sim/rng.hh"
#include "swap/codec_pool.hh"
#include "telemetry/telemetry.hh"

namespace ariadne
{

namespace
{

telemetry::Counter c_cacheHit("compressor.cache_hit");
telemetry::Counter c_cacheMiss("compressor.cache_miss");
// Host time of each sizeAll() batch that ran a codec, from the first
// lookup to the last store. Its count is the number of such batches,
// whatever the number of threads that ran them.
telemetry::DurationProbe d_batch("compressor.batch");

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
    if (clearsOnInsert(key.size()))
        clear();
    if (slots.empty())
        slots.resize(capacity * 2);
    slots[probe(key, h)] =
        Slot{h, static_cast<std::uint32_t>(keys.size()), csize};
    keys.push_back(key.size());
    keys.insert(keys.end(), key.begin(), key.end());
    ++live;
}

void
SizeTable::clear() noexcept
{
    slots.clear();
    keys.clear();
    interned.clear();
    live = 0;
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

std::uint32_t
CodecScratch::compress(const PageContentSource &content,
                       std::span<const PageRef> pages,
                       const Codec &codec, std::size_t chunk_bytes)
{
    telemetry::ScopedTimer timer(compressProbe(codec.kind()));
    unit.resize(pages.size() * pageSize);
    for (std::size_t i = 0; i < pages.size(); ++i) {
        content.materialize(pages[i].key, pages[i].version,
                            {unit.data() + i * pageSize, pageSize});
    }
    auto kind = static_cast<std::size_t>(codec.kind());
    std::size_t slot = kind < 4 ? kind : 3;
    if (!made[slot]) {
        states[slot] = codec.makeBatchState();
        made[slot] = true;
    }
    return static_cast<std::uint32_t>(ChunkedFrame::compressInto(
        codec, {unit.data(), unit.size()}, chunk_bytes,
        states[slot].get(), frame, chunk));
}

void
PageCompressor::buildKey(const SizeRequest &unit, const Codec &codec)
{
    key.clear();
    key.push_back(
        (std::uint64_t{static_cast<std::uint8_t>(codec.kind())} << 32) |
        unit.pages.size());
    key.push_back(unit.chunkBytes);
    for (const PageRef &page : unit.pages) {
        key.push_back(page.key.pfn);
        key.push_back((std::uint64_t{tagFor(page.key.uid)} << 32) |
                      page.version);
    }
}

void
PageCompressor::sizeAll(std::span<const SizeRequest> units,
                        const Codec &codec, std::span<std::size_t> out)
{
    panicIf(out.size() != units.size(),
            "sizeAll: output and batch lengths differ");
    const bool timed = telemetry::enabled();
    const std::uint64_t start = timed ? telemetry::hostNowNs() : 0;
    batchMisses.clear();
    missKeys.clear();
    repeats.clear();
    pendingFrom = 0;
    std::size_t pending_words = 0;
    for (std::size_t i = 0; i < units.size(); ++i) {
        out[i] = 0;
        if (units[i].pages.empty())
            continue;
        buildKey(units[i], codec);
        std::uint64_t h = SizeTable::hash(key);
        // Sized one at a time, a pending miss would already be in the
        // table.
        auto same = std::find_if(
            batchMisses.begin() + static_cast<long>(pendingFrom),
            batchMisses.end(), [&](const Miss &m) {
                return m.hash == h && m.keyLen == key.size() &&
                       std::equal(key.begin(), key.end(),
                                  missKeys.begin() +
                                      static_cast<long>(m.keyAt));
            });
        if (same != batchMisses.end()) {
            repeats.emplace_back(
                i, static_cast<std::size_t>(same - batchMisses.begin()));
            c_cacheHit.add();
            ++hits;
            continue;
        }
        std::uint32_t csize = table.find(key, h);
        if (csize != SizeTable::notFound) {
            out[i] = csize;
            c_cacheHit.add();
            ++hits;
            continue;
        }
        if (table.clearsOnInsert(key.size(),
                                 batchMisses.size() - pendingFrom,
                                 pending_words)) {
            // This miss's insert clears the table: store the pending
            // misses first, then clear, so later lookups see what they
            // would see sized one at a time.
            flush(units, codec, out);
            pending_words = 0;
            if (table.clearsOnInsert(key.size()))
                table.clear();
        }
        c_cacheMiss.add();
        ++misses;
        batchMisses.push_back(Miss{i, h, missKeys.size(), key.size()});
        missKeys.insert(missKeys.end(), key.begin(), key.end());
        pending_words += key.size();
    }
    flush(units, codec, out);
    for (auto [unit, miss] : repeats)
        out[unit] = batchMisses[miss].csize;
    if (timed && !batchMisses.empty())
        d_batch.record(telemetry::hostNowNs() - start);
}

void
PageCompressor::flush(std::span<const SizeRequest> units,
                      const Codec &codec, std::span<std::size_t> out)
{
    std::span<Miss> run(batchMisses.data() + pendingFrom,
                        batchMisses.size() - pendingFrom);
    auto job = [&](std::size_t k, CodecScratch &s) {
        const SizeRequest &unit = units[run[k].unit];
        run[k].csize =
            s.compress(content, unit.pages, codec, unit.chunkBytes);
    };
    if (pool) {
        pool->run(run.size(), scratch, job);
    } else {
        for (std::size_t k = 0; k < run.size(); ++k)
            job(k, scratch);
    }
    for (const Miss &m : run) {
        table.insert({missKeys.data() + m.keyAt, m.keyLen}, m.hash,
                     m.csize);
        compressedVolume += units[m.unit].pages.size() * pageSize;
        out[m.unit] = m.csize;
    }
    pendingFrom = batchMisses.size();
}

std::size_t
PageCompressor::size(std::span<const PageRef> pages, const Codec &codec,
                     std::size_t chunk_bytes)
{
    SizeRequest unit{pages, chunk_bytes};
    std::size_t csize = 0;
    sizeAll({&unit, 1}, codec, {&csize, 1});
    return csize;
}

} // namespace ariadne
