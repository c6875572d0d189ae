#include "workload/page_synth.hh"

#include <cassert>
#include <cstring>

#include "sim/rng.hh"

namespace ariadne
{

namespace
{

/** Word stock for synthetic text regions (UI strings, JSON, logs). */
const char *const words[] = {
    "the",     "status",   "user",    "activity", "view",   "layout",
    "content", "timeline", "video",   "stream",   "cache",  "token",
    "session", "android",  "intent",  "bundle",   "frame",  "buffer",
    "surface", "texture",  "request", "response", "header", "payload",
    "channel", "message",  "profile", "account",  "widget", "handler",
    "service", "binder",   "thread",  "memory",   "bitmap", "render",
};
constexpr std::size_t numWords = sizeof(words) / sizeof(words[0]);

constexpr std::size_t numPhrases = 32;
constexpr std::size_t numPtrBases = 4;
constexpr std::size_t numTiles = 16;
constexpr std::size_t numTemplates = 64;

/** Probability a region is an exact copy of a pooled template. */
constexpr double templateProb = 0.50;

/**
 * Fill one region of @p type with @p rng-driven content. Shared by
 * template construction and per-page generation so both draw from
 * the same distributions.
 */
void
fillRegion(RegionType type, std::uint8_t *p, std::size_t region,
           const std::vector<std::string> &phrases,
           const std::vector<std::uint64_t> &ptr_bases,
           const std::vector<std::array<std::uint8_t, 64>> &tiles,
           Rng &rng)
{
    assert(phrases.size() == numPhrases &&
           ptr_bases.size() == numPtrBases &&
           tiles.size() == numTiles);
    switch (type) {
      case RegionType::Zero:
        std::memset(p, 0, region);
        break;

      case RegionType::Text: {
        // Real heaps repeat the same few strings: pick one or two
        // phrases and tile them through the region, so even a 128 B
        // window sees repetition. Pool sizes are the compile-time
        // constants (same bound values, so the draw sequence is
        // unchanged) — below() with a constant power-of-two bound
        // folds its two divisions into masks.
        const std::string &a = phrases[rng.below(numPhrases)];
        const std::string &b = phrases[rng.below(numPhrases)];
        std::size_t pos = 0;
        bool use_a = true;
        while (pos < region) {
            const std::string &phrase = use_a ? a : b;
            use_a = !rng.chance(0.3) ? use_a : !use_a;
            std::size_t len = std::min(phrase.size(), region - pos);
            std::memcpy(p + pos, phrase.data(), len);
            pos += len;
        }
        break;
      }

      case RegionType::Pointer: {
        std::uint64_t base = ptr_bases[rng.below(numPtrBases)];
        for (std::size_t pos = 0; pos + 8 <= region; pos += 8) {
            std::uint64_t v = base + (rng.below(1 << 16) & ~7ULL);
            std::memcpy(p + pos, &v, 8);
        }
        std::size_t tail = region % 8;
        if (tail)
            std::memset(p + region - tail, 0, tail);
        break;
      }

      case RegionType::Counter: {
        std::uint32_t v = static_cast<std::uint32_t>(rng.below(4096));
        // Many integer arrays are constant-filled (flags, refcounts).
        std::uint32_t stride =
            rng.chance(0.4) ? 0
                            : static_cast<std::uint32_t>(
                                  1 + rng.below(4));
        for (std::size_t pos = 0; pos + 4 <= region; pos += 4) {
            std::memcpy(p + pos, &v, 4);
            v += stride;
        }
        if (region % 4)
            std::memset(p + region - region % 4, 0, region % 4);
        break;
      }

      case RegionType::Float: {
        std::uint32_t expo =
            (static_cast<std::uint32_t>(0x3f + rng.below(4)) << 24);
        std::uint32_t prev = expo;
        for (std::size_t pos = 0; pos + 4 <= region; pos += 4) {
            std::uint32_t v = rng.chance(0.4)
                                  ? prev
                                  : expo | (rng.next32() & 0xffffff);
            std::memcpy(p + pos, &v, 4);
            prev = v;
        }
        if (region % 4)
            std::memset(p + region - region % 4, 0, region % 4);
        break;
      }

      case RegionType::Media: {
        // Half of media regions tile a single block (gradients, flat
        // fills); the rest mix tiles.
        bool single = rng.chance(0.5);
        const auto &fixed = tiles[rng.below(numTiles)];
        std::size_t pos = 0;
        while (pos < region) {
            const auto &tile =
                single ? fixed : tiles[rng.below(numTiles)];
            std::size_t len = std::min(tile.size(), region - pos);
            std::memcpy(p + pos, tile.data(), len);
            pos += len;
        }
        break;
      }

      case RegionType::Random:
      default: {
        for (std::size_t pos = 0; pos + 8 <= region; pos += 8) {
            std::uint64_t v = rng.next64();
            std::memcpy(p + pos, &v, 8);
        }
        for (std::size_t pos = region & ~std::size_t{7}; pos < region;
             ++pos) {
            p[pos] = static_cast<std::uint8_t>(rng.next32());
        }
        break;
      }
    }
}

} // namespace

PageSynthesizer::PageSynthesizer(const std::vector<AppProfile> &profiles)
{
    for (const auto &p : profiles)
        apps.emplace(p.uid, buildPools(p.uid, p.mix));

    ContentMix default_mix;
    default_mix[RegionType::Zero] = 0.15;
    default_mix[RegionType::Text] = 0.25;
    default_mix[RegionType::Pointer] = 0.20;
    default_mix[RegionType::Counter] = 0.10;
    default_mix[RegionType::Float] = 0.10;
    default_mix[RegionType::Media] = 0.15;
    default_mix[RegionType::Random] = 0.05;
    defaultPools = buildPools(invalidApp, default_mix);
}

PageSynthesizer::AppPools
PageSynthesizer::buildPools(AppId uid, const ContentMix &mix)
{
    AppPools pools;
    pools.mix = mix;
    pools.mixTotal = mix.totalWeight();

    Rng rng(mix64(0xA11CEULL ^ (std::uint64_t{uid} << 17)));

    // Phrases: word sequences shared by every page of the app.
    pools.phrases.reserve(numPhrases);
    for (std::size_t i = 0; i < numPhrases; ++i) {
        std::string phrase;
        std::size_t target = 24 + rng.below(41); // 24..64 bytes
        while (phrase.size() < target) {
            phrase += words[rng.below(numWords)];
            phrase += ' ';
        }
        pools.phrases.push_back(std::move(phrase));
    }

    // Pointer bases: plausible heap addresses, low 16 bits cleared.
    pools.ptrBases.reserve(numPtrBases);
    for (std::size_t i = 0; i < numPtrBases; ++i) {
        std::uint64_t base =
            0x7000000000ULL | (rng.next64() & 0x0fffffff0000ULL);
        pools.ptrBases.push_back(base);
    }

    // Media tiles: fixed random 64 B blocks reused across pages.
    pools.tiles.resize(numTiles);
    for (auto &tile : pools.tiles) {
        for (auto &b : tile)
            b = static_cast<std::uint8_t>(rng.next32());
    }

    // Region templates: exact duplicate regions shared across pages.
    pools.templates.reserve(numTemplates);
    for (std::size_t i = 0; i < numTemplates; ++i) {
        std::size_t region = std::size_t{128} << rng.below(3);
        // Weight template types like the app's mix, but never Random
        // (already-compressed data does not deduplicate).
        RegionType type;
        do {
            double x = rng.uniform() * pools.mixTotal;
            std::size_t t = 0;
            for (; t < numRegionTypes; ++t) {
                x -= mix.weight[t];
                if (x <= 0.0)
                    break;
            }
            type = static_cast<RegionType>(
                std::min(t, numRegionTypes - 1));
        } while (type == RegionType::Random);
        std::vector<std::uint8_t> tmpl(region);
        fillRegion(type, tmpl.data(), region, pools.phrases,
                   pools.ptrBases, pools.tiles, rng);
        pools.templates.push_back(std::move(tmpl));
    }
    return pools;
}

const PageSynthesizer::AppPools &
PageSynthesizer::poolsFor(AppId uid) const
{
    auto it = apps.find(uid);
    return it == apps.end() ? defaultPools : it->second;
}

bool
PageSynthesizer::contentInputs(AppId uid,
                               std::vector<std::uint8_t> &out) const
{
    // Registered uids seed their pools with the uid, unknown ones share
    // the invalidApp pools: the flag keeps the two apart.
    out.push_back(apps.count(uid) ? 1 : 0);
    const auto &weight = poolsFor(uid).mix.weight;
    const auto *bytes = reinterpret_cast<const std::uint8_t *>(weight.data());
    out.insert(out.end(), bytes, bytes + sizeof(weight));
    return true;
}

RegionType
PageSynthesizer::pickRegionType(const AppPools &pools,
                                double roll) const noexcept
{
    double x = roll * pools.mixTotal;
    for (std::size_t t = 0; t < numRegionTypes; ++t) {
        x -= pools.mix.weight[t];
        if (x <= 0.0)
            return static_cast<RegionType>(t);
    }
    return RegionType::Text;
}

void
PageSynthesizer::materialize(const PageKey &key, std::uint32_t version,
                             MutableBytes out) const
{
    const AppPools &pools = poolsFor(key.uid);
    Rng rng(mix64((std::uint64_t{key.uid} << 40) ^
                  (key.pfn * 0x9e37ULL) ^
                  (std::uint64_t{version} << 20) ^ 0xC0FFEEULL));

    std::size_t off = 0;
    const std::size_t n = out.size();
    while (off < n) {
        // Duplicate region: byte-exact copy of a pooled template.
        if (rng.chance(templateProb) && !pools.templates.empty()) {
            // Skewed popularity: a few templates (framework data,
            // shared assets) account for most duplicate regions.
            double u = rng.uniform();
            std::size_t idx = static_cast<std::size_t>(
                u * u * static_cast<double>(pools.templates.size()));
            const auto &tmpl = pools.templates[idx];
            std::size_t len = std::min(tmpl.size(), n - off);
            std::memcpy(out.data() + off, tmpl.data(), len);
            off += len;
            continue;
        }
        // Unique region: 128, 256 or 512 bytes of one data type
        // (Insight 2's small-region granularity).
        std::size_t region = std::size_t{128} << rng.below(3);
        region = std::min(region, n - off);
        RegionType type = pickRegionType(pools, rng.uniform());
        fillRegion(type, out.data() + off, region, pools.phrases,
                   pools.ptrBases, pools.tiles, rng);
        off += region;
    }
}

} // namespace ariadne
