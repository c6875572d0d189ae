/**
 * @file
 * Tests for the compressed-size oracle (PageCompressor::size over a
 * SizeTable): every size equals a fresh compression of the unit, a
 * change to any key field misses, a uid's content inputs scope what a
 * shared table may reuse, a full table still answers exactly, a
 * batch counts and stores exactly what sizing its units one at a time
 * would, and — the property the design rests on — fleet reports are
 * byte-identical with the worker-wide table on or off and with any
 * number of codec helpers, for every codec and thread count.
 */

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <sstream>

#include "compress/chunked.hh"
#include "compress/registry.hh"
#include "driver/fleet_runner.hh"
#include "swap/codec_pool.hh"
#include "swap/page_compressor.hh"
#include "swap/scheme_registry.hh"
#include "telemetry/telemetry.hh"
#include "workload/apps.hh"
#include "workload/page_synth.hh"

using namespace ariadne;
using namespace ariadne::driver;

namespace
{

/** Frame size of @p pages compressed from scratch, with no table. */
std::size_t
freshSize(const PageContentSource &source,
          const std::vector<PageRef> &pages, const Codec &codec,
          std::size_t chunk)
{
    std::vector<std::uint8_t> unit(pages.size() * pageSize);
    for (std::size_t i = 0; i < pages.size(); ++i) {
        source.materialize(pages[i].key, pages[i].version,
                           {unit.data() + i * pageSize, pageSize});
    }
    std::vector<std::uint8_t> out, scratch;
    return ChunkedFrame::compressInto(codec, {unit.data(), unit.size()},
                                      chunk, nullptr, out, scratch);
}

std::vector<PageRef>
unitOf(AppId uid, Pfn first, std::size_t n)
{
    std::vector<PageRef> pages;
    for (std::size_t i = 0; i < n; ++i)
        pages.push_back(PageRef{{uid, first + 3 * i}, std::uint32_t(i)});
    return pages;
}

/** A source that materializes like @p inner but names no inputs. */
class OpaqueSource : public PageContentSource
{
  public:
    explicit OpaqueSource(const PageContentSource &inner) : inner(inner)
    {
    }

    void
    materialize(const PageKey &key, std::uint32_t version,
                MutableBytes out) const override
    {
        inner.materialize(key, version, out);
    }

  private:
    const PageContentSource &inner;
};

} // namespace

TEST(SizeOracle, SizeEqualsFreshFrameOfConcatenatedPages)
{
    PageSynthesizer synth(standardApps());
    AppId uid = standardApps().front().uid;
    for (CodecKind kind : allCodecKinds()) {
        auto codec = makeCodec(kind);
        PageCompressor compressor(synth);
        for (std::size_t n : {1u, 2u, 4u, 8u}) {
            auto pages = unitOf(uid, 10 * n, n);
            std::size_t chunk = n * pageSize;
            std::size_t want = freshSize(synth, pages, *codec, chunk);
            EXPECT_EQ(compressor.size(pages, *codec, chunk), want)
                << codecKindName(kind) << " n=" << n;
            // The second query is a hit with the same answer.
            std::uint64_t misses = compressor.cacheMisses();
            EXPECT_EQ(compressor.size(pages, *codec, chunk), want);
            EXPECT_EQ(compressor.cacheMisses(), misses);
        }
        EXPECT_EQ(compressor.cacheHits(), 4u);
        EXPECT_EQ(compressor.cacheMisses(), 4u);
    }
}

TEST(SizeOracle, ChangingAnyKeyFieldMisses)
{
    PageSynthesizer synth(standardApps());
    AppId uid = standardApps().front().uid;
    AppId other = standardApps().back().uid;
    auto lzo = makeCodec(CodecKind::Lzo);
    auto lz4 = makeCodec(CodecKind::Lz4);
    auto base = unitOf(uid, 200, 4);

    std::vector<std::pair<std::string, std::vector<PageRef>>> variants;
    auto swapped = base;
    std::swap(swapped[1], swapped[2]);
    variants.emplace_back("page order", swapped);
    auto pfn = base;
    pfn[3].key.pfn += 1;
    variants.emplace_back("one pfn", pfn);
    auto version = base;
    version[0].version += 1;
    variants.emplace_back("one version", version);
    auto owner = base;
    for (PageRef &p : owner)
        p.key.uid = other;
    variants.emplace_back("uid", owner);

    PageCompressor compressor(synth);
    compressor.size(base, *lzo, 16384);
    for (const auto &[what, pages] : variants) {
        std::uint64_t misses = compressor.cacheMisses();
        EXPECT_EQ(compressor.size(pages, *lzo, 16384),
                  freshSize(synth, pages, *lzo, 16384))
            << what;
        EXPECT_EQ(compressor.cacheMisses(), misses + 1) << what;
    }
    std::uint64_t misses = compressor.cacheMisses();
    EXPECT_EQ(compressor.size(base, *lz4, 16384),
              freshSize(synth, base, *lz4, 16384));
    EXPECT_EQ(compressor.size(base, *lzo, 4096),
              freshSize(synth, base, *lzo, 4096));
    EXPECT_EQ(compressor.cacheMisses(), misses + 2) << "codec, chunk";
    EXPECT_EQ(compressor.cacheHits(), 0u);
}

TEST(SizeOracle, SharedTableNeverReusesAcrossDifferentContentMix)
{
    // Two sessions on one worker register the same uid with different
    // content mixes: the same (pfn, version) unit holds different
    // bytes, so the second session must not reuse the first's size.
    std::vector<AppProfile> first = standardApps();
    std::vector<AppProfile> second = first;
    second.front().mix[RegionType::Random] += 0.5;
    second.front().mix[RegionType::Zero] = 0.0;
    PageSynthesizer synth_a(first), synth_b(second), synth_c(first);
    AppId uid = first.front().uid;
    auto codec = makeCodec(CodecKind::Lzo);
    auto pages = unitOf(uid, 50, 4);

    SizeTable worker;
    PageCompressor session_a(synth_a, &worker);
    std::size_t a = session_a.size(pages, *codec, 16384);

    PageCompressor session_b(synth_b, &worker);
    std::size_t b = session_b.size(pages, *codec, 16384);
    EXPECT_EQ(session_b.cacheHits(), 0u);
    EXPECT_EQ(b, freshSize(synth_b, pages, *codec, 16384));
    EXPECT_NE(a, b);

    // A session with the first mix again does reuse it.
    PageCompressor session_c(synth_c, &worker);
    EXPECT_EQ(session_c.size(pages, *codec, 16384), a);
    EXPECT_EQ(session_c.cacheHits(), 1u);
}

TEST(SizeOracle, SourceWithoutInputsStaysWithinSession)
{
    PageSynthesizer synth(standardApps());
    OpaqueSource opaque(synth);
    auto codec = makeCodec(CodecKind::Lz4);
    auto pages = unitOf(standardApps().front().uid, 7, 2);

    SizeTable worker;
    PageCompressor first(opaque, &worker);
    std::size_t want = freshSize(synth, pages, *codec, 8192);
    EXPECT_EQ(first.size(pages, *codec, 8192), want);
    EXPECT_EQ(first.size(pages, *codec, 8192), want);
    EXPECT_EQ(first.cacheHits(), 1u);

    PageCompressor second(opaque, &worker);
    EXPECT_EQ(second.size(pages, *codec, 8192), want);
    EXPECT_EQ(second.cacheHits(), 0u);
}

TEST(SizeOracle, FullTableStillReturnsExactSizes)
{
    SizeTable table;
    auto key_of = [](std::uint64_t i) {
        return std::vector<std::uint64_t>{i, ~i};
    };
    auto size_of = [](std::uint64_t i) {
        return static_cast<std::uint32_t>(i % 4093 + 1);
    };
    // Fill to capacity: every entry is found with its own size.
    for (std::uint64_t i = 0; i < SizeTable::capacity; ++i) {
        auto key = key_of(i);
        table.insert(key, SizeTable::hash(key), size_of(i));
    }
    EXPECT_EQ(table.entries(), SizeTable::capacity);
    for (std::uint64_t i = 0; i < SizeTable::capacity; i += 97) {
        auto key = key_of(i);
        EXPECT_EQ(table.find(key, SizeTable::hash(key)), size_of(i));
    }

    // Sizing through the full table still answers exactly, and a
    // repeat hits once the table has refilled.
    PageSynthesizer synth(standardApps());
    PageCompressor compressor(synth, &table);
    auto codec = makeCodec(CodecKind::Lzo);
    auto pages = unitOf(standardApps().front().uid, 1, 4);
    std::size_t want = freshSize(synth, pages, *codec, 16384);
    EXPECT_EQ(compressor.size(pages, *codec, 16384), want);
    EXPECT_EQ(compressor.size(pages, *codec, 16384), want);
    EXPECT_EQ(compressor.cacheHits(), 1u);
    EXPECT_LE(table.entries(), SizeTable::capacity);

    // No stored entry ever answers for a key it was not stored under.
    for (std::uint64_t i = 0; i < SizeTable::capacity; i += 97) {
        auto key = key_of(i);
        std::uint32_t got = table.find(key, SizeTable::hash(key));
        EXPECT_TRUE(got == SizeTable::notFound || got == size_of(i));
    }
}

namespace
{

/** Units of @p pages each, one per chunk size in @p chunks order. */
struct Batch
{
    std::vector<std::vector<PageRef>> pages;
    std::vector<std::size_t> chunks;

    void
    add(std::vector<PageRef> unit, std::size_t chunk)
    {
        pages.push_back(std::move(unit));
        chunks.push_back(chunk);
    }

    std::vector<SizeRequest>
    requests() const
    {
        std::vector<SizeRequest> out;
        for (std::size_t i = 0; i < pages.size(); ++i)
            out.push_back(SizeRequest{pages[i], chunks[i]});
        return out;
    }
};

/** What a compressor did: sizes, then its hit and miss totals. */
struct Outcome
{
    std::vector<std::size_t> sizes;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;

    bool operator==(const Outcome &) const = default;
};

Outcome
sizeOneAtATime(PageCompressor &c, const Batch &b, const Codec &codec)
{
    Outcome o;
    for (std::size_t i = 0; i < b.pages.size(); ++i)
        o.sizes.push_back(c.size(b.pages[i], codec, b.chunks[i]));
    o.hits = c.cacheHits();
    o.misses = c.cacheMisses();
    return o;
}

Outcome
sizeAsBatch(PageCompressor &c, const Batch &b, const Codec &codec)
{
    Outcome o;
    auto requests = b.requests();
    o.sizes.resize(requests.size());
    c.sizeAll(requests, codec, o.sizes);
    o.hits = c.cacheHits();
    o.misses = c.cacheMisses();
    return o;
}

} // namespace

TEST(SizeOracle, BatchMatchesOneAtATimeForEveryCodec)
{
    PageSynthesizer synth(standardApps());
    AppId a = standardApps().front().uid;
    AppId b = standardApps().back().uid;
    Batch warm;
    warm.add(unitOf(a, 900, 4), 16384);
    warm.add(unitOf(b, 40, 1), 2048);

    Batch batch;
    batch.add(unitOf(a, 100, 4), 16384);
    batch.add(warm.pages[0], 16384); // table hit
    batch.add(unitOf(b, 5, 1), 1024);
    batch.add(unitOf(a, 100, 4), 16384); // repeat of the first miss
    batch.add({}, 4096);                 // empty unit
    batch.add(unitOf(a, 100, 4), 4096);  // same pages, other chunk
    batch.add(unitOf(b, 7, 2), 8192);
    batch.add(warm.pages[1], 2048); // table hit
    batch.add(unitOf(b, 5, 1), 1024); // repeat of a single page
    batch.add(unitOf(a, 300, 6), 16384);
    Batch later;
    later.add(unitOf(a, 100, 4), 4096);
    later.add(unitOf(b, 7, 2), 8192);
    later.add(unitOf(a, 301, 2), 8192);

    for (CodecKind kind : allCodecKinds()) {
        auto codec = makeCodec(kind);
        PageCompressor single(synth);
        sizeOneAtATime(single, warm, *codec);
        Outcome want = sizeOneAtATime(single, batch, *codec);
        for (std::size_t i = 0; i < batch.pages.size(); ++i) {
            EXPECT_EQ(want.sizes[i],
                      batch.pages[i].empty()
                          ? 0
                          : freshSize(synth, batch.pages[i], *codec,
                                      batch.chunks[i]))
                << codecKindName(kind) << " unit " << i;
        }
        Outcome want_later = sizeOneAtATime(single, later, *codec);

        for (std::size_t helpers : {0u, 3u}) {
            CodecPool pool(helpers, "test");
            PageCompressor batched(synth, nullptr, &pool);
            sizeOneAtATime(batched, warm, *codec);
            EXPECT_EQ(sizeAsBatch(batched, batch, *codec), want)
                << codecKindName(kind) << " helpers=" << helpers;
            EXPECT_EQ(sizeOneAtATime(batched, later, *codec), want_later)
                << codecKindName(kind) << " helpers=" << helpers;
            EXPECT_EQ(batched.bytesCompressed(), single.bytesCompressed());
        }
    }
}

TEST(SizeOracle, BatchCrossingATableClearMatchesOneAtATime)
{
    // Leave room for three one-page units, by entry count and then by
    // key-pool words: the fourth miss of the batch clears the table.
    // Sized one at a time, a unit equal to a miss from before the
    // clear misses again, and one equal to a miss after it hits.
    PageSynthesizer synth(standardApps());
    AppId uid = standardApps().front().uid;
    auto codec = makeCodec(CodecKind::Lzo);
    auto page = [&](Pfn pfn) { return unitOf(uid, pfn, 1); };
    std::vector<PageRef> seen = page(1);
    Batch batch;
    batch.add(seen, 4096); // hit: sized before the fill
    for (Pfn pfn : {10, 11, 12, 13})
        batch.add(page(pfn), 4096); // the last one clears the table
    batch.add(seen, 4096);    // stored before the clear: a miss
    batch.add(page(10), 4096); // likewise
    batch.add(page(13), 4096); // stored after it: a hit
    const std::size_t unit_words = 4; // codec|n, chunk, pfn, tag|version

    auto fill_by_entries = [](SizeTable &t) {
        for (std::uint64_t i = 0; t.entries() + 3 < SizeTable::capacity;
             ++i) {
            std::vector<std::uint64_t> key{i, ~i};
            t.insert(key, SizeTable::hash(key), 1);
        }
    };
    auto fill_by_words = [&](SizeTable &t) {
        // Leave 3 keys' words plus 2 more, with 30-word keys and one
        // shorter last key.
        std::size_t left = SizeTable::maxKeyWords - 1 - unit_words; // seen
        const std::size_t room = 3 * (unit_words + 1) + 2;
        std::uint64_t i = 0;
        while (left > room) {
            std::size_t len = std::min<std::size_t>(30, left - room - 1);
            ASSERT_GT(len, 0u);
            std::vector<std::uint64_t> key(len, i++);
            key[0] = ~i;
            t.insert(key, SizeTable::hash(key), 1);
            left -= len + 1;
        }
    };
    for (auto fill : {std::function<void(SizeTable &)>(fill_by_entries),
                      std::function<void(SizeTable &)>(fill_by_words)}) {
        SizeTable one_table, batch_table;
        PageCompressor single(synth, &one_table);
        CodecPool pool(2, "test");
        PageCompressor batched(synth, &batch_table, &pool);
        single.size(seen, *codec, 4096);
        batched.size(seen, *codec, 4096);
        fill(one_table);
        fill(batch_table);
        ASSERT_EQ(one_table.entries(), batch_table.entries());

        Outcome want = sizeOneAtATime(single, batch, *codec);
        EXPECT_EQ(want.hits, 2u);
        EXPECT_EQ(want.misses, 7u); // with the one before the fill
        EXPECT_EQ(sizeAsBatch(batched, batch, *codec), want);
        EXPECT_EQ(batch_table.entries(), one_table.entries());
        EXPECT_EQ(batch_table.entries(), 3u); // 13, seen, 10
    }
}

namespace
{

ScenarioSpec
memoSpec(const std::string &codec, bool memo_on)
{
    std::string cfg = R"(
name = test-memo
scheme = ariadne
scheme.config = EHL-1K-2K-16K
scheme.codec = )" + codec +
                      R"(
scale = 0.0625
seed = 11
fleet = 4
event = warmup
event = repeat 6
event =   switch_next 200ms 100ms
event = end
)";
    if (!memo_on)
        cfg += "compress_memo = off\n";
    return ScenarioSpec::parseString(cfg);
}

/** scenarios/daily.cfg and scenarios/heavy.cfg, shortened. */
ScenarioSpec
pressureSpec(const std::string &scheme, bool memo_on)
{
    bool daily = scheme == "ariadne";
    std::string cfg = "name = pressure\nscheme = " + scheme + "\n" +
                      (daily ? "scheme.config = EHL-1K-2K-16K\n" : "") +
                      "scale = 0.0625\nseed = 42\nfleet = 3\n"
                      "event = warmup\nevent = repeat 20\n" +
                      (daily ? "event =   switch_next 2s 1s\n"
                             : "event =   switch_next 250ms 0s\n") +
                      "event = end\n";
    if (!memo_on)
        cfg += "compress_memo = off\n";
    return ScenarioSpec::parseString(cfg);
}

std::string
reportJson(const ScenarioSpec &spec, unsigned threads)
{
    FleetRunner runner(spec);
    FleetResult r = runner.run(0, threads, /*keep_sessions=*/true);
    std::ostringstream os;
    r.writeJson(os, /*per_session=*/true);
    return os.str();
}

} // namespace

TEST(CompressMemo, FleetReportByteIdenticalMemoOnOrOff)
{
    // The acceptance property: memoization must be invisible in every
    // report byte, whatever codec produces the sizes and however the
    // sessions are spread over workers.
    for (const std::string codec : {"lzo", "lz4", "bdi"}) {
        for (unsigned threads : {1u, 2u}) {
            std::string on =
                reportJson(memoSpec(codec, true), threads);
            std::string off =
                reportJson(memoSpec(codec, false), threads);
            EXPECT_EQ(on, off)
                << "codec=" << codec << " threads=" << threads;
        }
    }
}

TEST(SizeOracle, PressureReportsByteIdenticalOnOrOff)
{
    // Daily under ariadne sizes multi-page cold units; heavy under
    // zram sizes single pages. Both must not notice the table's scope.
    for (const std::string scheme : {"ariadne", "zram"}) {
        std::string golden = reportJson(pressureSpec(scheme, false), 1);
        for (unsigned threads : {1u, 2u}) {
            for (bool memo_on : {true, false}) {
                EXPECT_EQ(reportJson(pressureSpec(scheme, memo_on),
                                     threads),
                          golden)
                    << scheme << " threads=" << threads
                    << " memo=" << memo_on;
            }
        }
    }
}

namespace
{

/** compressor.* counter values and probe counts of @p snap. */
std::map<std::string, std::uint64_t>
compressorCounts(const telemetry::Registry::Snapshot &snap)
{
    std::map<std::string, std::uint64_t> out;
    for (const auto &c : snap.counters) {
        if (c.name.starts_with("compressor."))
            out[c.name] = c.value;
    }
    for (const auto &d : snap.durations) {
        if (d.name.starts_with("compressor."))
            out[d.name + ".count"] = d.count;
    }
    return out;
}

} // namespace

TEST(SizeOracle, PressureReportsAndCountsIndependentOfCodecHelpers)
{
    // Helpers change which thread runs a codec, never a size, a count
    // or a report byte. Two workers claim sessions in a racy order, so
    // worker-wide tables would make their hit counts depend on
    // scheduling: there, sessions size through tables of their own.
    telemetry::setEnabled(true);
    for (const std::string scheme : {"ariadne", "zram"}) {
        for (unsigned workers : {1u, 2u}) {
            ScenarioSpec spec = pressureSpec(scheme, workers == 1);
            std::string want_report;
            std::map<std::string, std::uint64_t> want_counts;
            for (std::size_t helpers : {0u, 3u}) {
                telemetry::Registry::global().reset();
                FleetRunner runner(spec);
                runner.setCodecHelpers(helpers);
                std::ostringstream report;
                runner.run(0, workers, true).writeJson(report, true);
                auto counts = compressorCounts(
                    telemetry::Registry::global().snapshot());
                if (helpers == 0) {
                    want_report = report.str();
                    want_counts = counts;
                    EXPECT_GT(counts["compressor.batch.count"], 0u)
                        << scheme;
                    continue;
                }
                EXPECT_EQ(report.str(), want_report)
                    << scheme << " workers=" << workers;
                EXPECT_EQ(counts, want_counts)
                    << scheme << " workers=" << workers;
            }
        }
    }
    telemetry::setEnabled(false);
    telemetry::Registry::global().reset();
}

TEST(SizeOracle, CompressedUnitsAreHitsPlusCodecRuns)
{
    // Every unit a scheme charges was sized exactly once: either a
    // table hit (no codec, no probe) or one codec run inside a
    // compressor.compress.<codec> probe.
    telemetry::setEnabled(true);
    for (const std::string &scheme : SchemeRegistry::instance().names()) {
        telemetry::Registry::global().reset();
        reportJson(pressureSpec(scheme, true), 2);
        auto snap = telemetry::Registry::global().snapshot();
        std::uint64_t runs = 0;
        for (const auto &d : snap.durations) {
            if (d.name.starts_with("compressor.compress."))
                runs += d.count;
        }
        EXPECT_EQ(snap.histogram("swap.compress_ns").count(),
                  snap.counter("compressor.cache_hit") + runs)
            << scheme;
        EXPECT_EQ(snap.counter("compressor.cache_miss"), runs) << scheme;
        if (scheme == "zram" || scheme == "ariadne") {
            EXPECT_GT(runs, 0u) << scheme;
            EXPECT_GT(snap.counter("compressor.cache_hit"), 0u) << scheme;
        }
    }
    telemetry::setEnabled(false);
    telemetry::Registry::global().reset();
}

TEST(CompressMemo, SpecKnobRoundtrips)
{
    ScenarioSpec on = memoSpec("lzo", true);
    ScenarioSpec off = memoSpec("lzo", false);
    EXPECT_TRUE(on.compressMemo);
    EXPECT_FALSE(off.compressMemo);
    EXPECT_FALSE(on == off);
    // toString()/parse round-trip preserves the knob.
    std::istringstream is(off.toString());
    EXPECT_FALSE(ScenarioSpec::parse(is).compressMemo);
}
