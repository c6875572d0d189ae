/**
 * @file
 * perf_pages — page synthesis + compression throughput harness.
 *
 * Streams synthesized pages through every registered codec via the
 * PageCompressor (uncached: each page is compressed exactly once) and
 * emits BENCH_pages.json with per-codec pages/sec rates in the stable
 * `ariadneBench` schema. This isolates the simulator's real
 * compute-bound inner loop — content materialization plus codec —
 * from the scheduling and bookkeeping perf_fleet measures.
 *
 * A second, separately timed phase measures the swap-in path:
 * every page is framed once (untimed) with ChunkedFrame::compress,
 * each decompression is verified against the original bytes, and the
 * timed loop reports decompressPagesPerSec.<codec>.
 *
 *     perf_pages [--pages N] [--out FILE]
 */

#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "compress/chunked.hh"
#include "compress/codec.hh"
#include "compress/registry.hh"
#include "swap/page_compressor.hh"
#include "telemetry/bench_report.hh"
#include "telemetry/telemetry.hh"
#include "workload/apps.hh"
#include "workload/page_synth.hh"

using namespace ariadne;

int
main(int argc, char **argv)
{
    std::size_t pages = 4096;
    std::string out_path = "BENCH_pages.json";
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--pages") && i + 1 < argc) {
            pages = std::stoul(argv[++i]);
        } else if (!std::strcmp(argv[i], "--out") && i + 1 < argc) {
            out_path = argv[++i];
        } else {
            std::cerr << "usage: " << argv[0]
                      << " [--pages N] [--out FILE]\n";
            return 2;
        }
    }

    telemetry::setEnabled(true);
    telemetry::Registry::global().reset();

    std::vector<AppProfile> apps = standardApps();
    PageSynthesizer synth(apps);

    telemetry::BenchReport report;
    report.bench = "pages";
    report.meta = telemetry::RunMeta::current();
    report.meta.threads = 1;
    report.meta.scenario = "perf_pages";
    report.totals.emplace_back("pagesPerCodec", pages);

    constexpr CodecKind kinds[] = {CodecKind::Lz4, CodecKind::Lzo,
                                   CodecKind::Bdi, CodecKind::Null};
    auto total_start = std::chrono::steady_clock::now();
    for (CodecKind kind : kinds) {
        // A fresh compressor per codec: distinct (pfn, version) keys
        // keep its size table cold, so every page runs the real codec.
        PageCompressor compressor(synth);
        auto codec = makeCodec(kind);
        AppId uid = apps.front().uid;

        auto start = std::chrono::steady_clock::now();
        std::uint64_t compressed_bytes = 0;
        for (std::size_t i = 0; i < pages; ++i) {
            PageRef ref{PageKey{uid, static_cast<Pfn>(i)}, 0};
            compressed_bytes +=
                compressor.size({&ref, 1}, *codec, std::size_t{4096});
        }
        std::chrono::duration<double> wall =
            std::chrono::steady_clock::now() - start;

        std::string name = codecKindName(kind);
        report.rates.emplace_back(
            "pagesPerSec." + name,
            static_cast<double>(pages) /
                std::max(wall.count(), 1e-9));
        report.totals.emplace_back("compressedBytes." + name,
                                   compressed_bytes);
        std::cerr << "perf_pages: " << name << " "
                  << static_cast<double>(pages) / wall.count()
                  << " pages/s\n";

        // Decompress phase (the swap-in critical path). Frames are
        // built and round-trip-verified outside the timed loop; the
        // loop itself is pure ChunkedFrame::decompress.
        std::vector<std::vector<std::uint8_t>> frames(pages);
        std::vector<std::uint8_t> page(pageSize);
        std::vector<std::uint8_t> restored(pageSize);
        for (std::size_t i = 0; i < pages; ++i) {
            PageRef ref{PageKey{uid, static_cast<Pfn>(i)}, 0};
            synth.materialize(ref.key, ref.version,
                              {page.data(), page.size()});
            frames[i] = ChunkedFrame::compress(
                *codec, {page.data(), page.size()},
                std::size_t{4096});
            std::size_t got = ChunkedFrame::decompress(
                *codec, {frames[i].data(), frames[i].size()},
                {restored.data(), restored.size()});
            if (got != pageSize ||
                std::memcmp(restored.data(), page.data(), pageSize)) {
                std::cerr << "perf_pages: " << name
                          << " round-trip mismatch on page " << i
                          << "\n";
                return 1;
            }
        }
        auto dstart = std::chrono::steady_clock::now();
        std::size_t sink = 0;
        for (std::size_t i = 0; i < pages; ++i) {
            sink += ChunkedFrame::decompress(
                *codec, {frames[i].data(), frames[i].size()},
                {restored.data(), restored.size()});
        }
        std::chrono::duration<double> dwall =
            std::chrono::steady_clock::now() - dstart;
        if (sink != pages * pageSize) {
            std::cerr << "perf_pages: " << name
                      << " decompress loop failed\n";
            return 1;
        }
        report.rates.emplace_back(
            "decompressPagesPerSec." + name,
            static_cast<double>(pages) /
                std::max(dwall.count(), 1e-9));
        std::cerr << "perf_pages: " << name << " decompress "
                  << static_cast<double>(pages) / dwall.count()
                  << " pages/s\n";
    }
    std::chrono::duration<double> total_wall =
        std::chrono::steady_clock::now() - total_start;

    report.wallSeconds = total_wall.count();
    report.peakRssBytes = telemetry::currentPeakRssBytes();
    report.telemetry = telemetry::Registry::global().snapshot();

    std::ofstream out(out_path);
    if (!out) {
        std::cerr << "perf_pages: cannot write " << out_path << "\n";
        return 1;
    }
    report.writeJson(out);
    std::cerr << "perf_pages: report " << out_path << "\n";
    return 0;
}
