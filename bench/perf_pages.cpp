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
 * A last phase sizes the same volume as Ariadne's cold units: 4-page
 * units through lzo in one 16 KiB chunk, where the match search runs
 * over a buffer larger than lzo's 4 KiB window (coldUnitsPerSec.lzo,
 * compressedBytes.coldUnit.lzo).
 *
 *     perf_pages [--pages N] [--out FILE]
 */

#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

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
    }
    {
        // Ariadne's default cold unit: largeSize (16 KiB) of input,
        // framed as one chunk.
        constexpr std::size_t unitPages = 4;
        constexpr std::size_t chunkBytes = unitPages * pageSize;
        PageCompressor compressor(synth);
        auto codec = makeCodec(CodecKind::Lzo);
        AppId uid = apps.front().uid;
        std::size_t units = pages / unitPages;

        auto start = std::chrono::steady_clock::now();
        std::uint64_t compressed_bytes = 0;
        PageRef refs[unitPages];
        for (std::size_t i = 0; i < units; ++i) {
            for (std::size_t p = 0; p < unitPages; ++p) {
                refs[p] = PageRef{
                    PageKey{uid, static_cast<Pfn>(i * unitPages + p)}, 0};
            }
            compressed_bytes += compressor.size(refs, *codec, chunkBytes);
        }
        std::chrono::duration<double> wall =
            std::chrono::steady_clock::now() - start;

        double rate = static_cast<double>(units) /
                      std::max(wall.count(), 1e-9);
        report.totals.emplace_back("coldUnits", units);
        report.rates.emplace_back("coldUnitsPerSec.lzo", rate);
        report.totals.emplace_back("compressedBytes.coldUnit.lzo",
                                   compressed_bytes);
        std::cerr << "perf_pages: lzo " << rate << " cold units/s\n";
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
