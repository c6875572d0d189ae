#include "telemetry/progress.hh"

#include <cstdio>
#include <iostream>

#include "telemetry/telemetry.hh"

namespace ariadne::telemetry
{

ProgressMeter &
ProgressMeter::global()
{
    static ProgressMeter instance;
    return instance;
}

void
ProgressMeter::enable(std::uint64_t total_items, std::string run_label,
                      std::ostream *out)
{
    std::lock_guard<std::mutex> lk(mu);
    total = total_items;
    label = std::move(run_label);
    sink = out ? out : &std::cerr;
    done.store(0, std::memory_order_relaxed);
    startNs = hostNowNs();
    lastEmitNs.store(0, std::memory_order_relaxed);
    armed.store(true, std::memory_order_relaxed);
}

void
ProgressMeter::disable()
{
    std::lock_guard<std::mutex> lk(mu);
    armed.store(false, std::memory_order_relaxed);
    sink = nullptr;
}

void
ProgressMeter::setMinIntervalNs(std::uint64_t ns) noexcept
{
    minIntervalNs = ns;
}

double
ProgressMeter::elapsedSeconds() const noexcept
{
    return static_cast<double>(hostNowNs() - startNs) / 1e9;
}

namespace
{

std::string
fixed1(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.1f", v);
    return buf;
}

} // namespace

std::string
ProgressMeter::formatLine(const std::string &label, std::uint64_t done,
                          std::uint64_t total, double elapsed_seconds)
{
    std::string line = "progress: ";
    line.append(label).append(" ").append(std::to_string(done));
    if (total) {
        double pct = 100.0 * static_cast<double>(done) /
                     static_cast<double>(total);
        line.append("/").append(std::to_string(total));
        line.append(" sessions (").append(fixed1(pct)).append("%)");
    } else {
        line += " sessions";
    }
    if (elapsed_seconds > 0.0) {
        double rate = static_cast<double>(done) / elapsed_seconds;
        line.append(", ").append(fixed1(rate)).append(" sessions/s");
        if (total && rate > 0.0 && done < total) {
            double eta =
                static_cast<double>(total - done) / rate;
            line.append(", eta ").append(fixed1(eta)).append("s");
        }
    }

    return line;
}

std::string
ProgressMeter::formatSummary(const std::string &label,
                             std::uint64_t done,
                             double elapsed_seconds)
{
    std::string line = "progress: " + label + " done: " +
                       std::to_string(done) + " sessions in " +
                       fixed1(elapsed_seconds) + "s";
    if (elapsed_seconds > 0.0)
        line += " (" +
                fixed1(static_cast<double>(done) / elapsed_seconds) +
                " sessions/s)";
    return line;
}

void
ProgressMeter::emitLine(const std::string &line)
{
    std::lock_guard<std::mutex> lk(mu);
    if (!sink)
        return;
    // One write per whole line, so concurrent writers (or a launcher
    // multiplexing worker stderr streams) never interleave mid-line.
    *sink << (line + "\n") << std::flush;
}

void
ProgressMeter::tick(std::uint64_t n)
{
    if (!armed.load(std::memory_order_relaxed))
        return;
    std::uint64_t now_done =
        done.fetch_add(n, std::memory_order_relaxed) + n;
    std::uint64_t elapsed = hostNowNs() - startNs;
    std::uint64_t last = lastEmitNs.load(std::memory_order_relaxed);
    // 0 means "no heartbeat yet": the first tick always emits, later
    // ones rate-limit against the previous emission.
    if (last != 0 && elapsed < last + minIntervalNs)
        return;
    // One emitter per interval: whoever wins the CAS prints.
    if (!lastEmitNs.compare_exchange_strong(
            last, elapsed ? elapsed : 1, std::memory_order_relaxed))
        return;
    emitLine(formatLine(label, now_done, total, elapsedSeconds()));
}

void
ProgressMeter::finish()
{
    if (!armed.load(std::memory_order_relaxed))
        return;
    emitLine(formatSummary(label, done.load(std::memory_order_relaxed),
                           elapsedSeconds()));
}

} // namespace ariadne::telemetry
