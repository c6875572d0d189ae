#include "swap/kswapd.hh"

#include "telemetry/telemetry.hh"

namespace ariadne
{

namespace
{

telemetry::Counter c_wakeup("kswapd.wakeup");
telemetry::Counter c_reclaimedPages("kswapd.reclaimed_pages");
telemetry::DurationProbe d_run("kswapd.run");
telemetry::Counter c_scanPages("kswapd.scan_pages");

} // namespace

std::size_t
Kswapd::runReclaim()
{
    c_wakeup.add();
    telemetry::ScopedTimer timer(d_run);
    ++runs;
    ctx.cpu.charge(CpuRole::Kswapd, wakeupCpuNs);
    totalCpuNs += wakeupCpuNs;

    // Attribute every cycle the scheme burns during this call to the
    // kswapd thread (compression, io submission, fault bookkeeping
    // for list maintenance).
    Tick before = ctx.cpu.grandTotal();
    std::size_t want = ctx.dram.reclaimTarget();
    std::size_t freed = target.reclaim(want, /*direct=*/false);
    c_scanPages.add(freed);
    Tick after = ctx.cpu.grandTotal();
    totalCpuNs += after - before;
    reclaimed += freed;
    c_reclaimedPages.add(freed);
    return freed;
}

} // namespace ariadne
