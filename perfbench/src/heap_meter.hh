/**
 * @file
 * Heap meter: counts the bytes live on the heap through the global
 * operator new and delete, and their high-water mark.
 *
 * Linking heap_meter.cc into an executable replaces every global
 * operator new and delete of the program, the simulator library's
 * included. Sizes are the allocator's usable sizes, so a block counts
 * the same when it is freed as when it was allocated. Unlike the
 * resident set, the count does not depend on which pages of the
 * executable and shared libraries the kernel has mapped, or on the
 * host reclaiming them, so it reads the same for the same allocations.
 */

#ifndef PERFBENCH_HEAP_METER_HH
#define PERFBENCH_HEAP_METER_HH

#include <cstddef>

namespace perfbench::heap
{

/** Bytes live now. */
std::size_t liveBytes() noexcept;

/** Highest liveBytes() since the last resetPeak(). */
std::size_t peakBytes() noexcept;

/** Lowers the high-water mark to the bytes live now. */
void resetPeak() noexcept;

} // namespace perfbench::heap

#endif // PERFBENCH_HEAP_METER_HH
