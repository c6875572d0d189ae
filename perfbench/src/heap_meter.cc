#include "heap_meter.hh"

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench::heap
{

namespace
{

std::atomic<std::size_t> live{0};
std::atomic<std::size_t> peak{0};

void *
counted(void *p) noexcept
{
    if (p) {
        const std::size_t n = malloc_usable_size(p);
        const std::size_t now =
            live.fetch_add(n, std::memory_order_relaxed) + n;
        std::size_t seen = peak.load(std::memory_order_relaxed);
        while (now > seen &&
               !peak.compare_exchange_weak(seen, now,
                                           std::memory_order_relaxed)) {
        }
    }
    return p;
}

void *
allocate(std::size_t n) noexcept
{
    return counted(std::malloc(n ? n : 1));
}

void *
allocate(std::size_t n, std::align_val_t align) noexcept
{
    void *p = nullptr;
    const std::size_t a =
        std::max(static_cast<std::size_t>(align), sizeof(void *));
    if (posix_memalign(&p, a, n ? n : 1) != 0)
        return nullptr;
    return counted(p);
}

void
release(void *p) noexcept
{
    if (p) {
        live.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
        std::free(p);
    }
}

} // namespace

std::size_t
liveBytes() noexcept
{
    return live.load(std::memory_order_relaxed);
}

std::size_t
peakBytes() noexcept
{
    return peak.load(std::memory_order_relaxed);
}

void
resetPeak() noexcept
{
    peak.store(live.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
}

} // namespace perfbench::heap

namespace
{

template <typename... Align>
void *
allocateOrThrow(std::size_t n, Align... align)
{
    if (void *p = perfbench::heap::allocate(n, align...))
        return p;
    throw std::bad_alloc();
}

} // namespace

using perfbench::heap::allocate;
using perfbench::heap::release;

void *operator new(std::size_t n) { return allocateOrThrow(n); }
void *operator new[](std::size_t n) { return allocateOrThrow(n); }
void *
operator new(std::size_t n, std::align_val_t a)
{
    return allocateOrThrow(n, a);
}
void *
operator new[](std::size_t n, std::align_val_t a)
{
    return allocateOrThrow(n, a);
}
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    return allocate(n);
}
void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    return allocate(n);
}
void *
operator new(std::size_t n, std::align_val_t a,
             const std::nothrow_t &) noexcept
{
    return allocate(n, a);
}
void *
operator new[](std::size_t n, std::align_val_t a,
               const std::nothrow_t &) noexcept
{
    return allocate(n, a);
}

void operator delete(void *p) noexcept { release(p); }
void operator delete[](void *p) noexcept { release(p); }
void operator delete(void *p, std::size_t) noexcept { release(p); }
void operator delete[](void *p, std::size_t) noexcept { release(p); }
void operator delete(void *p, std::align_val_t) noexcept { release(p); }
void operator delete[](void *p, std::align_val_t) noexcept { release(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    release(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    release(p);
}
void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    release(p);
}
void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    release(p);
}
void
operator delete(void *p, std::align_val_t, const std::nothrow_t &) noexcept
{
    release(p);
}
void
operator delete[](void *p, std::align_val_t,
                  const std::nothrow_t &) noexcept
{
    release(p);
}
