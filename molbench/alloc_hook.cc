/**
 * @file
 * Global operator new/delete replacements that count heap allocations.
 *
 * The benchmark is single-threaded, but the counter is a relaxed atomic
 * so a library thread could not corrupt it. Every replaceable
 * allocation form is covered, coroutine frames included.
 */

#include <atomic>
#include <cstdlib>
#include <new>

#include "molbench.hh"

namespace {

std::atomic<std::uint64_t> gAllocs{0};

void *
allocate(std::size_t n)
{
    gAllocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n == 0 ? 1 : n))
        return p;
    throw std::bad_alloc();
}

void *
allocateAligned(std::size_t n, std::align_val_t al)
{
    gAllocs.fetch_add(1, std::memory_order_relaxed);
    const std::size_t align = std::size_t(al);
    const std::size_t size = (n + align - 1) / align * align;
    if (void *p = std::aligned_alloc(align, size == 0 ? align : size))
        return p;
    throw std::bad_alloc();
}

} // namespace

std::uint64_t
molbench::allocCount()
{
    return gAllocs.load(std::memory_order_relaxed);
}

void *operator new(std::size_t n) { return allocate(n); }

void *operator new[](std::size_t n) { return allocate(n); }

void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    gAllocs.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(n == 0 ? 1 : n);
}

void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    gAllocs.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(n == 0 ? 1 : n);
}

void *
operator new(std::size_t n, std::align_val_t al)
{
    return allocateAligned(n, al);
}

void *
operator new[](std::size_t n, std::align_val_t al)
{
    return allocateAligned(n, al);
}

void operator delete(void *p) noexcept { std::free(p); }

void operator delete[](void *p) noexcept { std::free(p); }

void operator delete(void *p, std::size_t) noexcept { std::free(p); }

void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }

void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
