// Global operator new/delete for binaries that link the benchmark: counts
// allocations and requested bytes while a window is open. The library is
// untouched; counting is gated so set-up and teardown stay out of a window.
#include <atomic>
#include <cstdlib>
#include <new>

#include "perfbench.h"

namespace {

std::atomic<bool> g_counting{false};
// Per-thread running totals: a window on one thread is not disturbed by
// allocations on another (figure-sweep runs two cells at once).
thread_local std::uint64_t t_count = 0;
thread_local std::uint64_t t_bytes = 0;

}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    ++t_count;
    t_bytes += size;
  }
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

void alloc_counting(bool on) { g_counting.store(on, std::memory_order_relaxed); }

AllocTotals alloc_totals() { return {t_count, t_bytes}; }

}  // namespace perfbench
