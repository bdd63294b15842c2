#include "heap_counter.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace missl::ledger::heap {

namespace {

std::atomic<bool> g_counting{false};
std::atomic<int64_t> g_allocs{0};
thread_local bool t_excluded = false;

void* CountedAlloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed) && !t_excluded) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}

}  // namespace

void SetCounting(bool on) { g_counting.store(on, std::memory_order_relaxed); }

int64_t Allocations() { return g_allocs.load(std::memory_order_relaxed); }

ScopedExcludeThread::ScopedExcludeThread() : prev_(t_excluded) {
  t_excluded = true;
}

ScopedExcludeThread::~ScopedExcludeThread() { t_excluded = prev_; }

}  // namespace missl::ledger::heap

// Replacements of the unaligned forms; the aligned forms keep the standard
// library's pair, which allocates and frees consistently on its own.
void* operator new(std::size_t size) {
  void* p = missl::ledger::heap::CountedAlloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) {
  void* p = missl::ledger::heap::CountedAlloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return missl::ledger::heap::CountedAlloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return missl::ledger::heap::CountedAlloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
