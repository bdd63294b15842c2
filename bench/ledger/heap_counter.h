// Whole-process heap traffic for traced runs. heap_counter.cc replaces the
// global operator new/delete of the missl_ledger binary only (the library
// and its other users keep the standard ones). While counting is on, every
// allocation made by a thread that has not excluded itself is counted —
// tensor Storage is pooled separately (tensor/alloc.h), so this sees the
// rest of the request path: batches, result vectors, strings, futures.
#ifndef MISSL_BENCH_LEDGER_HEAP_COUNTER_H_
#define MISSL_BENCH_LEDGER_HEAP_COUNTER_H_

#include <cstdint>

namespace missl::ledger::heap {

/// Turns counting on or off for the whole process.
void SetCounting(bool on);

/// Allocations counted so far.
int64_t Allocations();

/// Excludes the calling thread's allocations while alive (the in-process
/// load client, whose traffic is not the program's).
class ScopedExcludeThread {
 public:
  ScopedExcludeThread();
  ~ScopedExcludeThread();
  ScopedExcludeThread(const ScopedExcludeThread&) = delete;
  ScopedExcludeThread& operator=(const ScopedExcludeThread&) = delete;

 private:
  bool prev_;
};

}  // namespace missl::ledger::heap

#endif  // MISSL_BENCH_LEDGER_HEAP_COUNTER_H_
