// Execution-runtime configuration: how many threads the ParallelFor layer
// (runtime/parallel_for.h) may use. The process default is fully serial
// execution, matching the library's historical behavior; threading is
// opt-in via the MISSL_NUM_THREADS environment variable or a
// ScopedNumThreads on the calling thread. All parallel kernels are written so
// results are bitwise identical at any thread count (see docs/RUNTIME.md for
// the determinism rules).
#ifndef MISSL_RUNTIME_RUNTIME_H_
#define MISSL_RUNTIME_RUNTIME_H_

namespace missl::runtime {

/// Number of threads a ParallelFor started on the calling thread may use
/// (always >= 1), counting the caller: 1 means serial execution and N means
/// the caller plus N-1 pool workers. It is the innermost ScopedNumThreads
/// alive on this thread, else the process default: DefaultNumThreads(1),
/// resolved once.
int NumThreads();

/// The CPUs this process may run on (sched_getaffinity), at least 1.
int AvailableCpus();

/// The thread count MISSL_NUM_THREADS asks for: "0" or "auto" selects
/// AvailableCpus(), any other integer is used directly (clamped to >= 1),
/// and `unset` is returned when the variable is unset or empty.
int DefaultNumThreads(int unset);

/// RAII thread-count override for the calling thread only, restoring the
/// previous value on scope exit; n <= 0 selects the process default. Other
/// threads (a trainer next to a serving dispatcher, each test's threads)
/// keep their own counts, so no override races with another thread's
/// ParallelFor.
class ScopedNumThreads {
 public:
  explicit ScopedNumThreads(int n);
  ~ScopedNumThreads();
  ScopedNumThreads(const ScopedNumThreads&) = delete;
  ScopedNumThreads& operator=(const ScopedNumThreads&) = delete;

 private:
  int prev_;
};

}  // namespace missl::runtime

#endif  // MISSL_RUNTIME_RUNTIME_H_
