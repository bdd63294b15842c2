#include "runtime/parallel_for.h"

#include <algorithm>

#include "obs/metrics.h"
#include "runtime/thread_pool.h"
#include "tensor/tensor.h"
#include "utils/check.h"

namespace missl::runtime {

namespace {

// True while the current thread is executing a ParallelFor body, so nested
// parallel loops run inline.
thread_local bool t_in_parallel_region = false;

}  // namespace

int64_t GrainForCost(int64_t cost_per_index) {
  if (cost_per_index < 1) cost_per_index = 1;
  int64_t grain = kMinChunkCost / cost_per_index;
  return grain < 1 ? 1 : grain;
}

int64_t GrainForChunks(int64_t range, int64_t chunks_per_thread) {
  int64_t chunks = static_cast<int64_t>(NumThreads()) * chunks_per_thread;
  if (chunks < 1) chunks = 1;
  int64_t grain = (range + chunks - 1) / chunks;
  return grain < 1 ? 1 : grain;
}

void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& fn) {
  if (end <= begin) return;
  if (grain < 1) grain = 1;
  int64_t range = end - begin;
  int64_t nchunks = (range + grain - 1) / grain;
  int threads = NumThreads();
  static obs::Counter& call_counter =
      obs::MetricsRegistry::Global().GetCounter("runtime.parallel_for.calls");
  static obs::Counter& serial_counter =
      obs::MetricsRegistry::Global().GetCounter("runtime.parallel_for.serial");
  call_counter.Add(1);
  if (threads <= 1 || nchunks <= 1 || t_in_parallel_region) {
    serial_counter.Add(1);
    // Serial fast path: a single call over the whole range, on this thread —
    // the exact pre-runtime code path.
    fn(begin, end);
    return;
  }
  // Pool workers run with gradient recording in whatever state the
  // dispatching thread had (so evaluation under NoGradGuard stays
  // graph-free when fanned out).
  const bool grad_mode = GradEnabled();
  const std::function<void(int64_t)> chunk_fn = [&](int64_t c) {
    bool prev_grad = internal::ExchangeGradEnabled(grad_mode);
    bool prev_region = t_in_parallel_region;
    t_in_parallel_region = true;
    int64_t b = begin + c * grain;
    int64_t e = std::min(end, b + grain);
    fn(b, e);
    t_in_parallel_region = prev_region;
    internal::ExchangeGradEnabled(prev_grad);
  };
  int participants = static_cast<int>(
      std::min<int64_t>(static_cast<int64_t>(threads), nchunks));
  ThreadPool::Global().Run(nchunks, participants, chunk_fn);
}

}  // namespace missl::runtime
