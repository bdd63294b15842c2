#include "runtime/thread_pool.h"

#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "utils/check.h"

namespace missl::runtime {

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> l(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

int ThreadPool::num_workers() const {
  std::lock_guard<std::mutex> l(mu_);
  return static_cast<int>(workers_.size());
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool pool;
  return pool;
}

void ThreadPool::EnsureWorkers(int n) {
  std::lock_guard<std::mutex> l(mu_);
  while (static_cast<int>(workers_.size()) < n) {
    int index = static_cast<int>(workers_.size());
    // A freshly spawned worker must not mistake the previous job for a new
    // one, so it starts already acquainted with the current generation.
    workers_.emplace_back(
        [this, index, gen = gen_] { WorkerLoop(index, gen); });
  }
}

void ThreadPool::WorkerLoop(int worker_index, uint64_t initial_gen) {
  // Per-worker instruments, resolved once per thread (the registry lookup
  // takes a lock; Add/Observe afterwards are gated relaxed atomics).
  obs::Counter& chunk_counter = obs::MetricsRegistry::Global().GetCounter(
      "runtime.pool.worker." + std::to_string(worker_index) + ".chunks");
  obs::Histogram& queue_wait =
      obs::MetricsRegistry::Global().GetHistogram("runtime.pool.queue_wait_ns");
  uint64_t seen = initial_gen;
  std::unique_lock<std::mutex> l(mu_);
  for (;;) {
    work_cv_.wait(l, [&] { return shutdown_ || gen_ != seen; });
    if (shutdown_) return;
    seen = gen_;
    // A job that is full, or already closed by a caller that ran out of
    // chunks, is not joined.
    if (open_seats_ == 0) continue;
    --open_seats_;
    ++active_;
    const std::function<void(int64_t)>* fn = fn_;
    const int64_t nchunks = nchunks_;
    const int64_t publish_ns = publish_ns_;
    l.unlock();
    if (obs::MetricsEnabled() && publish_ns != 0) {
      queue_wait.Observe(obs::NowNanos() - publish_ns);
    }
    int64_t ran = 0;
    {
      static constexpr obs::SpanSite kRunSpan{"pool.run", "runtime"};
      obs::TraceSpan run_span(kRunSpan);
      for (int64_t c = next_chunk_.fetch_add(1, std::memory_order_relaxed);
           c < nchunks;
           c = next_chunk_.fetch_add(1, std::memory_order_relaxed)) {
        (*fn)(c);
        ++ran;
      }
    }
    chunk_counter.Add(ran);
    l.lock();
    if (--active_ == 0 && open_seats_ == 0) done_cv_.notify_all();
  }
}

void ThreadPool::Run(int64_t nchunks, int participants,
                     const std::function<void(int64_t)>& fn) {
  MISSL_CHECK(nchunks >= 0 && participants >= 1)
      << "bad job: " << nchunks << " chunks, " << participants
      << " participants";
  if (nchunks == 0) return;
  if (participants > nchunks) participants = static_cast<int>(nchunks);
  if (participants == 1) {
    for (int64_t c = 0; c < nchunks; ++c) fn(c);
    return;
  }
  std::lock_guard<std::mutex> job_lock(job_mu_);
  static constexpr obs::SpanSite kJobSpan{"pool.job", "runtime", "chunks"};
  obs::TraceSpan job_span(kJobSpan, nchunks);
  static obs::Counter& job_counter =
      obs::MetricsRegistry::Global().GetCounter("runtime.pool.jobs");
  static obs::Counter& total_chunks =
      obs::MetricsRegistry::Global().GetCounter("runtime.pool.chunks");
  static obs::Counter& caller_chunks =
      obs::MetricsRegistry::Global().GetCounter("runtime.pool.caller.chunks");
  static obs::Histogram& join_wait =
      obs::MetricsRegistry::Global().GetHistogram("runtime.pool.join_wait_ns");
  job_counter.Add(1);
  total_chunks.Add(nchunks);
  EnsureWorkers(participants - 1);
  {
    std::lock_guard<std::mutex> l(mu_);
    fn_ = &fn;
    nchunks_ = nchunks;
    open_seats_ = participants - 1;
    next_chunk_.store(0, std::memory_order_relaxed);
    publish_ns_ = obs::MetricsEnabled() ? obs::NowNanos() : 0;
    ++gen_;
  }
  work_cv_.notify_all();
  int64_t ran = 0;
  for (int64_t c = next_chunk_.fetch_add(1, std::memory_order_relaxed);
       c < nchunks; c = next_chunk_.fetch_add(1, std::memory_order_relaxed)) {
    fn(c);
    ++ran;
  }
  caller_chunks.Add(ran);
  // Every chunk is claimed: close the job to late wakers and wait for the
  // workers that joined to finish the chunks they hold.
  const int64_t closed_ns = obs::MetricsEnabled() ? obs::NowNanos() : 0;
  std::unique_lock<std::mutex> l(mu_);
  open_seats_ = 0;
  done_cv_.wait(l, [&] { return active_ == 0; });
  fn_ = nullptr;
  if (closed_ns != 0) join_wait.Observe(obs::NowNanos() - closed_ns);
}

}  // namespace missl::runtime
