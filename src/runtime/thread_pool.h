// A deliberately simple thread pool for deterministic data parallelism.
// A job is a fixed number of chunks whose boundaries the caller chose
// before the job starts (ParallelFor's static partition). Participants claim
// chunks from one atomic counter: the caller is participant 0, and pool
// workers join as they wake, up to participants-1 of them. Once the caller
// finds no chunk left to claim it closes the job, so a worker that wakes
// late joins nothing, and the caller waits only for the workers that did
// join. Which thread runs a chunk therefore depends on timing, but what a
// chunk computes does not: every kernel built on top writes disjoint
// outputs per chunk (see docs/RUNTIME.md), so results are bitwise identical
// at any thread count.
//
// Most code should not use this class directly; use ParallelFor from
// runtime/parallel_for.h.
#ifndef MISSL_RUNTIME_THREAD_POOL_H_
#define MISSL_RUNTIME_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace missl::runtime {

class ThreadPool {
 public:
  ThreadPool() = default;
  /// Joins all workers. Any job must have completed before destruction.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Executes fn(c) exactly once for every chunk c in [0, nchunks) across
  /// at most `participants` threads (the caller plus up to participants-1
  /// workers, spawned on first use). Blocks until every chunk has run.
  /// Jobs are serialized: concurrent Run calls from different threads queue
  /// behind one mutex. `fn` must be safe to invoke concurrently from
  /// several threads on distinct chunks.
  void Run(int64_t nchunks, int participants,
           const std::function<void(int64_t)>& fn);

  /// Workers currently alive (grows on demand, never shrinks).
  int num_workers() const;

  /// Process-wide pool shared by all ParallelFor call sites.
  static ThreadPool& Global();

 private:
  void WorkerLoop(int worker_index, uint64_t initial_gen);
  /// Spawns workers until at least `n` exist. Caller must hold job_mu_.
  void EnsureWorkers(int n);

  /// Serializes whole jobs (one Run at a time).
  std::mutex job_mu_;

  /// Guards the per-job state below.
  mutable std::mutex mu_;
  std::condition_variable work_cv_;  ///< workers wait here for a new job
  std::condition_variable done_cv_;  ///< the caller waits here for joiners
  std::vector<std::thread> workers_;
  const std::function<void(int64_t)>* fn_ = nullptr;
  int64_t nchunks_ = 0;
  uint64_t gen_ = 0;     ///< job generation counter (workers detect new jobs)
  int open_seats_ = 0;  ///< workers that may still join; 0 once closed
  int active_ = 0;      ///< joined workers that have not finished
  int64_t publish_ns_ = 0;  ///< when the current job was posted (metrics only)
  bool shutdown_ = false;
  /// The next unclaimed chunk of the current job.
  std::atomic<int64_t> next_chunk_{0};
};

}  // namespace missl::runtime

#endif  // MISSL_RUNTIME_THREAD_POOL_H_
