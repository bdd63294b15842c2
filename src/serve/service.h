// Online serving: a thread-safe RecoService that loads a frozen MisslModel
// from an nn::SaveParameters checkpoint, compiles its serving forward into a
// static op plan (src/infer/), and answers concurrent top-K queries through a
// micro-batcher.
//
// Request flow (see docs/SERVING.md for the full architecture):
//
//   any thread ──Submit()──► pending queue ──► dispatcher thread
//   (never blocks)                               │ coalesces up to max_batch
//                                                │ queries; waits max_wait_us
//                                                │ only when it was idle
//                                                ▼
//                                     one PlannedExecutor::RunTopK on the
//                                     runtime pool (ranking inside the plan)
//                                                │
//   completion callback ◄── dispatcher thread ◄──┘
//
// TopK() is a blocking wrapper over Submit() for callers that want one
// answer on their own thread.
//
// Determinism: every model op is row-independent, so a query's top-K list is
// bitwise identical no matter which requests it was coalesced with — and,
// because the plan's scores are bitwise equal to MisslModel::ScoreAllItems
// and its top-k to core::TopKRow over them, identical to the offline
// core::RecommendTopN path on the same history (tests/serve_test.cc holds
// both properties under concurrency).
#ifndef MISSL_SERVE_SERVICE_H_
#define MISSL_SERVE_SERVICE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/missl.h"
#include "data/batch.h"
#include "utils/status.h"

namespace missl::infer {
class PlannedExecutor;
struct RankSpec;
}  // namespace missl::infer

namespace missl::serve {

/// One user query: the recent event history, oldest first.
struct Query {
  std::vector<int32_t> items;       ///< history item ids, oldest first
  std::vector<int32_t> behaviors;   ///< parallel behavior channel per event
  std::vector<int64_t> timestamps;  ///< optional; empty => no recency signal
  int64_t now = 0;       ///< reference time for recency buckets (vs timestamps)
  std::vector<int32_t> exclude;     ///< item ids to exclude (any order)
  int32_t k = 10;                   ///< list length to return
};

/// One answer: top-k items, best first, with their scores.
struct TopKResult {
  std::vector<int32_t> items;
  std::vector<float> scores;
};

/// Catalog-scoring precision.
///   kFp32 — full-precision scoring, bitwise equal to ScoreAllItems.
///   kInt8 — the quantized catalog tier (docs/INFERENCE.md): the plan
///           quantizes the catalog to symmetric per-item int8 at Load and
///           scores through int32 maddubs dots with an fp32 dequant
///           epilogue; the fp32 catalog is not kept. Deterministic across
///           tiers/threads, but NOT bitwise equal to fp32 — accuracy is a
///           ranking-level bound (tests/quant_test.cc).
enum class Precision { kFp32, kInt8 };

/// Stable display name ("fp32"/"int8") used by /statusz and the missl_serve
/// flag parser.
const char* PrecisionName(Precision p);

/// Serving knobs. `max_len` must equal the history window the model was
/// constructed with (its position table size).
struct ServeConfig {
  int64_t max_len = 50;     ///< history window (== model max_len)
  int32_t max_batch = 32;   ///< coalesce at most this many queries per forward
  int64_t max_wait_us = 2000;  ///< how long the batcher waits to fill a batch
  int num_threads = 0;      ///< forward-pass threads; 0 = MISSL_NUM_THREADS
                            ///< if set, else the CPUs this process may use
  Precision precision = Precision::kFp32;  ///< see Precision
};

/// Thread-safe serving front-end around one frozen model. Construct via
/// Load(); destruction drains in-flight queries, then stops the dispatcher.
class RecoService {
 public:
  /// Loads `checkpoint_path` into `model` (nn::LoadParametersForInference:
  /// eval mode, requires_grad off), compiles the serving forward
  /// (infer::PlannedExecutor::Compile), resolves the thread count, and
  /// starts the dispatcher. Returns nullptr with `*status` set on load
  /// failure; `*status` is OK on success.
  static std::unique_ptr<RecoService> Load(
      std::unique_ptr<core::MisslModel> model, int32_t num_items,
      int32_t num_behaviors, const std::string& checkpoint_path,
      const ServeConfig& config, Status* status);

  ~RecoService();
  RecoService(const RecoService&) = delete;
  RecoService& operator=(const RecoService&) = delete;

  /// Receives a query's answer: OK with the result, or an error with an
  /// empty result. Runs on the dispatcher thread — or inline inside
  /// Submit when the query is rejected — so it must be quick and must not
  /// block on the service.
  using Completion = std::function<void(const Status&, TopKResult)>;

  /// Queues one query without blocking; `done` runs exactly once. Malformed
  /// input (mismatched history arrays, out-of-range item/behavior ids,
  /// k < 1) and a service that is shutting down complete inline with an
  /// error, without enqueuing. Safe to call from any number of threads.
  void Submit(Query query, Completion done);

  /// Answers one query, blocking until the coalesced batch containing it has
  /// been scored: Submit plus a wait. Returns Submit's error on rejection.
  Status TopK(const Query& query, TopKResult* out);

  const core::MisslModel& model() const { return *model_; }
  int32_t num_items() const { return num_items_; }
  int32_t num_behaviors() const { return num_behaviors_; }
  const ServeConfig& config() const { return config_; }
  /// Threads each batch's forward may use: config().num_threads, or the
  /// default it resolved to at Load. Batches below the plan's serial floor
  /// run on the dispatcher alone.
  int num_threads() const { return num_threads_; }
  /// The compiled op plan that scores every batch. Exposed for tests and
  /// introspection.
  const infer::PlannedExecutor& plan() const { return *plan_; }
  /// Model forwards run so far (each serves one coalesced batch).
  int64_t batches_run() const;
  /// Queries answered so far.
  int64_t requests_served() const;

 private:
  struct Pending {
    Query query;  ///< exclude sorted ascending at Submit
    Completion done;
    int64_t enqueue_ns;
  };

  RecoService(std::unique_ptr<core::MisslModel> model, int32_t num_items,
              int32_t num_behaviors, const ServeConfig& config);
  void DispatcherLoop();
  void ProcessBatch(std::vector<Pending>* work);

  std::unique_ptr<core::MisslModel> model_;
  int32_t num_items_;
  int32_t num_behaviors_;
  ServeConfig config_;
  int num_threads_ = 1;  ///< resolved at Load
  std::unique_ptr<infer::PlannedExecutor> plan_;  ///< compiled at Load
  std::vector<infer::RankSpec> specs_;  ///< dispatcher-only, max_batch rows

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  bool stop_ = false;
  int64_t batches_run_ = 0;
  int64_t requests_served_ = 0;
  std::thread dispatcher_;
};

/// Collates queries into one inference batch: the merged stream
/// front-padded to `max_len`, recency bucketed against each query's `now`
/// (gaps that overflow int64 saturate). Row order follows `queries`;
/// `targets` is all -1 (inference batches have no label). `beh_items` is
/// left empty: MisslModel and the compiled plan read only the merged
/// stream, and the per-behavior streams serve the MB-GRU baseline, which
/// trains and evaluates on data::BatchBuilder batches. Shared with the
/// offline parity tests.
data::Batch BuildQueryBatch(const std::vector<const Query*>& queries,
                            int64_t max_len, int32_t num_behaviors);
data::Batch BuildQueryBatch(const std::vector<Query>& queries, int64_t max_len,
                            int32_t num_behaviors);

}  // namespace missl::serve

#endif  // MISSL_SERVE_SERVICE_H_
