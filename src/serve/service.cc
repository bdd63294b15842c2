#include "serve/service.h"

#include <algorithm>
#include <chrono>
#include <future>
#include <limits>
#include <utility>

#include "infer/plan.h"
#include "nn/serialize.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/runtime.h"
#include "tensor/alloc.h"
#include "utils/check.h"

namespace missl::serve {

namespace {

struct ServeMetrics {
  obs::Counter& requests;
  obs::Counter& batches;
  obs::Histogram& batch_size;
  obs::Histogram& request_ns;
  // Per-request stage breakdown (docs/OBSERVABILITY.md): batch = enqueue
  // to batch start, score = batch build + plan run (ranking included),
  // rank = copying the ranked lists out of the plan. The parse/queue/write
  // stages live in the TCP front-end (serve/tcp_server.cc).
  obs::Histogram& stage_batch_ns;
  obs::Histogram& stage_score_ns;
  obs::Histogram& stage_rank_ns;

  static ServeMetrics& Get() {
    auto& reg = obs::MetricsRegistry::Global();
    static ServeMetrics m{reg.GetCounter("serve.requests"),
                          reg.GetCounter("serve.batches"),
                          reg.GetHistogram("serve.batch_size"),
                          reg.GetHistogram("serve.request_ns"),
                          reg.GetHistogram("serve.stage.batch_ns"),
                          reg.GetHistogram("serve.stage.score_ns"),
                          reg.GetHistogram("serve.stage.rank_ns")};
    return m;
  }
};

// Rejects what BuildQueryBatch and the plan cannot take: mismatched history
// arrays, out-of-range item/behavior ids, k < 1.
Status ValidateQuery(const Query& query, int32_t num_items,
                     int32_t num_behaviors) {
  if (query.k < 1) return Status::InvalidArgument("k must be >= 1");
  if (query.items.size() != query.behaviors.size()) {
    return Status::InvalidArgument("items/behaviors length mismatch");
  }
  if (!query.timestamps.empty() &&
      query.timestamps.size() != query.items.size()) {
    return Status::InvalidArgument("timestamps length mismatch");
  }
  for (size_t i = 0; i < query.items.size(); ++i) {
    if (query.items[i] < 0 || query.items[i] >= num_items) {
      return Status::InvalidArgument(
          "history item id out of range: " + std::to_string(query.items[i]));
    }
    if (query.behaviors[i] < 0 || query.behaviors[i] >= num_behaviors) {
      return Status::InvalidArgument(
          "behavior id out of range: " + std::to_string(query.behaviors[i]));
    }
  }
  return Status::OK();
}

}  // namespace

const char* PrecisionName(Precision p) {
  return p == Precision::kInt8 ? "int8" : "fp32";
}

data::Batch BuildQueryBatch(const std::vector<const Query*>& queries,
                            int64_t max_len, int32_t num_behaviors) {
  MISSL_CHECK(!queries.empty() && max_len > 0 && num_behaviors > 0);
  data::Batch b;
  b.batch_size = static_cast<int64_t>(queries.size());
  b.max_len = max_len;
  b.num_behaviors = num_behaviors;
  int64_t bt = b.batch_size * max_len;
  b.merged_items.assign(static_cast<size_t>(bt), -1);
  b.merged_behaviors.assign(static_cast<size_t>(bt), -1);
  b.merged_recency.assign(static_cast<size_t>(bt), -1);
  b.users.resize(static_cast<size_t>(b.batch_size));
  // Inference batches carry no label; -1 fails loudly if a training path
  // ever embeds it as a target.
  b.targets.assign(static_cast<size_t>(b.batch_size), -1);
  b.target_behavior.assign(static_cast<size_t>(b.batch_size),
                           num_behaviors - 1);

  for (int64_t row = 0; row < b.batch_size; ++row) {
    const Query& q = *queries[static_cast<size_t>(row)];
    int64_t total = static_cast<int64_t>(q.items.size());
    MISSL_CHECK(static_cast<int64_t>(q.behaviors.size()) == total)
        << "items/behaviors length mismatch";
    MISSL_CHECK(q.timestamps.empty() ||
                static_cast<int64_t>(q.timestamps.size()) == total)
        << "timestamps length mismatch";
    b.users[static_cast<size_t>(row)] = static_cast<int32_t>(row);

    // Merged stream: last max_len events, front-padded.
    int64_t start = std::max<int64_t>(0, total - max_len);
    int64_t n = total - start;
    for (int64_t i = 0; i < n; ++i) {
      size_t src = static_cast<size_t>(start + i);
      int64_t pos = row * max_len + (max_len - n + i);
      b.merged_items[static_cast<size_t>(pos)] = q.items[src];
      b.merged_behaviors[static_cast<size_t>(pos)] = q.behaviors[src];
      // Wire timestamps span all of int64: an overflowing gap saturates.
      int64_t gap = 0;
      if (!q.timestamps.empty() &&
          __builtin_sub_overflow(q.now, q.timestamps[src], &gap)) {
        gap = q.now >= 0 ? std::numeric_limits<int64_t>::max() : 0;
      }
      b.merged_recency[static_cast<size_t>(pos)] = data::RecencyBucket(gap);
    }
  }
  return b;
}

data::Batch BuildQueryBatch(const std::vector<Query>& queries, int64_t max_len,
                            int32_t num_behaviors) {
  std::vector<const Query*> ptrs;
  ptrs.reserve(queries.size());
  for (const Query& q : queries) ptrs.push_back(&q);
  return BuildQueryBatch(ptrs, max_len, num_behaviors);
}

RecoService::RecoService(std::unique_ptr<core::MisslModel> model,
                         int32_t num_items, int32_t num_behaviors,
                         const ServeConfig& config)
    : model_(std::move(model)),
      num_items_(num_items),
      num_behaviors_(num_behaviors),
      config_(config) {}

std::unique_ptr<RecoService> RecoService::Load(
    std::unique_ptr<core::MisslModel> model, int32_t num_items,
    int32_t num_behaviors, const std::string& checkpoint_path,
    const ServeConfig& config, Status* status) {
  MISSL_CHECK(model != nullptr && status != nullptr);
  // Config validation: a serving front-end is wired to live traffic, so a
  // bad knob must come back as a Status the caller can surface, not as
  // undefined behavior (or a CHECK abort) on the first query.
  if (num_items <= 0 || num_behaviors <= 0) {
    *status = Status::InvalidArgument(
        "num_items and num_behaviors must be >= 1, got " +
        std::to_string(num_items) + " / " + std::to_string(num_behaviors));
    return nullptr;
  }
  if (config.max_len <= 0) {
    *status = Status::InvalidArgument("ServeConfig.max_len must be >= 1, got " +
                                      std::to_string(config.max_len));
    return nullptr;
  }
  if (config.max_batch <= 0) {
    *status = Status::InvalidArgument(
        "ServeConfig.max_batch must be >= 1, got " +
        std::to_string(config.max_batch));
    return nullptr;
  }
  if (config.max_wait_us < 0) {
    *status = Status::InvalidArgument(
        "ServeConfig.max_wait_us must be >= 0, got " +
        std::to_string(config.max_wait_us));
    return nullptr;
  }
  if (config.num_threads < 0) {
    *status = Status::InvalidArgument(
        "ServeConfig.num_threads must be >= 0, got " +
        std::to_string(config.num_threads));
    return nullptr;
  }
  *status = nn::LoadParametersForInference(model.get(), checkpoint_path);
  if (!status->ok()) return nullptr;
  // The batcher front-pads every query to config.max_len positions, and the
  // plan is compiled for the position table's length. Loading checks shapes,
  // so the model's table is exactly what the checkpoint carried.
  if (model->max_len() != config.max_len) {
    *status = Status::InvalidArgument(
        "ServeConfig.max_len (" + std::to_string(config.max_len) +
        ") does not match the checkpoint's position table (" +
        std::to_string(model->max_len()) + " rows)");
    return nullptr;
  }
  std::unique_ptr<RecoService> svc(new RecoService(
      std::move(model), num_items, num_behaviors, config));
  // Weights are frozen from here on, so the compiled plan stays valid for
  // the service lifetime.
  infer::InferConfig icfg;
  icfg.quantize_catalog = config.precision == Precision::kInt8;
  svc->plan_ = infer::PlannedExecutor::Compile(*svc->model_, config.max_batch,
                                               icfg, status);
  if (svc->plan_ == nullptr) return nullptr;
  if (svc->plan_->num_items() != num_items) {
    *status = Status::InvalidArgument("num_items differs from the model's " +
                                      std::to_string(svc->plan_->num_items()));
    return nullptr;
  }
  svc->num_threads_ =
      config.num_threads > 0
          ? config.num_threads
          : runtime::DefaultNumThreads(runtime::AvailableCpus());
  // Load-time work (parameter deserialization, plan compile) churns
  // through large one-off buffers; return them to the system so the
  // steady-state footprint reflects only what serving re-uses.
  alloc::Trim();
  svc->specs_.resize(static_cast<size_t>(config.max_batch));
  svc->dispatcher_ = std::thread([s = svc.get()] { s->DispatcherLoop(); });
  return svc;
}

RecoService::~RecoService() {
  {
    std::lock_guard<std::mutex> l(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
}

void RecoService::Submit(Query query, Completion done) {
  MISSL_CHECK(done != nullptr);
  Status invalid = ValidateQuery(query, num_items_, num_behaviors_);
  if (!invalid.ok()) {
    done(invalid, TopKResult{});
    return;
  }
  // The plan's top-k skips exclusions by merge-walk.
  std::sort(query.exclude.begin(), query.exclude.end());
  {
    std::lock_guard<std::mutex> l(mu_);
    if (!stop_) {
      queue_.push_back(
          Pending{std::move(query), std::move(done), obs::NowNanos()});
      cv_.notify_all();
      return;
    }
  }
  done(Status::Internal("service is shutting down"), TopKResult{});
}

Status RecoService::TopK(const Query& query, TopKResult* out) {
  MISSL_CHECK(out != nullptr);
  // Shared, so the completion never touches a frame TopK has returned from.
  auto answered = std::make_shared<std::promise<Status>>();
  std::future<Status> status = answered->get_future();
  Submit(query, [answered, out](const Status& s, TopKResult r) {
    *out = std::move(r);
    answered->set_value(s);
  });
  return status.get();
}

void RecoService::DispatcherLoop() {
  // The whole serving path is inference-only; the guard (inherited by pool
  // workers, see runtime/parallel_for.h) makes that structural.
  NoGradGuard ng;
  ServeMetrics& metrics = ServeMetrics::Get();
  std::unique_lock<std::mutex> l(mu_);
  bool idle = true;
  for (;;) {
    cv_.wait(l, [&] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) {
      if (stop_) return;  // drained: only exit once no work remains
      continue;
    }
    if (idle && static_cast<int32_t>(queue_.size()) < config_.max_batch &&
        config_.max_wait_us > 0 && !stop_) {
      // Adaptive batching: only a scorer that sat idle holds the batch open
      // for concurrent callers to coalesce into one forward. Work that
      // queued while a batch ran is dispatched at once — waiting would add
      // latency without filling the batch any faster.
      auto deadline = std::chrono::steady_clock::now() +
                      std::chrono::microseconds(config_.max_wait_us);
      cv_.wait_until(l, deadline, [&] {
        return stop_ ||
               static_cast<int32_t>(queue_.size()) >= config_.max_batch;
      });
    }
    size_t take = std::min<size_t>(queue_.size(),
                                   static_cast<size_t>(config_.max_batch));
    std::vector<Pending> work;
    work.reserve(take);
    for (size_t i = 0; i < take; ++i) {
      work.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    // Account for the batch before releasing the lock: ProcessBatch runs
    // the completions, and a caller that sees its answer must observe
    // counters that already include its own batch.
    batches_run_ += 1;
    requests_served_ += static_cast<int64_t>(work.size());
    metrics.batches.Add(1);
    metrics.requests.Add(static_cast<int64_t>(work.size()));
    metrics.batch_size.Observe(static_cast<int64_t>(work.size()));
    l.unlock();
    ProcessBatch(&work);
    work.clear();  // release the completions' captures outside the lock
    l.lock();
    idle = queue_.empty();
  }
}

void RecoService::ProcessBatch(std::vector<Pending>* work) {
  ServeMetrics& metrics = ServeMetrics::Get();
  int64_t start_ns = obs::NowNanos();
  for (const Pending& p : *work) {
    metrics.stage_batch_ns.Observe(start_ns - p.enqueue_ns);
  }
  static constexpr obs::SpanSite kBatchSpan{"serve.batch", "serve", "size"};
  obs::TraceSpan span(kBatchSpan, static_cast<int64_t>(work->size()));

  runtime::ScopedNumThreads threads(num_threads_);
  std::vector<const Query*> queries;
  queries.reserve(work->size());
  for (size_t row = 0; row < work->size(); ++row) {
    const Query& q = (*work)[row].query;
    queries.push_back(&q);
    specs_[row] = infer::RankSpec{q.k, q.exclude.data(),
                                  static_cast<int64_t>(q.exclude.size())};
  }
  data::Batch batch =
      BuildQueryBatch(queries, config_.max_len, num_behaviors_);
  plan_->RunTopK(batch, specs_.data());
  int64_t scored_ns = obs::NowNanos();

  // Ranking happened inside the plan; what remains is copying each row's
  // list out of it.
  std::vector<TopKResult> results(work->size());
  for (size_t row = 0; row < work->size(); ++row) {
    const infer::RankedRow ranked = plan_->ranked(static_cast<int64_t>(row));
    TopKResult& res = results[row];
    res.items.resize(static_cast<size_t>(ranked.size));
    res.scores.resize(static_cast<size_t>(ranked.size));
    for (int64_t i = 0; i < ranked.size; ++i) {
      res.items[static_cast<size_t>(i)] = ranked.items[i].item;
      res.scores[static_cast<size_t>(i)] = ranked.items[i].score;
    }
  }
  int64_t ranked_ns = obs::NowNanos();
  // Observe every sample before running any completion, so a caller that
  // sees its answer (and immediately scrapes /metrics) sees its own batch.
  for (const Pending& p : *work) {
    metrics.stage_score_ns.Observe(scored_ns - start_ns);
    metrics.stage_rank_ns.Observe(ranked_ns - scored_ns);
    metrics.request_ns.Observe(ranked_ns - p.enqueue_ns);
  }
  for (size_t row = 0; row < work->size(); ++row) {
    (*work)[row].done(Status::OK(), std::move(results[row]));
  }
}

int64_t RecoService::batches_run() const {
  std::lock_guard<std::mutex> l(mu_);
  return batches_run_;
}

int64_t RecoService::requests_served() const {
  std::lock_guard<std::mutex> l(mu_);
  return requests_served_;
}

}  // namespace missl::serve
