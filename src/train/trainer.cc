#include "train/trainer.h"

#include <chrono>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>

#include "nn/serialize.h"
#include "obs/json.h"
#include "obs/memory.h"
#include "obs/trace.h"
#include "optim/optimizer.h"
#include "runtime/runtime.h"
#include "tensor/alloc.h"
#include "utils/logging.h"

namespace missl::train {

namespace {

// Snapshot/restore of parameter values for best-checkpoint tracking.
std::vector<std::vector<float>> SnapshotParams(const core::SeqRecModel& model) {
  std::vector<std::vector<float>> snap;
  for (const auto& p : model.Parameters()) snap.push_back(p.ToVector());
  return snap;
}

void RestoreParams(core::SeqRecModel* model,
                   const std::vector<std::vector<float>>& snap) {
  auto params = model->Parameters();
  MISSL_CHECK(params.size() == snap.size()) << "snapshot size mismatch";
  for (size_t i = 0; i < params.size(); ++i) params[i].CopyFrom(snap[i]);
}

// Line-per-event JSON stream (TrainConfig::telemetry_path). A failed open
// degrades to a warning — telemetry must never abort a training run.
class TelemetryWriter {
 public:
  explicit TelemetryWriter(const std::string& path) {
    if (path.empty()) return;
    out_.open(path, std::ios::trunc);
    if (!out_.is_open()) {
      MISSL_LOG_WARN << "cannot open telemetry file " << path;
    }
  }
  bool enabled() const { return out_.is_open(); }
  void WriteLine(const std::string& json) {
    if (!out_.is_open()) return;
    out_ << json << "\n";
    out_.flush();  // keep the stream tailable during long runs
  }

 private:
  std::ofstream out_;
};

}  // namespace

TrainResult Fit(core::SeqRecModel* model, const data::Dataset& ds,
                const data::SplitView& split, const eval::Evaluator& evaluator,
                const TrainConfig& config) {
  MISSL_CHECK(model != nullptr);
  MISSL_CHECK(!split.train_examples.empty()) << "no training examples";
  // Thread count only affects wall clock, never results (see docs/RUNTIME.md);
  // 0 keeps whatever the process-wide setting is.
  std::optional<runtime::ScopedNumThreads> scoped_threads;
  if (config.num_threads > 0) scoped_threads.emplace(config.num_threads);
  if (model->Parameters().empty()) {
    // Statistics-based models (POP, ItemKNN) have nothing to train.
    TrainResult r;
    r.best_valid = evaluator.Evaluate(model, /*test=*/false);
    r.test = evaluator.Evaluate(model, /*test=*/true);
    return r;
  }
  const bool tracing = !config.trace_path.empty();
  if (tracing) obs::StartTracing();
  // Closed (so the "train.fit" span lands in the ring) before WriteTrace.
  static constexpr obs::SpanSite kFitSpan{"train.fit", "train"};
  std::optional<obs::TraceSpan> fit_span;
  fit_span.emplace(kFitSpan);
  TelemetryWriter telemetry(config.telemetry_path);

  data::BatchBuilder builder(ds, config.max_len);
  std::unique_ptr<data::NegativeSampler> neg_sampler;
  if (config.train_negatives > 0) {
    neg_sampler = std::make_unique<data::NegativeSampler>(ds);
    builder.EnableTrainNegatives(neg_sampler.get(), config.train_negatives,
                                 config.seed ^ 0x5eedbeefULL);
  }
  data::MiniBatcher batcher(split.train_examples, config.batch_size, config.seed);
  optim::Adam opt(model->Parameters(), config.lr, 0.9f, 0.999f, 1e-8f,
                  config.weight_decay);

  TrainResult result;
  double best_metric = -1.0;
  std::vector<std::vector<float>> best_snapshot;
  int64_t stale_epochs = 0;

  auto t0 = std::chrono::steady_clock::now();
  for (int64_t epoch = 0; epoch < config.max_epochs; ++epoch) {
    static constexpr obs::SpanSite kEpochSpan{"train.epoch", "train", "epoch"};
    obs::TraceSpan epoch_span(kEpochSpan, epoch);
    obs::ResetPeakBytes();  // telemetry reports a per-epoch peak
    model->SetTraining(true);
    batcher.Reset();
    std::vector<data::SplitView::TrainExample> chunk;
    double loss_sum = 0.0;
    double gnorm_sum = 0.0;
    int64_t batches = 0;
    int64_t examples = 0;
    auto epoch_t0 = std::chrono::steady_clock::now();
    {
      static constexpr obs::SpanSite kBatchesSpan{"train.batches", "train"};
      obs::TraceSpan batches_span(kBatchesSpan);
      while (batcher.Next(&chunk)) {
        data::Batch batch = builder.Build(chunk);
        opt.ZeroGrad();
        Tensor loss = model->Loss(batch);
        loss.Backward();
        gnorm_sum += optim::ClipGradNorm(model->Parameters(), config.clip_norm);
        opt.Step();
        loss_sum += loss.item();
        ++batches;
        examples += static_cast<int64_t>(chunk.size());
        if (config.max_batches_per_epoch > 0 &&
            batches >= config.max_batches_per_epoch) {
          break;
        }
      }
    }
    double train_seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - epoch_t0)
                               .count();
    result.final_train_loss =
        batches > 0 ? static_cast<float>(loss_sum / batches) : 0.0f;
    ++result.epochs_run;

    eval::EvalResult valid;
    {
      static constexpr obs::SpanSite kValidateSpan{"train.validate", "train"};
      obs::TraceSpan validate_span(kValidateSpan);
      valid = evaluator.Evaluate(model, /*test=*/false);
    }
    if (config.verbose) {
      MISSL_LOG_INFO << model->Name() << " epoch " << epoch
                     << " loss=" << result.final_train_loss
                     << " valid NDCG@10=" << valid.ndcg10;
    }
    if (telemetry.enabled()) {
      obs::MemoryStats mem = obs::CurrentMemoryStats();
      alloc::AllocStats alloc_stats = alloc::GetAllocStats();
      std::ostringstream line;
      line << "{\"event\":\"epoch\",\"model\":\""
           << obs::JsonEscape(model->Name()) << "\",\"epoch\":" << epoch
           << ",\"loss\":" << obs::JsonNumber(result.final_train_loss)
           << ",\"grad_norm\":"
           << obs::JsonNumber(batches > 0 ? gnorm_sum / batches : 0.0)
           << ",\"lr\":" << obs::JsonNumber(config.lr)
           << ",\"examples\":" << examples
           << ",\"train_seconds\":" << obs::JsonNumber(train_seconds)
           << ",\"examples_per_s\":"
           << obs::JsonNumber(train_seconds > 0.0 ? examples / train_seconds
                                                  : 0.0)
           << ",\"valid_hr10\":" << obs::JsonNumber(valid.hr10)
           << ",\"valid_ndcg10\":" << obs::JsonNumber(valid.ndcg10)
           << ",\"valid_mrr\":" << obs::JsonNumber(valid.mrr)
           << ",\"peak_bytes\":" << mem.peak_bytes
           << ",\"live_bytes\":" << mem.live_bytes
           << ",\"live_tensors\":" << mem.live_tensors
           << ",\"live_autograd_nodes\":" << mem.live_autograd_nodes
           << ",\"alloc_mode\":\"" << alloc::ModeName(alloc::ActiveMode())
           << "\",\"alloc_pool_hits\":" << alloc_stats.pool_hits
           << ",\"alloc_pool_misses\":" << alloc_stats.pool_misses
           << ",\"alloc_system_allocs\":" << alloc_stats.system_allocs
           << ",\"alloc_cached_bytes\":" << alloc_stats.cached_bytes
           << ",\"threads\":" << runtime::NumThreads() << "}";
      telemetry.WriteLine(line.str());
    }
    if (valid.ndcg10 > best_metric) {
      best_metric = valid.ndcg10;
      result.best_valid = valid;
      best_snapshot = SnapshotParams(*model);
      stale_epochs = 0;
    } else if (++stale_epochs >= config.patience) {
      break;
    }
  }
  auto t1 = std::chrono::steady_clock::now();
  result.total_seconds = std::chrono::duration<double>(t1 - t0).count();
  result.seconds_per_epoch =
      result.epochs_run > 0 ? result.total_seconds / result.epochs_run : 0.0;

  if (!best_snapshot.empty()) RestoreParams(model, best_snapshot);
  if (!config.checkpoint_path.empty()) {
    Status s = nn::SaveParameters(*model, config.checkpoint_path);
    if (!s.ok()) {
      MISSL_LOG_WARN << "checkpoint save failed: " << s.ToString();
    }
  }
  result.test = evaluator.Evaluate(model, /*test=*/true);

  if (telemetry.enabled()) {
    std::ostringstream line;
    line << "{\"event\":\"final\",\"model\":\"" << obs::JsonEscape(model->Name())
         << "\",\"epochs_run\":" << result.epochs_run
         << ",\"total_seconds\":" << obs::JsonNumber(result.total_seconds)
         << ",\"final_train_loss\":" << obs::JsonNumber(result.final_train_loss)
         << ",\"best_valid_ndcg10\":"
         << obs::JsonNumber(result.best_valid.ndcg10)
         << ",\"test_hr10\":" << obs::JsonNumber(result.test.hr10)
         << ",\"test_ndcg10\":" << obs::JsonNumber(result.test.ndcg10)
         << ",\"test_mrr\":" << obs::JsonNumber(result.test.mrr)
         << ",\"threads\":" << runtime::NumThreads() << "}";
    telemetry.WriteLine(line.str());
  }
  fit_span.reset();
  if (tracing) {
    obs::StopTracing();
    Status s = obs::WriteTrace(config.trace_path);
    if (!s.ok()) {
      MISSL_LOG_WARN << "trace write failed: " << s.ToString();
    }
  }
  return result;
}

}  // namespace missl::train
