// train_missl: a researcher's train::Fit of MISSL on the TaobaoSim preset.
// No serving code runs in the timed phase, so serve-path changes predict no
// movement here, while the GEMM and softmax kernels it shares with scoring
// run at batch 128 and with backward.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "heap_counter.h"
#include "nn/serialize.h"
#include "obs/memory.h"
#include "optim/optimizer.h"
#include "runtime/runtime.h"
#include "span_recorder.h"
#include "train/trainer.h"
#include "workloads.h"

namespace missl::ledger {

namespace {

constexpr int kSetupReps = 7;
constexpr int64_t kMaxLen = 30;
// Full batches per epoch. Every seed yields at least 26 * 128 training
// examples, so each epoch runs the same shapes whatever the seed, and the
// step time, the tensor pool's footprint and RSS do not vary with it.
constexpr int64_t kBatchesPerEpoch = 26;
// Test NDCG@10 a trained model must beat. Random ranking of the 1 + 99
// candidates scores ~0.046; three epochs reach well above 0.2 on every
// seed tried (README.md).
constexpr double kNdcgFloor = 0.15;
constexpr double kSmokeNdcgFloor = 0.05;

// Fit calls Loss exactly once per optimizer step, so the time between two
// consecutive calls within an epoch is one step as the trainer runs it.
class StepClockModel : public core::MisslModel {
 public:
  using core::MisslModel::MisslModel;
  Tensor Loss(const data::Batch& batch) override {
    stamps_.push_back(NowNs());
    return core::MisslModel::Loss(batch);
  }
  const std::vector<int64_t>& stamps() const { return stamps_; }

 private:
  std::vector<int64_t> stamps_;
};

// Everything Fit reads besides the model. The evaluator and split keep
// pointers into the dataset, so all three live behind stable pointers.
struct TrainData {
  std::unique_ptr<data::Dataset> ds;
  std::unique_ptr<data::SplitView> split;
  std::unique_ptr<eval::Evaluator> evaluator;
};

struct FitRun {
  std::unique_ptr<StepClockModel> model;
  train::TrainResult result;
  double seconds = 0.0;
  int64_t examples = 0;
  std::vector<double> step_ms;
};

train::TrainConfig FitConfig(const Options& opts) {
  train::TrainConfig cfg;
  cfg.max_epochs = opts.smoke ? 1 : 3;
  cfg.batch_size = 128;
  cfg.max_len = kMaxLen;
  cfg.patience = 3;
  cfg.max_batches_per_epoch = kBatchesPerEpoch;
  // One thread: on the reference box a second one bought at most ~5 % and
  // widened the run-to-run spread several-fold, since a preempted vCPU
  // stalls every parallel region (README.md, Workloads).
  cfg.num_threads = 1;
  cfg.seed = StreamSeed(opts.seed, 12);
  return cfg;
}

FitRun RunFit(const TrainData& d, const ModelShape& shape,
              const train::TrainConfig& cfg) {
  FitRun run;
  run.model = std::make_unique<StepClockModel>(
      shape.num_items, shape.num_behaviors, shape.max_len, ModelConfig(shape));
  const int64_t t0 = NowNs();
  run.result = train::Fit(run.model.get(), *d.ds, *d.split, *d.evaluator, cfg);
  const int64_t t1 = NowNs();
  spans::Record("train.fit", t0, t1);
  run.seconds = (t1 - t0) / 1e9;
  const int64_t n = static_cast<int64_t>(d.split->train_examples.size());
  const int64_t per_epoch = std::min(cfg.max_batches_per_epoch,
                                     (n + cfg.batch_size - 1) / cfg.batch_size);
  run.examples =
      run.result.epochs_run * std::min(n, per_epoch * cfg.batch_size);
  const std::vector<int64_t>& t = run.model->stamps();
  for (size_t i = 0; i + 1 < t.size(); ++i) {
    // The last step of an epoch is followed by validation, not a step.
    if ((i + 1) % static_cast<size_t>(per_epoch) != 0) {
      run.step_ms.push_back((t[i + 1] - t[i]) / 1e6);
    }
  }
  return run;
}

bool SameResult(const FitRun& a, const FitRun& b) {
  return a.result.final_train_loss == b.result.final_train_loss &&
         a.result.test.ndcg10 == b.result.test.ndcg10 &&
         a.result.epochs_run == b.result.epochs_run;
}

// Queries a server of the trained model would see: each evaluated user's
// history up to the test event, a quarter of them excluding their newest
// item.
std::vector<serve::Query> DatasetQueries(const TrainData& d) {
  std::vector<serve::Query> queries;
  for (int32_t u = 0; u < d.ds->num_users(); ++u) {
    const int64_t pos = d.split->test_pos[static_cast<size_t>(u)];
    if (pos < 1) continue;
    const auto& events = d.ds->user(u).events;
    serve::Query q;
    for (int64_t i = std::max<int64_t>(0, pos - 2 * kMaxLen); i < pos; ++i) {
      const data::Interaction& e = events[static_cast<size_t>(i)];
      q.items.push_back(e.item);
      q.behaviors.push_back(static_cast<int32_t>(e.behavior));
      q.timestamps.push_back(e.timestamp);
    }
    q.now = q.timestamps.back();
    if (u % 4 == 0) q.exclude.push_back(q.items.back());
    q.k = 10;
    queries.push_back(std::move(q));
  }
  return queries;
}

// One epoch and one validation through Fit's public calls, in Fit's order,
// each timed on its own: the per-step breakdown of the Fit throughput.
void TrainLoop(const TrainData& d, const ModelShape& shape,
               const train::TrainConfig& cfg, double fit_epoch_s,
               Report* r) {
  auto model = MakeModel(shape);
  runtime::ScopedNumThreads threads(cfg.num_threads);
  data::BatchBuilder builder(*d.ds, cfg.max_len);
  data::MiniBatcher batcher(d.split->train_examples, cfg.batch_size, cfg.seed);
  optim::Adam opt(model->Parameters(), cfg.lr, 0.9f, 0.999f, 1e-8f,
                  cfg.weight_decay);
  model->SetTraining(true);
  batcher.Reset();

  // The calls of one step, in Fit's order.
  static const char* const kCalls[] = {"data.build_batch", "optim.zero_grad",
                                       "core.loss",        "tensor.backward",
                                       "optim.clip",       "optim.step"};
  std::vector<double> ms[6];  // per call, one entry per step
  for (auto& v : ms) v.reserve(static_cast<size_t>(batcher.batches_per_epoch()));
  double calls_ns = 0.0;
  auto timed = [&](int call, auto&& fn) {
    const int64_t t0 = NowNs();
    fn();
    const int64_t t1 = NowNs();
    spans::Record(kCalls[call], t0, t1);
    ms[call].push_back((t1 - t0) / 1e6);
    calls_ns += static_cast<double>(t1 - t0);
  };

  const WindowReading begin = ReadWindow();
  const int64_t loop0 = NowNs();
  std::vector<data::SplitView::TrainExample> chunk;
  int64_t steps = 0;
  while (steps < cfg.max_batches_per_epoch && batcher.Next(&chunk)) {
    data::Batch batch;
    Tensor loss;
    timed(0, [&] { batch = builder.Build(chunk); });
    timed(1, [&] { opt.ZeroGrad(); });
    timed(2, [&] { loss = model->Loss(batch); });
    timed(3, [&] { loss.Backward(); });
    timed(4, [&] { optim::ClipGradNorm(model->Parameters(), cfg.clip_norm); });
    timed(5, [&] { opt.Step(); });
    loss.item();
    ++steps;
  }
  const int64_t loop1 = NowNs();
  const WindowReading end = ReadWindow();
  const int64_t v0 = NowNs();
  d.evaluator->Evaluate(model.get(), /*test=*/false);
  const int64_t v1 = NowNs();
  spans::Record("eval.validate", v0, v1);

  for (int call = 0; call < 6; ++call) {
    r->Info(std::string(kCalls[call]) + "_ms", Median(ms[call]), "ms", steps);
  }
  r->Info("eval.validate_s", (v1 - v0) / 1e9, "s");
  const double loop_ns = static_cast<double>(loop1 - loop0);
  r->Info("train.unattributed_share", 1.0 - calls_ns / loop_ns, "ratio", steps);
  r->Info("train.loop_epoch_vs_fit", (loop_ns + (v1 - v0)) / 1e9 / fit_epoch_s,
          "ratio");

  const double per_step = 1.0 / static_cast<double>(std::max<int64_t>(1, steps));
  // The heaviest forward ops; backward has no per-op instrument yet.
  std::vector<std::pair<int64_t, std::string>> ops;
  const std::string prefix = "tensor.op.", suffix = ".nanos";
  for (const auto& [name, value] : end.metrics.counters) {
    if (name.size() > prefix.size() + suffix.size() &&
        name.compare(0, prefix.size(), prefix) == 0 &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      ops.emplace_back(CounterDelta(begin, end, name),
                       name.substr(prefix.size(), name.size() - prefix.size() -
                                                      suffix.size()));
    }
  }
  std::sort(ops.rbegin(), ops.rend());
  for (size_t i = 0; i < std::min<size_t>(8, ops.size()); ++i) {
    r->Info("tensor.op." + ops[i].second + "_ms_per_step",
            ops[i].first * per_step / 1e6, "ms", steps);
  }
  r->Info("tensor.alloc.pool_hits_per_step",
          (end.alloc.pool_hits - begin.alloc.pool_hits) * per_step, "count",
          steps);
  r->Info("tensor.alloc.system_allocs_per_step",
          (end.alloc.system_allocs - begin.alloc.system_allocs) * per_step,
          "count", steps);
  r->Info("train.heap_allocs_per_step",
          (end.heap_allocs - begin.heap_allocs) * per_step, "count", steps);
}

}  // namespace

Report RunTrainMissl(const Options& opts) {
  Report r;
  data::SyntheticConfig dcfg = data::TaobaoSimConfig();
  dcfg.seed = StreamSeed(opts.seed, 10);
  if (opts.smoke) {
    dcfg.num_users = 150;
    dcfg.num_items = 300;
  }
  eval::EvalConfig ecfg;
  ecfg.max_len = kMaxLen;
  ecfg.seed = StreamSeed(opts.seed, 13);
  const train::TrainConfig cfg = FitConfig(opts);

  // Set-up as a researcher pays it: data, split, evaluator, model.
  TrainData d;
  ModelShape shape;
  std::vector<double> setup_s;
  for (int rep = 0; rep < (opts.smoke ? 2 : kSetupReps); ++rep) {
    const int64_t t0 = NowNs();
    TrainData fresh;
    fresh.ds = std::make_unique<data::Dataset>(data::GenerateSynthetic(dcfg));
    fresh.split = std::make_unique<data::SplitView>(*fresh.ds);
    fresh.evaluator =
        std::make_unique<eval::Evaluator>(*fresh.ds, *fresh.split, ecfg);
    shape = ModelShape{fresh.ds->num_items(), fresh.ds->num_behaviors(),
                       kMaxLen, StreamSeed(opts.seed, 11)};
    const StepClockModel model(shape.num_items, shape.num_behaviors,
                               shape.max_len, ModelConfig(shape));
    setup_s.push_back((NowNs() - t0) / 1e9);
    d = std::move(fresh);
  }

  // Fit until the window is covered (half of it in a traced run, which
  // spends the other half traced); every Fit of a seed must reproduce the
  // first bit for bit. Attempts are optimizer steps.
  const double window_s = opts.trace ? opts.seconds / 2 : opts.seconds;
  std::vector<FitRun> fits;
  double fit_s = 0.0;
  int64_t examples = 0;
  std::vector<double> step_ms;
  do {
    fits.push_back(RunFit(d, shape, cfg));
    const FitRun& f = fits.back();
    fit_s += f.seconds;
    examples += f.examples;
    step_ms.insert(step_ms.end(), f.step_ms.begin(), f.step_ms.end());
    const int64_t steps = static_cast<int64_t>(f.model->stamps().size());
    r.attempted += steps;
    if (!SameResult(f, fits.front())) {
      r.failed += steps;
      r.Fail("a repeated Fit of the same seed gave a different result");
    }
  } while (fit_s < window_s);
  const double rss_mb = RssMb();
  const double peak_rss_mb = PeakRssMb();

  const train::TrainResult& first = fits.front().result;
  const double floor = opts.smoke ? kSmokeNdcgFloor : kNdcgFloor;
  if (!std::isfinite(first.final_train_loss) || !(first.test.ndcg10 > floor)) {
    r.failed = r.attempted;
    r.Fail("final loss " + std::to_string(first.final_train_loss) +
           ", test NDCG@10 " + std::to_string(first.test.ndcg10) +
           " (must be finite and above " + std::to_string(floor) + ")");
  }
  const double throughput = examples / fit_s;
  r.Info("ndcg10", first.test.ndcg10, "ratio", first.test.num_users);
  r.Info("hr10", first.test.hr10, "ratio", first.test.num_users);
  r.Info("final_loss", first.final_train_loss, "nats");
  r.Info("epochs", static_cast<double>(first.epochs_run), "count");
  r.Info("fits", static_cast<double>(fits.size()), "count");
  r.Info("train_examples", static_cast<double>(d.split->train_examples.size()),
         "count");

  if (!opts.trace) {
    const int64_t n = static_cast<int64_t>(step_ms.size());
    r.Add("setup_s", Median(setup_s), "s", static_cast<int64_t>(setup_s.size()));
    r.Add("throughput_per_s", throughput, "1/s", examples);
    r.Add("latency_p50_ms", Percentile(step_ms, 0.5), "ms", n);
    r.Add("latency_p90_ms", Percentile(step_ms, 0.9), "ms", n);
    r.Add("rss_mb", rss_mb, "MiB");
    r.Add("peak_rss_mb", peak_rss_mb, "MiB");
    return r;
  }

  // Traced: the same Fit with the instruments on must give the same bits.
  obs::SetMetricsEnabled(true);
  spans::SetEnabled(true);
  heap::SetCounting(true);
  const FitRun traced = RunFit(d, shape, cfg);
  r.Add("obs.memory.peak_tensor_mb",
        obs::CurrentMemoryStats().peak_bytes / 1048576.0, "MiB");
  r.Add("trace_overhead_pct",
        (1.0 - (traced.examples / traced.seconds) / throughput) * 100.0, "%");
  if (!SameResult(traced, fits.front())) {
    r.Fail("the traced Fit differs from the untraced one (loss " +
           std::to_string(traced.result.final_train_loss) + " vs " +
           std::to_string(first.final_train_loss) + ")");
  }
  TrainLoop(d, shape, cfg, traced.result.seconds_per_epoch, &r);
  heap::SetCounting(false);

  // The trained model, served: the same layer readings as the serving
  // workloads, on this workload's catalog and histories.
  const std::string ckpt = CheckpointPath(opts, "train_missl");
  Status st = nn::SaveParameters(*traced.model, ckpt);
  Served served;
  std::vector<double> serve_setup_s, load_s;
  std::string err;
  std::unique_ptr<core::MisslModel> frozen;
  if (!st.ok()) {
    err = "checkpoint write: " + st.ToString();
  } else if (StartServed(shape, ckpt, 3, &served, &serve_setup_s, &load_s,
                         &err)) {
    frozen = LoadFrozen(shape, ckpt, &err);
  }
  std::remove(ckpt.c_str());
  if (frozen == nullptr) {
    r.Fail(err);
    return r;
  }
  const std::vector<serve::Query> queries = DatasetQueries(d);
  auto query = [&queries](int64_t id) {
    return queries[static_cast<size_t>(id) % queries.size()];
  };
  const Oracle oracle{frozen.get(), shape, query};
  LoadSpec spec;
  spec.port = served.server->port();
  spec.depth = 8;
  spec.warmup_s = opts.smoke ? 0.1 : 0.5;
  spec.window_s = opts.smoke ? 0.3 : 2.0;
  spec.oracle = &oracle;
  RunTracedWindow(spec, &r);
  served.Stop();
  RunProbes(frozen.get(), shape, queries, opts.smoke ? 20 : kProbeCalls, &r);
  r.Add("serve.load_s", Median(load_s), "s",
        static_cast<int64_t>(load_s.size()));
  return r;
}

}  // namespace missl::ledger
