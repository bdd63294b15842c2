// Quickstart: generate a small synthetic multi-behavior dataset, train the
// MISSL model, and print leave-one-out test metrics.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
//
// Flags:
//   --smoke            tiny dataset + 2 epochs (CI-sized, finishes in seconds)
//   --trace PATH       write a Chrome trace-event JSON of the run
//   --telemetry PATH   write per-epoch JSONL training telemetry
// The trace/telemetry flags also enable the metrics registry and print it at
// exit; see docs/OBSERVABILITY.md.
#include <cstdio>
#include <cstring>
#include <string>

#include "core/missl.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "train/trainer.h"
#include "utils/logging.h"

int main(int argc, char** argv) {
  using namespace missl;

  bool smoke = false;
  std::string trace_path, telemetry_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--telemetry") == 0 && i + 1 < argc) {
      telemetry_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--trace PATH] [--telemetry PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  if (!trace_path.empty() || !telemetry_path.empty()) {
    obs::SetMetricsEnabled(true);
  }

  // 1. Data: a Taobao-like synthetic log (clicks/carts/favs/buys) with
  //    3 planted interests per user. Swap in Dataset::LoadTsv for real logs.
  data::SyntheticConfig dcfg = data::TaobaoSimConfig();
  dcfg.num_users = smoke ? 80 : 300;
  dcfg.num_items = smoke ? 320 : 500;
  data::Dataset ds = data::GenerateSynthetic(dcfg);
  data::DatasetStats stats = ds.Stats();
  std::printf("dataset %s: %d users, %d items, %lld interactions\n",
              ds.name().c_str(), stats.num_users, stats.num_items,
              static_cast<long long>(stats.num_interactions));

  // 2. Split + evaluator: leave-one-out on the target behavior with
  //    1 positive + 99 shared negatives.
  data::SplitView split(ds);
  eval::EvalConfig ecfg;
  ecfg.max_len = 30;
  eval::Evaluator evaluator(ds, split, ecfg);
  std::printf("train examples: %zu, eval users: %lld\n",
              split.train_examples.size(),
              static_cast<long long>(split.NumEvalUsers()));

  // 3. Model: MISSL with 3 interests.
  core::MisslConfig mcfg;
  mcfg.dim = 32;
  mcfg.num_interests = 3;
  core::MisslModel model(ds.num_items(), ds.num_behaviors(), ecfg.max_len, mcfg);
  std::printf("model %s with %lld parameters\n", model.Name().c_str(),
              static_cast<long long>(model.NumParams()));

  // 4. Train with early stopping on validation NDCG@10. Smoke mode runs
  //    2 threads so a trace captures pool-worker tracks too.
  train::TrainConfig tcfg;
  tcfg.max_epochs = smoke ? 2 : 8;
  tcfg.max_len = ecfg.max_len;
  tcfg.verbose = true;
  tcfg.trace_path = trace_path;
  tcfg.telemetry_path = telemetry_path;
  if (smoke) {
    tcfg.max_batches_per_epoch = 8;
    tcfg.num_threads = 2;
  }
  SetLogLevel(LogLevel::kInfo);
  train::TrainResult result = train::Fit(&model, ds, split, evaluator, tcfg);

  // 5. Report.
  std::printf("\n== test metrics (best validation checkpoint) ==\n");
  std::printf("HR@5=%.4f HR@10=%.4f NDCG@5=%.4f NDCG@10=%.4f MRR=%.4f\n",
              result.test.hr5, result.test.hr10, result.test.ndcg5,
              result.test.ndcg10, result.test.mrr);
  std::printf("epochs=%lld, %.1fs total (%.1fs/epoch)\n",
              static_cast<long long>(result.epochs_run), result.total_seconds,
              result.seconds_per_epoch);
  std::printf("(random ranking over 100 candidates would give HR@10=0.10)\n");
  if (obs::MetricsEnabled()) {
    std::printf(
        "\n== metrics ==\n%s",
        obs::SnapshotText(obs::MetricsRegistry::Global().Snapshot()).c_str());
  }
  return 0;
}
