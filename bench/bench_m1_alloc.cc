// M1-alloc — allocator steady-state churn. Headline metric: system
// allocations per step once the pool is warm (target ~0; the same loop
// under MISSL_ALLOC=system pays the full malloc/free tax every step, which
// is the baseline the wall-clock column quantifies). The workloads are
// taken verbatim from the hot paths the pool exists for:
//   train-step — the trainer inner loop (build batch, forward, backward,
//                clip-free Adam step) on the paper model;
//   score-all — the offline full-catalog forward (BuildQueryBatch +
//               ScoreAllItems against a precomputed catalog) under
//               NoGradGuard: the oracle the serving plan is checked against;
//   serve-planned — the same batches through the planned inference executor
//                 (src/infer/), the serving forward, whose contract is
//                 exactly 0 Storage allocations per steady-state run in
//                 EITHER alloc mode (the op plan owns all scratch),
//                 enforced by a stricter zero budget below;
//   serve-planned-int8 — the planned executor with the int8 catalog tier
//                 (InferConfig::quantize_catalog): per-batch activation
//                 quantization must run out of the same plan-owned arena,
//                 so the zero-Storage contract applies unchanged.
// In --smoke mode the pool rows double as the CI allocator-churn regression
// gate: the binary exits non-zero if steady-state mallocs-per-step exceeds
// a small budget.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/missl.h"
#include "data/batch.h"
#include "infer/plan.h"
#include "optim/optimizer.h"
#include "serve/service.h"
#include "tensor/alloc.h"
#include "utils/status.h"

namespace {

struct ChurnResult {
  double mallocs_per_step = 0.0;
  double pool_hits_per_step = 0.0;
  double us_per_step = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace missl;
  bench::InitBench(&argc, argv);
  bench::PrintHeader(
      "M1-alloc", "allocator steady-state churn (mallocs/step) + wall clock");

  const int kWarmup = bench::SmokeMode() ? 3 : 10;
  const int kSteps = bench::SmokeMode() ? 8 : 100;
  const int64_t kBatch = 32;
  // One-time events (a straggler size class, an obs buffer) are tolerated;
  // per-step churn is not. The budget is far below the hundreds of
  // allocations a single un-pooled training step performs.
  const double kSmokeBudget = 8.0;

  data::SyntheticConfig cfg = bench::SweepData();
  baselines::ZooConfig zc = bench::DefaultZoo();
  bench::Workbench wb(cfg, zc.max_len);

  auto measure = [&](const std::function<void()>& step) {
    for (int i = 0; i < kWarmup; ++i) step();
    alloc::AllocStats s0 = alloc::GetAllocStats();
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kSteps; ++i) step();
    auto t1 = std::chrono::steady_clock::now();
    alloc::AllocStats s1 = alloc::GetAllocStats();
    ChurnResult r;
    r.mallocs_per_step =
        static_cast<double>(s1.system_allocs - s0.system_allocs) / kSteps;
    r.pool_hits_per_step =
        static_cast<double>(s1.pool_hits - s0.pool_hits) / kSteps;
    r.us_per_step =
        std::chrono::duration<double, std::micro>(t1 - t0).count() / kSteps;
    return r;
  };

  auto train_workload = [&](alloc::Mode mode) {
    alloc::ScopedMode sm(mode);
    data::BatchBuilder builder(wb.ds, wb.max_len);
    data::MiniBatcher batcher(wb.split.train_examples, kBatch, 7);
    auto model = baselines::CreateModel("MISSL", wb.ds, zc);
    optim::Adam opt(model->Parameters(), 1e-3f, 0.9f, 0.999f, 1e-8f, 0.0f);
    model->SetTraining(true);
    std::vector<data::SplitView::TrainExample> chunk;
    // Full-size chunks only: a ragged final batch changes tensor shapes and
    // would bill its one-time size classes to whichever step drew it.
    auto next_full_chunk = [&] {
      for (;;) {
        if (!batcher.Next(&chunk)) {
          batcher.Reset();
          continue;
        }
        if (static_cast<int64_t>(chunk.size()) == kBatch) return;
      }
    };
    ChurnResult r = measure([&] {
      next_full_chunk();
      data::Batch batch = builder.Build(chunk);
      opt.ZeroGrad();
      Tensor loss = model->Loss(batch);
      loss.Backward();
      opt.Step();
    });
    alloc::Trim();  // hand cached blocks back before the next mode runs
    return r;
  };

  auto score_all_workload = [&](alloc::Mode mode) {
    alloc::ScopedMode sm(mode);
    NoGradGuard ng;
    auto model = baselines::CreateModel("MISSL", wb.ds, zc);
    model->SetTraining(false);
    Tensor catalog = model->PrecomputeCatalog();
    Rng rng(97);
    std::vector<serve::Query> queries(static_cast<size_t>(kBatch));
    for (auto& q : queries) {
      for (int i = 0; i < 12; ++i) {
        q.items.push_back(
            static_cast<int32_t>(rng.UniformInt(wb.ds.num_items())));
        q.behaviors.push_back(
            static_cast<int32_t>(rng.UniformInt(wb.ds.num_behaviors())));
      }
    }
    ChurnResult r = measure([&] {
      data::Batch batch =
          serve::BuildQueryBatch(queries, wb.max_len, wb.ds.num_behaviors());
      Tensor scores = model->ScoreAllItems(batch, wb.ds.num_items(), catalog);
      (void)scores;
    });
    alloc::Trim();
    return r;
  };

  auto serve_planned_workload = [&](alloc::Mode mode, bool quantize) {
    alloc::ScopedMode sm(mode);
    NoGradGuard ng;
    auto model = baselines::CreateModel("MISSL", wb.ds, zc);
    model->SetTraining(false);
    auto* missl = dynamic_cast<core::MisslModel*>(model.get());
    infer::InferConfig options;
    options.quantize_catalog = quantize;
    Status status;
    // Compiled before measure(): the plan's one-time arena allocation (and,
    // for int8, the one-time catalog quantization) is load-time work, not
    // steady-state churn.
    auto plan = missl == nullptr
                    ? nullptr
                    : infer::PlannedExecutor::Compile(*missl, kBatch, options,
                                                      &status);
    if (plan == nullptr) {
      std::fprintf(stderr, "FAIL: planned-executor compile: %s\n",
                   status.ToString().c_str());
      std::exit(1);
    }
    Rng rng(97);
    std::vector<serve::Query> queries(static_cast<size_t>(kBatch));
    for (auto& q : queries) {
      for (int i = 0; i < 12; ++i) {
        q.items.push_back(
            static_cast<int32_t>(rng.UniformInt(wb.ds.num_items())));
        q.behaviors.push_back(
            static_cast<int32_t>(rng.UniformInt(wb.ds.num_behaviors())));
      }
    }
    ChurnResult r = measure([&] {
      data::Batch batch =
          serve::BuildQueryBatch(queries, wb.max_len, wb.ds.num_behaviors());
      const float* scores = plan->Run(batch);
      (void)scores;
    });
    alloc::Trim();
    return r;
  };

  struct RowSpec {
    const char* workload;
    alloc::Mode mode;
    ChurnResult result;
  };
  std::vector<RowSpec> rows = {
      {"train-step", alloc::Mode::kPool, {}},
      {"train-step", alloc::Mode::kSystem, {}},
      {"score-all", alloc::Mode::kPool, {}},
      {"score-all", alloc::Mode::kSystem, {}},
      {"serve-planned", alloc::Mode::kPool, {}},
      {"serve-planned", alloc::Mode::kSystem, {}},
      {"serve-planned-int8", alloc::Mode::kPool, {}},
      {"serve-planned-int8", alloc::Mode::kSystem, {}},
  };
  for (auto& row : rows) {
    std::string workload = row.workload;
    row.result =
        workload == "train-step"  ? train_workload(row.mode)
        : workload == "score-all" ? score_all_workload(row.mode)
        : serve_planned_workload(row.mode, workload == "serve-planned-int8");
  }

  Table table({"Workload", "Alloc", "Steps", "Mallocs/step", "PoolHits/step",
               "us/step"});
  for (const auto& row : rows) {
    table.Row()
        .Cell(row.workload)
        .Cell(alloc::ModeName(row.mode))
        .Int(kSteps)
        .Num(row.result.mallocs_per_step, 2)
        .Num(row.result.pool_hits_per_step, 2)
        .Num(row.result.us_per_step, 1);
  }
  table.Print();
  std::printf("Expected shape: pool rows reach ~0 mallocs/step at steady "
              "state; system rows pay per-step malloc churn.\n");

  // CI regression gate (observability smoke step + every ctest run): with
  // the pool active, steady-state churn above the budget is a regression —
  // some path is allocating fresh blocks every step instead of recycling.
  // Skipped when the pool is unavailable (ASan builds degrade to system).
  if (alloc::PoolAvailable()) {
    for (const auto& row : rows) {
      if (row.mode != alloc::Mode::kPool) continue;
      if (row.result.mallocs_per_step > kSmokeBudget) {
        std::fprintf(stderr,
                     "FAIL: %s pool-mode steady-state mallocs/step %.2f "
                     "exceeds budget %.2f\n",
                     row.workload, row.result.mallocs_per_step, kSmokeBudget);
        return 1;
      }
    }
  }
  // The planned executor's contract is stricter than the pooled budget:
  // ZERO Storage traffic per steady-state run — no pool hits either, in
  // both alloc modes (the arena is allocated once at compile time). Gated
  // unconditionally: it must hold even where the pool degrades to system
  // mode (ASan builds).
  for (const auto& row : rows) {
    // Prefix match: serve-planned AND serve-planned-int8 — the int8 tier's
    // per-batch quantization must not relax the zero-Storage contract.
    if (std::string(row.workload).rfind("serve-planned", 0) != 0) continue;
    if (row.result.mallocs_per_step > 0.0 ||
        row.result.pool_hits_per_step > 0.0) {
      std::fprintf(stderr,
                   "FAIL: %s (%s) performed Storage allocations "
                   "at steady state: %.2f mallocs/step, %.2f pool hits/step "
                   "(contract: 0)\n",
                   row.workload, alloc::ModeName(row.mode),
                   row.result.mallocs_per_step, row.result.pool_hits_per_step);
      return 1;
    }
  }
  return 0;
}
