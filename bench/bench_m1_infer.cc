// M1-infer — graph vs planned inference executor, plus the int8 quantized
// catalog tier. Headline metrics: wall clock per coalesced serve batch
// (BuildQueryBatch + full-catalog forward) for the training-mode tensor
// forward ("graph", the bitwise oracle), the planned executor ("planned",
// src/infer/ — static op plan, fused kernels, pooled scratch; the serving
// forward), and the int8 catalog plan ("planned-int8"); then a
// catalog-score-stage comparison at serving scale (V = 20000) where the
// int8 tier's throughput (>= 2.5x when AVX2 is active) and catalog memory
// ratio (>= 3.0x, exact value 4d / (d + 4)) are gated. Before timing
// anything the fp32 paths are checked bitwise-equal on the measured batch
// and the int8 plan bitwise-deterministic across SIMD tiers; a mismatch is
// an executor bug and fails the binary, in --smoke CI runs too. The speedup
// columns are the PR-over-PR latency record in BENCH json.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <vector>

#include "bench_common.h"
#include "core/missl.h"
#include "data/batch.h"
#include "infer/plan.h"
#include "runtime/parallel_for.h"
#include "serve/service.h"
#include "tensor/quant.h"
#include "tensor/simd.h"
#include "utils/status.h"

int main(int argc, char** argv) {
  using namespace missl;
  bench::InitBench(&argc, argv);
  bench::PrintHeader("M1-infer",
                     "serve-batch forward latency: graph vs planned executor");

  const int kWarmup = bench::SmokeMode() ? 3 : 10;
  const int kSteps = bench::SmokeMode() ? 10 : 200;
  const int64_t kBatch = 32;

  data::SyntheticConfig cfg = bench::SweepData();
  baselines::ZooConfig zc = bench::DefaultZoo();
  bench::Workbench wb(cfg, zc.max_len);

  NoGradGuard ng;
  auto model = baselines::CreateModel("MISSL", wb.ds, zc);
  model->SetTraining(false);
  auto* missl = dynamic_cast<core::MisslModel*>(model.get());
  if (missl == nullptr) {
    std::fprintf(stderr, "FAIL: zoo MISSL model is not a MisslModel\n");
    return 1;
  }
  Tensor catalog = model->PrecomputeCatalog();

  Status status;
  auto plan = infer::PlannedExecutor::Compile(*missl, kBatch, &status);
  if (plan == nullptr) {
    std::fprintf(stderr, "FAIL: plan compilation: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  infer::InferConfig icfg;
  icfg.quantize_catalog = true;
  auto plan_q =
      infer::PlannedExecutor::Compile(*missl, kBatch, icfg, &status);
  if (plan_q == nullptr) {
    std::fprintf(stderr, "FAIL: int8 plan compilation: %s\n",
                 status.ToString().c_str());
    return 1;
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
  data::Batch parity_batch =
      serve::BuildQueryBatch(queries, wb.max_len, wb.ds.num_behaviors());

  // Bitwise gate before any timing: both executors must score the same bits
  // (docs/INFERENCE.md). A perf win on wrong numbers is not a win.
  {
    Tensor oracle =
        model->ScoreAllItems(parity_batch, wb.ds.num_items(), catalog);
    const float* got = plan->Run(parity_batch);
    for (int64_t i = 0; i < oracle.numel(); ++i) {
      if (oracle.data()[i] != got[i]) {
        std::fprintf(stderr,
                     "FAIL: planned executor diverges from the graph forward "
                     "at flat index %lld (tier=%s)\n",
                     static_cast<long long>(i),
                     simd::TierName(simd::ActiveTier()));
        return 1;
      }
    }
  }
  // Int8 determinism gate: the quantized plan is not bitwise fp32 (that gap
  // is a ranking-level bound, tests/quant_test.cc) but it MUST be bitwise
  // identical across SIMD tiers — integer accumulation plus tier-independent
  // quantize/dequant stages (docs/KERNELS.md §int8 tier).
  {
    std::vector<float> ref;
    {
      simd::ScopedTier st(simd::Tier::kScalar);
      const float* got = plan_q->Run(parity_batch);
      ref.assign(got, got + kBatch * wb.ds.num_items());
    }
    if (simd::Avx2Available()) {
      simd::ScopedTier st(simd::Tier::kAvx2);
      const float* got = plan_q->Run(parity_batch);
      for (int64_t i = 0; i < kBatch * wb.ds.num_items(); ++i) {
        if (got[i] != ref[static_cast<size_t>(i)]) {
          std::fprintf(stderr,
                       "FAIL: int8 plan diverges between scalar and avx2 "
                       "tiers at flat index %lld\n",
                       static_cast<long long>(i));
          return 1;
        }
      }
    }
  }

  // Min-of-N, not mean: this box (like most CI runners) suffers bursty
  // interference that can double any individual iteration, and a mean
  // absorbs those bursts into the estimate. The fastest observed iteration
  // is the standard noise-rejecting estimator for "what the code costs on a
  // quiet machine", and it is what the speedup gates below compare.
  auto measure = [&](const std::function<void()>& step) {
    for (int i = 0; i < kWarmup; ++i) step();
    double best = std::numeric_limits<double>::infinity();
    for (int i = 0; i < kSteps; ++i) {
      auto t0 = std::chrono::steady_clock::now();
      step();
      auto t1 = std::chrono::steady_clock::now();
      best = std::min(
          best, std::chrono::duration<double, std::micro>(t1 - t0).count());
    }
    return best;
  };

  // Both loops include BuildQueryBatch, mirroring what ProcessBatch does
  // per coalesced batch.
  double graph_us = measure([&] {
    data::Batch batch =
        serve::BuildQueryBatch(queries, wb.max_len, wb.ds.num_behaviors());
    Tensor scores = model->ScoreAllItems(batch, wb.ds.num_items(), catalog);
    (void)scores;
  });
  double planned_us = measure([&] {
    data::Batch batch =
        serve::BuildQueryBatch(queries, wb.max_len, wb.ds.num_behaviors());
    const float* scores = plan->Run(batch);
    (void)scores;
  });
  double planned_q_us = measure([&] {
    data::Batch batch =
        serve::BuildQueryBatch(queries, wb.max_len, wb.ds.num_behaviors());
    const float* scores = plan_q->Run(batch);
    (void)scores;
  });

  Table table({"Executor", "Batch", "Items", "PlanOps", "us/batch",
               "batches/s", "speedup"});
  table.Row()
      .Cell("graph")
      .Int(kBatch)
      .Int(wb.ds.num_items())
      .Int(0)
      .Num(graph_us, 1)
      .Num(1e6 / graph_us, 1)
      .Num(1.0, 2);
  table.Row()
      .Cell("planned")
      .Int(kBatch)
      .Int(wb.ds.num_items())
      .Int(plan->num_ops())
      .Num(planned_us, 1)
      .Num(1e6 / planned_us, 1)
      .Num(graph_us / planned_us, 2);
  table.Row()
      .Cell("planned-int8")
      .Int(kBatch)
      .Int(wb.ds.num_items())
      .Int(plan_q->num_ops())
      .Num(planned_q_us, 1)
      .Num(1e6 / planned_q_us, 1)
      .Num(graph_us / planned_q_us, 2);
  table.Print();

  // Catalog-score stage at serving scale: V = 20000 items, d = 32, one
  // coalesced batch's worth of interest rows. Replicates each tier's hot
  // loop exactly — fp32: zero-fill + simd::GemmRows on the [d, V] catalog;
  // int8: per-batch activation quantization + simd::Int8DotDequantTile on
  // the item-major int8 catalog — so the quantize/dequant overhead the int8
  // tier pays per batch is inside its measured time.
  {
    const int64_t V = 20000, d = 32, rows = kBatch * 3;
    Rng crng(11);
    std::vector<float> cat_fp(d * V);           // [d, V], fp32 layout
    std::vector<float> cat_rows(V * d);         // [V, d] for quantization
    for (int64_t v = 0; v < V; ++v) {
      for (int64_t j = 0; j < d; ++j) {
        float val = crng.Uniform(-1.0f, 1.0f);
        cat_fp[static_cast<size_t>(j * V + v)] = val;
        cat_rows[static_cast<size_t>(v * d + j)] = val;
      }
    }
    std::vector<int8_t> cat_q(V * d);
    std::vector<float> cat_scale(V);
    quant::QuantizeRowsSymmetric(cat_rows.data(), V, d, cat_q.data(),
                                 cat_scale.data(), nullptr);
    std::vector<float> acts(rows * d);
    for (auto& a : acts) a = crng.Uniform(-2.0f, 2.0f);
    std::vector<float> out_fp(rows * V), out_q(rows * V);
    std::vector<int8_t> act_q(rows * d);
    std::vector<float> act_scale(rows);

    auto fp32_step = [&] {
      runtime::ParallelFor(
          0, rows, runtime::GrainForCost(2 * d * V),
          [&](int64_t r0, int64_t r1) {
            std::fill(out_fp.data() + r0 * V, out_fp.data() + r1 * V, 0.0f);
            simd::GemmRows(acts.data(), cat_fp.data(), out_fp.data(), d, V,
                           V, V, r0, r1);
          });
    };
    auto int8_step = [&] {
      quant::QuantizeRowsSymmetric(acts.data(), rows, d, act_q.data(),
                                   act_scale.data(), nullptr);
      runtime::ParallelFor(
          0, (rows + 1) / 2, runtime::GrainForCost(4 * d * V),
          [&](int64_t p0, int64_t p1) {
            const int64_t i0 = 2 * p0;
            const int64_t i1 = std::min<int64_t>(rows, 2 * p1);
            simd::Int8DotDequantTile(act_q.data() + i0 * d,
                                     act_scale.data() + i0, i1 - i0,
                                     cat_q.data(), cat_scale.data(),
                                     out_q.data() + i0 * V, V, d, 0, V);
          });
    };
    // The two tiers are timed INTERLEAVED (fp32, int8, fp32, int8, ...)
    // rather than as two back-to-back measure() blocks: an interference
    // burst that happens to cover one tier's whole measurement window would
    // skew the ratio, while under interleaving any quiet window during the
    // stage hands both estimators a clean sample.
    auto time_once = [&](const std::function<void()>& step) {
      auto t0 = std::chrono::steady_clock::now();
      step();
      auto t1 = std::chrono::steady_clock::now();
      return std::chrono::duration<double, std::micro>(t1 - t0).count();
    };
    for (int i = 0; i < kWarmup; ++i) {
      fp32_step();
      int8_step();
    }
    double fp32_us = std::numeric_limits<double>::infinity();
    double int8_us = std::numeric_limits<double>::infinity();
    for (int i = 0; i < kSteps; ++i) {
      fp32_us = std::min(fp32_us, time_once(fp32_step));
      int8_us = std::min(int8_us, time_once(int8_step));
    }

    const double speedup = fp32_us / int8_us;
    // Catalog memory: fp32 stores V*d floats; int8 stores V*d codes + V
    // fp32 scales. Ratio = 4d / (d + 4) — 3.56x at d = 32, approaching 4x
    // as d grows. The plan's own accounting must agree.
    const infer::QuantInfo& qi = plan_q->quant_info();
    const double mem_ratio = static_cast<double>(qi.fp32_bytes) /
                             static_cast<double>(qi.int8_bytes);
    Table ctable({"CatalogScore", "Rows", "Items", "us/call", "Gelem/s",
                  "speedup", "mem_ratio"});
    ctable.Row()
        .Cell("fp32")
        .Int(rows)
        .Int(V)
        .Num(fp32_us, 1)
        .Num(static_cast<double>(rows) * V * d / fp32_us / 1e3, 2)
        .Num(1.0, 2)
        .Num(1.0, 2);
    ctable.Row()
        .Cell("int8")
        .Int(rows)
        .Int(V)
        .Num(int8_us, 1)
        .Num(static_cast<double>(rows) * V * d / int8_us / 1e3, 2)
        .Num(speedup, 2)
        .Num(mem_ratio, 2);
    ctable.Print();

    if (mem_ratio < 3.0) {
      std::fprintf(stderr,
                   "FAIL: int8 catalog memory ratio %.2f < 3.0 (want "
                   "4d/(d+4) = %.2f at d=%lld)\n",
                   mem_ratio, 4.0 * d / (d + 4), static_cast<long long>(d));
      return 1;
    }
    // Throughput gate only when the AVX2 tier is actually active: the
    // scalar int8 kernel trades wins with scalar fp32 and the MISSL_SIMD=off
    // ctest leg runs this binary too.
    if (simd::ActiveTier() == simd::Tier::kAvx2 && speedup < 2.5) {
      std::fprintf(stderr,
                   "FAIL: int8 catalog-score speedup %.2fx < 2.5x with AVX2 "
                   "active\n",
                   speedup);
      return 1;
    }
  }

  std::printf("Expected shape: planned beats graph (no autograd nodes, no "
              "per-op tensor materialization, pooled scratch); planned-int8 "
              "beats planned where catalog scoring dominates (4x denser "
              "codes, maddubs dots); bitwise equality (fp32) and cross-tier "
              "determinism (int8) are checked before timing.\n");
  return 0;
}
