// Int8 quantized catalog tier tests (src/tensor/quant.h, docs/KERNELS.md
// §int8 tier, docs/INFERENCE.md §quantized catalog tier).
//
// Three layers of contract:
//   1. Quantization arithmetic: symmetric per-row scales, codes clamped to
//      ±127 (never -128), all-zero rows quantize without dividing, and the
//      round-trip error is bounded by scale / 2.
//   2. Kernel parity: the integer dot inside simd::Int8DotDequantRows
//      matches quant::Int8DotRef bitwise on every tier — integer
//      accumulation is order-free, so this holds for any blocking by
//      construction, and we verify it anyway.
//   3. Plan-level: a quantize_catalog plan is bitwise deterministic across
//      SIMD tiers x thread counts, allocates nothing in steady state, and
//      ranks close enough to fp32 (NDCG@10 / top-10 overlap bounds below).
//      Neither an int8 nor an fp32 RecoService keeps a second fp32 catalog.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/missl.h"
#include "core/recommend.h"
#include "data/batch.h"
#include "infer/plan.h"
#include "nn/serialize.h"
#include "obs/memory.h"
#include "runtime/runtime.h"
#include "serve/service.h"
#include "tensor/alloc.h"
#include "tensor/quant.h"
#include "tensor/simd.h"
#include "tensor/tensor.h"
#include "utils/rng.h"
#include "utils/status.h"

#include "test_util.h"

namespace missl {
namespace {

// ---------------------------------------------------------------------------
// 1. Quantization arithmetic.
// ---------------------------------------------------------------------------

TEST(QuantizeTest, AllZeroRowStoresZeroScaleAndNeverDivides) {
  std::vector<float> x(13, 0.0f);
  std::vector<int8_t> q(13, 42);
  std::vector<float> scale(1, -1.0f);
  quant::RowQuantStats st;
  quant::QuantizeRowsSymmetric(x.data(), 1, 13, q.data(), scale.data(), &st);
  EXPECT_EQ(scale[0], 0.0f);
  for (int8_t c : q) EXPECT_EQ(c, 0);
  EXPECT_EQ(st.zero_rows, 1);
  EXPECT_EQ(st.saturated, 0);
  EXPECT_EQ(st.min_scale, 0.0f);  // no non-zero scale seen
  EXPECT_EQ(st.max_scale, 0.0f);
}

TEST(QuantizeTest, ConstantRowsHitExactlyPlusMinus127) {
  // A constant row's maxabs is the value itself, so every code is exactly
  // ±127 with no clamping (round(127.0) == 127).
  std::vector<float> x(16, 3.5f);
  std::vector<float> y(16, -0.0625f);
  std::vector<int8_t> qx(16), qy(16);
  float sx = 0, sy = 0;
  quant::RowQuantStats st;
  quant::QuantizeRowsSymmetric(x.data(), 1, 16, qx.data(), &sx, &st);
  quant::QuantizeRowsSymmetric(y.data(), 1, 16, qy.data(), &sy, nullptr);
  EXPECT_FLOAT_EQ(sx, 3.5f / 127.0f);
  EXPECT_FLOAT_EQ(sy, 0.0625f / 127.0f);
  for (int8_t c : qx) EXPECT_EQ(c, 127);
  for (int8_t c : qy) EXPECT_EQ(c, -127);
  EXPECT_EQ(st.saturated, 0);
  EXPECT_EQ(st.zero_rows, 0);
}

TEST(QuantizeTest, ExtremeMagnitudesRoundTripWithinHalfScale) {
  // Scales span ~60 orders of magnitude; the bound |x - s*q| <= s/2 must
  // hold at both ends (s/2 is half a quantization step).
  for (float mag : {1e30f, 1.0f, 1e-30f}) {
    std::vector<float> x = {mag, -mag, 0.5f * mag, -0.25f * mag, 0.0f};
    std::vector<int8_t> q(x.size());
    float scale = 0;
    quant::QuantizeRowsSymmetric(x.data(), 1, static_cast<int64_t>(x.size()),
                                 q.data(), &scale, nullptr);
    ASSERT_GT(scale, 0.0f) << mag;
    for (size_t i = 0; i < x.size(); ++i) {
      EXPECT_GE(q[i], -127);
      EXPECT_LE(q[i], 127);
      float back = scale * static_cast<float>(q[i]);
      // Half-a-step bound with one-ulp relative slack: 0.5 * mag sits
      // exactly on the rounding boundary (63.5 -> 64) where fp32 rounding
      // of scale * q can overshoot the mathematical scale / 2 by an ulp.
      EXPECT_LE(std::fabs(x[i] - back), 0.5f * scale * (1.0f + 1e-5f))
          << "mag=" << mag << " i=" << i;
    }
  }
}

TEST(QuantizeTest, TooSmallScaleClampsToPlusMinus127AndCounts) {
  // With a deliberately tiny scale every non-zero value lands far outside
  // [-127, 127]; the clamp must cap at ±127 (never -128) and be counted.
  std::vector<float> x = {10.0f, -10.0f, 0.0f, 5.0f};
  std::vector<int8_t> q(x.size(), 0);
  int64_t clamped =
      quant::QuantizeRowWithScale(x.data(), static_cast<int64_t>(x.size()),
                                  /*scale=*/1e-3f, q.data());
  EXPECT_EQ(clamped, 3);
  EXPECT_EQ(q[0], 127);
  EXPECT_EQ(q[1], -127);
  EXPECT_EQ(q[2], 0);
  EXPECT_EQ(q[3], 127);
}

TEST(QuantizeTest, RandomRowsRoundTripBoundAndStats) {
  Rng rng(33);
  constexpr int64_t kRows = 40, kN = 48;
  std::vector<float> x(kRows * kN);
  for (auto& v : x) v = rng.Uniform(-2.0f, 2.0f);
  // Make two rows all-zero to exercise the zero_rows accounting inline.
  std::fill(x.begin() + 5 * kN, x.begin() + 6 * kN, 0.0f);
  std::fill(x.begin() + 17 * kN, x.begin() + 18 * kN, 0.0f);
  std::vector<int8_t> q(x.size());
  std::vector<float> scales(kRows);
  quant::RowQuantStats st;
  quant::QuantizeRowsSymmetric(x.data(), kRows, kN, q.data(), scales.data(),
                               &st);
  EXPECT_EQ(st.zero_rows, 2);
  EXPECT_EQ(st.saturated, 0);  // scale = maxabs/127 never clamps
  EXPECT_GT(st.min_scale, 0.0f);
  EXPECT_GE(st.max_scale, st.min_scale);
  // Dequantized value scales[r] * q, within half a step of the input.
  for (int64_t r = 0; r < kRows; ++r) {
    for (int64_t i = 0; i < kN; ++i) {
      const size_t at = static_cast<size_t>(r * kN + i);
      const float back = scales[r] * static_cast<float>(q[at]);
      EXPECT_LE(std::fabs(x[at] - back), 0.5f * scales[r] + 1e-12f)
          << "row " << r << " col " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// 2. Kernel parity: the int8 catalog kernels vs the Int8DotRef contract,
//    every tier.
// ---------------------------------------------------------------------------

// Tier x VNNI configurations the int8 kernels can dispatch to: scalar, AVX2
// via the maddubs sign-trick path, and — on CPUs with AVX-VNNI — AVX2 via
// vpdpbusd. All three must agree bitwise, so every parity test sweeps them.
struct KernelConfig {
  simd::Tier tier;
  bool vnni;
};

std::vector<KernelConfig> KernelConfigs() {
  std::vector<KernelConfig> cfgs = {{simd::Tier::kScalar, false}};
  if (simd::Avx2Available()) {
    cfgs.push_back({simd::Tier::kAvx2, false});
    if (simd::AvxVnniAvailable()) cfgs.push_back({simd::Tier::kAvx2, true});
  }
  return cfgs;
}

// The kernel's integer dot read back exactly: with act_scale = 1 and unit
// row scales the dequant is (1 * 1) * float(dot), and float(dot) is exact
// while |dot| <= 127^2 * k < 2^24, i.e. for every k <= 1040 used here.
void UnitScaleDots(const int8_t* a, const int8_t* b, float* o, int64_t k,
                   int64_t r0, int64_t r1) {
  const std::vector<float> ones(static_cast<size_t>(r1), 1.0f);
  simd::Int8DotDequantRows(a, 1.0f, b, ones.data(), o, k, r0, r1);
}

TEST(Int8DotTest, MatchesReferenceOnEveryTierAndRaggedLengths) {
  Rng rng(7);
  // Lengths straddle the 32-lane AVX2 block and the 4-row unroll.
  for (int64_t k : {1, 7, 31, 32, 33, 64, 96, 100}) {
    constexpr int64_t kR = 9;
    std::vector<int8_t> a(k), b(kR * k);
    for (auto& v : a) v = static_cast<int8_t>(rng.UniformInt(255)) % 127;
    for (auto& v : b) v = static_cast<int8_t>(rng.UniformInt(255)) % 127;
    std::vector<float> want(kR);
    for (int64_t r = 0; r < kR; ++r) {
      want[static_cast<size_t>(r)] = static_cast<float>(
          quant::Int8DotRef(a.data(), b.data() + r * k, k));
    }
    for (const KernelConfig& cfg : KernelConfigs()) {
      simd::ScopedTier guard(cfg.tier);
      simd::ScopedAvxVnni vguard(cfg.vnni);
      std::vector<float> got(kR, -999.0f);
      UnitScaleDots(a.data(), b.data(), got.data(), k, 0, kR);
      for (int64_t r = 0; r < kR; ++r) {
        const size_t i = static_cast<size_t>(r);
        EXPECT_EQ(std::memcmp(&got[i], &want[i], sizeof(float)), 0)
            << "k=" << k << " row=" << r << " tier="
            << simd::TierName(cfg.tier) << " vnni=" << cfg.vnni
            << " got=" << got[i] << " want=" << want[i];
      }
      // Partial row ranges must write exactly [r0, r1).
      std::vector<float> part(kR, -999.0f);
      UnitScaleDots(a.data(), b.data(), part.data(), k, 2,
                    std::min<int64_t>(kR, 6));
      for (int64_t r = 2; r < std::min<int64_t>(kR, 6); ++r) {
        const size_t i = static_cast<size_t>(r);
        EXPECT_EQ(std::memcmp(&part[i], &want[i], sizeof(float)), 0);
      }
      EXPECT_EQ(part[0], -999.0f);
      EXPECT_EQ(part[kR - 1], -999.0f);
    }
  }
}

TEST(Int8DotTest, ExtremeCodesNeverSaturateTheInt16Intermediate) {
  // All-(±127) inputs maximize every maddubs pair sum (2 * 127 * 127 =
  // 32258 < 2^15): the AVX2 kernel must still be exact. The vpdpbusd path
  // has no int16 intermediate at all but must land on the same totals.
  for (int64_t k : {32, 64, 100}) {
    std::vector<int8_t> a(k, 127), b(k, 127), c(k, -127);
    int32_t want_pp = quant::Int8DotRef(a.data(), b.data(), k);
    int32_t want_pn = quant::Int8DotRef(a.data(), c.data(), k);
    EXPECT_EQ(want_pp, static_cast<int32_t>(k) * 127 * 127);
    EXPECT_EQ(want_pn, -static_cast<int32_t>(k) * 127 * 127);
    for (const KernelConfig& cfg : KernelConfigs()) {
      simd::ScopedTier guard(cfg.tier);
      simd::ScopedAvxVnni vguard(cfg.vnni);
      float got = 0.0f;
      UnitScaleDots(a.data(), b.data(), &got, k, 0, 1);
      EXPECT_EQ(got, static_cast<float>(want_pp))
          << "k=" << k << " tier=" << simd::TierName(cfg.tier)
          << " vnni=" << cfg.vnni;
      UnitScaleDots(a.data(), c.data(), &got, k, 0, 1);
      EXPECT_EQ(got, static_cast<float>(want_pn))
          << "k=" << k << " tier=" << simd::TierName(cfg.tier)
          << " vnni=" << cfg.vnni;
    }
  }
}

TEST(Int8DotTest, FusedDotDequantMatchesComposedOnEveryTier) {
  // Int8DotDequantRows must be bitwise identical to the reference dot
  // followed by the dequant sequence (act_scale * scales[r]) * float(dot),
  // on every tier, for ragged lengths (exercising the preload, tail-k, and
  // remainder-row paths) and partial row ranges. The k > 64 cases exceed
  // the AVX2 activation preload window and take its fallback.
  Rng rng(23);
  for (int64_t k : {1, 31, 32, 33, 96, 100, 260}) {
    constexpr int64_t kR = 11;
    std::vector<int8_t> a(k), b(kR * k);
    for (auto& v : a) v = static_cast<int8_t>(rng.UniformInt(255)) % 127;
    for (auto& v : b) v = static_cast<int8_t>(rng.UniformInt(255)) % 127;
    const float act_scale = 0.037f;
    std::vector<float> scales(kR);
    for (auto& s : scales) s = rng.Uniform(1e-3f, 2.0f);
    std::vector<float> want(kR);
    for (int64_t r = 0; r < kR; ++r) {
      const size_t i = static_cast<size_t>(r);
      want[i] = (act_scale * scales[i]) *
                static_cast<float>(
                    quant::Int8DotRef(a.data(), b.data() + r * k, k));
    }
    for (const KernelConfig& cfg : KernelConfigs()) {
      simd::ScopedTier guard(cfg.tier);
      simd::ScopedAvxVnni vguard(cfg.vnni);
      std::vector<float> got(kR, -1.0f);
      simd::Int8DotDequantRows(a.data(), act_scale, b.data(), scales.data(),
                               got.data(), k, 0, kR);
      for (int64_t r = 0; r < kR; ++r) {
        const size_t i = static_cast<size_t>(r);
        EXPECT_EQ(std::memcmp(&got[i], &want[i], sizeof(float)), 0)
            << "k=" << k << " row=" << r << " tier="
            << simd::TierName(cfg.tier) << " vnni=" << cfg.vnni
            << " got=" << got[i] << " want=" << want[i];
      }
      std::vector<float> part(kR, -1.0f);
      simd::Int8DotDequantRows(a.data(), act_scale, b.data(), scales.data(),
                               part.data(), k, 3, 8);
      for (int64_t r = 3; r < 8; ++r) {
        const size_t i = static_cast<size_t>(r);
        EXPECT_EQ(std::memcmp(&part[i], &want[i], sizeof(float)), 0);
      }
      EXPECT_EQ(part[0], -1.0f);
      EXPECT_EQ(part[kR - 1], -1.0f);
    }
  }
}

TEST(Int8DotTest, TileMatchesRowKernelOnEveryTier) {
  // Int8DotDequantTile = na independent Int8DotDequantRows calls, bitwise,
  // on every tier — including odd na (the paired AVX2 sweep plus a single
  // trailing row) and k values off the fixed-shape fast paths.
  Rng rng(31);
  for (int64_t k : {32, 64, 48}) {
    for (int64_t na : {1, 2, 5}) {
      constexpr int64_t kR = 13;
      const int64_t ldo = kR + 3;  // output stride != row count
      std::vector<int8_t> a(na * k), b(kR * k);
      for (auto& v : a) v = static_cast<int8_t>(rng.UniformInt(255)) % 127;
      for (auto& v : b) v = static_cast<int8_t>(rng.UniformInt(255)) % 127;
      std::vector<float> act_scales(na), scales(kR);
      for (auto& s : act_scales) s = rng.Uniform(1e-3f, 0.5f);
      for (auto& s : scales) s = rng.Uniform(1e-3f, 2.0f);
      std::vector<float> want(na * ldo, -7.0f);
      {
        simd::ScopedTier guard(simd::Tier::kScalar);
        for (int64_t i = 0; i < na; ++i) {
          simd::Int8DotDequantRows(a.data() + i * k, act_scales[i], b.data(),
                                   scales.data(), want.data() + i * ldo, k, 0,
                                   kR);
        }
      }
      for (const KernelConfig& cfg : KernelConfigs()) {
        simd::ScopedTier guard(cfg.tier);
        simd::ScopedAvxVnni vguard(cfg.vnni);
        std::vector<float> got(na * ldo, -7.0f);
        simd::Int8DotDequantTile(a.data(), act_scales.data(), na, b.data(),
                                 scales.data(), got.data(), ldo, k, 0, kR);
        for (int64_t i = 0; i < na; ++i) {
          for (int64_t r = 0; r < kR; ++r) {
            const size_t idx = static_cast<size_t>(i * ldo + r);
            EXPECT_EQ(std::memcmp(&got[idx], &want[idx], sizeof(float)), 0)
                << "k=" << k << " na=" << na << " i=" << i << " r=" << r
                << " tier=" << simd::TierName(cfg.tier)
                << " vnni=" << cfg.vnni;
          }
          // Stride padding beyond each row stays untouched.
          EXPECT_EQ(got[static_cast<size_t>(i * ldo + kR)], -7.0f);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// 3. Plan-level properties of the int8 catalog tier.
// ---------------------------------------------------------------------------

constexpr int32_t kItems = 57;
constexpr int32_t kBehaviors = 3;
constexpr int64_t kMaxLen = 14;

std::unique_ptr<core::MisslModel> MakeModel(const core::MisslConfig& cfg,
                                            int32_t items = kItems) {
  return std::make_unique<core::MisslModel>(items, kBehaviors, kMaxLen, cfg);
}

core::MisslConfig BaseConfig() {
  core::MisslConfig cfg;
  cfg.dim = 16;
  cfg.heads = 2;
  cfg.num_interests = 3;
  cfg.seed = 21;
  return cfg;
}

/// Same deterministic batch shape as tests/infer_test.cc: padded-short rows,
/// single-channel rows, repeated items.
data::Batch MakeBatch(int64_t batch_size, uint64_t seed) {
  Rng rng(seed);
  data::Batch b;
  b.batch_size = batch_size;
  b.max_len = kMaxLen;
  b.num_behaviors = kBehaviors;
  int64_t bt = batch_size * kMaxLen;
  b.merged_items.assign(static_cast<size_t>(bt), -1);
  b.merged_behaviors.assign(static_cast<size_t>(bt), -1);
  b.merged_recency.assign(static_cast<size_t>(bt), -1);
  b.targets.assign(static_cast<size_t>(batch_size), -1);
  b.target_behavior.assign(static_cast<size_t>(batch_size), kBehaviors - 1);
  b.users.resize(static_cast<size_t>(batch_size));
  for (int64_t row = 0; row < batch_size; ++row) {
    b.users[static_cast<size_t>(row)] = static_cast<int32_t>(row);
    int64_t n = 1 + (row * 5) % kMaxLen;
    for (int64_t i = 0; i < n; ++i) {
      size_t pos = static_cast<size_t>(row * kMaxLen + (kMaxLen - n + i));
      int32_t item = static_cast<int32_t>(rng.UniformInt(kItems / 3));
      int32_t beh = static_cast<int32_t>(rng.UniformInt(kBehaviors));
      if (row % 3 == 1) beh = kBehaviors - 1;
      if (row % 3 == 2) beh = 0;
      b.merged_items[pos] = item;
      b.merged_behaviors[pos] = beh;
      b.merged_recency[pos] = static_cast<int32_t>(rng.UniformInt(8));
    }
  }
  return b;
}

struct PlanPair {
  std::unique_ptr<infer::PlannedExecutor> fp32;
  std::unique_ptr<infer::PlannedExecutor> int8;
};

PlanPair CompileBoth(const core::MisslModel& model, int64_t max_batch) {
  Status status;
  PlanPair p;
  p.fp32 = infer::PlannedExecutor::Compile(model, max_batch, &status);
  EXPECT_TRUE(status.ok()) << status.ToString();
  infer::InferConfig icfg;
  icfg.quantize_catalog = true;
  p.int8 = infer::PlannedExecutor::Compile(model, max_batch, icfg, &status);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return p;
}

/// The int8 determinism contract: the scalar 1-thread run is the reference
/// and every tier x thread-count combination must reproduce it bitwise.
/// (Stronger than fp32's rule: integer accumulation makes this automatic,
/// but the quantize + dequant stages are fp32 and must stay order-fixed.)
/// The multi-thread legs must open pool jobs exactly when `pooled` says the
/// batch clears the plan's serial floor.
void ExpectInt8Deterministic(const core::MisslConfig& cfg, int64_t batch_size,
                             int64_t max_batch, int32_t items = kItems,
                             bool pooled = false) {
  auto model = MakeModel(cfg, items);
  model->SetTraining(false);
  data::Batch batch = MakeBatch(batch_size, cfg.seed + 7);
  Status status;
  infer::InferConfig icfg;
  icfg.quantize_catalog = true;
  auto plan = infer::PlannedExecutor::Compile(*model, max_batch, icfg,
                                              &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_TRUE(plan->quantized());

  std::vector<float> reference;
  for (const KernelConfig& kcfg : KernelConfigs()) {
    simd::ScopedTier tier_guard(kcfg.tier);
    simd::ScopedAvxVnni vnni_guard(kcfg.vnni);
    for (int threads : {1, 2, 4}) {
      runtime::ScopedNumThreads thread_guard(threads);
      testing::PoolJobCount jobs;
      const float* got = plan->Run(batch);
      EXPECT_EQ(jobs.opened() > 0, threads > 1 && pooled)
          << jobs.opened() << " pool jobs at threads=" << threads;
      if (reference.empty()) {
        reference.assign(got, got + batch_size * items);
        continue;
      }
      size_t mismatch = 0;
      for (int64_t i = 0; i < batch_size * items; ++i) {
        if (got[i] != reference[static_cast<size_t>(i)]) ++mismatch;
      }
      EXPECT_EQ(mismatch, 0u)
          << mismatch << " of " << batch_size * items
          << " int8 scores differ from the scalar/1-thread reference at tier="
          << simd::TierName(kcfg.tier) << " vnni=" << kcfg.vnni
          << " threads=" << threads;
    }
  }
}

// The second shape of each routing clears kSerialFloorMacs, so its 2- and
// 4-thread legs run on the pool.
TEST(QuantPlanTest, Int8DeterministicAcrossTiersAndThreadsMaxRouting) {
  ExpectInt8Deterministic(BaseConfig(), /*batch_size=*/6, /*max_batch=*/6);
  ExpectInt8Deterministic(BaseConfig(), /*batch_size=*/16, /*max_batch=*/16,
                          /*items=*/6000, /*pooled=*/true);
}

TEST(QuantPlanTest, Int8DeterministicAcrossTiersAndThreadsMeanRouting) {
  core::MisslConfig cfg = BaseConfig();
  cfg.routing = core::InterestRouting::kMean;
  ExpectInt8Deterministic(cfg, 5, 5);
  ExpectInt8Deterministic(cfg, 16, 16, /*items=*/20000, /*pooled=*/true);
}

TEST(QuantPlanTest, Int8DeterministicSmallerBatchThanCapacity) {
  ExpectInt8Deterministic(BaseConfig(), /*batch_size=*/2, /*max_batch=*/8);
}

TEST(QuantPlanTest, SteadyStateInt8RunsAllocateNothing) {
  auto model = MakeModel(BaseConfig());
  model->SetTraining(false);
  Status status;
  infer::InferConfig icfg;
  icfg.quantize_catalog = true;
  auto plan = infer::PlannedExecutor::Compile(*model, 8, icfg, &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  data::Batch big = MakeBatch(8, 11);
  data::Batch small = MakeBatch(3, 12);
  const std::vector<int32_t> excl = {1, 5, 9};
  std::vector<infer::RankSpec> specs(8, infer::RankSpec{10, excl.data(), 3});
  specs[1].k = kItems;  // the largest candidate lists a row can need
  plan->Run(big);  // warmup
  plan->RunTopK(big, specs.data());
  alloc::AllocStats before = alloc::GetAllocStats();
  for (int i = 0; i < 20; ++i) {
    plan->Run(i % 2 == 0 ? big : small);
    plan->RunTopK(i % 2 == 0 ? small : big, specs.data());
  }
  alloc::AllocStats after = alloc::GetAllocStats();
  EXPECT_EQ(after.pool_hits - before.pool_hits, 0);
  EXPECT_EQ(after.pool_misses - before.pool_misses, 0);
  EXPECT_EQ(after.system_allocs - before.system_allocs, 0);
}

// The int8 tier's fused top-k against core::TopKRow over its own Run, on
// every kernel configuration and thread count. V covers less than one tile,
// a ragged last tile, whole tiles, and a batch above the serial floor on
// both routings, whose multi-thread legs run on the pool; exact ties come
// from duplicated item rows, which quantize to identical codes and scales.
TEST(QuantPlanTest, Int8FusedTopKMatchesTopKRowOnEveryTierAndThreadCount) {
  struct Shape {
    int32_t items;
    int64_t b;
    bool pooled;
  };
  for (const auto [items, b, pooled] :
       {Shape{57, 5, false}, Shape{150, 5, false}, Shape{256, 5, false},
        Shape{20000, 16, true}}) {
    for (core::InterestRouting routing :
         {core::InterestRouting::kMax, core::InterestRouting::kMean}) {
      core::MisslConfig cfg = BaseConfig();
      cfg.routing = routing;
      core::MisslModel model(items, kBehaviors, kMaxLen, cfg);
      model.SetTraining(false);
      Tensor table = model.item_embedding();  // [V, d], shared storage
      float* w = table.data();
      const int64_t d = cfg.dim;
      for (int64_t c : {int64_t{63}, int64_t{items - 1}}) {
        std::copy(w + 3 * d, w + 4 * d, w + std::min<int64_t>(c, items - 1) * d);
      }
      Status status;
      infer::InferConfig icfg;
      icfg.quantize_catalog = true;
      auto plan = infer::PlannedExecutor::Compile(model, b, icfg, &status);
      ASSERT_TRUE(status.ok()) << status.ToString();
      data::Batch batch = MakeBatch(b, 31 + static_cast<uint64_t>(items));
      for (const KernelConfig& kcfg : KernelConfigs()) {
        simd::ScopedTier tier_guard(kcfg.tier);
        simd::ScopedAvxVnni vnni_guard(kcfg.vnni);
        for (int threads : {1, 2, 4}) {
          runtime::ScopedNumThreads thread_guard(threads);
          const std::string where =
              "V=" + std::to_string(items) +
              (routing == core::InterestRouting::kMean ? " mean" : " max") +
              " tier=" + simd::TierName(kcfg.tier) +
              " vnni=" + std::to_string(kcfg.vnni) +
              " threads=" + std::to_string(threads);
          testing::PoolJobCount jobs;
          testing::ExpectRunTopKMatchesTopKRow(plan.get(), batch, where);
          EXPECT_EQ(jobs.opened() > 0, threads > 1 && pooled)
              << jobs.opened() << " pool jobs at " << where;
        }
      }
    }
  }
}

TEST(QuantPlanTest, IntrospectionAndMemoryFootprint) {
  auto model = MakeModel(BaseConfig());
  model->SetTraining(false);
  PlanPair p = CompileBoth(*model, 4);
  ASSERT_NE(p.int8, nullptr);
  EXPECT_FALSE(p.fp32->quantized());
  EXPECT_TRUE(p.int8->quantized());
  std::string dump = p.int8->ToString();
  EXPECT_NE(dump.find("catalog_score_q"), std::string::npos) << dump;
  EXPECT_EQ(p.fp32->ToString().find("catalog_score_q"), std::string::npos);

  const infer::QuantInfo& qi = p.int8->quant_info();
  const int64_t d = BaseConfig().dim;
  EXPECT_EQ(qi.fp32_bytes, int64_t{kItems} * d * 4);
  EXPECT_EQ(qi.int8_bytes, int64_t{kItems} * d + int64_t{kItems} * 4);
  // Catalog memory ratio: 4d / (d + 4) — 3.2x at d = 16, approaching 4x as
  // d grows. The bench (bench_m1_infer) gates the d = 32 serving shape.
  EXPECT_GT(static_cast<double>(qi.fp32_bytes) /
                static_cast<double>(qi.int8_bytes),
            3.0);
  EXPECT_GT(qi.max_scale, 0.0f);
  EXPECT_GE(qi.max_scale, qi.min_scale);
  EXPECT_EQ(qi.zero_rows, 0);  // seeded embeddings: no all-zero item rows
}

// NDCG@10 with the fp32 ranking as ground truth: per row, the "relevant"
// item is the fp32 argmax, so fp32 NDCG@10 is exactly 1 and the int8 score
// directly measures how well quantized scoring preserves the fp32 ranking.
// Overlap@10 is |fp32-top10 ∩ int8-top10| / 10 (a Recall@10 with the fp32
// top-10 as the relevant set). Bounds: seeds 21/28 give 1.0/1.0 locally;
// the gates leave room (>= 0.90 / >= 0.80) for platform fp32 drift in the
// pre-quantization forward without letting a broken tier through (a
// misquantized catalog scores ~0.1 overlap).
TEST(QuantPlanTest, Int8RankingStaysCloseToFp32) {
  auto model = MakeModel(BaseConfig());
  model->SetTraining(false);
  constexpr int64_t kBatch = 24;
  data::Batch batch = MakeBatch(kBatch, 28);
  PlanPair p = CompileBoth(*model, kBatch);
  ASSERT_NE(p.fp32, nullptr);
  ASSERT_NE(p.int8, nullptr);
  std::vector<float> fp32(kBatch * kItems);
  std::memcpy(fp32.data(), p.fp32->Run(batch), fp32.size() * sizeof(float));
  const float* q = p.int8->Run(batch);

  constexpr int32_t kK = 10;
  double ndcg_sum = 0, overlap_sum = 0;
  for (int64_t r = 0; r < kBatch; ++r) {
    std::vector<int32_t> fp_items, q_items;
    std::vector<float> fp_scores, q_scores;
    core::TopKRow(fp32.data() + r * kItems, kItems, nullptr, kK, &fp_items,
                  &fp_scores);
    core::TopKRow(q + r * kItems, kItems, nullptr, kK, &q_items, &q_scores);
    ASSERT_EQ(fp_items.size(), static_cast<size_t>(kK));
    int32_t relevant = fp_items[0];  // fp32 argmax
    double ndcg = 0;
    for (size_t j = 0; j < q_items.size(); ++j) {
      if (q_items[j] == relevant) {
        ndcg = 1.0 / std::log2(static_cast<double>(j) + 2.0);
        break;
      }
    }
    ndcg_sum += ndcg;
    int hits = 0;
    for (int32_t it : q_items) {
      if (std::find(fp_items.begin(), fp_items.end(), it) != fp_items.end()) {
        ++hits;
      }
    }
    overlap_sum += static_cast<double>(hits) / kK;
  }
  double mean_ndcg = ndcg_sum / kBatch;
  double mean_overlap = overlap_sum / kBatch;
  EXPECT_GE(mean_ndcg, 0.90) << "int8 NDCG@10 vs fp32-argmax relevance";
  EXPECT_GE(mean_overlap, 0.80) << "top-10 overlap with the fp32 ranking";
}

// ---------------------------------------------------------------------------
// Serving integration.
// ---------------------------------------------------------------------------

// Live tensor bytes a RecoService::Load adds on top of the model's own
// parameters (the model is built before the reading starts).
int64_t LoadAddedTensorBytes(serve::Precision precision) {
  core::MisslConfig cfg = BaseConfig();
  std::string path = ::testing::TempDir() + "/quant_resident_ckpt.bin";
  EXPECT_TRUE(nn::SaveParameters(*MakeModel(cfg), path).ok());
  serve::ServeConfig sc;
  sc.max_len = kMaxLen;
  sc.max_batch = 4;
  sc.precision = precision;
  auto model = MakeModel(cfg);
  const int64_t before = obs::CurrentMemoryStats().live_bytes;
  Status status;
  auto svc = serve::RecoService::Load(std::move(model), kItems, kBehaviors,
                                      path, sc, &status);
  EXPECT_TRUE(status.ok()) << status.ToString();
  const int64_t added = obs::CurrentMemoryStats().live_bytes - before;
  std::remove(path.c_str());
  return added;
}

TEST(QuantServeTest, Int8ServiceFreesFp32Catalog) {
  // An int8 service scores from its quantized copy only: it keeps no fp32
  // catalog tensor next to the item table it embeds histories with.
  const int64_t added = LoadAddedTensorBytes(serve::Precision::kInt8);
  EXPECT_LT(added, int64_t{kItems} * BaseConfig().dim * 4)
      << "int8 service added " << added << " B of tensors";
}

TEST(QuantServeTest, Fp32ServiceHoldsOneItemTable) {
  // The fp32 catalog score reads the item table the embedding gathers from,
  // so Load keeps no transposed [d, V] copy of it.
  const int64_t added = LoadAddedTensorBytes(serve::Precision::kFp32);
  EXPECT_LT(added, int64_t{kItems} * BaseConfig().dim * 4)
      << "fp32 service added " << added << " B of tensors";
}

TEST(QuantServeTest, Int8ServiceMatchesOfflineInt8Plan) {
  // The serving property: coalescing must not change an int8 answer. Row
  // independence makes every sub-batch bitwise equal to the one-shot full
  // batch through an offline int8 plan, so the comparison is exact.
  core::MisslConfig cfg = BaseConfig();
  auto saved = MakeModel(cfg);
  std::string path = ::testing::TempDir() + "/quant_serve_ckpt.bin";
  ASSERT_TRUE(nn::SaveParameters(*saved, path).ok());

  serve::ServeConfig sc;
  sc.max_len = kMaxLen;
  sc.max_batch = 4;
  sc.max_wait_us = 0;
  sc.precision = serve::Precision::kInt8;
  Status status;
  auto svc = serve::RecoService::Load(MakeModel(cfg), kItems, kBehaviors, path,
                                      sc, &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_TRUE(svc->plan().quantized());

  // Offline reference on the full query set in one batch.
  auto offline = MakeModel(cfg);
  ASSERT_TRUE(nn::LoadParametersForInference(offline.get(), path).ok());
  Rng rng(5);
  std::vector<serve::Query> queries;
  for (int i = 0; i < 12; ++i) {
    serve::Query qq;
    int64_t len = 1 + static_cast<int64_t>(rng.UniformInt(2 * kMaxLen));
    for (int64_t j = 0; j < len; ++j) {
      qq.items.push_back(static_cast<int32_t>(rng.UniformInt(kItems)));
      qq.behaviors.push_back(static_cast<int32_t>(rng.UniformInt(kBehaviors)));
    }
    qq.k = 7;
    queries.push_back(std::move(qq));
  }
  infer::InferConfig icfg;
  icfg.quantize_catalog = true;
  auto plan = infer::PlannedExecutor::Compile(
      *offline, static_cast<int64_t>(queries.size()), icfg, &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  data::Batch batch = serve::BuildQueryBatch(queries, kMaxLen, kBehaviors);
  const float* scores = plan->Run(batch);

  for (size_t i = 0; i < queries.size(); ++i) {
    serve::TopKResult got;
    ASSERT_TRUE(svc->TopK(queries[i], &got).ok());
    std::vector<int32_t> want_items;
    std::vector<float> want_scores;
    core::TopKRow(scores + i * static_cast<size_t>(kItems), kItems, nullptr,
                  queries[i].k, &want_items, &want_scores);
    ASSERT_EQ(got.items.size(), want_items.size()) << "query " << i;
    for (size_t j = 0; j < want_items.size(); ++j) {
      EXPECT_EQ(got.items[j], want_items[j]) << "query " << i << " rank " << j;
      EXPECT_EQ(got.scores[j], want_scores[j])
          << "query " << i << " rank " << j;
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace missl
