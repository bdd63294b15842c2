// Planned-executor contract tests (src/infer/, docs/INFERENCE.md).
//
// The central property: PlannedExecutor::Run is bitwise identical to the
// training-mode MisslModel::ScoreAllItems forward — the graph path is the
// oracle — across every SIMD tier x thread count, for every model
// configuration the compiler supports. On top of that: plans are reusable
// across batches of varying (smaller) sizes, steady-state Runs perform zero
// allocator traffic, and the arena packs buffers by live range. The served
// answers themselves are compared with the graph forward by serve_test and
// tcp_server_test (through RecommendTopN).
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/missl.h"
#include "data/batch.h"
#include "infer/plan.h"
#include "runtime/runtime.h"
#include "tensor/alloc.h"
#include "tensor/ops.h"
#include "tensor/simd.h"
#include "tensor/tensor.h"
#include "utils/rng.h"
#include "utils/status.h"

#include "test_util.h"

namespace missl {
namespace {

constexpr int32_t kItems = 57;
constexpr int32_t kBehaviors = 3;
constexpr int64_t kMaxLen = 14;

std::unique_ptr<core::MisslModel> MakeModel(const core::MisslConfig& cfg) {
  return std::make_unique<core::MisslModel>(kItems, kBehaviors, kMaxLen, cfg);
}

core::MisslConfig BaseConfig() {
  core::MisslConfig cfg;
  cfg.dim = 16;
  cfg.heads = 2;
  cfg.num_interests = 3;
  cfg.seed = 21;
  return cfg;
}

/// A deterministic inference batch with padding rows, single-behavior rows
/// and repeated items (exercising every hyperedge family and the
/// empty-channel indicator path).
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
    // Row 0 stays fully padded-short (one event); later rows fill more.
    int64_t n = 1 + (row * 5) % kMaxLen;
    for (int64_t i = 0; i < n; ++i) {
      size_t pos = static_cast<size_t>(row * kMaxLen + (kMaxLen - n + i));
      // Bias toward repeats so repeat hyperedges materialize.
      int32_t item = static_cast<int32_t>(rng.UniformInt(kItems / 3));
      int32_t beh = static_cast<int32_t>(rng.UniformInt(kBehaviors));
      if (row % 3 == 1) beh = kBehaviors - 1;  // target-channel-only row
      if (row % 3 == 2) beh = 0;  // aux-only row (empty target channel)
      b.merged_items[pos] = item;
      b.merged_behaviors[pos] = beh;
      b.merged_recency[pos] = static_cast<int32_t>(rng.UniformInt(8));
    }
  }
  return b;
}

/// Compiles a plan for `cfg` and asserts Run == ScoreAllItems bitwise on
/// every tier x thread-count combination.
void ExpectBitwiseParity(const core::MisslConfig& cfg, int64_t batch_size,
                         int64_t max_batch) {
  auto model = MakeModel(cfg);
  model->SetTraining(false);
  data::Batch batch = MakeBatch(batch_size, /*seed=*/cfg.seed + 7);
  Tensor catalog;
  {
    NoGradGuard ng;
    catalog = model->PrecomputeCatalog();
  }
  Status status;
  auto plan =
      infer::PlannedExecutor::Compile(*model, catalog, max_batch, &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_NE(plan, nullptr);

  std::vector<simd::Tier> tiers = {simd::Tier::kScalar};
  if (simd::Avx2Available()) tiers.push_back(simd::Tier::kAvx2);
  // The scalar 1-thread result is the reference semantics; every other
  // (tier, threads) combination must reproduce it exactly, on both paths.
  std::vector<float> reference;
  for (simd::Tier tier : tiers) {
    simd::ScopedTier tier_guard(tier);
    for (int threads : {1, 2, 4}) {
      runtime::ScopedNumThreads thread_guard(threads);
      Tensor oracle;
      {
        NoGradGuard ng;
        oracle = model->ScoreAllItems(batch, kItems, catalog);
      }
      const float* got = plan->Run(batch);
      ASSERT_EQ(oracle.numel(), batch_size * kItems);
      size_t mismatch = 0;
      for (int64_t i = 0; i < oracle.numel(); ++i) {
        if (got[i] != oracle.data()[i]) ++mismatch;
      }
      EXPECT_EQ(mismatch, 0u)
          << mismatch << " of " << oracle.numel()
          << " scores differ from the graph oracle at tier="
          << simd::TierName(tier) << " threads=" << threads;
      if (reference.empty()) {
        reference.assign(oracle.data(), oracle.data() + oracle.numel());
      } else {
        for (int64_t i = 0; i < oracle.numel(); ++i) {
          ASSERT_EQ(oracle.data()[i], reference[static_cast<size_t>(i)])
              << "graph forward itself diverged across tiers/threads at " << i;
        }
      }
    }
  }
}

TEST(PlannedExecutorTest, BitwiseParityDefaultConfig) {
  ExpectBitwiseParity(BaseConfig(), /*batch_size=*/6, /*max_batch=*/6);
}

TEST(PlannedExecutorTest, BitwiseParitySmallerBatchThanCapacity) {
  // Plans compiled for max_batch serve any smaller batch, including b = 1.
  ExpectBitwiseParity(BaseConfig(), /*batch_size=*/1, /*max_batch=*/8);
  ExpectBitwiseParity(BaseConfig(), /*batch_size=*/3, /*max_batch=*/8);

  // One plan through batches of 4 -> 1 -> 4 with fresh histories: buffers
  // share arena bytes across live ranges, so an op that read bytes another
  // buffer (or an earlier, larger Run) left behind would diverge here.
  auto model = MakeModel(BaseConfig());
  model->SetTraining(false);
  Tensor catalog = model->PrecomputeCatalog();
  Status status;
  auto plan = infer::PlannedExecutor::Compile(*model, catalog, 4, &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  const std::pair<int64_t, uint64_t> runs[] = {{4, 101}, {1, 102}, {4, 103}};
  for (const auto& [size, seed] : runs) {
    data::Batch batch = MakeBatch(size, seed);
    Tensor oracle;
    {
      NoGradGuard ng;
      oracle = model->ScoreAllItems(batch, kItems, catalog);
    }
    const float* got = plan->Run(batch);
    for (int64_t i = 0; i < oracle.numel(); ++i) {
      ASSERT_EQ(got[i], oracle.data()[i])
          << "batch of " << size << " (seed " << seed << ") at " << i;
    }
  }
}

TEST(PlannedExecutorTest, BitwiseParityRecency) {
  core::MisslConfig cfg = BaseConfig();
  cfg.use_recency = true;
  ExpectBitwiseParity(cfg, 5, 5);
}

TEST(PlannedExecutorTest, BitwiseParityNoAuxBehaviors) {
  core::MisslConfig cfg = BaseConfig();
  cfg.use_aux_behaviors = false;
  ExpectBitwiseParity(cfg, 5, 5);
}

TEST(PlannedExecutorTest, BitwiseParityNoCommonInterest) {
  core::MisslConfig cfg = BaseConfig();
  cfg.use_common_interest = false;
  ExpectBitwiseParity(cfg, 5, 5);
}

TEST(PlannedExecutorTest, BitwiseParityNoHypergraph) {
  core::MisslConfig cfg = BaseConfig();
  cfg.use_hypergraph = false;
  ExpectBitwiseParity(cfg, 5, 5);
}

TEST(PlannedExecutorTest, BitwiseParityMeanRouting) {
  core::MisslConfig cfg = BaseConfig();
  cfg.routing = core::InterestRouting::kMean;
  ExpectBitwiseParity(cfg, 5, 5);
}

TEST(PlannedExecutorTest, BitwiseParitySingleHeadSingleInterest) {
  core::MisslConfig cfg = BaseConfig();
  cfg.heads = 1;
  cfg.use_multi_interest = false;  // forces K = 1
  ExpectBitwiseParity(cfg, 5, 5);
}

TEST(PlannedExecutorTest, BitwiseParityDeepStack) {
  core::MisslConfig cfg = BaseConfig();
  cfg.seq_layers = 2;
  cfg.hgat_layers = 2;
  ExpectBitwiseParity(cfg, 4, 4);
}

TEST(PlannedExecutorTest, SteadyStateRunsAllocateNothing) {
  auto model = MakeModel(BaseConfig());
  model->SetTraining(false);
  Tensor catalog;
  {
    NoGradGuard ng;
    catalog = model->PrecomputeCatalog();
  }
  Status status;
  auto plan = infer::PlannedExecutor::Compile(*model, catalog, 8, &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  data::Batch big = MakeBatch(8, 11);
  data::Batch small = MakeBatch(3, 12);
  const std::vector<int32_t> excl = {1, 5, 9};
  std::vector<infer::RankSpec> specs(8, infer::RankSpec{10, excl.data(), 3});
  specs[1].k = kItems;  // the largest candidate lists a row can need
  plan->Run(big);  // warmup (first-touch only; the arena exists already)
  plan->RunTopK(big, specs.data());
  alloc::AllocStats before = alloc::GetAllocStats();
  for (int i = 0; i < 20; ++i) {
    plan->Run(i % 2 == 0 ? big : small);
    plan->RunTopK(i % 2 == 0 ? small : big, specs.data());
  }
  alloc::AllocStats after = alloc::GetAllocStats();
  // Zero Storage traffic of ANY kind per steady-state Run or RunTopK: no
  // pool churn, no system allocations. This is the allocation half of the
  // inference contract (the churn gate in bench_m1_alloc holds the
  // end-to-end serve-planned variant of the same property).
  EXPECT_EQ(after.pool_hits - before.pool_hits, 0);
  EXPECT_EQ(after.pool_misses - before.pool_misses, 0);
  EXPECT_EQ(after.system_allocs - before.system_allocs, 0);
}

TEST(PlannedExecutorTest, CompileValidatesInputs) {
  auto model = MakeModel(BaseConfig());
  model->SetTraining(false);
  Tensor catalog;
  {
    NoGradGuard ng;
    catalog = model->PrecomputeCatalog();
  }
  Status status;
  // Bad max_batch.
  EXPECT_EQ(infer::PlannedExecutor::Compile(*model, catalog, 0, &status),
            nullptr);
  EXPECT_FALSE(status.ok());
  // Catalog in the untransposed [V, d] orientation.
  EXPECT_EQ(infer::PlannedExecutor::Compile(*model, Transpose(catalog), 4,
                                            &status),
            nullptr);
  EXPECT_FALSE(status.ok());
  // Undefined catalog.
  EXPECT_EQ(infer::PlannedExecutor::Compile(*model, Tensor(), 4, &status),
            nullptr);
  EXPECT_FALSE(status.ok());
}

TEST(PlannedExecutorTest, PlanIntrospection) {
  auto model = MakeModel(BaseConfig());
  model->SetTraining(false);
  Tensor catalog;
  {
    NoGradGuard ng;
    catalog = model->PrecomputeCatalog();
  }
  Status status;
  auto plan = infer::PlannedExecutor::Compile(*model, catalog, 4, &status);
  ASSERT_TRUE(status.ok());
  EXPECT_GT(plan->num_ops(), 10);
  EXPECT_GT(plan->scratch_bytes(), 0);
  EXPECT_EQ(plan->max_batch(), 4);
  EXPECT_EQ(plan->max_len(), kMaxLen);
  EXPECT_EQ(plan->num_items(), kItems);
  std::string dump = plan->ToString();
  EXPECT_NE(dump.find("embed_sum"), std::string::npos);
  EXPECT_NE(dump.find("catalog_score"), std::string::npos);
  EXPECT_NE(dump.find("interest_extract"), std::string::npos);
}

TEST(PlannedExecutorTest, FusedTopKMatchesTopKRowOnEveryTierAndThreadCount) {
  // V smaller than one tile, a ragged last tile, and whole tiles (which
  // split into up to four stripes at four threads).
  for (int32_t items : {57, 150, 256}) {
    for (core::InterestRouting routing :
         {core::InterestRouting::kMax, core::InterestRouting::kMean}) {
      core::MisslConfig cfg = BaseConfig();
      cfg.routing = routing;
      core::MisslModel model(items, kBehaviors, kMaxLen, cfg);
      model.SetTraining(false);
      Tensor catalog = model.PrecomputeCatalog();
      // Exact ties (item 3's column copied across a tile boundary and to
      // the last item) and a NaN column: max routing turns it into -inf,
      // mean routing keeps the NaN.
      const int64_t d = cfg.dim;
      float* cat = catalog.data();
      for (int64_t j = 0; j < d; ++j) {
        for (int64_t c : {int64_t{63}, int64_t{items - 1}}) {
          cat[j * items + std::min<int64_t>(c, items - 1)] = cat[j * items + 3];
        }
      }
      cat[5] = std::nanf("");
      Status status;
      auto plan = infer::PlannedExecutor::Compile(model, catalog, 6, &status);
      ASSERT_TRUE(status.ok()) << status.ToString();
      data::Batch batch = MakeBatch(5, 31 + static_cast<uint64_t>(items));
      std::vector<simd::Tier> tiers = {simd::Tier::kScalar};
      if (simd::Avx2Available()) tiers.push_back(simd::Tier::kAvx2);
      for (simd::Tier tier : tiers) {
        simd::ScopedTier tier_guard(tier);
        for (int threads : {1, 2, 4}) {
          runtime::ScopedNumThreads thread_guard(threads);
          testing::ExpectRunTopKMatchesTopKRow(
              plan.get(), batch,
              "V=" + std::to_string(items) +
                  (routing == core::InterestRouting::kMean ? " mean"
                                                           : " max") +
                  " tier=" + simd::TierName(tier) +
                  " threads=" + std::to_string(threads));
        }
      }
    }
  }
}

TEST(PlannedExecutorTest, ArenaPacksBuffersByLiveRange) {
  // The serving shape of the large ledger workload: V = 20000, T = 50,
  // d = 32, K = 3, 4 behaviors, max_batch 16. One private region per buffer
  // would need 8.09 MiB. Packed by live range, and with the catalog op
  // scoring into per-stripe tiles instead of a [16·K, V] logits buffer,
  // what remains is mostly Run's [16, V] score sink (1.22 MiB), which
  // serving never touches.
  core::MisslConfig cfg;
  cfg.dim = 32;
  cfg.num_interests = 3;
  core::MisslModel model(20000, 4, 50, cfg);
  model.SetTraining(false);
  Status status;
  auto plan = infer::PlannedExecutor::Compile(model, model.PrecomputeCatalog(),
                                              16, &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_LE(plan->scratch_bytes(), int64_t{3} * 1024 * 1024 / 2)
      << plan->ToString();
}

TEST(PlannedExecutorTest, UnwrittenArenaBytesAreNeverRead) {
  // Compile leaves the arena unwritten, so a recycled pool block hands it
  // whatever bytes it held. Park NaN-filled blocks of the arena's size class
  // in this thread's free list first: any op reading a float the Run did not
  // write — including rows past a smaller batch — turns scores into NaN.
  alloc::ScopedMode mode(alloc::Mode::kPool);
  auto model = MakeModel(BaseConfig());
  model->SetTraining(false);
  Tensor catalog = model->PrecomputeCatalog();
  Status status;
  const int64_t arena_floats =
      infer::PlannedExecutor::Compile(*model, catalog, 8, &status)
          ->scratch_bytes() /
      static_cast<int64_t>(sizeof(float));
  {
    std::vector<Storage> poison(8);
    for (Storage& s : poison) s.assign(arena_floats, std::nanf(""));
  }
  auto plan = infer::PlannedExecutor::Compile(*model, catalog, 8, &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  data::Batch batch = MakeBatch(3, 104);
  Tensor oracle;
  {
    NoGradGuard ng;
    oracle = model->ScoreAllItems(batch, kItems, catalog);
  }
  const float* got = plan->Run(batch);
  for (int64_t i = 0; i < oracle.numel(); ++i) {
    ASSERT_EQ(got[i], oracle.data()[i]) << "score " << i;
  }
}

}  // namespace
}  // namespace missl
