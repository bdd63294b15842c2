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

/// A deterministic inference batch with padding rows, single-behavior rows
/// and repeated items (exercising every hyperedge family and the
/// empty-channel indicator path).
data::Batch MakeBatch(int64_t batch_size, uint64_t seed,
                      int64_t max_len = kMaxLen,
                      int32_t num_behaviors = kBehaviors) {
  Rng rng(seed);
  data::Batch b;
  b.batch_size = batch_size;
  b.max_len = max_len;
  b.num_behaviors = num_behaviors;
  int64_t bt = batch_size * max_len;
  b.merged_items.assign(static_cast<size_t>(bt), -1);
  b.merged_behaviors.assign(static_cast<size_t>(bt), -1);
  b.merged_recency.assign(static_cast<size_t>(bt), -1);
  b.targets.assign(static_cast<size_t>(batch_size), -1);
  b.target_behavior.assign(static_cast<size_t>(batch_size),
                           num_behaviors - 1);
  b.users.resize(static_cast<size_t>(batch_size));
  for (int64_t row = 0; row < batch_size; ++row) {
    b.users[static_cast<size_t>(row)] = static_cast<int32_t>(row);
    // Row 0 stays fully padded-short (one event); later rows fill more.
    int64_t n = 1 + (row * 5) % max_len;
    for (int64_t i = 0; i < n; ++i) {
      size_t pos = static_cast<size_t>(row * max_len + (max_len - n + i));
      // Bias toward repeats so repeat hyperedges materialize.
      int32_t item = static_cast<int32_t>(rng.UniformInt(kItems / 3));
      int32_t beh = static_cast<int32_t>(rng.UniformInt(num_behaviors));
      if (row % 3 == 1) beh = num_behaviors - 1;  // target-channel-only row
      if (row % 3 == 2) beh = 0;  // aux-only row (empty target channel)
      b.merged_items[pos] = item;
      b.merged_behaviors[pos] = beh;
      b.merged_recency[pos] = static_cast<int32_t>(rng.UniformInt(8));
    }
  }
  return b;
}

/// Compiles a plan for `cfg` over `items` items and asserts Run ==
/// ScoreAllItems bitwise on every tier x thread-count combination. The
/// multi-thread legs must open pool jobs exactly when `pooled` says the
/// batch clears the plan's serial floor.
void ExpectBitwiseParity(const core::MisslConfig& cfg, int64_t batch_size,
                         int64_t max_batch, int32_t items = kItems,
                         bool pooled = false) {
  auto model = MakeModel(cfg, items);
  model->SetTraining(false);
  data::Batch batch = MakeBatch(batch_size, /*seed=*/cfg.seed + 7);
  Tensor catalog;
  {
    NoGradGuard ng;
    catalog = model->PrecomputeCatalog();
  }
  Status status;
  auto plan = infer::PlannedExecutor::Compile(*model, max_batch, &status);
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
        oracle = model->ScoreAllItems(batch, items, catalog);
      }
      testing::PoolJobCount jobs;
      const float* got = plan->Run(batch);
      EXPECT_EQ(jobs.opened() > 0, threads > 1 && pooled)
          << jobs.opened() << " pool jobs at threads=" << threads;
      ASSERT_EQ(oracle.numel(), batch_size * items);
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
  // Above kSerialFloorMacs, so the 2- and 4-thread legs run on the pool.
  ExpectBitwiseParity(BaseConfig(), /*batch_size=*/16, /*max_batch=*/16,
                      /*items=*/6000, /*pooled=*/true);
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
  auto plan = infer::PlannedExecutor::Compile(*model, 4, &status);
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
  // Mean routing scores b rows, not b·K: 1.5 M catalog multiply-adds here
  // (b·K·V·d would be 4.6 M), so this batch stays under the serial floor,
  // and 5.1 M at V = 20,000 clears it.
  ExpectBitwiseParity(cfg, 16, 16, /*items=*/6000);
  ExpectBitwiseParity(cfg, 16, 16, /*items=*/20000, /*pooled=*/true);
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
  Status status;
  auto plan = infer::PlannedExecutor::Compile(*model, 8, &status);
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
  Status status;
  // Bad max_batch.
  EXPECT_EQ(infer::PlannedExecutor::Compile(*model, 0, &status), nullptr);
  EXPECT_FALSE(status.ok());
}

TEST(PlannedExecutorTest, PlanIntrospection) {
  auto model = MakeModel(BaseConfig());
  model->SetTraining(false);
  Status status;
  auto plan = infer::PlannedExecutor::Compile(*model, 4, &status);
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
  // V smaller than one tile, a ragged last tile, whole tiles (four stripes),
  // and a batch above the serial floor on both routings, whose multi-thread
  // legs run on the pool.
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
      // Exact ties (item 3's row copied across a tile boundary and to the
      // last item) and a NaN item, outside the histories' [0, kItems / 3)
      // so the encoder never gathers it: max routing turns its score into
      // -inf, mean routing keeps the NaN.
      const int64_t d = cfg.dim;
      Tensor table = model.item_embedding();  // [V, d], shared storage
      float* w = table.data();
      for (int64_t c : {int64_t{63}, int64_t{items - 1}}) {
        std::copy(w + 3 * d, w + 4 * d, w + std::min<int64_t>(c, items - 1) * d);
      }
      w[(items - 2) * d] = std::nanf("");
      Status status;
      auto plan = infer::PlannedExecutor::Compile(model, b, &status);
      ASSERT_TRUE(status.ok()) << status.ToString();
      data::Batch batch = MakeBatch(b, 31 + static_cast<uint64_t>(items));
      std::vector<simd::Tier> tiers = {simd::Tier::kScalar};
      if (simd::Avx2Available()) tiers.push_back(simd::Tier::kAvx2);
      for (simd::Tier tier : tiers) {
        simd::ScopedTier tier_guard(tier);
        for (int threads : {1, 2, 4}) {
          runtime::ScopedNumThreads thread_guard(threads);
          const std::string where =
              "V=" + std::to_string(items) +
              (routing == core::InterestRouting::kMean ? " mean" : " max") +
              " tier=" + simd::TierName(tier) +
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
  auto plan = infer::PlannedExecutor::Compile(model, 16, &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_LE(plan->scratch_bytes(), int64_t{3} * 1024 * 1024 / 2)
      << plan->ToString();
}

TEST(PlannedExecutorTest, SmallBatchesOpenNoPoolJob) {
  // At 4 threads, the serving shapes on either side of kSerialFloorMacs:
  // one open-loop query (b = 1, V = 2,000, T = 20: 0.2 M catalog
  // multiply-adds) and even a full batch there (3.1 M) run on the calling
  // thread alone, a full closed-loop batch (b = 16, V = 20,000, T = 50:
  // 31 M) fans out to the pool.
  runtime::ScopedNumThreads threads(4);
  struct Case {
    int32_t items;
    int64_t t, b;
    bool pooled;
  };
  for (const Case& c : {Case{2000, 20, 1, false}, Case{2000, 20, 16, false},
                        Case{20000, 50, 16, true}}) {
    core::MisslConfig cfg;
    cfg.dim = 32;
    cfg.num_interests = 3;
    core::MisslModel model(c.items, 4, c.t, cfg);
    model.SetTraining(false);
    Status status;
    auto plan = infer::PlannedExecutor::Compile(model, 16, &status);
    ASSERT_TRUE(status.ok()) << status.ToString();
    const data::Batch batch = MakeBatch(c.b, 5, c.t, 4);
    std::vector<infer::RankSpec> specs(static_cast<size_t>(c.b));
    testing::PoolJobCount jobs;
    plan->RunTopK(batch, specs.data());
    EXPECT_EQ(jobs.opened() > 0, c.pooled)
        << jobs.opened() << " pool jobs at V=" << c.items << " b=" << c.b;
  }
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
      infer::PlannedExecutor::Compile(*model, 8, &status)->scratch_bytes() /
      static_cast<int64_t>(sizeof(float));
  {
    std::vector<Storage> poison(8);
    for (Storage& s : poison) s.assign(arena_floats, std::nanf(""));
  }
  auto plan = infer::PlannedExecutor::Compile(*model, 8, &status);
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
