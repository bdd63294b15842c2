// Tests for the deterministic parallel runtime: ParallelFor mechanics and
// bitwise 1-vs-2-vs-4-thread equivalence of every parallelized kernel and of
// the evaluator.
#include "runtime/parallel_for.h"
#include "runtime/runtime.h"
#include "runtime/thread_pool.h"

#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/sasrec.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "tensor/ops.h"
#include "utils/check.h"
#include "utils/rng.h"

namespace missl::runtime {
namespace {

// ---- ParallelFor mechanics --------------------------------------------------

TEST(ParallelForTest, EmptyRangeNeverInvokesBody) {
  ScopedNumThreads t(4);
  std::atomic<int> calls{0};
  ParallelFor(0, 0, 8, [&](int64_t, int64_t) { ++calls; });
  ParallelFor(5, 5, 8, [&](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelForTest, RangeSmallerThanGrainIsOneInlineCall) {
  ScopedNumThreads t(4);
  std::vector<std::pair<int64_t, int64_t>> spans;
  const std::thread::id caller = std::this_thread::get_id();
  ParallelFor(3, 7, 100, [&](int64_t b, int64_t e) {
    spans.emplace_back(b, e);  // single call -> no synchronization needed
    EXPECT_EQ(std::this_thread::get_id(), caller)
        << "single chunk must run inline";
  });
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0], (std::pair<int64_t, int64_t>{3, 7}));
}

TEST(ParallelForTest, ChunksCoverRangeExactlyOnce) {
  for (int threads : {1, 2, 4}) {
    ScopedNumThreads t(threads);
    std::vector<int> hits(101, 0);
    std::mutex mu;
    std::vector<std::pair<int64_t, int64_t>> spans;
    ParallelFor(2, 103, 7, [&](int64_t b, int64_t e) {
      EXPECT_LT(b, e);
      for (int64_t i = b; i < e; ++i) ++hits[static_cast<size_t>(i - 2)];
      std::lock_guard<std::mutex> lock(mu);
      spans.emplace_back(b, e);
    });
    for (int h : hits) EXPECT_EQ(h, 1) << "threads=" << threads;
    if (threads == 1) {
      // Serial fallback: the exact pre-runtime path, one call for the range.
      ASSERT_EQ(spans.size(), 1u);
      EXPECT_EQ(spans[0], (std::pair<int64_t, int64_t>{2, 103}));
    } else {
      // With workers, chunk boundaries are a pure function of
      // (begin, end, grain) — the partition must not depend on thread count.
      std::set<std::pair<int64_t, int64_t>> unique(spans.begin(), spans.end());
      EXPECT_EQ(spans.size(), 15u) << "threads=" << threads;
      EXPECT_EQ(unique.size(), spans.size());
      for (const auto& s : spans) EXPECT_LE(s.second - s.first, 7);
    }
  }
}

TEST(ParallelForTest, NestedCallsRunInline) {
  ScopedNumThreads t(4);
  std::atomic<int> inner_calls{0};
  ParallelFor(0, 8, 1, [&](int64_t, int64_t) {
    // A kernel invoked from inside a parallel region must not re-enter the
    // pool; its ParallelFor degenerates to one inline call.
    int local = 0;
    ParallelFor(0, 64, 1, [&](int64_t b, int64_t e) {
      ++local;
      EXPECT_EQ(b, 0);
      EXPECT_EQ(e, 64);
    });
    EXPECT_EQ(local, 1);
    ++inner_calls;
  });
  EXPECT_EQ(inner_calls.load(), 8);
  // Leaving the region restores the caller: a later top-level loop splits
  // into chunks again instead of staying inline.
  std::atomic<int> chunks{0};
  ParallelFor(0, 8, 1, [&](int64_t, int64_t) { ++chunks; });
  EXPECT_GT(chunks.load(), 1);
}

TEST(ParallelForTest, WorkersInheritGradMode) {
  ScopedNumThreads t(4);
  ASSERT_TRUE(GradEnabled());
  NoGradGuard ng;
  std::atomic<int> enabled_count{0};
  ParallelFor(0, 16, 1, [&](int64_t, int64_t) {
    if (GradEnabled()) ++enabled_count;
  });
  EXPECT_EQ(enabled_count.load(), 0)
      << "pool workers must inherit the caller's NoGradGuard state";
}

TEST(ParallelForTest, GradModeRestoredAfterJob) {
  ScopedNumThreads t(2);
  {
    NoGradGuard ng;
    ParallelFor(0, 4, 1, [](int64_t, int64_t) {});
    EXPECT_FALSE(GradEnabled());
  }
  EXPECT_TRUE(GradEnabled());
  // And ops created on workers honor the inherited mode end to end.
  NoGradGuard ng;
  std::vector<Tensor> outs(4, Tensor());
  Rng rng(11);
  Tensor a = Tensor::Randn({4, 8}, &rng, 1.0f, /*requires_grad=*/true);
  ParallelFor(0, 4, 1, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) outs[static_cast<size_t>(i)] = Tanh(a);
  });
  for (const Tensor& o : outs) EXPECT_FALSE(o.requires_grad());
}

TEST(ParallelForDeathTest, CheckFailureInBodyAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        ScopedNumThreads t(2);
        ParallelFor(0, 8, 1, [](int64_t b, int64_t) {
          MISSL_CHECK(b != 5) << "boom in chunk";
        });
      },
      "boom in chunk");
}

TEST(GrainTest, GrainHelpersAreSaneAndPositive) {
  EXPECT_GE(GrainForCost(1), 1);
  EXPECT_GE(GrainForCost(1 << 30), 1);
  EXPECT_EQ(GrainForCost(kMinChunkCost), 1);
  EXPECT_GE(GrainForChunks(0), 1);
  EXPECT_GE(GrainForChunks(1000), 1);
}

TEST(RuntimeTest, ScopedNumThreadsNestsAndRestores) {
  const int process_default = NumThreads();
  {
    ScopedNumThreads outer(3);
    EXPECT_EQ(NumThreads(), 3);
    {
      ScopedNumThreads inner(1);
      EXPECT_EQ(NumThreads(), 1);
    }
    EXPECT_EQ(NumThreads(), 3);
    ScopedNumThreads reset(0);  // n <= 0 selects the process default
    EXPECT_EQ(NumThreads(), process_default);
  }
  EXPECT_EQ(NumThreads(), process_default);
  EXPECT_GE(AvailableCpus(), 1);
}

TEST(RuntimeTest, ScopedNumThreadsScopesOnlyItsOwnThread) {
  const int process_default = NumThreads();
  ScopedNumThreads mine(7);
  int other = 0;
  std::thread([&] { other = NumThreads(); }).join();
  EXPECT_EQ(other, process_default);
  EXPECT_EQ(NumThreads(), 7);
}

// ---- ThreadPool chunk claiming ----------------------------------------------

// Busy-waits about `us` microseconds, so a chunk takes long enough for the
// pool's workers to wake and claim some.
void Spin(int64_t us) {
  const auto end =
      std::chrono::steady_clock::now() + std::chrono::microseconds(us);
  while (std::chrono::steady_clock::now() < end) {
  }
}

TEST(ThreadPoolTest, SlowHelperHoldsOnlyTheChunkItClaimed) {
  // A 64-chunk job at 4 participants in which the first chunk a pool
  // worker runs sleeps 50 ms. Static round-robin would leave that worker
  // 15 more chunks after it wakes; with claiming, the other participants
  // drain the job meanwhile, so it runs exactly the one chunk it claimed.
  constexpr int64_t kChunks = 64;
  const std::thread::id caller = std::this_thread::get_id();
  bool exercised = false;
  for (int attempt = 0; attempt < 5 && !exercised; ++attempt) {
    std::atomic<int> runs[kChunks] = {};
    std::thread::id ran_on[kChunks];
    std::atomic<bool> slept{false};
    std::thread::id slow;
    ThreadPool::Global().Run(kChunks, 4, [&](int64_t c) {
      const std::thread::id me = std::this_thread::get_id();
      ran_on[c] = me;
      runs[c].fetch_add(1);
      if (me != caller && !slept.exchange(true)) {
        slow = me;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      } else {
        Spin(100);
      }
    });
    for (int64_t c = 0; c < kChunks; ++c) {
      EXPECT_EQ(runs[c].load(), 1) << "chunk " << c;
    }
    if (!slept.load()) continue;  // the caller drained the job alone
    exercised = true;
    int slow_chunks = 0;
    for (int64_t c = 0; c < kChunks; ++c) slow_chunks += ran_on[c] == slow;
    EXPECT_EQ(slow_chunks, 1);
  }
  EXPECT_TRUE(exercised) << "no pool worker ran a chunk in 5 jobs";
}

// ---- Bitwise kernel equivalence across thread counts ------------------------

using KernelFn = std::function<Tensor(const std::vector<Tensor>&)>;

// Runs `fn` forward + backward on freshly generated inputs at the given
// thread count and returns every buffer that could differ: the output values
// and each input's gradient.
std::vector<std::vector<float>> RunKernel(const KernelFn& fn,
                                          const std::vector<Shape>& shapes,
                                          int threads) {
  ScopedNumThreads t(threads);
  Rng rng(1234);  // same seed -> identical inputs at every thread count
  std::vector<Tensor> inputs;
  for (const Shape& s : shapes) {
    inputs.push_back(Tensor::Randn(s, &rng, 1.0f, /*requires_grad=*/true));
  }
  Tensor out = fn(inputs);
  Sum(out).Backward();
  std::vector<std::vector<float>> buffers;
  buffers.push_back(out.ToVector());
  for (const Tensor& in : inputs) {
    EXPECT_TRUE(in.has_grad());
    buffers.push_back(in.impl()->grad.ToVector());
  }
  return buffers;
}

void ExpectBitwiseEqualAcrossThreads(const KernelFn& fn,
                                     const std::vector<Shape>& shapes) {
  auto ref = RunKernel(fn, shapes, 1);
  for (int threads : {2, 4}) {
    auto got = RunKernel(fn, shapes, threads);
    ASSERT_EQ(got.size(), ref.size());
    for (size_t b = 0; b < ref.size(); ++b) {
      ASSERT_EQ(got[b].size(), ref[b].size()) << "buffer " << b;
      EXPECT_EQ(std::memcmp(got[b].data(), ref[b].data(),
                            sizeof(float) * ref[b].size()),
                0)
          << "buffer " << b << " differs at threads=" << threads;
    }
  }
}

TEST(KernelBitwiseTest, MatMul2d) {
  ExpectBitwiseEqualAcrossThreads(
      [](const std::vector<Tensor>& in) { return MatMul(in[0], in[1]); },
      {{37, 19}, {19, 23}});
}

TEST(KernelBitwiseTest, MatMul3dBatched) {
  ExpectBitwiseEqualAcrossThreads(
      [](const std::vector<Tensor>& in) { return MatMul(in[0], in[1]); },
      {{5, 17, 11}, {5, 11, 13}});
}

TEST(KernelBitwiseTest, MatMul3dSharedRhs) {
  ExpectBitwiseEqualAcrossThreads(
      [](const std::vector<Tensor>& in) { return MatMul(in[0], in[1]); },
      {{5, 17, 11}, {11, 13}});
}

TEST(KernelBitwiseTest, Softmax) {
  ExpectBitwiseEqualAcrossThreads(
      [](const std::vector<Tensor>& in) { return Softmax(in[0]); }, {{33, 21}});
}

TEST(KernelBitwiseTest, LogSoftmax) {
  ExpectBitwiseEqualAcrossThreads(
      [](const std::vector<Tensor>& in) { return LogSoftmax(in[0]); },
      {{33, 21}});
}

TEST(KernelBitwiseTest, LayerNorm) {
  ExpectBitwiseEqualAcrossThreads(
      [](const std::vector<Tensor>& in) {
        return LayerNorm(in[0], in[1], in[2]);
      },
      {{29, 16}, {16}, {16}});
}

TEST(KernelBitwiseTest, ElementwiseSameShape) {
  ExpectBitwiseEqualAcrossThreads(
      [](const std::vector<Tensor>& in) {
        return Mul(Add(in[0], in[1]), in[1]);
      },
      {{9, 41}, {9, 41}});
}

TEST(KernelBitwiseTest, ElementwiseBroadcast) {
  ExpectBitwiseEqualAcrossThreads(
      [](const std::vector<Tensor>& in) { return Add(in[0], in[1]); },
      {{9, 41}, {41}});
}

TEST(KernelBitwiseTest, UnaryOps) {
  ExpectBitwiseEqualAcrossThreads(
      [](const std::vector<Tensor>& in) { return Gelu(Tanh(in[0])); },
      {{13, 57}});
}

TEST(KernelBitwiseTest, EmbeddingGatherScatterWithDuplicatesAndPadding) {
  // Duplicate ids exercise the owner-computes scatter-add; -1 is padding.
  std::vector<int32_t> ids = {3, 0, 3, 7, -1, 3, 1, 7, -1, 0, 5, 3};
  ExpectBitwiseEqualAcrossThreads(
      [ids](const std::vector<Tensor>& in) {
        return EmbeddingLookup(in[0], ids,
                               {static_cast<int64_t>(ids.size())});
      },
      {{8, 24}});
}

TEST(KernelBitwiseTest, TransformerStyleComposite) {
  // A fused slice of real model compute: attention-ish matmul chain through
  // softmax and layernorm, everything parallel at once.
  ExpectBitwiseEqualAcrossThreads(
      [](const std::vector<Tensor>& in) {
        Tensor att = Softmax(MatMul(in[0], Transpose(in[0])));
        Tensor mixed = MatMul(att, in[0]);
        return LayerNorm(mixed, in[1], in[2]);
      },
      {{4, 12, 16}, {16}, {16}});
}

// ---- Evaluator equivalence across thread counts -----------------------------

class EvaluatorThreadsTest : public ::testing::Test {
 protected:
  static data::Dataset MakeDs() {
    data::SyntheticConfig cfg;
    cfg.num_users = 40;
    cfg.num_items = 120;
    cfg.min_events = 12;
    cfg.max_events = 24;
    cfg.seed = 77;
    return data::GenerateSynthetic(cfg);
  }

  static eval::EvalResult RunEval(const data::Dataset& ds,
                                  const data::SplitView& split,
                                  eval::CandidateMode mode, int threads) {
    ScopedNumThreads t(threads);
    eval::EvalConfig ec;
    ec.num_negatives = 30;
    ec.max_len = 12;
    ec.batch_size = 8;  // several batches -> real parallel fan-out
    ec.mode = mode;
    eval::Evaluator evaluator(ds, split, ec);
    baselines::SasRecConfig mc;
    mc.dim = 16;
    mc.heads = 2;
    mc.layers = 1;
    baselines::SasRec model(ds.num_items(), ec.max_len, mc);
    return evaluator.Evaluate(&model, /*test=*/true);
  }
};

TEST_F(EvaluatorThreadsTest, SampledMetricsIdenticalAtAnyThreadCount) {
  data::Dataset ds = MakeDs();
  data::SplitView split(ds);
  eval::EvalResult ref =
      RunEval(ds, split, eval::CandidateMode::kUniformNegatives, 1);
  EXPECT_GT(ref.num_users, 0);
  for (int threads : {2, 4}) {
    eval::EvalResult got =
        RunEval(ds, split, eval::CandidateMode::kUniformNegatives, threads);
    EXPECT_EQ(ref.num_users, got.num_users);
    EXPECT_EQ(ref.hr5, got.hr5) << "threads=" << threads;
    EXPECT_EQ(ref.hr10, got.hr10) << "threads=" << threads;
    EXPECT_EQ(ref.hr20, got.hr20) << "threads=" << threads;
    EXPECT_EQ(ref.ndcg5, got.ndcg5) << "threads=" << threads;
    EXPECT_EQ(ref.ndcg10, got.ndcg10) << "threads=" << threads;
    EXPECT_EQ(ref.ndcg20, got.ndcg20) << "threads=" << threads;
    EXPECT_EQ(ref.mrr, got.mrr) << "threads=" << threads;
  }
}

TEST_F(EvaluatorThreadsTest, FullRankingMetricsIdenticalAtAnyThreadCount) {
  data::Dataset ds = MakeDs();
  data::SplitView split(ds);
  eval::EvalResult ref =
      RunEval(ds, split, eval::CandidateMode::kFullRanking, 1);
  EXPECT_GT(ref.num_users, 0);
  for (int threads : {2, 4}) {
    eval::EvalResult got =
        RunEval(ds, split, eval::CandidateMode::kFullRanking, threads);
    EXPECT_EQ(ref.mrr, got.mrr) << "threads=" << threads;
    EXPECT_EQ(ref.ndcg10, got.ndcg10) << "threads=" << threads;
    EXPECT_EQ(ref.hr10, got.hr10) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace missl::runtime
