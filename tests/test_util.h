// Shared helpers for the test suite: finite-difference gradient checking,
// tolerant float comparison, the planned executor's top-k parity check, and
// the histogram difference that metric tests assert on.
#ifndef MISSL_TESTS_TEST_UTIL_H_
#define MISSL_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/recommend.h"
#include "data/batch.h"
#include "infer/plan.h"
#include "obs/metrics.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace missl::testing {

/// Checks analytic gradients of `fn` (mapping inputs -> scalar loss) against
/// central finite differences for every element of every input tensor.
/// `fn` must be deterministic and must not capture the inputs' grads.
inline void GradCheck(const std::function<Tensor(const std::vector<Tensor>&)>& fn,
                      std::vector<Tensor> inputs, float eps = 1e-3f,
                      float rtol = 5e-2f, float atol = 1e-3f) {
  for (auto& in : inputs) in.set_requires_grad(true);
  Tensor loss = fn(inputs);
  ASSERT_EQ(loss.numel(), 1) << "GradCheck loss must be scalar";
  loss.Backward();
  for (size_t t = 0; t < inputs.size(); ++t) {
    Tensor& in = inputs[t];
    ASSERT_TRUE(in.has_grad()) << "input " << t << " got no gradient";
    std::vector<float> analytic = in.impl()->grad.ToVector();
    for (int64_t i = 0; i < in.numel(); ++i) {
      float orig = in.data()[i];
      in.data()[i] = orig + eps;
      float fp;
      {
        NoGradGuard ng;
        fp = fn(inputs).item();
      }
      in.data()[i] = orig - eps;
      float fm;
      {
        NoGradGuard ng;
        fm = fn(inputs).item();
      }
      in.data()[i] = orig;
      float numeric = (fp - fm) / (2.0f * eps);
      float a = analytic[static_cast<size_t>(i)];
      float tol = atol + rtol * std::max(std::fabs(a), std::fabs(numeric));
      EXPECT_NEAR(a, numeric, tol)
          << "input " << t << " element " << i << " analytic=" << a
          << " numeric=" << numeric;
    }
  }
}

/// Element-wise tensor comparison with tolerance.
inline void ExpectTensorNear(const Tensor& a, const std::vector<float>& expect,
                             float tol = 1e-5f) {
  ASSERT_EQ(static_cast<size_t>(a.numel()), expect.size());
  for (size_t i = 0; i < expect.size(); ++i) {
    EXPECT_NEAR(a.data()[i], expect[i], tol) << "element " << i;
  }
}

/// Exclusions aimed at the fused top-k's merge-walk: the first and last
/// column of tiles, columns of the ragged last tile, duplicates and ids
/// >= V. Shifted by `row` so batch rows differ; sorted.
inline std::vector<int32_t> TileEdgeExclusions(int64_t num_items, int64_t row) {
  const int64_t tw = infer::PlannedExecutor::kTileCols;
  std::vector<int32_t> ex;
  for (int64_t c : {int64_t{0}, tw - 1, tw, 2 * tw - 1, num_items - 1,
                    num_items - 2, num_items - 1, num_items, num_items + 7}) {
    ex.push_back(static_cast<int32_t>(c + (c < num_items - 2 ? row : 0)));
  }
  std::sort(ex.begin(), ex.end());
  return ex;
}

/// RunTopK must equal core::TopKRow over Run's scores bitwise, in items and
/// scores: for k = 1, 10 and V uniformly, then for a per-row mix of the
/// three, with TileEdgeExclusions on every other row.
inline void ExpectRunTopKMatchesTopKRow(infer::PlannedExecutor* plan,
                                        const data::Batch& batch,
                                        const std::string& where) {
  const int64_t b = batch.batch_size;
  const int32_t v = static_cast<int32_t>(plan->num_items());
  const float* run = plan->Run(batch);
  const std::vector<float> scores(run, run + b * v);
  std::vector<std::vector<int32_t>> excl(static_cast<size_t>(b));
  for (int64_t r = 0; r < b; r += 2) {
    excl[static_cast<size_t>(r)] = TileEdgeExclusions(v, r);
  }
  const int32_t ks[] = {1, 10, v};
  for (int mix = 0; mix < 4; ++mix) {
    std::vector<infer::RankSpec> specs(static_cast<size_t>(b));
    for (int64_t r = 0; r < b; ++r) {
      const std::vector<int32_t>& ex = excl[static_cast<size_t>(r)];
      specs[static_cast<size_t>(r)] = infer::RankSpec{
          ks[mix < 3 ? mix : r % 3], ex.data(),
          static_cast<int64_t>(ex.size())};
    }
    plan->RunTopK(batch, specs.data());
    for (int64_t r = 0; r < b; ++r) {
      const std::vector<int32_t>& ex = excl[static_cast<size_t>(r)];
      std::vector<int32_t> items;
      std::vector<float> want;
      core::TopKRow(scores.data() + r * v, v, ex.empty() ? nullptr : &ex,
                    specs[static_cast<size_t>(r)].k, &items, &want);
      const infer::RankedRow got = plan->ranked(r);
      ASSERT_EQ(got.size, static_cast<int64_t>(items.size()))
          << where << " row " << r << " k " << specs[static_cast<size_t>(r)].k;
      for (int64_t i = 0; i < got.size; ++i) {
        const size_t si = static_cast<size_t>(i);
        ASSERT_EQ(got.items[i].item, items[si])
            << where << " row " << r << " rank " << i;
        ASSERT_EQ(std::memcmp(&got.items[i].score, &want[si], sizeof(float)),
                  0)
            << where << " row " << r << " rank " << i << ": "
            << got.items[i].score << " vs " << want[si];
      }
    }
  }
}

/// The observations made between two snapshots of one histogram.
/// Instruments live for the process and are never zeroed, so a case that
/// checks a histogram's shape subtracts what earlier cases (or an earlier
/// --gtest_repeat run) left in it.
inline obs::HistogramSnapshot HistogramDelta(
    const obs::HistogramSnapshot& before, const obs::HistogramSnapshot& after) {
  obs::HistogramSnapshot d;
  d.count = after.count - before.count;
  d.sum = after.sum - before.sum;
  for (int i = 0; i < obs::Histogram::kNumBuckets; ++i) {
    d.buckets[i] = after.buckets[i] - before.buckets[i];
  }
  return d;
}

}  // namespace missl::testing

#endif  // MISSL_TESTS_TEST_UTIL_H_
