// Randomized property tests pitting the tensor engine against naive
// reference implementations across many shapes, plus autograd fuzzing on
// randomly composed expression graphs.
#include <cmath>
#include <functional>

#include <gtest/gtest.h>

#include "tensor/broadcast.h"
#include "tensor/ops.h"
#include "test_util.h"
#include "utils/rng.h"

namespace missl {
namespace {

// ---- MatMul vs naive over random shapes --------------------------------------

class MatMulProperty : public ::testing::TestWithParam<int> {};

TEST_P(MatMulProperty, MatchesNaive) {
  Rng rng(1000 + GetParam());
  int64_t m = 1 + static_cast<int64_t>(rng.UniformInt(8));
  int64_t k = 1 + static_cast<int64_t>(rng.UniformInt(8));
  int64_t n = 1 + static_cast<int64_t>(rng.UniformInt(8));
  int64_t batch = 1 + static_cast<int64_t>(rng.UniformInt(3));
  Tensor a = Tensor::Randn({batch, m, k}, &rng);
  Tensor b = Tensor::Randn({batch, k, n}, &rng);
  Tensor c = MatMul(a, b);
  for (int64_t s = 0; s < batch; ++s) {
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < n; ++j) {
        double acc = 0;
        for (int64_t kk = 0; kk < k; ++kk)
          acc += double(a.at({s, i, kk})) * b.at({s, kk, j});
        EXPECT_NEAR(c.at({s, i, j}), acc, 1e-4)
            << "s=" << s << " i=" << i << " j=" << j;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomShapes, MatMulProperty, ::testing::Range(0, 12));

// ---- Broadcasting vs naive ---------------------------------------------------

class BroadcastProperty : public ::testing::TestWithParam<int> {};

TEST_P(BroadcastProperty, MulMatchesNaive) {
  Rng rng(2000 + GetParam());
  // Random pair of broadcast-compatible shapes of rank <= 3.
  int64_t dims[3];
  for (auto& d : dims) d = 1 + static_cast<int64_t>(rng.UniformInt(4));
  Shape sa, sb;
  for (int i = 0; i < 3; ++i) {
    sa.push_back(rng.Bernoulli(0.3f) ? 1 : dims[i]);
    sb.push_back(rng.Bernoulli(0.3f) ? 1 : dims[i]);
  }
  Tensor a = Tensor::Randn(sa, &rng);
  Tensor b = Tensor::Randn(sb, &rng);
  Tensor c = Mul(a, b);
  Shape so = internal::BroadcastShape(sa, sb);
  ASSERT_EQ(c.shape(), so);
  for (int64_t i = 0; i < so[0]; ++i) {
    for (int64_t j = 0; j < so[1]; ++j) {
      for (int64_t k = 0; k < so[2]; ++k) {
        float va = a.at({sa[0] == 1 ? 0 : i, sa[1] == 1 ? 0 : j,
                         sa[2] == 1 ? 0 : k});
        float vb = b.at({sb[0] == 1 ? 0 : i, sb[1] == 1 ? 0 : j,
                         sb[2] == 1 ? 0 : k});
        EXPECT_NEAR(c.at({i, j, k}), va * vb, 1e-5);
      }
    }
  }
}

TEST_P(BroadcastProperty, GradSumsOverBroadcastDims) {
  Rng rng(3000 + GetParam());
  int64_t d0 = 2 + static_cast<int64_t>(rng.UniformInt(3));
  int64_t d1 = 2 + static_cast<int64_t>(rng.UniformInt(3));
  Tensor a = Tensor::Randn({d0, d1}, &rng);
  Tensor b = Tensor::Randn({d1}, &rng);
  testing::GradCheck(
      [](const std::vector<Tensor>& in) {
        return Sum(Square(Mul(in[0], in[1])));
      },
      {a.Detach(), b.Detach()});
}

INSTANTIATE_TEST_SUITE_P(RandomShapes, BroadcastProperty,
                         ::testing::Range(0, 10));

// ---- Autograd fuzz: random op chains pass gradient check ----------------------

class AutogradFuzz : public ::testing::TestWithParam<int> {};

TEST_P(AutogradFuzz, RandomChainGradCheck) {
  Rng shape_rng(4000 + GetParam());
  int64_t rows = 2 + static_cast<int64_t>(shape_rng.UniformInt(3));
  int64_t cols = 2 + static_cast<int64_t>(shape_rng.UniformInt(3));
  Tensor x = Tensor::Rand({rows, cols}, &shape_rng, 0.3f, 1.5f);
  int seed = GetParam();
  auto chain = [seed](const std::vector<Tensor>& in) {
    Rng op_rng(5000 + seed);
    Tensor h = in[0];
    for (int step = 0; step < 4; ++step) {
      switch (op_rng.UniformInt(7)) {
        case 0: h = Sigmoid(h); break;
        case 1: h = Tanh(h); break;
        case 2: h = Gelu(h); break;
        case 3: h = Softmax(h); break;
        case 4: h = AddScalar(Square(h), 0.1f); break;
        case 5: h = L2Normalize(h); break;
        default: h = MulScalar(h, 1.3f); break;
      }
    }
    return Mean(Square(h));
  };
  testing::GradCheck(chain, {x}, 1e-2f, 8e-2f, 2e-3f);
}

INSTANTIATE_TEST_SUITE_P(Chains, AutogradFuzz, ::testing::Range(0, 12));

// ---- Softmax invariances -------------------------------------------------------

class SoftmaxProperty : public ::testing::TestWithParam<int> {};

TEST_P(SoftmaxProperty, ShiftInvariant) {
  Rng rng(6000 + GetParam());
  Tensor a = Tensor::Randn({3, 6}, &rng, 2.0f);
  Tensor s1 = Softmax(a);
  Tensor s2 = Softmax(AddScalar(a, 37.5f));
  for (int64_t i = 0; i < a.numel(); ++i)
    EXPECT_NEAR(s1.data()[i], s2.data()[i], 1e-5f);
}

TEST_P(SoftmaxProperty, OrderPreserving) {
  Rng rng(7000 + GetParam());
  Tensor a = Tensor::Randn({1, 8}, &rng, 3.0f);
  Tensor s = Softmax(a);
  for (int64_t i = 0; i < 8; ++i) {
    for (int64_t j = 0; j < 8; ++j) {
      if (a.data()[i] < a.data()[j]) {
        EXPECT_LE(s.data()[i], s.data()[j]);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SoftmaxProperty, ::testing::Range(0, 6));

// ---- Transpose/reshape round trips -----------------------------------------------

class RoundTripProperty : public ::testing::TestWithParam<int> {};

TEST_P(RoundTripProperty, TransposeTwiceIsIdentity) {
  Rng rng(8000 + GetParam());
  int64_t b = 1 + static_cast<int64_t>(rng.UniformInt(3));
  int64_t m = 1 + static_cast<int64_t>(rng.UniformInt(5));
  int64_t n = 1 + static_cast<int64_t>(rng.UniformInt(5));
  Tensor a = Tensor::Randn({b, m, n}, &rng);
  Tensor t2 = Transpose(Transpose(a));
  for (int64_t i = 0; i < a.numel(); ++i)
    EXPECT_EQ(a.data()[i], t2.data()[i]);
}

TEST_P(RoundTripProperty, ConcatOfSlicesIsIdentity) {
  Rng rng(9000 + GetParam());
  int64_t n = 4 + static_cast<int64_t>(rng.UniformInt(5));
  Tensor a = Tensor::Randn({2, n}, &rng);
  int64_t cut = 1 + static_cast<int64_t>(rng.UniformInt(
      static_cast<uint64_t>(n - 1)));
  Tensor joined = Concat({Slice(a, 1, 0, cut), Slice(a, 1, cut, n)}, 1);
  for (int64_t i = 0; i < a.numel(); ++i)
    EXPECT_EQ(a.data()[i], joined.data()[i]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundTripProperty, ::testing::Range(0, 8));

// ---- Cross-entropy sanity against LogSoftmax composition -----------------------

TEST(CrossEntropyProperty, MatchesComposedDefinition) {
  Rng rng(99);
  Tensor logits = Tensor::Randn({5, 7}, &rng, 2.0f);
  std::vector<int32_t> targets = {0, 3, 6, 2, 5};
  Tensor fused = CrossEntropyLoss(logits, targets);
  Tensor ls = LogSoftmax(logits);
  double manual = 0;
  for (int64_t r = 0; r < 5; ++r)
    manual -= ls.at({r, targets[static_cast<size_t>(r)]});
  EXPECT_NEAR(fused.item(), manual / 5.0, 1e-5);
}

}  // namespace
}  // namespace missl
