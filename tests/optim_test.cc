// Tests for Adam and gradient clipping — including convergence property
// tests on small least-squares problems.
#include "optim/optimizer.h"

#include <cmath>

#include <gtest/gtest.h>

#include "nn/linear.h"
#include "tensor/ops.h"
#include "test_util.h"

namespace missl {
namespace {

using optim::Adam;
using optim::ClipGradNorm;

// Loss for fitting w to target t: ||w - t||^2.
Tensor QuadLoss(const Tensor& w, const Tensor& t) { return Sum(Square(Sub(w, t))); }

TEST(AdamTest, ConvergesOnQuadratic) {
  Tensor w = Tensor::FromData({4.0f, -4.0f, 2.0f}, {3}, true);
  Tensor t = Tensor::FromData({1.0f, 2.0f, 3.0f}, {3});
  Adam opt({w}, 0.1f);
  for (int i = 0; i < 300; ++i) {
    opt.ZeroGrad();
    QuadLoss(w, t).Backward();
    opt.Step();
  }
  testing::ExpectTensorNear(w, {1.0f, 2.0f, 3.0f}, 1e-2f);
}

TEST(AdamTest, FirstStepSizeBoundedByLr) {
  // Adam's bias-corrected first step is ~lr regardless of gradient scale.
  Tensor w = Tensor::FromData({0.0f}, {1}, true);
  Adam opt({w}, 0.1f);
  Sum(MulScalar(w, 1000.0f)).Backward();
  opt.Step();
  EXPECT_NEAR(w.item(), -0.1f, 1e-3f);
}

TEST(OptimizerTest, SkipsParamsWithoutGrad) {
  Tensor w1 = Tensor::FromData({1.0f}, {1}, true);
  Tensor w2 = Tensor::FromData({1.0f}, {1}, true);
  Adam opt({w1, w2}, 0.5f);
  Sum(w1).Backward();  // only w1 gets grad
  opt.Step();
  // Adam's bias-corrected first step is lr * g / (|g| + eps) = ~lr.
  EXPECT_NEAR(w1.item(), 0.5f, 1e-6f);
  EXPECT_EQ(w2.item(), 1.0f);
}

TEST(ClipTest, NormAboveThresholdIsScaled) {
  Tensor w = Tensor::FromData({0.0f, 0.0f}, {2}, true);
  const std::vector<float> g = {3.0f, 4.0f};  // norm 5
  w.impl()->grad.copy_from(g.data(), 2);
  float pre = ClipGradNorm({w}, 1.0f);
  EXPECT_NEAR(pre, 5.0f, 1e-5f);
  EXPECT_NEAR(w.impl()->grad[0], 0.6f, 1e-5f);
  EXPECT_NEAR(w.impl()->grad[1], 0.8f, 1e-5f);
}

TEST(ClipTest, NormBelowThresholdUntouched) {
  Tensor w = Tensor::FromData({0.0f}, {1}, true);
  const float g = 0.5f;
  w.impl()->grad.copy_from(&g, 1);
  ClipGradNorm({w}, 1.0f);
  EXPECT_EQ(w.impl()->grad[0], 0.5f);
}

TEST(TrainingIntegration, LinearRegressionFitsData) {
  // y = 2x + 1 with Adam on a Linear layer.
  Rng rng(99);
  nn::Linear fc(1, 1, &rng);
  Adam opt(fc.Parameters(), 0.05f);
  std::vector<float> xs, ys;
  for (int i = 0; i < 32; ++i) {
    float x = static_cast<float>(i) / 16.0f - 1.0f;
    xs.push_back(x);
    ys.push_back(2.0f * x + 1.0f);
  }
  Tensor x = Tensor::FromData(xs, {32, 1});
  Tensor y = Tensor::FromData(ys, {32, 1});
  float last_loss = 1e9f;
  for (int epoch = 0; epoch < 400; ++epoch) {
    opt.ZeroGrad();
    Tensor loss = Mean(Square(Sub(fc.Forward(x), y)));
    loss.Backward();
    opt.Step();
    last_loss = loss.item();
  }
  EXPECT_LT(last_loss, 1e-3f);
  EXPECT_NEAR(fc.weight().item(), 2.0f, 0.05f);
  EXPECT_NEAR(fc.bias().item(), 1.0f, 0.05f);
}

// Property sweep: Adam decreases a convex loss across its hyper-parameters
// (default, L2 weight decay, no first moment, fast second moment).
class OptimizerFamily : public ::testing::TestWithParam<int> {};

TEST_P(OptimizerFamily, DecreasesConvexLoss) {
  Tensor w = Tensor::FromData({3.0f, -2.0f}, {2}, true);
  Tensor t = Tensor::Zeros({2});
  const float beta1[] = {0.9f, 0.9f, 0.0f, 0.5f};
  const float beta2[] = {0.999f, 0.999f, 0.999f, 0.9f};
  const float decay[] = {0.0f, 0.01f, 0.0f, 0.0f};
  const int c = GetParam();
  Adam opt({w}, 0.05f, beta1[c], beta2[c], 1e-8f, decay[c]);
  float initial = QuadLoss(w, t).item();
  for (int i = 0; i < 50; ++i) {
    opt.ZeroGrad();
    QuadLoss(w, t).Backward();
    opt.Step();
  }
  EXPECT_LT(QuadLoss(w, t).item(), initial * 0.5f);
}

INSTANTIATE_TEST_SUITE_P(All, OptimizerFamily, ::testing::Range(0, 4));

}  // namespace
}  // namespace missl
