// Tests for forward values and analytic gradients of every tensor op,
// including finite-difference gradient checks over randomized shapes.
#include "tensor/ops.h"

#include <memory>

#include <gtest/gtest.h>

#include "runtime/runtime.h"
#include "tensor/simd.h"
#include "test_util.h"
#include "utils/rng.h"

namespace missl {
namespace {

using testing::ExpectTensorNear;
using testing::GradCheck;

TEST(OpsElementwise, AddSameShape) {
  Tensor a = Tensor::FromData({1, 2}, {2});
  Tensor b = Tensor::FromData({10, 20}, {2});
  ExpectTensorNear(Add(a, b), {11, 22});
}

TEST(OpsElementwise, BroadcastRowVector) {
  Tensor a = Tensor::FromData({1, 2, 3, 4, 5, 6}, {2, 3});
  Tensor b = Tensor::FromData({10, 20, 30}, {3});
  ExpectTensorNear(Add(a, b), {11, 22, 33, 14, 25, 36});
}

TEST(OpsElementwise, BroadcastColumnVector) {
  Tensor a = Tensor::FromData({1, 2, 3, 4, 5, 6}, {2, 3});
  Tensor b = Tensor::FromData({100, 200}, {2, 1});
  ExpectTensorNear(Add(a, b), {101, 102, 103, 204, 205, 206});
}

TEST(OpsElementwise, BroadcastScalar) {
  Tensor a = Tensor::FromData({1, 2}, {2});
  Tensor s = Tensor::Scalar(5);
  ExpectTensorNear(Mul(a, s), {5, 10});
}

TEST(OpsElementwise, Broadcast3dAgainst2d) {
  Tensor a = Tensor::Ones({2, 2, 2});
  Tensor b = Tensor::FromData({1, 2, 3, 4}, {2, 2});
  Tensor c = Mul(a, b);
  ExpectTensorNear(c, {1, 2, 3, 4, 1, 2, 3, 4});
}

TEST(OpsElementwise, SubDivValues) {
  Tensor a = Tensor::FromData({6, 8}, {2});
  Tensor b = Tensor::FromData({2, 4}, {2});
  ExpectTensorNear(Sub(a, b), {4, 4});
  ExpectTensorNear(Div(a, b), {3, 2});
}

TEST(OpsElementwise, OperatorsSugar) {
  Tensor a = Tensor::FromData({1, 2}, {2});
  Tensor b = Tensor::FromData({3, 4}, {2});
  ExpectTensorNear(a + b, {4, 6});
  ExpectTensorNear(a - b, {-2, -2});
  ExpectTensorNear(a * b, {3, 8});
  ExpectTensorNear(a / b, {1.0f / 3.0f, 0.5f});
  ExpectTensorNear(a + 1.0f, {2, 3});
  ExpectTensorNear(a * 2.0f, {2, 4});
  ExpectTensorNear(-a, {-1, -2});
}

TEST(OpsElementwise, UnaryValues) {
  Tensor a = Tensor::FromData({-1, 0, 2}, {3});
  ExpectTensorNear(Square(a), {1, 0, 4});
  ExpectTensorNear(Clamp(a, -0.5f, 1.0f), {-0.5f, 0, 1});
  ExpectTensorNear(Sigmoid(Tensor::Scalar(0.0f)), {0.5f});
  ExpectTensorNear(Tanh(Tensor::Scalar(0.0f)), {0.0f});
  ExpectTensorNear(Exp(Tensor::Scalar(0.0f)), {1.0f});
  ExpectTensorNear(Log(Tensor::Scalar(1.0f)), {0.0f});
}

TEST(OpsElementwise, GeluMatchesReference) {
  // Reference values from the tanh approximation.
  Tensor a = Tensor::FromData({0.0f, 1.0f, -1.0f}, {3});
  Tensor y = Gelu(a);
  EXPECT_NEAR(y.data()[0], 0.0f, 1e-6f);
  EXPECT_NEAR(y.data()[1], 0.841192f, 1e-4f);
  EXPECT_NEAR(y.data()[2], -0.158808f, 1e-4f);
}

TEST(OpsGrad, BinaryOpsGradCheck) {
  Rng rng(7);
  Tensor a = Tensor::Randn({3, 4}, &rng);
  Tensor b = Tensor::Randn({3, 4}, &rng);
  // Shift b away from zero for Div stability.
  for (int64_t i = 0; i < b.numel(); ++i)
    b.data()[i] = b.data()[i] > 0 ? b.data()[i] + 1.0f : b.data()[i] - 1.0f;
  GradCheck([](const std::vector<Tensor>& in) { return Sum(Add(in[0], in[1])); },
            {a.Detach(), b.Detach()});
  GradCheck([](const std::vector<Tensor>& in) { return Sum(Sub(in[0], in[1])); },
            {a.Detach(), b.Detach()});
  GradCheck([](const std::vector<Tensor>& in) { return Sum(Mul(in[0], in[1])); },
            {a.Detach(), b.Detach()});
  GradCheck([](const std::vector<Tensor>& in) { return Sum(Div(in[0], in[1])); },
            {a.Detach(), b.Detach()});
}

TEST(OpsGrad, BroadcastGradReducesCorrectly) {
  Rng rng(11);
  Tensor a = Tensor::Randn({2, 3}, &rng);
  Tensor b = Tensor::Randn({3}, &rng);
  GradCheck([](const std::vector<Tensor>& in) { return Sum(Mul(in[0], in[1])); },
            {a.Detach(), b.Detach()});
  Tensor c = Tensor::Randn({2, 1}, &rng);
  GradCheck([](const std::vector<Tensor>& in) { return Sum(Mul(in[0], in[1])); },
            {a.Detach(), c.Detach()});
  Tensor d = Tensor::Randn({4, 2, 3}, &rng);
  GradCheck([](const std::vector<Tensor>& in) { return Sum(Add(in[0], in[1])); },
            {d.Detach(), a.Detach()});
}

TEST(OpsGrad, UnaryOpsGradCheck) {
  Rng rng(13);
  Tensor a = Tensor::Randn({2, 5}, &rng);
  GradCheck([](const std::vector<Tensor>& in) { return Sum(Gelu(in[0])); },
            {a.Detach()});
  GradCheck([](const std::vector<Tensor>& in) { return Sum(Sigmoid(in[0])); },
            {a.Detach()});
  GradCheck([](const std::vector<Tensor>& in) { return Sum(Tanh(in[0])); },
            {a.Detach()});
  GradCheck([](const std::vector<Tensor>& in) { return Sum(Exp(in[0])); },
            {a.Detach()});
  Tensor pos = Tensor::Rand({6}, &rng, 0.5f, 2.0f);
  GradCheck([](const std::vector<Tensor>& in) { return Sum(Log(in[0])); },
            {pos.Detach()});
  GradCheck([](const std::vector<Tensor>& in) { return Sum(Square(in[0])); },
            {a.Detach()});
}

TEST(OpsGrad, ScalarOpsGradCheck) {
  Rng rng(14);
  Tensor a = Tensor::Randn({2, 5}, &rng);
  // Composed with Square so the incoming gradient varies per element.
  GradCheck(
      [](const std::vector<Tensor>& in) {
        return Sum(Square(AddScalar(in[0], 0.7f)));
      },
      {a.Detach()});
  GradCheck(
      [](const std::vector<Tensor>& in) {
        return Sum(Square(MulScalar(in[0], -1.6f)));
      },
      {a.Detach()});
  GradCheck(
      [](const std::vector<Tensor>& in) { return Sum(Square(Neg(in[0]))); },
      {a.Detach()});
}

TEST(OpsGrad, ClampGradCheck) {
  // Mix of clamped and pass-through elements, all well away from the
  // lo/hi kinks relative to the finite-difference step.
  Tensor a = Tensor::FromData({-2.0f, -0.5f, 0.1f, 0.6f, 1.5f, 3.0f}, {6});
  GradCheck(
      [](const std::vector<Tensor>& in) {
        return Sum(Square(Clamp(in[0], -0.8f, 0.8f)));
      },
      {a.Detach()});
}

TEST(OpsGrad, DropoutGradCheck) {
  Rng rng(15);
  Tensor a = Tensor::Randn({3, 6}, &rng);
  // A fresh generator per invocation keeps the mask identical across the
  // analytic pass and every finite-difference probe.
  GradCheck(
      [](const std::vector<Tensor>& in) {
        Rng mask_rng(55);
        return Sum(Square(Dropout(in[0], 0.4f, true, &mask_rng)));
      },
      {a.Detach()});
}

TEST(OpsMatmul, MatMul2dValues) {
  Tensor a = Tensor::FromData({1, 2, 3, 4}, {2, 2});
  Tensor b = Tensor::FromData({5, 6, 7, 8}, {2, 2});
  ExpectTensorNear(MatMul(a, b), {19, 22, 43, 50});
}

TEST(OpsMatmul, MatMulRectangular) {
  Tensor a = Tensor::FromData({1, 2, 3, 4, 5, 6}, {2, 3});
  Tensor b = Tensor::FromData({1, 0, 0, 1, 1, 1}, {3, 2});
  ExpectTensorNear(MatMul(a, b), {4, 5, 10, 11});
}

TEST(OpsMatmul, BatchedMatMul) {
  Tensor a = Tensor::FromData({1, 0, 0, 1, 2, 0, 0, 2}, {2, 2, 2});
  Tensor b = Tensor::FromData({1, 2, 3, 4, 1, 2, 3, 4}, {2, 2, 2});
  ExpectTensorNear(MatMul(a, b), {1, 2, 3, 4, 2, 4, 6, 8});
}

TEST(OpsMatmul, BatchedTimesShared2d) {
  Tensor a = Tensor::FromData({1, 0, 0, 1, 2, 0, 0, 2}, {2, 2, 2});
  Tensor b = Tensor::FromData({1, 2, 3, 4}, {2, 2});
  ExpectTensorNear(MatMul(a, b), {1, 2, 3, 4, 2, 4, 6, 8});
}

TEST(OpsMatmul, GradCheckAllForms) {
  Rng rng(17);
  Tensor a2 = Tensor::Randn({3, 4}, &rng);
  Tensor b2 = Tensor::Randn({4, 2}, &rng);
  GradCheck(
      [](const std::vector<Tensor>& in) { return Sum(MatMul(in[0], in[1])); },
      {a2.Detach(), b2.Detach()});
  Tensor a3 = Tensor::Randn({2, 3, 4}, &rng);
  Tensor b3 = Tensor::Randn({2, 4, 2}, &rng);
  GradCheck(
      [](const std::vector<Tensor>& in) { return Sum(MatMul(in[0], in[1])); },
      {a3.Detach(), b3.Detach()});
  GradCheck(
      [](const std::vector<Tensor>& in) { return Sum(MatMul(in[0], in[1])); },
      {a3.Detach(), b2.Detach()});
}

TEST(OpsMatmul, TransposeValuesAndGrad) {
  Tensor a = Tensor::FromData({1, 2, 3, 4, 5, 6}, {2, 3});
  ExpectTensorNear(Transpose(a), {1, 4, 2, 5, 3, 6});
  Rng rng(19);
  Tensor b = Tensor::Randn({2, 3, 4}, &rng);
  Tensor bt = Transpose(b);
  EXPECT_EQ(bt.size(0), 2);
  EXPECT_EQ(bt.size(1), 4);
  EXPECT_EQ(bt.size(2), 3);
  GradCheck(
      [](const std::vector<Tensor>& in) {
        return Sum(Mul(Transpose(in[0]), Transpose(in[0])));
      },
      {b.Detach()});
}

TEST(OpsShape, ReshapeInferredDim) {
  Tensor a = Tensor::FromData({1, 2, 3, 4, 5, 6}, {2, 3});
  Tensor r = Reshape(a, {3, -1});
  EXPECT_EQ(r.size(0), 3);
  EXPECT_EQ(r.size(1), 2);
  ExpectTensorNear(r, {1, 2, 3, 4, 5, 6});
}

TEST(OpsShape, SliceMiddleDim) {
  Tensor a = Tensor::FromData({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, {2, 3, 2});
  Tensor s = Slice(a, 1, 1, 3);
  EXPECT_EQ(s.size(1), 2);
  ExpectTensorNear(s, {3, 4, 5, 6, 9, 10, 11, 12});
}

TEST(OpsShape, SliceNegativeIndices) {
  Tensor a = Tensor::FromData({1, 2, 3, 4, 5}, {5});
  ExpectTensorNear(Slice(a, 0, -2, 5), {4, 5});
}

TEST(OpsShape, ConcatDim0AndDim1) {
  Tensor a = Tensor::FromData({1, 2, 3, 4}, {2, 2});
  Tensor b = Tensor::FromData({5, 6}, {1, 2});
  ExpectTensorNear(Concat({a, b}, 0), {1, 2, 3, 4, 5, 6});
  Tensor c = Tensor::FromData({7, 8}, {2, 1});
  ExpectTensorNear(Concat({a, c}, 1), {1, 2, 7, 3, 4, 8});
}

TEST(OpsShape, ShapeOpsGradCheck) {
  Rng rng(23);
  Tensor a = Tensor::Randn({2, 3}, &rng);
  Tensor b = Tensor::Randn({2, 2}, &rng);
  GradCheck(
      [](const std::vector<Tensor>& in) {
        return Sum(Square(Reshape(in[0], {3, 2})));
      },
      {a.Detach()});
  GradCheck(
      [](const std::vector<Tensor>& in) {
        return Sum(Square(Slice(in[0], 1, 0, 2)));
      },
      {a.Detach()});
  GradCheck(
      [](const std::vector<Tensor>& in) {
        return Sum(Square(Concat({in[0], in[1]}, 1)));
      },
      {a.Detach(), b.Detach()});
}

TEST(OpsShape, EmbeddingLookupBasics) {
  Tensor w = Tensor::FromData({1, 2, 3, 4, 5, 6}, {3, 2});
  Tensor e = EmbeddingLookup(w, {0, 2, -1, 1}, {2, 2});
  EXPECT_EQ(e.dim(), 3);
  ExpectTensorNear(e, {1, 2, 5, 6, 0, 0, 3, 4});
}

TEST(OpsShape, EmbeddingLookupGradSkipsPadding) {
  Tensor w = Tensor::FromData({1, 2, 3, 4}, {2, 2}, true);
  Sum(Square(EmbeddingLookup(w, {1, -1, 1}, {3}))).Backward();
  ExpectTensorNear(w.grad(), {0, 0, 12, 16});
}

TEST(OpsReduce, SumMeanAll) {
  Tensor a = Tensor::FromData({1, 2, 3, 4}, {2, 2});
  EXPECT_FLOAT_EQ(Sum(a).item(), 10.0f);
  EXPECT_FLOAT_EQ(Mean(a).item(), 2.5f);
}

TEST(OpsReduce, SumAlongDims) {
  Tensor a = Tensor::FromData({1, 2, 3, 4, 5, 6}, {2, 3});
  ExpectTensorNear(Sum(a, 0, false), {5, 7, 9});
  ExpectTensorNear(Sum(a, 1, false), {6, 15});
  Tensor k = Sum(a, 1, true);
  EXPECT_EQ(k.size(0), 2);
  EXPECT_EQ(k.size(1), 1);
}

TEST(OpsReduce, MeanAlongDim) {
  Tensor a = Tensor::FromData({2, 4, 6, 8}, {2, 2});
  ExpectTensorNear(Mean(a, 1, false), {3, 7});
}

TEST(OpsReduce, MaxValuesArgmaxAndGrad) {
  Tensor a = Tensor::FromData({1, 5, 3, 9, 2, 4}, {2, 3});
  std::vector<int64_t> arg;
  Tensor m = Max(a, 1, false, &arg);
  ExpectTensorNear(m, {5, 9});
  EXPECT_EQ(arg[0], 1);
  EXPECT_EQ(arg[1], 0);
  Tensor w = Tensor::FromData({1, 5, 3, 9, 2, 4}, {2, 3}, true);
  Sum(Max(w, 1, false)).Backward();
  ExpectTensorNear(w.grad(), {0, 1, 0, 1, 0, 0});
}

TEST(OpsReduce, ReduceGradCheck) {
  Rng rng(29);
  Tensor a = Tensor::Randn({2, 3, 2}, &rng);
  GradCheck(
      [](const std::vector<Tensor>& in) {
        return Sum(Square(Sum(in[0], 1, false)));
      },
      {a.Detach()});
  GradCheck(
      [](const std::vector<Tensor>& in) {
        return Sum(Square(Mean(in[0], 2, true)));
      },
      {a.Detach()});
  // Full-tensor Mean (scalar output).
  GradCheck(
      [](const std::vector<Tensor>& in) { return Mean(Square(in[0])); },
      {a.Detach()});
}

TEST(OpsReduce, MaxGradCheck) {
  // Values separated by far more than the finite-difference step so the
  // argmax cannot flip mid-check.
  Tensor a = Tensor::FromData({0.1f, 1.2f, -0.9f, 2.5f, 0.4f, -1.8f}, {2, 3});
  GradCheck(
      [](const std::vector<Tensor>& in) {
        return Sum(Square(Max(in[0], 1, false)));
      },
      {a.Detach()});
}

TEST(OpsNN, SoftmaxRowsSumToOne) {
  Rng rng(31);
  Tensor a = Tensor::Randn({4, 7}, &rng, 3.0f);
  Tensor s = Softmax(a);
  for (int64_t r = 0; r < 4; ++r) {
    float sum = 0;
    for (int64_t i = 0; i < 7; ++i) sum += s.data()[r * 7 + i];
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(OpsNN, SoftmaxNumericallyStableWithLargeInputs) {
  Tensor a = Tensor::FromData({1000.0f, 1001.0f}, {1, 2});
  Tensor s = Softmax(a);
  EXPECT_NEAR(s.data()[0] + s.data()[1], 1.0f, 1e-5f);
  EXPECT_GT(s.data()[1], s.data()[0]);
}

TEST(OpsNN, LogSoftmaxMatchesLogOfSoftmax) {
  Rng rng(37);
  Tensor a = Tensor::Randn({3, 5}, &rng);
  Tensor ls = LogSoftmax(a);
  Tensor s = Softmax(a);
  for (int64_t i = 0; i < a.numel(); ++i)
    EXPECT_NEAR(ls.data()[i], std::log(s.data()[i]), 1e-4f);
}

TEST(OpsNN, SoftmaxGradCheck) {
  Rng rng(41);
  Tensor a = Tensor::Randn({3, 4}, &rng);
  Tensor w = Tensor::Randn({3, 4}, &rng);  // weights make grad non-trivial
  GradCheck(
      [&w](const std::vector<Tensor>& in) { return Sum(Mul(Softmax(in[0]), w)); },
      {a.Detach()});
  GradCheck(
      [&w](const std::vector<Tensor>& in) {
        return Sum(Mul(LogSoftmax(in[0]), w));
      },
      {a.Detach()});
}

TEST(OpsNN, LayerNormNormalizesRows) {
  Rng rng(43);
  Tensor x = Tensor::Randn({5, 8}, &rng, 4.0f);
  Tensor g = Tensor::Ones({8});
  Tensor b = Tensor::Zeros({8});
  Tensor y = LayerNorm(x, g, b);
  for (int64_t r = 0; r < 5; ++r) {
    float mu = 0, var = 0;
    for (int64_t i = 0; i < 8; ++i) mu += y.data()[r * 8 + i];
    mu /= 8;
    for (int64_t i = 0; i < 8; ++i) {
      float c = y.data()[r * 8 + i] - mu;
      var += c * c;
    }
    var /= 8;
    EXPECT_NEAR(mu, 0.0f, 1e-4f);
    EXPECT_NEAR(var, 1.0f, 1e-2f);
  }
}

TEST(OpsNN, LayerNormGradCheck) {
  Rng rng(47);
  Tensor x = Tensor::Randn({3, 6}, &rng);
  Tensor g = Tensor::Rand({6}, &rng, 0.5f, 1.5f);
  Tensor b = Tensor::Randn({6}, &rng);
  Tensor w = Tensor::Randn({3, 6}, &rng);
  GradCheck(
      [&w](const std::vector<Tensor>& in) {
        return Sum(Mul(LayerNorm(in[0], in[1], in[2]), w));
      },
      {x.Detach(), g.Detach(), b.Detach()}, 1e-2f, 8e-2f, 2e-3f);
}

TEST(OpsNN, DropoutIdentityWhenEval) {
  Rng rng(53);
  Tensor x = Tensor::Randn({10}, &rng);
  Tensor y = Dropout(x, 0.5f, /*training=*/false, &rng);
  ExpectTensorNear(y, x.ToVector());
}

TEST(OpsNN, DropoutZeroesAndRescales) {
  Rng rng(59);
  Tensor x = Tensor::Ones({1000});
  Tensor y = Dropout(x, 0.5f, true, &rng);
  int64_t zeros = 0;
  for (int64_t i = 0; i < 1000; ++i) {
    if (y.data()[i] == 0.0f) {
      ++zeros;
    } else {
      EXPECT_NEAR(y.data()[i], 2.0f, 1e-6f);
    }
  }
  EXPECT_GT(zeros, 400);
  EXPECT_LT(zeros, 600);
}

TEST(OpsNN, CrossEntropyKnownValue) {
  // Uniform logits over 4 classes -> loss = log(4).
  Tensor logits = Tensor::Zeros({2, 4});
  Tensor loss = CrossEntropyLoss(logits, {0, 3});
  EXPECT_NEAR(loss.item(), std::log(4.0f), 1e-5f);
}

TEST(OpsNN, CrossEntropyIgnoresNegativeTargets) {
  Tensor logits = Tensor::Zeros({3, 2});
  logits.data()[0] = 10.0f;  // row 0 confidently class 0
  Tensor loss = CrossEntropyLoss(logits, {0, -1, -1});
  EXPECT_LT(loss.item(), 1e-3f);
}

TEST(OpsNN, CrossEntropyGradCheck) {
  Rng rng(61);
  Tensor logits = Tensor::Randn({4, 5}, &rng);
  std::vector<int32_t> targets = {1, 4, -1, 0};
  GradCheck(
      [&targets](const std::vector<Tensor>& in) {
        return CrossEntropyLoss(in[0], targets);
      },
      {logits.Detach()});
}

TEST(OpsNN, L2NormalizeUnitNorm) {
  Tensor x = Tensor::FromData({3, 4, 0, 0.5}, {2, 2});
  Tensor y = L2Normalize(x);
  EXPECT_NEAR(y.data()[0], 0.6f, 1e-5f);
  EXPECT_NEAR(y.data()[1], 0.8f, 1e-5f);
  EXPECT_NEAR(y.data()[2], 0.0f, 1e-5f);
  EXPECT_NEAR(y.data()[3], 1.0f, 1e-5f);
}

TEST(OpsNN, L2NormalizeGradCheck) {
  Rng rng(67);
  Tensor x = Tensor::Rand({3, 4}, &rng, 0.5f, 2.0f);
  Tensor w = Tensor::Randn({3, 4}, &rng);
  GradCheck(
      [&w](const std::vector<Tensor>& in) {
        return Sum(Mul(L2Normalize(in[0]), w));
      },
      {x.Detach()});
}

// Gradchecks under a multi-threaded runtime: the analytic backward passes
// run through ParallelFor with 4 threads while the finite-difference probes
// re-run the forward the same way. Covers the reduction-style backwards
// (scatter-add, matmul dB) whose owner-computes partitioning is easiest to
// get wrong.
TEST(OpsThreaded, EmbeddingScatterAddGradCheckWithDuplicates) {
  runtime::ScopedNumThreads t(4);
  Rng rng(7);
  // Duplicate ids force several contributions into the same weight row.
  std::vector<int32_t> ids = {2, 0, 2, 5, 2, -1, 0, 5};
  GradCheck(
      [ids](const std::vector<Tensor>& in) {
        return Sum(EmbeddingLookup(in[0], ids,
                                   {static_cast<int64_t>(ids.size())}));
      },
      {Tensor::Randn({6, 5}, &rng)});
}

TEST(OpsThreaded, BatchedMatMulGradCheck) {
  runtime::ScopedNumThreads t(4);
  Rng rng(9);
  GradCheck(
      [](const std::vector<Tensor>& in) { return Sum(MatMul(in[0], in[1])); },
      {Tensor::Randn({3, 4, 5}, &rng), Tensor::Randn({3, 5, 2}, &rng)});
  // Shared right operand: dB accumulates across the batch dimension too.
  GradCheck(
      [](const std::vector<Tensor>& in) { return Sum(MatMul(in[0], in[1])); },
      {Tensor::Randn({3, 4, 5}, &rng), Tensor::Randn({5, 2}, &rng)});
}

TEST(OpsThreaded, SoftmaxGradCheck) {
  runtime::ScopedNumThreads t(4);
  Rng rng(10);
  GradCheck(
      [](const std::vector<Tensor>& in) {
        return Sum(Square(Softmax(in[0])));
      },
      {Tensor::Randn({6, 9}, &rng)});
  GradCheck(
      [](const std::vector<Tensor>& in) {
        return Sum(Square(LogSoftmax(in[0])));
      },
      {Tensor::Randn({6, 9}, &rng)});
}

// Gradchecks on the SIMD tier: the same analytic-vs-finite-difference
// probes with the AVX2 kernels active (skipped where unavailable), composed
// with a 4-thread runtime so tier × threading interactions are covered.
// Bitwise tier identity is enforced separately by kernel_property_test;
// these verify the SIMD path's gradients are also *correct*, not just
// consistent.
class OpsSimd : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!simd::Avx2Available()) {
      GTEST_SKIP() << "AVX2 tier not compiled in or not supported";
    }
    tier_ = std::make_unique<simd::ScopedTier>(simd::Tier::kAvx2);
    threads_ = std::make_unique<runtime::ScopedNumThreads>(4);
  }
  std::unique_ptr<simd::ScopedTier> tier_;
  std::unique_ptr<runtime::ScopedNumThreads> threads_;
};

TEST_F(OpsSimd, BinaryOpsGradCheck) {
  Rng rng(41);
  Tensor a = Tensor::Randn({3, 9}, &rng);
  Tensor b = Tensor::Rand({3, 9}, &rng, 0.5f, 2.0f);
  GradCheck([](const std::vector<Tensor>& in) { return Sum(Add(in[0], in[1])); },
            {a.Detach(), b.Detach()});
  GradCheck([](const std::vector<Tensor>& in) { return Sum(Sub(in[0], in[1])); },
            {a.Detach(), b.Detach()});
  GradCheck([](const std::vector<Tensor>& in) { return Sum(Mul(in[0], in[1])); },
            {a.Detach(), b.Detach()});
  GradCheck([](const std::vector<Tensor>& in) { return Sum(Div(in[0], in[1])); },
            {a.Detach(), b.Detach()});
}

TEST_F(OpsSimd, ScalarGradCheck) {
  Rng rng(42);
  Tensor a = Tensor::Randn({2, 17}, &rng);
  GradCheck(
      [](const std::vector<Tensor>& in) {
        return Sum(Square(AddScalar(in[0], -0.4f)));
      },
      {a.Detach()});
  GradCheck(
      [](const std::vector<Tensor>& in) {
        return Sum(Square(MulScalar(in[0], 2.3f)));
      },
      {a.Detach()});
}

TEST_F(OpsSimd, MatMulAllFormsGradCheck) {
  Rng rng(43);
  GradCheck(
      [](const std::vector<Tensor>& in) { return Sum(MatMul(in[0], in[1])); },
      {Tensor::Randn({3, 5}, &rng), Tensor::Randn({5, 9}, &rng)});
  GradCheck(
      [](const std::vector<Tensor>& in) { return Sum(MatMul(in[0], in[1])); },
      {Tensor::Randn({2, 3, 4}, &rng), Tensor::Randn({2, 4, 9}, &rng)});
  GradCheck(
      [](const std::vector<Tensor>& in) { return Sum(MatMul(in[0], in[1])); },
      {Tensor::Randn({2, 3, 4}, &rng), Tensor::Randn({4, 9}, &rng)});
}

TEST_F(OpsSimd, NnOpsGradCheck) {
  Rng rng(44);
  // Moderate logit scale keeps the softmax away from saturation, where
  // float32 finite differences get too noisy for the default tolerance.
  GradCheck(
      [](const std::vector<Tensor>& in) {
        return Sum(Square(Softmax(in[0])));
      },
      {Tensor::Randn({4, 9}, &rng, 0.5f)});
  GradCheck(
      [](const std::vector<Tensor>& in) {
        return Sum(Square(LogSoftmax(in[0])));
      },
      {Tensor::Randn({4, 9}, &rng, 0.5f)});
  GradCheck(
      [](const std::vector<Tensor>& in) {
        return Sum(Square(LayerNorm(in[0], in[1], in[2])));
      },
      {Tensor::Randn({3, 9}, &rng), Tensor::Rand({9}, &rng, 0.5f, 1.5f),
       Tensor::Randn({9}, &rng)});
  std::vector<int32_t> targets = {2, 0, -1, 4};
  GradCheck(
      [targets](const std::vector<Tensor>& in) {
        return CrossEntropyLoss(in[0], targets);
      },
      {Tensor::Randn({4, 9}, &rng)});
  GradCheck(
      [](const std::vector<Tensor>& in) {
        return Sum(Square(L2Normalize(in[0])));
      },
      {Tensor::Randn({3, 9}, &rng)});
}

TEST(OpsDeath, MatMulDimMismatchAborts) {
  Tensor a = Tensor::Zeros({2, 3});
  Tensor b = Tensor::Zeros({2, 2});
  EXPECT_DEATH(MatMul(a, b), "inner-dim");
}

TEST(OpsDeath, IncompatibleBroadcastAborts) {
  Tensor a = Tensor::Zeros({2, 3});
  Tensor b = Tensor::Zeros({2, 4});
  EXPECT_DEATH(Add(a, b), "broadcast");
}

TEST(OpsDeath, ConcatMismatchAborts) {
  Tensor a = Tensor::Zeros({2, 3});
  Tensor b = Tensor::Zeros({2, 4});
  EXPECT_DEATH(Concat({a, b}, 0), "mismatch");
}

// Property sweep: Sum along each dim equals manual accumulation, for a
// variety of shapes.
class SumDimProperty : public ::testing::TestWithParam<int> {};

TEST_P(SumDimProperty, MatchesNaive) {
  Rng rng(100 + GetParam());
  Shape shape = {2 + GetParam() % 3, 3, 2 + GetParam() % 2};
  Tensor a = Tensor::Randn(shape, &rng);
  for (int64_t dim = 0; dim < 3; ++dim) {
    Tensor s = Sum(a, dim, false);
    // naive
    std::vector<float> expect(static_cast<size_t>(s.numel()), 0.0f);
    for (int64_t i = 0; i < shape[0]; ++i)
      for (int64_t j = 0; j < shape[1]; ++j)
        for (int64_t k = 0; k < shape[2]; ++k) {
          float v = a.at({i, j, k});
          int64_t oi;
          if (dim == 0) {
            oi = j * shape[2] + k;
          } else if (dim == 1) {
            oi = i * shape[2] + k;
          } else {
            oi = i * shape[1] + j;
          }
          expect[static_cast<size_t>(oi)] += v;
        }
    for (size_t i = 0; i < expect.size(); ++i)
      EXPECT_NEAR(s.data()[i], expect[i], 1e-4f);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, SumDimProperty, ::testing::Range(0, 6));

}  // namespace
}  // namespace missl
