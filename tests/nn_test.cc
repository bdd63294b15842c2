// Tests for the nn module layer: registration/traversal, each module's
// forward semantics, masking, GRU recurrence, and checkpoint round-trips.
#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "nn/attention.h"
#include "nn/embedding.h"
#include "nn/gru.h"
#include "nn/init.h"
#include "nn/layernorm.h"
#include "nn/linear.h"
#include "nn/module.h"
#include "nn/serialize.h"
#include "nn/transformer.h"
#include "test_util.h"

namespace missl {
namespace {

using nn::CausalMask;
using nn::Embedding;
using nn::FeedForward;
using nn::GRU;
using nn::KeyPaddingMask;
using nn::LayerNormM;
using nn::Linear;
using nn::Module;
using nn::MultiHeadAttention;
using nn::TransformerConfig;
using nn::TransformerEncoder;

TEST(ModuleTest, ParameterRegistrationAndNames) {
  Rng rng(1);
  Linear fc(4, 3, &rng);
  auto named = fc.NamedParameters();
  ASSERT_EQ(named.size(), 2u);
  EXPECT_EQ(named[0].first, "weight");
  EXPECT_EQ(named[1].first, "bias");
  EXPECT_EQ(fc.NumParams(), 4 * 3 + 3);
  EXPECT_TRUE(named[0].second.requires_grad());
}

TEST(ModuleTest, NestedNamesAndTrainingPropagation) {
  Rng rng(2);
  struct Net : Module {
    Linear a, b;
    Net(Rng* r) : a(2, 2, r), b(2, 2, r, /*bias=*/false) {
      RegisterModule("a", &a);
      RegisterModule("b", &b);
    }
  } net(&rng);
  auto named = net.NamedParameters();
  ASSERT_EQ(named.size(), 3u);
  EXPECT_EQ(named[0].first, "a.weight");
  EXPECT_EQ(named[2].first, "b.weight");
  EXPECT_TRUE(net.training());
  net.SetTraining(false);
  EXPECT_FALSE(net.a.training());
  EXPECT_FALSE(net.b.training());
}

TEST(ModuleTest, ZeroGradClearsAllParams) {
  Rng rng(3);
  Linear fc(3, 2, &rng);
  Tensor x = Tensor::Randn({4, 3}, &rng);
  Sum(fc.Forward(x)).Backward();
  EXPECT_TRUE(fc.weight().has_grad());
  fc.ZeroGrad();
  for (int64_t i = 0; i < fc.weight().numel(); ++i)
    EXPECT_EQ(fc.weight().impl()->grad[static_cast<size_t>(i)], 0.0f);
}

TEST(LinearTest, ForwardMatchesManual) {
  Rng rng(4);
  Linear fc(2, 2, &rng);
  // Overwrite weights for a deterministic check (handles alias storage).
  Tensor w = fc.weight(), b = fc.bias();
  w.CopyFrom({1, 2, 3, 4});  // [in=2, out=2] row-major
  b.CopyFrom({10, 20});
  Tensor x = Tensor::FromData({1, 1}, {1, 2});
  testing::ExpectTensorNear(fc.Forward(x), {1 + 3 + 10, 2 + 4 + 20});
}

TEST(LinearTest, Rank3Input) {
  Rng rng(5);
  Linear fc(4, 3, &rng);
  Tensor x = Tensor::Randn({2, 5, 4}, &rng);
  Tensor y = fc.Forward(x);
  EXPECT_EQ(y.size(0), 2);
  EXPECT_EQ(y.size(1), 5);
  EXPECT_EQ(y.size(2), 3);
}

TEST(LinearTest, GradFlowsToWeights) {
  Rng rng(6);
  Linear fc(3, 2, &rng);
  Tensor x = Tensor::Randn({4, 3}, &rng);
  Sum(Square(fc.Forward(x))).Backward();
  EXPECT_TRUE(fc.weight().has_grad());
  EXPECT_TRUE(fc.bias().has_grad());
}

TEST(EmbeddingTest, LookupShapeAndPadding) {
  Rng rng(7);
  Embedding emb(10, 4, &rng);
  Tensor e = emb.Forward({1, 2, -1, 3, 4, 5}, {2, 3});
  EXPECT_EQ(e.dim(), 3);
  EXPECT_EQ(e.size(2), 4);
  for (int64_t i = 0; i < 4; ++i) EXPECT_EQ(e.at({0, 2, i}), 0.0f);
}

TEST(InitTest, XavierBoundsRespected) {
  Rng rng(8);
  Tensor w = nn::XavierUniform({64, 64}, &rng);
  float bound = std::sqrt(6.0f / 128.0f);
  for (int64_t i = 0; i < w.numel(); ++i) {
    EXPECT_LE(std::fabs(w.data()[i]), bound + 1e-6f);
  }
}

TEST(LayerNormModuleTest, NormalizesAndLearnsAffine) {
  Rng rng(9);
  LayerNormM ln(6);
  Tensor x = Tensor::Randn({3, 6}, &rng, 5.0f);
  Tensor y = ln.Forward(x);
  float mu = 0;
  for (int64_t i = 0; i < 6; ++i) mu += y.data()[i];
  EXPECT_NEAR(mu / 6.0f, 0.0f, 1e-4f);
  EXPECT_EQ(ln.NumParams(), 12);
}

TEST(MaskTest, KeyPaddingMaskMarksNegativeIds) {
  Tensor m = KeyPaddingMask({1, -1, 2, -1, -1, 3}, 2, 3);
  EXPECT_EQ(m.size(0), 2);
  EXPECT_EQ(m.size(1), 1);
  EXPECT_EQ(m.size(2), 3);
  EXPECT_EQ(m.at({0, 0, 0}), 0.0f);
  EXPECT_EQ(m.at({0, 0, 1}), -1e9f);
  EXPECT_EQ(m.at({1, 0, 0}), -1e9f);
  EXPECT_EQ(m.at({1, 0, 2}), 0.0f);
}

TEST(MaskTest, CausalMaskUpperTriangle) {
  Tensor m = CausalMask(3);
  EXPECT_EQ(m.at({0, 0}), 0.0f);
  EXPECT_EQ(m.at({0, 1}), -1e9f);
  EXPECT_EQ(m.at({2, 1}), 0.0f);
  EXPECT_EQ(m.at({1, 2}), -1e9f);
}

TEST(AttentionTest, OutputShape) {
  Rng rng(10);
  MultiHeadAttention mha(8, 2, 0.0f, &rng);
  Tensor x = Tensor::Randn({2, 5, 8}, &rng);
  Tensor y = mha.Forward(x, x, x);
  EXPECT_EQ(y.size(0), 2);
  EXPECT_EQ(y.size(1), 5);
  EXPECT_EQ(y.size(2), 8);
}

TEST(AttentionTest, CrossAttentionDifferentLengths) {
  Rng rng(11);
  MultiHeadAttention mha(8, 2, 0.0f, &rng);
  Tensor q = Tensor::Randn({2, 3, 8}, &rng);
  Tensor kv = Tensor::Randn({2, 7, 8}, &rng);
  Tensor y = mha.Forward(q, kv, kv);
  EXPECT_EQ(y.size(1), 3);
}

TEST(AttentionTest, PaddingMaskBlocksPaddedKeys) {
  // With all keys masked except one, attention output equals that key's
  // value projection regardless of other key contents.
  Rng rng(12);
  MultiHeadAttention mha(4, 1, 0.0f, &rng);
  Tensor q = Tensor::Randn({1, 1, 4}, &rng);
  Tensor kv1 = Tensor::Randn({1, 3, 4}, &rng);
  Tensor kv2 = kv1.Detach();
  // Change masked positions only (positions 1 and 2).
  for (int64_t t = 1; t < 3; ++t)
    for (int64_t d = 0; d < 4; ++d) kv2.data()[t * 4 + d] += 5.0f;
  Tensor mask = KeyPaddingMask({0, -1, -1}, 1, 3);
  Tensor y1 = mha.Forward(q, kv1, kv1, mask);
  Tensor y2 = mha.Forward(q, kv2, kv2, mask);
  for (int64_t i = 0; i < y1.numel(); ++i)
    EXPECT_NEAR(y1.data()[i], y2.data()[i], 1e-4f);
}

TEST(AttentionTest, GradReachesAllProjections) {
  Rng rng(13);
  MultiHeadAttention mha(8, 2, 0.0f, &rng);
  Tensor x = Tensor::Randn({2, 4, 8}, &rng);
  Sum(Square(mha.Forward(x, x, x))).Backward();
  for (const auto& p : mha.Parameters()) EXPECT_TRUE(p.has_grad());
}

TEST(TransformerTest, EncoderShapeAndParamCount) {
  Rng rng(14);
  TransformerConfig cfg;
  cfg.dim = 8;
  cfg.heads = 2;
  cfg.layers = 2;
  cfg.ffn_hidden = 16;
  cfg.dropout = 0.0f;
  TransformerEncoder enc(cfg, &rng);
  Tensor x = Tensor::Randn({3, 6, 8}, &rng);
  Tensor y = enc.Forward(x);
  EXPECT_EQ(y.shape(), x.shape());
  EXPECT_GT(enc.NumParams(), 0);
}

TEST(TransformerTest, CausalEncoderIgnoresFuture) {
  // With a causal mask, output at position 0 must not change when we
  // perturb positions > 0.
  Rng rng(15);
  TransformerConfig cfg;
  cfg.dim = 8;
  cfg.heads = 2;
  cfg.layers = 1;
  cfg.ffn_hidden = 16;
  cfg.dropout = 0.0f;
  cfg.causal = true;
  TransformerEncoder enc(cfg, &rng);
  enc.SetTraining(false);
  Tensor x1 = Tensor::Randn({1, 4, 8}, &rng);
  Tensor x2 = x1.Detach();
  for (int64_t t = 1; t < 4; ++t)
    for (int64_t d = 0; d < 8; ++d) x2.data()[t * 8 + d] += 3.0f;
  Tensor y1 = enc.Forward(x1);
  Tensor y2 = enc.Forward(x2);
  for (int64_t d = 0; d < 8; ++d)
    EXPECT_NEAR(y1.at({0, 0, d}), y2.at({0, 0, d}), 1e-4f);
}

TEST(TransformerTest, FeedForwardShape) {
  Rng rng(16);
  FeedForward ffn(8, 32, 0.0f, &rng);
  Tensor x = Tensor::Randn({2, 3, 8}, &rng);
  EXPECT_EQ(ffn.Forward(x).shape(), x.shape());
}

TEST(GruTest, OutputShapesAndLastState) {
  Rng rng(17);
  GRU gru(6, 10, &rng);
  Tensor x = Tensor::Randn({3, 5, 6}, &rng);
  Tensor last;
  Tensor all = gru.Forward(x, &last);
  EXPECT_EQ(all.size(0), 3);
  EXPECT_EQ(all.size(1), 5);
  EXPECT_EQ(all.size(2), 10);
  EXPECT_EQ(last.size(0), 3);
  EXPECT_EQ(last.size(1), 10);
  // Last slice of `all` equals `last`.
  for (int64_t b = 0; b < 3; ++b)
    for (int64_t d = 0; d < 10; ++d)
      EXPECT_NEAR(all.at({b, 4, d}), last.at({b, d}), 1e-6f);
}

TEST(GruTest, StepIsStateful) {
  Rng rng(18);
  GRU gru(4, 4, &rng);
  Tensor x = Tensor::Randn({2, 4}, &rng);
  Tensor h0 = Tensor::Zeros({2, 4});
  Tensor h1 = gru.Step(x, h0);
  Tensor h2 = gru.Step(x, h1);
  bool differs = false;
  for (int64_t i = 0; i < h1.numel(); ++i)
    differs |= std::fabs(h1.data()[i] - h2.data()[i]) > 1e-6f;
  EXPECT_TRUE(differs);
}

TEST(GruTest, GradFlowsThroughTime) {
  Rng rng(19);
  GRU gru(4, 4, &rng);
  Tensor x = Tensor::Randn({2, 6, 4}, &rng).set_requires_grad(true);
  Tensor last;
  gru.Forward(x, &last);
  Sum(Square(last)).Backward();
  ASSERT_TRUE(x.has_grad());
  // Early timesteps must receive some gradient through the recurrence.
  float g0 = 0;
  for (int64_t d = 0; d < 4; ++d) g0 += std::fabs(x.grad().at({0, 0, d}));
  EXPECT_GT(g0, 0.0f);
}

TEST(SerializeTest, SaveLoadRoundTrip) {
  Rng rng(20);
  TransformerConfig cfg;
  cfg.dim = 8;
  cfg.heads = 2;
  cfg.layers = 1;
  cfg.ffn_hidden = 16;
  TransformerEncoder enc1(cfg, &rng);
  std::string path = ::testing::TempDir() + "/missl_ckpt.bin";
  ASSERT_TRUE(nn::SaveParameters(enc1, path).ok());

  Rng rng2(999);
  TransformerEncoder enc2(cfg, &rng2);
  ASSERT_TRUE(nn::LoadParameters(&enc2, path).ok());
  auto p1 = enc1.NamedParameters();
  auto p2 = enc2.NamedParameters();
  ASSERT_EQ(p1.size(), p2.size());
  for (size_t i = 0; i < p1.size(); ++i) {
    for (int64_t j = 0; j < p1[i].second.numel(); ++j)
      ASSERT_EQ(p1[i].second.data()[j], p2[i].second.data()[j]);
  }
  std::remove(path.c_str());
}

TEST(SerializeTest, LoadRejectsWrongModel) {
  Rng rng(21);
  Linear small(2, 2, &rng);
  std::string path = ::testing::TempDir() + "/missl_ckpt2.bin";
  ASSERT_TRUE(nn::SaveParameters(small, path).ok());
  Linear big(4, 4, &rng);
  Status s = nn::LoadParameters(&big, path);
  EXPECT_FALSE(s.ok());
  std::remove(path.c_str());
}

TEST(SerializeTest, LoadMissingFileFails) {
  Rng rng(22);
  Linear fc(2, 2, &rng);
  Status s = nn::LoadParameters(&fc, "/nonexistent/path/ckpt.bin");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIOError);
}

TEST(SerializeTest, TruncatedFileIsCorruptionNotCrash) {
  Rng rng(23);
  Linear fc(4, 4, &rng);
  std::string path = ::testing::TempDir() + "/missl_ckpt_trunc.bin";
  ASSERT_TRUE(nn::SaveParameters(fc, path).ok());

  // Cut the file at several points (mid-header, mid-name, mid-data): every
  // prefix must fail with a descriptive Corruption status, never crash.
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good());
    std::ostringstream buf;
    buf << in.rdbuf();
    bytes = buf.str();
  }
  ASSERT_GT(bytes.size(), 16u);
  for (size_t cut : {size_t{2}, size_t{9}, size_t{21}, bytes.size() - 5}) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(cut));
    }
    Status s = nn::LoadParameters(&fc, path);
    EXPECT_EQ(s.code(), StatusCode::kCorruption) << "cut at " << cut;
    EXPECT_FALSE(s.ToString().empty());
  }
  std::remove(path.c_str());
}

TEST(SerializeTest, WrongShapeIsDescriptiveError) {
  Rng rng(24);
  // Same parameter names ("weight"/"bias"), transposed shapes.
  Linear saved(2, 3, &rng);
  std::string path = ::testing::TempDir() + "/missl_ckpt_shape.bin";
  ASSERT_TRUE(nn::SaveParameters(saved, path).ok());
  Linear loaded(3, 2, &rng);
  Status s = nn::LoadParameters(&loaded, path);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.ToString().find("shape mismatch"), std::string::npos)
      << s.ToString();
  std::remove(path.c_str());
}

TEST(SerializeTest, ParameterCountMismatchIsDescriptiveError) {
  Rng rng(25);
  TransformerConfig cfg;
  cfg.dim = 4;
  cfg.heads = 1;
  cfg.layers = 1;
  cfg.ffn_hidden = 8;
  TransformerEncoder enc(cfg, &rng);  // many params
  std::string path = ::testing::TempDir() + "/missl_ckpt_count.bin";
  ASSERT_TRUE(nn::SaveParameters(enc, path).ok());
  Linear fc(4, 4, &rng);  // only two params
  Status s = nn::LoadParameters(&fc, path);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.ToString().find("parameter count mismatch"), std::string::npos)
      << s.ToString();
  std::remove(path.c_str());
}

TEST(SerializeTest, GarbageMagicIsCorruption) {
  Rng rng(26);
  Linear fc(2, 2, &rng);
  std::string path = ::testing::TempDir() + "/missl_ckpt_magic.bin";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "not a checkpoint at all";
  }
  Status s = nn::LoadParameters(&fc, path);
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  EXPECT_NE(s.ToString().find("magic"), std::string::npos) << s.ToString();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace missl
