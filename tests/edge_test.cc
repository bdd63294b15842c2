// Edge cases and failure injection across the stack: degenerate batch
// shapes, empty channels, corrupted checkpoints, and protocol boundaries.
#include <cstdio>

#include <gtest/gtest.h>

#include "baselines/zoo.h"
#include "core/missl.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "nn/gru.h"
#include "nn/serialize.h"
#include "nn/transformer.h"
#include "train/trainer.h"
#include <unistd.h>

namespace missl {
namespace {

data::Dataset TinyDs() {
  data::SyntheticConfig cfg;
  cfg.num_users = 20;
  cfg.num_items = 60;
  cfg.min_events = 10;
  cfg.max_events = 20;
  cfg.seed = 77;
  return data::GenerateSynthetic(cfg);
}

TEST(EdgeTest, BatchOfOneWorksEverywhere) {
  data::Dataset ds = TinyDs();
  data::SplitView split(ds);
  data::BatchBuilder builder(ds, 8);
  data::Batch b = builder.Build({split.train_examples[0]});
  EXPECT_EQ(b.batch_size, 1);
  for (const auto& name : baselines::ModelZooNames()) {
    baselines::ZooConfig zc;
    zc.dim = 8;
    zc.max_len = 8;
    zc.num_interests = 2;
    auto model = baselines::CreateModel(name, ds, zc);
    EXPECT_TRUE(std::isfinite(model->Loss(b).item())) << name;
    NoGradGuard ng;
    model->SetTraining(false);
    Tensor s = model->ScoreCandidates(b, {1, 2, 3}, 3);
    EXPECT_EQ(s.size(0), 1) << name;
  }
}

TEST(EdgeTest, MaxLenLargerThanAnyHistory) {
  data::Dataset ds = TinyDs();
  data::SplitView split(ds);
  data::BatchBuilder builder(ds, 200);  // far beyond max_events
  data::Batch b = builder.Build({split.train_examples[0]});
  // Leading positions must all be padding.
  EXPECT_EQ(b.merged_items[0], -1);
  core::MisslConfig cfg;
  cfg.dim = 8;
  cfg.num_interests = 2;
  core::MisslModel model(ds.num_items(), ds.num_behaviors(), 200, cfg);
  EXPECT_TRUE(std::isfinite(model.Loss(b).item()));
}

TEST(EdgeTest, MisslHandlesRowWithNoAuxEvents) {
  // Hand-build a dataset where one user's history before the cut is
  // target-behavior only, and another's has no target-behavior event.
  data::Dataset ds(3, 20, 2, "noaux");
  int64_t t = 0;
  // user 0: cart-only history.
  for (int item : {1, 2, 3, 4, 5}) {
    ds.Add({0, item, data::Behavior::kCart, t++});
  }
  // user 1: mixed history (keeps the dataset generally sane).
  for (int item : {6, 7, 8}) {
    ds.Add({1, item, data::Behavior::kClick, t++});
    ds.Add({1, item, data::Behavior::kCart, t++});
  }
  // user 2: click-only history before a cart target.
  for (int item : {9, 10, 11, 12}) {
    ds.Add({2, item, data::Behavior::kClick, t++});
  }
  ds.Add({2, 13, data::Behavior::kCart, t++});
  ds.Finalize();
  data::BatchBuilder builder(ds, 6);
  data::Batch b = builder.Build({{0, 4}, {1, 5}, {2, 4}});
  core::MisslConfig cfg;
  cfg.dim = 8;
  cfg.num_interests = 2;
  core::MisslModel model(ds.num_items(), ds.num_behaviors(), 6, cfg);
  Tensor loss = model.Loss(b);
  EXPECT_TRUE(std::isfinite(loss.item()));
  // With the aux channels and the common interest off, UserInterests is the
  // target channel's extraction alone. User 2 has no target-behavior event,
  // so its interests must be exactly zero (indicator), not an attention
  // average over masked positions. Every weight is drawn non-zero, as after
  // training: at init the zero biases and LayerNorm shifts encode an empty
  // row to zeros, and that average would read zero too.
  cfg.use_aux_behaviors = false;
  cfg.use_common_interest = false;
  core::MisslModel target_only(ds.num_items(), ds.num_behaviors(), 6, cfg);
  Rng rng(5);
  for (Tensor& p : target_only.Parameters()) {
    for (int64_t i = 0; i < p.numel(); ++i) p.data()[i] = rng.Uniform() - 0.5f;
  }
  Tensor v = target_only.UserInterests(b);
  for (int64_t k = 0; k < 2; ++k) {
    for (int64_t d = 0; d < 8; ++d) {
      EXPECT_EQ(v.at({2, k, d}), 0.0f);
    }
  }
}

TEST(EdgeTest, EvaluateEmptySubsetGivesZeroUsers) {
  data::Dataset ds = TinyDs();
  data::SplitView split(ds);
  eval::EvalConfig ec;
  ec.max_len = 8;
  ec.num_negatives = 10;
  eval::Evaluator ev(ds, split, ec);
  baselines::ZooConfig zc;
  zc.dim = 8;
  zc.max_len = 8;
  auto model = baselines::CreateModel("POP", ds, zc);
  eval::EvalResult r = ev.EvaluateSubset(model.get(), {}, true);
  EXPECT_EQ(r.num_users, 0);
  EXPECT_EQ(r.hr10, 0.0);
}

TEST(EdgeTest, CorruptedCheckpointRejected) {
  Rng rng(1);
  nn::GRU gru(4, 4, &rng);
  std::string path = ::testing::TempDir() + "/corrupt.bin";
  ASSERT_TRUE(nn::SaveParameters(gru, path).ok());
  // Truncate the file mid-payload.
  {
    std::FILE* f = std::fopen(path.c_str(), "r+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    long size = std::ftell(f);
    std::fclose(f);
    ASSERT_EQ(truncate(path.c_str(), size / 2), 0);
  }
  nn::GRU fresh(4, 4, &rng);
  Status s = nn::LoadParameters(&fresh, path);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(EdgeTest, CheckpointWithFlippedMagicRejected) {
  Rng rng(2);
  nn::GRU gru(3, 3, &rng);
  std::string path = ::testing::TempDir() + "/badmagic.bin";
  ASSERT_TRUE(nn::SaveParameters(gru, path).ok());
  {
    std::FILE* f = std::fopen(path.c_str(), "r+");
    std::fputc('X', f);
    std::fclose(f);
  }
  Status s = nn::LoadParameters(&gru, path);
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(EdgeTest, GruSequenceLengthOne) {
  Rng rng(3);
  nn::GRU gru(4, 6, &rng);
  Tensor x = Tensor::Randn({2, 1, 4}, &rng);
  Tensor last;
  Tensor all = gru.Forward(x, &last);
  EXPECT_EQ(all.size(1), 1);
  for (int64_t i = 0; i < last.numel(); ++i)
    EXPECT_NEAR(all.data()[i], last.data()[i], 1e-6f);
}

TEST(EdgeTest, TransformerAllPaddedRowStaysFinite) {
  Rng rng(4);
  nn::TransformerConfig cfg;
  cfg.dim = 8;
  cfg.heads = 2;
  cfg.layers = 1;
  cfg.ffn_hidden = 16;
  cfg.dropout = 0.0f;
  nn::TransformerEncoder enc(cfg, &rng);
  enc.SetTraining(false);
  Tensor x = Tensor::Randn({2, 4, 8}, &rng);
  // Row 0 fully padded.
  std::vector<int32_t> ids = {-1, -1, -1, -1, 1, 2, 3, 4};
  Tensor y = enc.Forward(x, nn::KeyPaddingMask(ids, 2, 4));
  for (int64_t i = 0; i < y.numel(); ++i)
    EXPECT_TRUE(std::isfinite(y.data()[i]));
}

TEST(EdgeTest, TwoBehaviorDatasetEndToEnd) {
  data::SyntheticConfig cfg;
  cfg.num_users = 30;
  cfg.num_items = 80;
  cfg.num_behaviors = 2;
  cfg.min_events = 10;
  cfg.max_events = 20;
  cfg.seed = 5;
  data::Dataset ds = data::GenerateSynthetic(cfg);
  data::SplitView split(ds);
  eval::EvalConfig ec;
  ec.max_len = 10;
  ec.num_negatives = 10;
  eval::Evaluator ev(ds, split, ec);
  core::MisslConfig mcfg;
  mcfg.dim = 8;
  mcfg.num_interests = 2;
  core::MisslModel model(ds.num_items(), ds.num_behaviors(), 10, mcfg);
  train::TrainConfig tc;
  tc.max_epochs = 1;
  tc.max_len = 10;
  tc.batch_size = 16;
  train::TrainResult r = train::Fit(&model, ds, split, ev, tc);
  EXPECT_GT(r.test.num_users, 0);
}

TEST(EdgeDeathTest, BatchBuilderRejectsCutZero) {
  data::Dataset ds = TinyDs();
  data::BatchBuilder builder(ds, 8);
  EXPECT_DEATH(builder.Build({{0, 0}}), "bad cut");
}

TEST(EdgeDeathTest, EvaluatorRejectsIneligibleUser) {
  data::Dataset ds(2, 30, 2, "sparse");
  ds.Add({0, 1, data::Behavior::kClick, 0});
  ds.Add({0, 2, data::Behavior::kCart, 1});
  for (int i = 0; i < 8; ++i) {
    ds.Add({1, 3 + i, data::Behavior::kClick, 2 + 2 * i});
    ds.Add({1, 3 + i, data::Behavior::kCart, 3 + 2 * i});
  }
  ds.Finalize();
  data::SplitView split(ds);
  ASSERT_EQ(split.test_pos[0], -1);  // user 0 excluded
  eval::EvalConfig ec;
  ec.max_len = 8;
  ec.num_negatives = 5;
  eval::Evaluator ev(ds, split, ec);
  baselines::ZooConfig zc;
  auto model = baselines::CreateModel("POP", ds, zc);
  EXPECT_DEATH(ev.EvaluateSubset(model.get(), {0}, true), "not eligible");
}

}  // namespace
}  // namespace missl
