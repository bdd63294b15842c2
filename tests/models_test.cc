// Cross-model contract tests: every model in the zoo must produce a finite
// loss that decreases under a few optimizer steps, score candidates with the
// right shape, route gradients into all parameters, and behave
// deterministically given a seed. Plus MISSL-specific behaviors (ablation
// switches, interest extraction).
#include <memory>

#include <gtest/gtest.h>

#include "baselines/cl4srec.h"
#include "baselines/zoo.h"
#include "core/missl.h"
#include "data/batch.h"
#include "data/synthetic.h"
#include "optim/optimizer.h"
#include "test_util.h"

namespace missl {
namespace {

using baselines::CreateModel;
using baselines::ModelZooNames;
using baselines::ZooConfig;

struct Fixture {
  data::Dataset ds;
  data::SplitView split;
  data::BatchBuilder builder;
  data::Batch batch;

  explicit Fixture(int32_t behaviors = 4)
      : ds(MakeDataset(behaviors)), split(ds), builder(ds, 12),
        batch(MakeBatch()) {}

  static data::Dataset MakeDataset(int32_t behaviors) {
    data::SyntheticConfig cfg;
    cfg.num_users = 40;
    cfg.num_items = 80;
    cfg.num_clusters = 8;
    cfg.num_behaviors = behaviors;
    cfg.min_events = 15;
    cfg.max_events = 30;
    cfg.seed = 5;
    return data::GenerateSynthetic(cfg);
  }

  data::Batch MakeBatch() {
    std::vector<data::SplitView::TrainExample> ex(
        split.train_examples.begin(),
        split.train_examples.begin() +
            std::min<size_t>(8, split.train_examples.size()));
    return builder.Build(ex);
  }

  ZooConfig zoo() const {
    ZooConfig zc;
    zc.dim = 16;
    zc.max_len = 12;
    zc.num_interests = 2;
    return zc;
  }
};

class ZooContract : public ::testing::TestWithParam<std::string> {};

TEST_P(ZooContract, LossIsFiniteAndPositive) {
  Fixture f;
  auto model = CreateModel(GetParam(), f.ds,
                           f.zoo());
  Tensor loss = model->Loss(f.batch);
  EXPECT_EQ(loss.numel(), 1);
  EXPECT_TRUE(std::isfinite(loss.item()));
  if (model->Parameters().empty()) {
    // Statistics-based references have nothing to optimize.
    EXPECT_EQ(loss.item(), 0.0f);
  } else {
    EXPECT_GT(loss.item(), 0.0f);
  }
}

TEST_P(ZooContract, LossDecreasesUnderTraining) {
  Fixture f;
  auto model = CreateModel(GetParam(), f.ds,
                           f.zoo());
  if (model->Parameters().empty()) {
    GTEST_SKIP() << GetParam() << " is a non-learned reference";
  }
  optim::Adam opt(model->Parameters(), 5e-3f);
  float first = 0.0f, last = 0.0f;
  for (int step = 0; step < 12; ++step) {
    opt.ZeroGrad();
    Tensor loss = model->Loss(f.batch);
    if (step == 0) first = loss.item();
    last = loss.item();
    loss.Backward();
    opt.Step();
  }
  EXPECT_LT(last, first) << GetParam() << " failed to reduce its own loss";
}

TEST_P(ZooContract, ScoreCandidatesShapeAndFinite) {
  Fixture f;
  auto model = CreateModel(GetParam(), f.ds,
                           f.zoo());
  model->SetTraining(false);
  NoGradGuard ng;
  int64_t c = 5;
  std::vector<int32_t> cands;
  for (int64_t row = 0; row < f.batch.batch_size; ++row)
    for (int64_t j = 0; j < c; ++j)
      cands.push_back(static_cast<int32_t>((row * c + j) % f.ds.num_items()));
  Tensor s = model->ScoreCandidates(f.batch, cands, c);
  ASSERT_EQ(s.dim(), 2);
  EXPECT_EQ(s.size(0), f.batch.batch_size);
  EXPECT_EQ(s.size(1), c);
  for (int64_t i = 0; i < s.numel(); ++i)
    EXPECT_TRUE(std::isfinite(s.data()[i]));
}

TEST_P(ZooContract, AllParametersReceiveGradient) {
  Fixture f;
  auto model = CreateModel(GetParam(), f.ds,
                           f.zoo());
  model->Loss(f.batch).Backward();
  auto named = model->NamedParameters();
  int64_t with_grad = 0;
  for (const auto& [name, p] : named) {
    if (p.has_grad()) ++with_grad;
  }
  // At least 90% of parameters must be touched (positional rows beyond the
  // sequence length legitimately get none).
  EXPECT_GE(with_grad * 10, static_cast<int64_t>(named.size()) * 9)
      << GetParam() << ": only " << with_grad << "/" << named.size()
      << " params got gradient";
}

TEST_P(ZooContract, DeterministicGivenSeed) {
  Fixture f;
  auto m1 = CreateModel(GetParam(), f.ds,
                        f.zoo());
  auto m2 = CreateModel(GetParam(), f.ds,
                        f.zoo());
  EXPECT_FLOAT_EQ(m1->Loss(f.batch).item(), m2->Loss(f.batch).item());
}

TEST_P(ZooContract, EvalModeIsDeterministic) {
  Fixture f;
  auto model = CreateModel(GetParam(), f.ds,
                           f.zoo());
  model->SetTraining(false);
  NoGradGuard ng;
  std::vector<int32_t> cands;
  for (int64_t i = 0; i < f.batch.batch_size * 3; ++i)
    cands.push_back(static_cast<int32_t>(i % f.ds.num_items()));
  Tensor s1 = model->ScoreCandidates(f.batch, cands, 3);
  Tensor s2 = model->ScoreCandidates(f.batch, cands, 3);
  for (int64_t i = 0; i < s1.numel(); ++i)
    EXPECT_EQ(s1.data()[i], s2.data()[i]) << GetParam() << " nondeterministic";
}

INSTANTIATE_TEST_SUITE_P(AllModels, ZooContract,
                         ::testing::ValuesIn(ModelZooNames()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (auto& ch : n) {
                             if (ch == '-') ch = '_';
                           }
                           return n;
                         });

TEST(ZooTest, UnknownNameAborts) {
  Fixture f;
  EXPECT_DEATH(CreateModel("NoSuchModel", f.ds, f.zoo()), "unknown model");
}

TEST(ZooTest, NamesMatchModels) {
  Fixture f;
  for (const auto& name : ModelZooNames()) {
    auto m = CreateModel(name, f.ds, f.zoo());
    EXPECT_EQ(m->Name(), name);
  }
}

TEST(MisslTest, InterestShapes) {
  Fixture f;
  core::MisslConfig cfg;
  cfg.dim = 16;
  cfg.num_interests = 3;
  core::MisslModel model(f.ds.num_items(), f.ds.num_behaviors(), 12, cfg);
  Tensor v = model.UserInterests(f.batch);
  EXPECT_EQ(v.size(0), f.batch.batch_size);
  EXPECT_EQ(v.size(1), 3);
  EXPECT_EQ(v.size(2), 16);
}

TEST(MisslTest, SingleInterestAblationForcesK1) {
  Fixture f;
  core::MisslConfig cfg;
  cfg.dim = 16;
  cfg.num_interests = 4;
  cfg.use_multi_interest = false;
  core::MisslModel model(f.ds.num_items(), f.ds.num_behaviors(), 12, cfg);
  EXPECT_EQ(model.num_interests(), 1);
  EXPECT_EQ(model.UserInterests(f.batch).size(1), 1);
}

TEST(MisslTest, AblationSwitchesChangeLoss) {
  Fixture f;
  auto loss_with = [&](auto mutate) {
    core::MisslConfig cfg;
    cfg.dim = 16;
    cfg.num_interests = 2;
    cfg.dropout = 0.0f;
    mutate(&cfg);
    core::MisslModel model(f.ds.num_items(), f.ds.num_behaviors(), 12, cfg);
    return model.Loss(f.batch).item();
  };
  float full = loss_with([](core::MisslConfig*) {});
  float no_ssl = loss_with([](core::MisslConfig* c) { c->use_ssl = false; });
  float no_hg =
      loss_with([](core::MisslConfig* c) { c->use_hypergraph = false; });
  float no_aux =
      loss_with([](core::MisslConfig* c) { c->use_aux_behaviors = false; });
  EXPECT_NE(full, no_ssl);
  EXPECT_NE(full, no_hg);
  EXPECT_NE(full, no_aux);
}

TEST(MisslTest, AuxAblationIgnoresAuxEvents) {
  // With use_aux_behaviors=false, scores must not change when click-channel
  // items are permuted (they are invisible to the model).
  Fixture f;
  core::MisslConfig cfg;
  cfg.dim = 16;
  cfg.num_interests = 2;
  cfg.dropout = 0.0f;
  cfg.use_aux_behaviors = false;
  core::MisslModel model(f.ds.num_items(), f.ds.num_behaviors(), 12, cfg);
  model.SetTraining(false);
  NoGradGuard ng;
  data::Batch batch = f.batch;
  std::vector<int32_t> cands;
  for (int64_t i = 0; i < batch.batch_size * 4; ++i)
    cands.push_back(static_cast<int32_t>(i % f.ds.num_items()));
  Tensor s1 = model.ScoreCandidates(batch, cands, 4);
  // Perturb all non-target merged events.
  int32_t target_beh = f.ds.num_behaviors() - 1;
  for (size_t i = 0; i < batch.merged_items.size(); ++i) {
    if (batch.merged_items[i] >= 0 &&
        batch.merged_behaviors[i] != target_beh) {
      batch.merged_items[i] =
          (batch.merged_items[i] + 7) % f.ds.num_items();
    }
  }
  Tensor s2 = model.ScoreCandidates(batch, cands, 4);
  for (int64_t i = 0; i < s1.numel(); ++i)
    EXPECT_NEAR(s1.data()[i], s2.data()[i], 1e-5f);
}

TEST(MisslTest, WorksWithTwoAndThreeBehaviorDatasets) {
  for (int32_t nb : {2, 3}) {
    Fixture f(nb);
    core::MisslConfig cfg;
    cfg.dim = 16;
    cfg.num_interests = 2;
    core::MisslModel model(f.ds.num_items(), f.ds.num_behaviors(), 12, cfg);
    EXPECT_TRUE(std::isfinite(model.Loss(f.batch).item()));
  }
}

TEST(Cl4SRecTest, AugmentPreservesFrontPaddingInvariant) {
  Fixture f;
  baselines::Cl4SRecConfig cfg;
  cfg.base.dim = 16;
  baselines::Cl4SRec model(f.ds.num_items(), 12, cfg);
  auto aug = model.Augment(f.batch.merged_items, f.batch.batch_size, 12);
  ASSERT_EQ(aug.size(), f.batch.merged_items.size());
  for (int64_t row = 0; row < f.batch.batch_size; ++row) {
    bool seen_valid = false;
    for (int64_t i = 0; i < 12; ++i) {
      int32_t id = aug[static_cast<size_t>(row * 12 + i)];
      if (id >= 0) {
        seen_valid = true;
      } else {
        EXPECT_FALSE(seen_valid) << "padding after a valid item (row " << row
                                 << ", pos " << i << ")";
      }
    }
    EXPECT_TRUE(seen_valid) << "augmentation erased the whole row";
  }
}

}  // namespace
}  // namespace missl
