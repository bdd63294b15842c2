// Tests for the top-N recommendation API, the offline oracle that served
// answers are compared with: list shape and order, and seen-item exclusion.
#include "core/recommend.h"

#include <gtest/gtest.h>

#include "baselines/zoo.h"
#include "data/batch.h"
#include "data/synthetic.h"

namespace missl {
namespace {

using data::Dataset;

class RecommendTest : public ::testing::Test {
 protected:
  RecommendTest()
      : ds_(MakeDs()), split_(ds_), builder_(ds_, 10) {}

  static Dataset MakeDs() {
    data::SyntheticConfig cfg;
    cfg.num_users = 30;
    cfg.num_items = 60;
    cfg.min_events = 12;
    cfg.max_events = 20;
    cfg.seed = 12;
    return data::GenerateSynthetic(cfg);
  }

  Dataset ds_;
  data::SplitView split_;
  data::BatchBuilder builder_;
};

TEST_F(RecommendTest, TopNShapeAndOrdering) {
  auto model = baselines::CreateModel("POP", ds_, baselines::ZooConfig{});
  data::Batch batch = builder_.Build(
      {split_.train_examples[0], split_.train_examples[1]});
  auto recs = core::RecommendTopN(model.get(), batch, {}, 5, ds_.num_items());
  ASSERT_EQ(recs.size(), 2u);
  for (const auto& rec : recs) {
    ASSERT_EQ(rec.items.size(), 5u);
    for (size_t i = 1; i < rec.scores.size(); ++i) {
      EXPECT_GE(rec.scores[i - 1], rec.scores[i]);  // descending
    }
  }
}

TEST_F(RecommendTest, SeenItemsExcluded) {
  auto model = baselines::CreateModel("POP", ds_, baselines::ZooConfig{});
  data::Batch batch = builder_.Build({split_.train_examples[0]});
  // Exclude the 10 globally most popular items; none may appear.
  auto all = core::RecommendTopN(model.get(), batch, {}, 10, ds_.num_items());
  std::vector<int32_t> banned = all[0].items;
  std::sort(banned.begin(), banned.end());
  auto rest = core::RecommendTopN(model.get(), batch, {banned}, 10,
                                  ds_.num_items());
  for (int32_t it : rest[0].items) {
    EXPECT_FALSE(std::binary_search(banned.begin(), banned.end(), it));
  }
}

TEST_F(RecommendTest, UnsortedSeenListsAreExcludedToo) {
  // Regression: exclusion used binary_search on the caller's list, so seen
  // sets passed in event order (as live user histories arrive) silently
  // leaked "seen" items back into the list. Unsorted input must now give
  // exactly the same output as its sorted copy.
  auto model = baselines::CreateModel("POP", ds_, baselines::ZooConfig{});
  data::Batch batch = builder_.Build({split_.train_examples[0]});
  auto all = core::RecommendTopN(model.get(), batch, {}, 10, ds_.num_items());
  std::vector<int32_t> banned_unsorted = all[0].items;
  std::reverse(banned_unsorted.begin(), banned_unsorted.end());
  std::swap(banned_unsorted[0], banned_unsorted[3]);  // definitely unsorted
  std::vector<int32_t> banned_sorted = banned_unsorted;
  std::sort(banned_sorted.begin(), banned_sorted.end());

  auto from_unsorted = core::RecommendTopN(model.get(), batch,
                                           {banned_unsorted}, 10,
                                           ds_.num_items());
  auto from_sorted = core::RecommendTopN(model.get(), batch, {banned_sorted},
                                         10, ds_.num_items());
  EXPECT_EQ(from_unsorted[0].items, from_sorted[0].items);
  EXPECT_EQ(from_unsorted[0].scores, from_sorted[0].scores);
  for (int32_t it : from_unsorted[0].items) {
    EXPECT_FALSE(std::binary_search(banned_sorted.begin(), banned_sorted.end(),
                                    it))
        << "seen item " << it << " leaked into the list";
  }
}

}  // namespace
}  // namespace missl
