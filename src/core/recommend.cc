#include "core/recommend.h"

#include <algorithm>

#include "utils/check.h"

namespace missl::core {

void TopKRow(const float* scores, int32_t num_items,
             const std::vector<int32_t>* seen_sorted, int32_t k,
             std::vector<int32_t>* out_items, std::vector<float>* out_scores) {
  MISSL_CHECK(scores != nullptr && num_items > 0 && k > 0);
  out_items->clear();
  out_scores->clear();
  std::vector<std::pair<float, int32_t>> ranked;
  ranked.reserve(static_cast<size_t>(num_items));
  for (int32_t i = 0; i < num_items; ++i) {
    if (seen_sorted != nullptr &&
        std::binary_search(seen_sorted->begin(), seen_sorted->end(), i)) {
      continue;
    }
    ranked.push_back({scores[i], i});
  }
  int32_t take = std::min<int32_t>(k, static_cast<int32_t>(ranked.size()));
  std::partial_sort(ranked.begin(), ranked.begin() + take, ranked.end(),
                    [](const auto& a, const auto& b) {
                      return RanksBefore(a.first, a.second, b.first, b.second);
                    });
  for (int32_t i = 0; i < take; ++i) {
    out_scores->push_back(ranked[static_cast<size_t>(i)].first);
    out_items->push_back(ranked[static_cast<size_t>(i)].second);
  }
}

std::vector<Recommendation> RecommendTopN(
    SeqRecModel* model, const data::Batch& batch,
    const std::vector<std::vector<int32_t>>& seen, int32_t n,
    int32_t num_items) {
  MISSL_CHECK(model != nullptr && n > 0 && num_items > 0);
  MISSL_CHECK(seen.empty() ||
              static_cast<int64_t>(seen.size()) == batch.batch_size)
      << "seen-set count mismatch";
  NoGradGuard ng;
  bool was_training = model->training();
  model->SetTraining(false);

  Tensor scores = model->ScoreAllItems(batch, num_items);

  std::vector<Recommendation> out;
  std::vector<int32_t> sorted_copy;  // scratch for unsorted seen rows
  for (int64_t row = 0; row < batch.batch_size; ++row) {
    const float* rs = scores.data() + row * num_items;
    const std::vector<int32_t>* excl =
        seen.empty() ? nullptr : &seen[static_cast<size_t>(row)];
    if (excl != nullptr && !std::is_sorted(excl->begin(), excl->end())) {
      // Live histories arrive in event order; binary_search on an unsorted
      // set would silently skip exclusions, so sort a defensive copy.
      sorted_copy = *excl;
      std::sort(sorted_copy.begin(), sorted_copy.end());
      excl = &sorted_copy;
    }
    Recommendation rec;
    rec.user = batch.users[static_cast<size_t>(row)];
    TopKRow(rs, num_items, excl, n, &rec.items, &rec.scores);
    out.push_back(std::move(rec));
  }
  model->SetTraining(was_training);
  return out;
}

}  // namespace missl::core
