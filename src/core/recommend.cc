#include "core/recommend.h"

#include <algorithm>
#include <cmath>

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

ListStats ComputeListStats(const std::vector<Recommendation>& recs,
                           int32_t num_items, const Tensor& item_embedding,
                           const std::vector<int64_t>& popularity) {
  ListStats s;
  MISSL_CHECK(num_items > 0);
  std::vector<bool> covered(static_cast<size_t>(num_items), false);
  double pop_sum = 0;
  int64_t pop_n = 0;
  double dist_sum = 0;
  int64_t dist_n = 0;
  for (const auto& rec : recs) {
    for (int32_t it : rec.items) {
      MISSL_CHECK(it >= 0 && it < num_items) << "recommended id out of range";
      covered[static_cast<size_t>(it)] = true;
      if (!popularity.empty()) {
        pop_sum += std::log1p(
            static_cast<double>(popularity[static_cast<size_t>(it)]));
        ++pop_n;
      }
    }
    if (item_embedding.defined() && rec.items.size() >= 2) {
      int64_t d = item_embedding.size(1);
      for (size_t a = 0; a < rec.items.size(); ++a) {
        for (size_t b = a + 1; b < rec.items.size(); ++b) {
          const float* ea = item_embedding.data() + rec.items[a] * d;
          const float* eb = item_embedding.data() + rec.items[b] * d;
          double dot = 0, na = 0, nb = 0;
          for (int64_t j = 0; j < d; ++j) {
            dot += double(ea[j]) * eb[j];
            na += double(ea[j]) * ea[j];
            nb += double(eb[j]) * eb[j];
          }
          if (na > 1e-12 && nb > 1e-12) {
            dist_sum += 1.0 - dot / std::sqrt(na * nb);
            ++dist_n;
          }
        }
      }
    }
  }
  int64_t cov = 0;
  for (bool c : covered) cov += c ? 1 : 0;
  s.item_coverage = static_cast<double>(cov) / num_items;
  s.mean_intra_list_distance = dist_n > 0 ? dist_sum / dist_n : 0.0;
  s.mean_popularity = pop_n > 0 ? pop_sum / pop_n : 0.0;
  return s;
}

}  // namespace missl::core
