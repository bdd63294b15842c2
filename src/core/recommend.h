// Top-N recommendation API on top of any SeqRecModel: full-catalog scoring
// with seen-item exclusion, and the ranking order that served answers are
// compared with.
#ifndef MISSL_CORE_RECOMMEND_H_
#define MISSL_CORE_RECOMMEND_H_

#include <cmath>
#include <vector>

#include "core/model.h"
#include "data/dataset.h"

namespace missl::core {

/// One recommendation list.
struct Recommendation {
  int32_t user = 0;
  std::vector<int32_t> items;   ///< top-N, best first
  std::vector<float> scores;    ///< parallel to items
};

/// Scores the full catalog [0, num_items) for every example in `batch` and
/// returns the top-N unseen items per row. `seen` gives, per row, the item
/// set to exclude — sorted ascending is the fast path, but unsorted input
/// (live user histories arrive in event order) is detected and sorted
/// defensively. Pass an empty outer vector to disable exclusion.
std::vector<Recommendation> RecommendTopN(
    SeqRecModel* model, const data::Batch& batch,
    const std::vector<std::vector<int32_t>>& seen, int32_t n,
    int32_t num_items);

/// The ranking order: score descending, NaN after every number (-inf
/// included), then item id ascending. +0 and -0 tie and fall to the id. On
/// (score, item) pairs with distinct items this is a strict total order, so
/// a top-k under it does not depend on how the candidates were partitioned
/// or visited. TopKRow and the plan's fused catalog top-k (src/infer/) both
/// rank by it.
inline bool RanksBefore(float score_a, int32_t item_a, float score_b,
                        int32_t item_b) {
  if (score_a > score_b) return true;
  if (score_a < score_b) return false;
  // Equal scores, or at least one NaN.
  const bool nan_a = std::isnan(score_a), nan_b = std::isnan(score_b);
  if (nan_a != nan_b) return nan_b;
  return item_a < item_b;
}

/// Selects the top-k items of one score row in RanksBefore order, skipping
/// ids found in `seen_sorted` (must be sorted ascending; duplicates and ids
/// outside [0, num_items) are harmless; nullptr disables exclusion).
/// Returns min(k, remaining items) entries best-first in
/// `out_items`/`out_scores` (cleared first). The reference ranking that
/// RecommendTopN uses and the served answers must equal bitwise.
void TopKRow(const float* scores, int32_t num_items,
             const std::vector<int32_t>* seen_sorted, int32_t k,
             std::vector<int32_t>* out_items, std::vector<float>* out_scores);

}  // namespace missl::core

#endif  // MISSL_CORE_RECOMMEND_H_
