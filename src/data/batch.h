// Batch assembly: turns (user, cut) examples into padded id arrays ready for
// embedding lookup. Sequences are FRONT-padded with -1 so the most recent
// event always sits at index max_len - 1.
#ifndef MISSL_DATA_BATCH_H_
#define MISSL_DATA_BATCH_H_

#include <vector>

#include "data/dataset.h"
#include "utils/rng.h"

namespace missl::data {

/// A collated minibatch. All id arrays are flattened row-major [B * max_len]
/// with -1 padding.
struct Batch {
  int64_t batch_size = 0;
  int64_t max_len = 0;
  int32_t num_behaviors = 0;

  /// Per-behavior item sequences: beh_items[b] holds behavior channel b's
  /// items (most recent max_len of that channel before the cut). Only
  /// BatchBuilder fills them; serving batches (serve::BuildQueryBatch)
  /// leave them empty, since only the MB-GRU baseline reads them.
  std::vector<std::vector<int32_t>> beh_items;

  /// Merged chronological stream across all behaviors (most recent max_len
  /// events before the cut), with parallel behavior tags.
  std::vector<int32_t> merged_items;
  std::vector<int32_t> merged_behaviors;
  /// Log2-bucketed recency of each merged event relative to the target
  /// event's timestamp: bucket = min(15, floor(log2(1 + gap))); -1 on pad.
  std::vector<int32_t> merged_recency;

  std::vector<int32_t> users;            ///< [B]
  std::vector<int32_t> targets;          ///< [B] next item to predict
  std::vector<int32_t> target_behavior;  ///< [B] behavior of the target event

  /// Optional sampled-softmax negatives: [B * num_train_negatives], filled
  /// only when the builder was configured with EnableTrainNegatives. Empty
  /// means models should train with a full-catalog softmax.
  std::vector<int32_t> train_negatives;
  int32_t num_train_negatives = 0;
};

class NegativeSampler;

/// Builds batches from a dataset given (user, cut) pairs. The event at
/// `cut` is the prediction target; only events strictly before it are
/// visible as history.
class BatchBuilder {
 public:
  BatchBuilder(const Dataset& ds, int64_t max_len);

  /// Enables sampled-softmax training: every built batch carries `count`
  /// uniform negatives per example. `sampler` must outlive the builder.
  void EnableTrainNegatives(const NegativeSampler* sampler, int32_t count,
                            uint64_t seed);

  /// Collates the given examples into one batch.
  Batch Build(const std::vector<SplitView::TrainExample>& examples);

  int64_t max_len() const { return max_len_; }

 private:
  const Dataset* ds_;
  int64_t max_len_;
  const NegativeSampler* neg_sampler_ = nullptr;
  int32_t neg_count_ = 0;
  Rng neg_rng_;
};

/// Number of recency buckets emitted in Batch::merged_recency.
inline constexpr int32_t kNumRecencyBuckets = 16;

/// Log2 recency bucket for a time gap (negative gaps clamp to 0):
/// min(kNumRecencyBuckets - 1, floor(log2(1 + gap))). Shared by the
/// training-time BatchBuilder and the serving-time query collator
/// (src/serve/), which must bucket identically.
int32_t RecencyBucket(int64_t gap);

/// Negative sampler that avoids a user's entire interacted item set.
/// Supports uniform draws and popularity-weighted draws (negatives
/// proportional to global interaction counts — a harder protocol, since
/// popular items are stronger distractors).
class NegativeSampler {
 public:
  explicit NegativeSampler(const Dataset& ds);

  /// Draws k distinct negatives for `user` (never the target, never any item
  /// the user interacted with under any behavior).
  std::vector<int32_t> Sample(int32_t user, int32_t target, int32_t k,
                              Rng* rng) const;

  /// Like Sample but popularity-weighted.
  std::vector<int32_t> SamplePopularity(int32_t user, int32_t target, int32_t k,
                                        Rng* rng) const;

  /// Items the user interacted with (sorted, deduplicated).
  const std::vector<int32_t>& SeenItems(int32_t user) const;

 private:
  std::vector<int32_t> SampleImpl(int32_t user, int32_t target, int32_t k,
                                  Rng* rng, bool popularity) const;

  const Dataset* ds_;
  std::vector<std::vector<int32_t>> user_items_;  ///< sorted per user
  std::vector<double> pop_cdf_;  ///< cumulative interaction counts per item
};

/// Epoch iterator over training examples: shuffles once per epoch and yields
/// fixed-size chunks (last chunk may be smaller).
class MiniBatcher {
 public:
  MiniBatcher(std::vector<SplitView::TrainExample> examples, int64_t batch_size,
              uint64_t seed);

  /// Starts a new epoch (reshuffles).
  void Reset();
  /// Fills `out` with the next chunk; returns false at epoch end.
  bool Next(std::vector<SplitView::TrainExample>* out);

  int64_t num_examples() const { return static_cast<int64_t>(examples_.size()); }
  int64_t batches_per_epoch() const;

 private:
  std::vector<SplitView::TrainExample> examples_;
  int64_t batch_size_;
  Rng rng_;
  size_t pos_ = 0;
};

}  // namespace missl::data

#endif  // MISSL_DATA_BATCH_H_
