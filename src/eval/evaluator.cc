#include "eval/evaluator.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/parallel_for.h"
#include "tensor/ops.h"
#include "utils/check.h"
#include "utils/rng.h"

namespace missl::eval {

Evaluator::Evaluator(const data::Dataset& ds, const data::SplitView& split,
                     const EvalConfig& config)
    : ds_(&ds), split_(&split), config_(config), builder_(ds, config.max_len) {
  data::NegativeSampler sampler(ds);
  test_negs_.resize(static_cast<size_t>(ds.num_users()));
  valid_negs_.resize(static_cast<size_t>(ds.num_users()));
  seen_.resize(static_cast<size_t>(ds.num_users()));
  bool pop = config.mode == CandidateMode::kPopularityNegatives;
  for (int32_t u = 0; u < ds.num_users(); ++u) {
    int64_t tp = split.test_pos[static_cast<size_t>(u)];
    if (tp < 0) continue;
    eval_users_.push_back(u);
    seen_[static_cast<size_t>(u)] = sampler.SeenItems(u);
    if (config.mode == CandidateMode::kFullRanking) continue;
    int64_t vp = split.valid_pos[static_cast<size_t>(u)];
    const auto& events = ds.user(u).events;
    int32_t test_target = events[static_cast<size_t>(tp)].item;
    int32_t valid_target = events[static_cast<size_t>(vp)].item;
    // One independent stream per user (seed x user id), so a user's
    // candidate set never depends on which other users are eligible —
    // filtering a user out of the split must not perturb anyone else's
    // negatives (see EvalTest.NegativesInvariantToOtherUsers).
    Rng rng(config_.seed, static_cast<uint64_t>(u));
    test_negs_[static_cast<size_t>(u)] =
        pop ? sampler.SamplePopularity(u, test_target, config.num_negatives,
                                       &rng)
            : sampler.Sample(u, test_target, config.num_negatives, &rng);
    valid_negs_[static_cast<size_t>(u)] =
        pop ? sampler.SamplePopularity(u, valid_target, config.num_negatives,
                                       &rng)
            : sampler.Sample(u, valid_target, config.num_negatives, &rng);
  }
}

EvalResult Evaluator::Evaluate(core::SeqRecModel* model, bool test) const {
  return EvaluateSubset(model, eval_users_, test);
}

EvalResult Evaluator::EvaluateSubset(core::SeqRecModel* model,
                                     const std::vector<int32_t>& users,
                                     bool test) const {
  MISSL_CHECK(model != nullptr);
  static constexpr obs::SpanSite kEvalSpan{"eval.evaluate", "eval", "users"};
  obs::TraceSpan eval_span(kEvalSpan, static_cast<int64_t>(users.size()));
  static obs::Counter& user_counter =
      obs::MetricsRegistry::Global().GetCounter("eval.users");
  user_counter.Add(static_cast<int64_t>(users.size()));
  NoGradGuard ng;
  bool was_training = model->training();
  model->SetTraining(false);

  bool full = config_.mode == CandidateMode::kFullRanking;
  int64_t c = full ? ds_->num_items() : config_.num_negatives + 1;
  // Full ranking scores the whole catalog per user; keep batches small so
  // the [B, V, d] candidate embedding stays modest.
  int64_t batch_size = full ? std::min<int64_t>(config_.batch_size, 32)
                            : config_.batch_size;
  const auto& pos = test ? split_->test_pos : split_->valid_pos;
  const auto& negs = test ? test_negs_ : valid_negs_;

  // User batches are scored in parallel: the batch boundaries depend only
  // on batch_size, each batch's metrics land in its own accumulator, and
  // the partials merge in batch order below — so metrics are bitwise
  // identical at any thread count. The model must be re-entrant in eval
  // mode (forward passes allocate fresh tensors and, with training off,
  // never touch the model's RNG).
  int64_t num_batches =
      (static_cast<int64_t>(users.size()) + batch_size - 1) / batch_size;
  std::vector<MetricAccumulator> partials(static_cast<size_t>(num_batches));
  runtime::ParallelFor(0, num_batches, 1, [&](int64_t b0, int64_t b1) {
    static constexpr obs::SpanSite kBatchSpan{"eval.batch", "eval"};
    obs::TraceSpan batch_span(kBatchSpan);
    for (int64_t bi = b0; bi < b1; ++bi) {
      size_t start = static_cast<size_t>(bi * batch_size);
      size_t end =
          std::min(users.size(), start + static_cast<size_t>(batch_size));
      std::vector<data::SplitView::TrainExample> examples;
      std::vector<int32_t> cand_ids;
      std::vector<int32_t> targets;
      for (size_t i = start; i < end; ++i) {
        int32_t u = users[i];
        int64_t p = pos[static_cast<size_t>(u)];
        MISSL_CHECK(p >= 0) << "user " << u << " not eligible for evaluation";
        examples.push_back({u, p});
        const auto& events = ds_->user(u).events;
        int32_t target = events[static_cast<size_t>(p)].item;
        targets.push_back(target);
        if (full) {
          for (int32_t item = 0; item < ds_->num_items(); ++item) {
            cand_ids.push_back(item);
          }
        } else {
          cand_ids.push_back(target);  // index 0 = target
          const auto& n = negs[static_cast<size_t>(u)];
          cand_ids.insert(cand_ids.end(), n.begin(), n.end());
        }
      }
      data::Batch batch = builder_.Build(examples);
      Tensor scores = model->ScoreCandidates(batch, cand_ids, c);
      MISSL_CHECK(scores.dim() == 2 && scores.size(0) == batch.batch_size &&
                  scores.size(1) == c)
          << "ScoreCandidates returned " << ShapeToString(scores.shape());
      const float* s = scores.data();
      MetricAccumulator& acc = partials[static_cast<size_t>(bi)];
      for (int64_t row = 0; row < batch.batch_size; ++row) {
        const float* rs = s + row * c;
        int64_t rank = 0;
        if (full) {
          int32_t target = targets[static_cast<size_t>(row)];
          float target_score = rs[target];
          const auto& seen = seen_[static_cast<size_t>(
              users[start + static_cast<size_t>(row)])];
          for (int32_t j = 0; j < ds_->num_items(); ++j) {
            if (j == target) continue;
            // Standard protocol: seen items are removed from the candidate
            // pool before ranking.
            if (std::binary_search(seen.begin(), seen.end(), j)) continue;
            if (rs[j] > target_score) ++rank;
          }
        } else {
          float target_score = rs[0];
          for (int64_t j = 1; j < c; ++j) {
            if (rs[j] > target_score) ++rank;
          }
        }
        acc.Add(rank);
      }
    }
  });
  MetricAccumulator acc;
  for (const MetricAccumulator& p : partials) acc.Merge(p);
  acc.Finalize();
  model->SetTraining(was_training);

  EvalResult r;
  r.hr5 = acc.hr5;
  r.hr10 = acc.hr10;
  r.hr20 = acc.hr20;
  r.ndcg5 = acc.ndcg5;
  r.ndcg10 = acc.ndcg10;
  r.ndcg20 = acc.ndcg20;
  r.mrr = acc.mrr;
  r.num_users = acc.count;
  return r;
}

}  // namespace missl::eval
