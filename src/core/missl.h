// The MISSL core model: multi-behavior sequential recommendation with
// multi-interest self-supervised learning (reconstruction of Wu et al.,
// ICDE 2024 — see the mismatch note in DESIGN.md).
//
// Pipeline:
//   merged multi-behavior stream
//     -> item + behavior + position embeddings
//     -> behavior-aware hypergraph attention layers (set-level)
//     -> transformer encoder (order-level)
//     -> per-behavior multi-interest extraction (K attention queries per
//        behavior channel)
//     -> gated fusion of target-behavior and auxiliary-behavior interests
//   losses: next-item CE with hard interest routing, auxiliary-view CE,
//   cross-behavior interest InfoNCE, interest disentanglement.
#ifndef MISSL_CORE_MISSL_H_
#define MISSL_CORE_MISSL_H_

#include <memory>
#include <string>
#include <vector>

#include "core/model.h"
#include "hypergraph/hgat.h"
#include "hypergraph/incidence.h"
#include "nn/embedding.h"
#include "nn/transformer.h"

namespace missl::core {

/// How the K interests combine at prediction time: hard max-routing
/// (ComiRec-style, the paper family's default) or mean pooling (an
/// alternative studied by the design-choice ablation bench F9).
enum class InterestRouting { kMax, kMean };

/// Hyper-parameters and ablation switches for the MISSL model.
struct MisslConfig {
  int64_t dim = 48;
  int64_t heads = 2;
  int64_t seq_layers = 1;    ///< transformer encoder layers
  int64_t hgat_layers = 1;   ///< hypergraph attention layers
  int64_t num_interests = 4;
  float dropout = 0.1f;

  float lambda_cl = 0.1f;    ///< cross-behavior interest contrast weight
  float lambda_dis = 0.05f;  ///< disentanglement weight
  float lambda_aux = 0.2f;   ///< auxiliary-view prediction weight
  float temperature = 0.3f;  ///< InfoNCE temperature

  // Ablation switches (F1).
  bool use_hypergraph = true;
  bool use_ssl = true;
  bool use_disentangle = true;
  bool use_multi_interest = true;   ///< false forces K = 1
  bool use_aux_behaviors = true;    ///< false drops non-target channels
  /// Common-interest pathway: a masked mean over the whole encoded stream
  /// (the user's behavior-independent stable preference) added to every
  /// interest slot. The specific interests stay channel-restricted; the SSL
  /// and disentanglement terms act on the specific parts only.
  bool use_common_interest = true;

  InterestRouting routing = InterestRouting::kMax;
  /// Adds a log-bucketed recency (time-gap-to-target) embedding to the
  /// input layer — a temporal extension studied by the F9 design bench.
  bool use_recency = false;
  hypergraph::HypergraphConfig hg;
  uint64_t seed = 17;
};

/// See file comment. Construct once per (dataset, config); the model owns
/// its RNG so runs are reproducible given `config.seed`.
class MisslModel : public SeqRecModel {
 public:
  MisslModel(int32_t num_items, int32_t num_behaviors, int64_t max_len,
             const MisslConfig& config);

  std::string Name() const override { return "MISSL"; }
  Tensor Loss(const data::Batch& batch) override;
  Tensor ScoreCandidates(const data::Batch& batch,
                         const std::vector<int32_t>& cand_ids,
                         int64_t num_cands) override;

  /// Full-catalog scoring without the per-call [B, V, d] candidate gather:
  /// interests [B, K, d] are multiplied against the transposed item table
  /// [d, V] (taken from `catalog` when defined, recomputed otherwise) and
  /// max-reduced over K. Bitwise-identical to scoring the full id list
  /// through ScoreCandidates — the GEMM accumulates over d in the same
  /// order either way.
  Tensor ScoreAllItems(const data::Batch& batch, int32_t num_items,
                       const Tensor& catalog = Tensor()) override;

  /// The transposed item-embedding table [d, V], the `catalog` argument of
  /// ScoreAllItems. Servers cache this once after freezing the weights.
  Tensor PrecomputeCatalog() const override;

  /// Fused user interests [B, K, d] (exposed for the visualization bench
  /// and the interest-explorer example).
  Tensor UserInterests(const data::Batch& batch);

  const MisslConfig& config() const { return config_; }
  int64_t num_interests() const { return k_; }
  /// History window the position table was sized for; serving batches must
  /// use exactly this length.
  int64_t max_len() const { return max_len_; }
  /// The learned item table [V, d] (for catalog scoring / introspection).
  const Tensor& item_embedding() const { return item_emb_.weight(); }

 private:
  /// Encodes the merged stream -> [B, T, d] (hypergraph + transformer).
  Tensor Encode(const data::Batch& batch);
  /// Attention-pools K interests for channel `behavior` from encoded states.
  Tensor ExtractInterests(const Tensor& encoded, const data::Batch& batch,
                          int32_t behavior) const;
  /// Ids of the merged stream after the aux-behavior ablation filter.
  std::vector<int32_t> EffectiveMergedItems(const data::Batch& batch) const;
  /// Routed next-item CE for an interest matrix (sampled or full softmax).
  Tensor PredictionLoss(const Tensor& interests, const data::Batch& batch);
  /// The interest pass shared by Loss and UserInterests: the target
  /// channel's interests, the mean of the auxiliary channels' (undefined
  /// when the aux view is off), and both fused with the common interest
  /// into the final interests; every tensor is [B, K, d].
  struct InterestViews {
    Tensor v_tgt, v_aux, fused;
  };
  InterestViews Interests(const data::Batch& batch);

  MisslConfig config_;
  int32_t num_items_;
  int32_t num_behaviors_;
  int64_t max_len_;
  int64_t k_;
  Rng rng_;

  nn::Embedding item_emb_;
  nn::Embedding beh_emb_;
  nn::Embedding pos_emb_;
  nn::Embedding recency_emb_;  ///< used only when config.use_recency
  std::vector<std::unique_ptr<hypergraph::HypergraphAttentionLayer>> hgat_;
  nn::TransformerEncoder encoder_;
  nn::Linear key_proj_;     ///< projects states to interest-query keys
  nn::Linear aux_fusion_;   ///< maps pooled auxiliary interests before gating
  nn::Linear common_proj_;  ///< maps the common-interest pool before fusion
  Tensor interest_queries_; ///< [num_behaviors * K, d]
  Tensor fusion_gate_;      ///< [1] sigmoid-gated aux contribution
};

}  // namespace missl::core

#endif  // MISSL_CORE_MISSL_H_
