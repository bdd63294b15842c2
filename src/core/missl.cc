#include "core/missl.h"

#include "core/common.h"
#include "core/ssl.h"
#include "nn/attention.h"
#include "nn/init.h"

namespace missl::core {

namespace {

nn::TransformerConfig MakeEncoderConfig(const MisslConfig& cfg) {
  nn::TransformerConfig tc;
  tc.dim = cfg.dim;
  tc.heads = cfg.heads;
  tc.layers = cfg.seq_layers;
  tc.ffn_hidden = 2 * cfg.dim;
  tc.dropout = cfg.dropout;
  tc.causal = false;  // history is already cut before the target
  return tc;
}

}  // namespace

MisslModel::MisslModel(int32_t num_items, int32_t num_behaviors, int64_t max_len,
                       const MisslConfig& config)
    : config_(config),
      num_items_(num_items),
      num_behaviors_(num_behaviors),
      max_len_(max_len),
      k_(config.use_multi_interest ? config.num_interests : 1),
      rng_(config.seed),
      item_emb_(num_items, config.dim, &rng_),
      beh_emb_(num_behaviors, config.dim, &rng_),
      pos_emb_(max_len, config.dim, &rng_),
      recency_emb_(data::kNumRecencyBuckets, config.dim, &rng_),
      encoder_(MakeEncoderConfig(config), &rng_),
      key_proj_(config.dim, config.dim, &rng_),
      aux_fusion_(config.dim, config.dim, &rng_),
      common_proj_(config.dim, config.dim, &rng_) {
  MISSL_CHECK(k_ >= 1) << "num_interests must be >= 1";
  RegisterModule("item_emb", &item_emb_);
  RegisterModule("beh_emb", &beh_emb_);
  RegisterModule("pos_emb", &pos_emb_);
  if (config.use_recency) RegisterModule("recency_emb", &recency_emb_);
  RegisterModule("encoder", &encoder_);
  RegisterModule("key_proj", &key_proj_);
  RegisterModule("aux_fusion", &aux_fusion_);
  if (config.use_common_interest) RegisterModule("common_proj", &common_proj_);
  for (int64_t i = 0; i < config.hgat_layers; ++i) {
    hgat_.push_back(std::make_unique<hypergraph::HypergraphAttentionLayer>(
        config.dim, config.dropout, &rng_));
    RegisterModule("hgat" + std::to_string(i), hgat_.back().get());
  }
  interest_queries_ = RegisterParameter(
      "interest_queries",
      nn::XavierUniform({static_cast<int64_t>(num_behaviors) * k_, config.dim},
                        &rng_));
  fusion_gate_ = RegisterParameter("fusion_gate", Tensor::Zeros({1}));
}

std::vector<int32_t> MisslModel::EffectiveMergedItems(
    const data::Batch& batch) const {
  if (config_.use_aux_behaviors) return batch.merged_items;
  // Ablation: hide every non-target event from the input stream.
  int32_t target = num_behaviors_ - 1;
  std::vector<int32_t> items = batch.merged_items;
  for (size_t i = 0; i < items.size(); ++i) {
    if (batch.merged_behaviors[i] != target) items[i] = -1;
  }
  return items;
}

Tensor MisslModel::Encode(const data::Batch& batch) {
  int64_t b = batch.batch_size, t = batch.max_len;
  std::vector<int32_t> items = EffectiveMergedItems(batch);
  Tensor h = EmbedWithPositions(item_emb_, pos_emb_, items, b, t);
  // Behavior-type embedding distinguishes channels inside the shared stream.
  std::vector<int32_t> behs = batch.merged_behaviors;
  for (size_t i = 0; i < behs.size(); ++i) {
    if (items[i] < 0) behs[i] = -1;
  }
  h = Add(h, beh_emb_.Forward(behs, {b, t}));
  if (config_.use_recency) {
    std::vector<int32_t> rec = batch.merged_recency;
    for (size_t i = 0; i < rec.size(); ++i) {
      if (items[i] < 0) rec[i] = -1;
    }
    h = Add(h, recency_emb_.Forward(rec, {b, t}));
  }
  h = Dropout(h, config_.dropout, training(), &rng_);

  if (config_.use_hypergraph && !hgat_.empty()) {
    Tensor incidence = hypergraph::BuildIncidence(items, behs, b, t,
                                                  num_behaviors_, config_.hg);
    for (const auto& layer : hgat_) h = layer->Forward(h, incidence);
  }
  Tensor pad_mask = nn::KeyPaddingMask(items, b, t);
  return encoder_.Forward(h, pad_mask);
}

Tensor MisslModel::ExtractInterests(const Tensor& encoded,
                                    const data::Batch& batch,
                                    int32_t behavior) const {
  int64_t b = batch.batch_size, t = batch.max_len, d = config_.dim;
  // Queries for this channel: [K, d].
  Tensor q = Slice(interest_queries_, 0, behavior * k_, (behavior + 1) * k_);
  Tensor keys = key_proj_.Forward(encoded);              // [B, T, d]
  Tensor scores_tk = MatMul(keys, Transpose(q));         // [B, T, K]
  Tensor scores = Transpose(scores_tk);                  // [B, K, T]
  // Mask out positions of other behaviors and padding.
  Tensor mask = Tensor::Zeros({b, 1, t});
  Tensor indicator = Tensor::Zeros({b, 1, 1});
  {
    float* mp = mask.data();
    float* ip = indicator.data();
    const std::vector<int32_t> items = EffectiveMergedItems(batch);
    for (int64_t row = 0; row < b; ++row) {
      bool any = false;
      for (int64_t i = 0; i < t; ++i) {
        size_t idx = static_cast<size_t>(row * t + i);
        bool member = items[idx] >= 0 && batch.merged_behaviors[idx] == behavior;
        if (!member) mp[row * t + i] = -1e9f;
        any |= member;
      }
      ip[row] = any ? 1.0f : 0.0f;
    }
  }
  Tensor probs = Softmax(Add(scores, mask));  // [B, K, T]
  Tensor interests = MatMul(probs, encoded);  // [B, K, d]
  (void)d;
  // Rows with no events of this channel produce zeros instead of an
  // attention average over noise.
  return Mul(interests, indicator);
}

MisslModel::InterestViews MisslModel::Interests(const data::Batch& batch) {
  Tensor encoded = Encode(batch);
  int32_t target = num_behaviors_ - 1;
  InterestViews iv;
  iv.v_tgt = ExtractInterests(encoded, batch, target);
  if (config_.use_aux_behaviors && num_behaviors_ >= 2) {
    std::vector<Tensor> aux;
    for (int32_t beh = 0; beh < target; ++beh) {
      aux.push_back(ExtractInterests(encoded, batch, beh));
    }
    iv.v_aux = aux[0];
    for (size_t i = 1; i < aux.size(); ++i) iv.v_aux = Add(iv.v_aux, aux[i]);
    iv.v_aux = MulScalar(iv.v_aux, 1.0f / static_cast<float>(aux.size()));
  }
  iv.fused = iv.v_tgt;
  if (iv.v_aux.defined()) {
    // Sigmoid-gated residual of the projected auxiliary interests.
    Tensor gate = Sigmoid(fusion_gate_);  // [1], initialized to 0.5
    iv.fused = Add(iv.fused, Mul(aux_fusion_.Forward(iv.v_aux), gate));
  }
  if (config_.use_common_interest) {
    // Common interest: long-term (mean over every visible event) plus
    // short-term (most recent state) behavior-independent preference,
    // shared by all K slots.
    Tensor common = Add(MaskedMeanPool(encoded, EffectiveMergedItems(batch),
                                       batch.batch_size, batch.max_len),
                        LastPosition(encoded));                       // [B, d]
    Tensor proj = common_proj_.Forward(common);                       // [B, d]
    iv.fused =
        Add(iv.fused, Reshape(proj, {batch.batch_size, 1, config_.dim}));
  }
  return iv;
}

Tensor MisslModel::UserInterests(const data::Batch& batch) {
  return Interests(batch).fused;
}

Tensor MisslModel::Loss(const data::Batch& batch) {
  const auto [v_tgt, v_aux, fused] = Interests(batch);

  // Main next-item loss with interest routing.
  Tensor loss = PredictionLoss(fused, batch);

  if (v_aux.defined() && config_.lambda_aux > 0.0f) {
    // Auxiliary view must predict the target too (cross-behavior transfer).
    loss = Add(loss, MulScalar(PredictionLoss(v_aux, batch),
                               config_.lambda_aux));
  }

  if (v_aux.defined() && config_.use_ssl && config_.lambda_cl > 0.0f) {
    // Interest-level contrast: interest k from the auxiliary view should
    // match interest k from the target view of the same user.
    int64_t b = batch.batch_size;
    Tensor za = Reshape(v_aux, {b * k_, config_.dim});
    Tensor zt = Reshape(v_tgt, {b * k_, config_.dim});
    loss = Add(loss, MulScalar(InfoNce(za, zt, config_.temperature),
                               config_.lambda_cl));
  }

  if (config_.use_disentangle && config_.lambda_dis > 0.0f && k_ > 1) {
    // Disentangle the *specific* interests; the common component is shared
    // by construction and must not be penalized.
    loss = Add(loss, MulScalar(DisentanglePenalty(v_tgt), config_.lambda_dis));
  }
  return loss;
}

Tensor MisslModel::PredictionLoss(const Tensor& interests,
                                  const data::Batch& batch) {
  Tensor v = config_.routing == InterestRouting::kMax
                 ? SelectInterestByTarget(interests, item_emb_, batch.targets)
                 : Mean(interests, 1, /*keepdim=*/false);
  if (batch.num_train_negatives > 0) {
    // Sampled softmax: target sits in column 0 of every row.
    std::vector<int32_t> zeros(static_cast<size_t>(batch.batch_size), 0);
    return CrossEntropyLoss(SampledLogits(v, item_emb_, batch), zeros);
  }
  return CrossEntropyLoss(FullCatalogLogits(v, item_emb_), batch.targets);
}

Tensor MisslModel::ScoreCandidates(const data::Batch& batch,
                                   const std::vector<int32_t>& cand_ids,
                                   int64_t num_cands) {
  Tensor interests = UserInterests(batch);
  if (config_.routing == InterestRouting::kMean) {
    return ScoreCandidatesSingle(Mean(interests, 1, false), item_emb_,
                                 cand_ids, batch.batch_size, num_cands);
  }
  return ScoreCandidatesMultiInterest(interests, item_emb_, cand_ids,
                                      batch.batch_size, num_cands);
}

Tensor MisslModel::PrecomputeCatalog() const {
  NoGradGuard ng;
  return Transpose(item_emb_.weight());  // [d, V]
}

Tensor MisslModel::ScoreAllItems(const data::Batch& batch, int32_t num_items,
                                 const Tensor& catalog) {
  MISSL_CHECK(num_items == num_items_)
      << "catalog size mismatch: model has " << num_items_ << " items, caller "
      << "asked for " << num_items;
  Tensor cat = catalog.defined() ? catalog : PrecomputeCatalog();
  MISSL_CHECK(cat.dim() == 2 && cat.size(0) == config_.dim &&
              cat.size(1) == num_items_)
      << "catalog must be the [d, V] transposed item table, got "
      << ShapeToString(cat.shape());
  Tensor interests = UserInterests(batch);  // [B, K, d]
  if (config_.routing == InterestRouting::kMean) {
    return MatMul(Mean(interests, 1, /*keepdim=*/false), cat);  // [B, V]
  }
  return Max(MatMul(interests, cat), 1, /*keepdim=*/false);  // [B, V]
}

}  // namespace missl::core
