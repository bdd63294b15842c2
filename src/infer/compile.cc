// Plan compilation: walk a frozen MisslModel once and emit the static op
// sequence + buffer table described in infer/plan.h. Everything here runs
// exactly once per RecoService::Load; nothing in this file is on the
// serving hot path.
#include <sys/mman.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <string>
#include <utility>

#include "hypergraph/incidence.h"
#include "infer/plan.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/ops.h"
#include "tensor/quant.h"
#include "utils/check.h"

namespace missl::infer {

namespace {

// LayerNormM is always constructed with its default epsilon and exposes no
// accessor; the contract test (infer_test) would catch any drift.
constexpr float kLayerNormEps = 1e-5f;

std::string ActName(Activation a) {
  switch (a) {
    case Activation::kNone: return "none";
    case Activation::kTanh: return "tanh";
    case Activation::kGelu: return "gelu";
  }
  return "?";
}

const char* KindName(OpKind k) {
  switch (k) {
    case OpKind::kEmbedSum: return "embed_sum";
    case OpKind::kBuildIncidence: return "build_incidence";
    case OpKind::kLinear: return "linear";
    case OpKind::kMaskedNormalize: return "masked_normalize";
    case OpKind::kBatchedGemm: return "batched_gemm";
    case OpKind::kAttention: return "attention";
    case OpKind::kResidualLayerNorm: return "residual_layernorm";
    case OpKind::kInterestExtract: return "interest_extract";
    case OpKind::kAuxMean: return "aux_mean";
    case OpKind::kGatedFuse: return "gated_fuse";
    case OpKind::kCommonPool: return "common_pool";
    case OpKind::kBroadcastAddRow: return "broadcast_add_row";
    case OpKind::kCatalogScore: return "catalog_score";
  }
  return "?";
}

}  // namespace

void PlannedExecutor::Unmap::operator()(ScoredItem* p) const {
  ::munmap(p, bytes);
}

int32_t PlannedExecutor::NewBuffer(int64_t per_b, std::string label) {
  BufferSpec spec;
  spec.per_b = per_b;
  spec.label = std::move(label);
  bufs_.push_back(std::move(spec));
  return static_cast<int32_t>(bufs_.size()) - 1;
}

const float* PlannedExecutor::AddConstant(std::vector<float> values) {
  constants_.push_back(std::move(values));
  return constants_.back().data();
}

std::unique_ptr<PlannedExecutor> PlannedExecutor::Compile(
    const core::MisslModel& model, int64_t max_batch, Status* status) {
  return Compile(model, max_batch, InferConfig{}, status);
}

std::unique_ptr<PlannedExecutor> PlannedExecutor::Compile(
    const core::MisslModel& model, int64_t max_batch,
    const InferConfig& options, Status* status) {
  MISSL_CHECK(status != nullptr);
  *status = Status::OK();
  static constexpr obs::SpanSite kCompileSpan{"infer.compile", "infer"};
  obs::TraceSpan span(kCompileSpan);
  int64_t t0 = obs::NowNanos();

  auto ex = std::unique_ptr<PlannedExecutor>(new PlannedExecutor());
  ex->cfg_ = model.config();
  const core::MisslConfig& cfg = ex->cfg_;
  ex->d_ = cfg.dim;
  ex->t_ = model.max_len();
  ex->k_ = model.num_interests();
  ex->max_batch_ = max_batch;
  const int64_t d = ex->d_, t = ex->t_, K = ex->k_;

  if (max_batch < 1) {
    *status = Status::InvalidArgument("planned executor: max_batch must be >= 1");
    return nullptr;
  }

  std::map<std::string, Tensor> params;
  for (auto& [name, tensor] : model.NamedParameters()) {
    params.emplace(name, tensor);
  }
  auto param = [&](const std::string& name) -> Tensor& {
    auto it = params.find(name);
    MISSL_CHECK(it != params.end())
        << "planned executor: model has no parameter '" << name << "'";
    return it->second;
  };
  // Resolves a parameter to its raw float data and shares ownership of its
  // storage, so the plan stays valid even if the model object is destroyed.
  auto need = [&](const std::string& name) -> const float* {
    Tensor& p = param(name);
    ex->keepalive_.push_back(p);
    return p.data();
  };

  Tensor& item_w = param("item_emb.weight");  // [V, d]
  ex->num_items_ = item_w.size(0);
  Tensor& beh_w = param("beh_emb.weight");  // [nb, d]
  ex->num_behaviors_ = static_cast<int32_t>(beh_w.size(0));
  const int32_t nb = ex->num_behaviors_;

  MISSL_CHECK(cfg.heads >= 1 && d % cfg.heads == 0)
      << "planned executor: heads must divide dim";
  ex->heads_ = cfg.heads;
  ex->dh_ = d / cfg.heads;
  const int64_t heads = ex->heads_, dh = ex->dh_;

  // Integer scratch for the masked id streams (see MisslModel::Encode);
  // presized so Run never resizes.
  ex->items_.assign(static_cast<size_t>(max_batch * t), -1);
  ex->behs_.assign(static_cast<size_t>(max_batch * t), -1);
  if (cfg.use_recency) ex->rec_.assign(static_cast<size_t>(max_batch * t), -1);

  auto emit = [&](Op op) { ex->ops_.push_back(std::move(op)); };

  // --- Input embedding: fused item + position + behavior (+ recency) sum.
  int32_t cur = ex->NewBuffer(t * d, "embed");
  {
    Op op;
    op.kind = OpKind::kEmbedSum;
    op.label = "embed_sum";
    op.dst = cur;
    op.w = need("item_emb.weight");
    op.w2 = need("pos_emb.weight");
    op.w3 = need("beh_emb.weight");
    if (cfg.use_recency) op.bias = need("recency_emb.weight");
    op.in = d;
    op.t = t;
    emit(op);
  }
  // Dropout is identity in eval mode and therefore absent from the plan.

  // --- Hypergraph attention layers.
  if (cfg.use_hypergraph && cfg.hgat_layers > 0) {
    ex->e_ = hypergraph::NumEdges(cfg.hg, t, nb);
    const int64_t e = ex->e_;
    int32_t inc = ex->NewBuffer(e * t, "incidence");
    {
      Op op;
      op.kind = OpKind::kBuildIncidence;
      op.label = "build_incidence";
      op.dst = inc;
      op.t = t;
      op.e = e;
      emit(op);
    }
    for (int64_t i = 0; i < cfg.hgat_layers; ++i) {
      const std::string p = "hgat" + std::to_string(i) + ".";
      // node_scores = Tanh(wa(x)) * wn  -> per-position scalar.
      int32_t wa_out = ex->NewBuffer(t * d, p + "wa");
      {
        Op op;
        op.kind = OpKind::kLinear;
        op.label = p + "wa+tanh";
        op.src = cur;
        op.dst = wa_out;
        op.w = need(p + "wa.weight");
        op.bias = need(p + "wa.bias");
        op.act = Activation::kTanh;
        op.rows_per_b = t;
        op.in = d;
        op.out = d;
        emit(op);
      }
      int32_t node_scores = ex->NewBuffer(t, p + "node_scores");
      {
        Op op;
        op.kind = OpKind::kLinear;
        op.label = p + "wn";
        op.src = wa_out;
        op.dst = node_scores;
        op.w = need(p + "wn");
        op.rows_per_b = t;
        op.in = d;
        op.out = 1;
        emit(op);
      }
      // edge_attn[b, e, t] = masked row-normalize of node scores over inc.
      int32_t exp_cache_a = ex->NewBuffer(t, p + "exp_a");
      int32_t edge_attn = ex->NewBuffer(e * t, p + "edge_attn");
      {
        Op op;
        op.kind = OpKind::kMaskedNormalize;
        op.label = p + "edge_attn";
        op.src = node_scores;
        op.src2 = inc;
        op.dst = edge_attn;
        op.scratch = exp_cache_a;
        op.rows_per_b = e;
        op.out = t;
        op.t = t;
        op.flag = false;  // mask element (row=edge, col=pos) = inc[edge, pos]
        emit(op);
      }
      int32_t edge_feats = ex->NewBuffer(e * d, p + "edge_feats");
      {
        Op op;
        op.kind = OpKind::kBatchedGemm;
        op.label = p + "edge_feats";
        op.src = edge_attn;
        op.src2 = cur;
        op.dst = edge_feats;
        op.rows_per_b = e;
        op.in = t;
        op.out = d;
        emit(op);
      }
      int32_t wb_out = ex->NewBuffer(e * d, p + "wb");
      {
        Op op;
        op.kind = OpKind::kLinear;
        op.label = p + "wb+tanh";
        op.src = edge_feats;
        op.dst = wb_out;
        op.w = need(p + "wb.weight");
        op.bias = need(p + "wb.bias");
        op.act = Activation::kTanh;
        op.rows_per_b = e;
        op.in = d;
        op.out = d;
        emit(op);
      }
      int32_t edge_scores = ex->NewBuffer(e, p + "edge_scores");
      {
        Op op;
        op.kind = OpKind::kLinear;
        op.label = p + "we";
        op.src = wb_out;
        op.dst = edge_scores;
        op.w = need(p + "we");
        op.rows_per_b = e;
        op.in = d;
        op.out = 1;
        emit(op);
      }
      int32_t exp_cache_b = ex->NewBuffer(e, p + "exp_b");
      int32_t node_attn = ex->NewBuffer(t * e, p + "node_attn");
      {
        Op op;
        op.kind = OpKind::kMaskedNormalize;
        op.label = p + "node_attn";
        op.src = edge_scores;
        op.src2 = inc;
        op.dst = node_attn;
        op.scratch = exp_cache_b;
        op.rows_per_b = t;
        op.out = e;
        op.t = t;
        op.flag = true;  // mask element (row=pos, col=edge) = inc[edge, pos]
        emit(op);
      }
      int32_t agg = ex->NewBuffer(t * d, p + "agg");
      {
        Op op;
        op.kind = OpKind::kBatchedGemm;
        op.label = p + "agg";
        op.src = node_attn;
        op.src2 = edge_feats;
        op.dst = agg;
        op.rows_per_b = t;
        op.in = e;
        op.out = d;
        emit(op);
      }
      int32_t wo_out = ex->NewBuffer(t * d, p + "wo");
      {
        Op op;
        op.kind = OpKind::kLinear;
        op.label = p + "wo";
        op.src = agg;
        op.dst = wo_out;
        op.w = need(p + "wo.weight");
        op.bias = need(p + "wo.bias");
        op.rows_per_b = t;
        op.in = d;
        op.out = d;
        emit(op);
      }
      int32_t ln_sum = ex->NewBuffer(t * d, p + "ln_sum");
      int32_t ln_xh = ex->NewBuffer(t * d, p + "ln_xhat");
      int32_t h_out = ex->NewBuffer(t * d, p + "out");
      {
        Op op;
        op.kind = OpKind::kResidualLayerNorm;
        op.label = p + "ln";
        op.src = cur;
        op.src2 = wo_out;
        op.dst = h_out;
        op.scratch = ln_sum;
        op.scratch2 = ln_xh;
        op.w = need(p + "ln.gamma");
        op.b2 = need(p + "ln.beta");
        op.rows_per_b = t;
        op.in = d;
        op.scale = kLayerNormEps;
        emit(op);
      }
      cur = h_out;
    }
  }

  // --- Transformer encoder layers.
  const float attn_scale = 1.0f / std::sqrt(static_cast<float>(dh));
  for (int64_t i = 0; i < cfg.seq_layers; ++i) {
    const std::string p = "encoder.layer" + std::to_string(i) + ".";
    auto linear = [&](const std::string& name, int32_t src, int64_t rows,
                      int64_t in, int64_t out, Activation act) {
      int32_t dst = ex->NewBuffer(rows * out, p + name);
      Op op;
      op.kind = OpKind::kLinear;
      op.label = p + name;
      op.src = src;
      op.dst = dst;
      op.w = need(p + name + ".weight");
      op.bias = need(p + name + ".bias");
      op.act = act;
      op.rows_per_b = rows;
      op.in = in;
      op.out = out;
      emit(op);
      return dst;
    };
    int32_t q = linear("attn.wq", cur, t, d, d, Activation::kNone);
    int32_t k = linear("attn.wk", cur, t, d, d, Activation::kNone);
    int32_t v = linear("attn.wv", cur, t, d, d, Activation::kNone);
    // Per-(batch, head) packing slabs: q-pack, transposed-k, v-pack,
    // scores, out-pack.
    int32_t attn_scratch =
        ex->NewBuffer(heads * (4 * t * dh + t * t), p + "attn.scratch");
    int32_t concat = ex->NewBuffer(t * d, p + "attn.concat");
    {
      Op op;
      op.kind = OpKind::kAttention;
      op.label = p + "attn.core";
      op.src = q;
      op.src2 = k;
      op.src3 = v;
      op.dst = concat;
      op.scratch = attn_scratch;
      op.t = t;
      op.heads = heads;
      op.dh = dh;
      op.scale = attn_scale;
      emit(op);
    }
    int32_t attn_out = linear("attn.wo", concat, t, d, d, Activation::kNone);
    int32_t ln1_sum = ex->NewBuffer(t * d, p + "ln1_sum");
    int32_t ln1_xh = ex->NewBuffer(t * d, p + "ln1_xhat");
    int32_t h1 = ex->NewBuffer(t * d, p + "ln1");
    {
      Op op;
      op.kind = OpKind::kResidualLayerNorm;
      op.label = p + "ln1";
      op.src = cur;
      op.src2 = attn_out;
      op.dst = h1;
      op.scratch = ln1_sum;
      op.scratch2 = ln1_xh;
      op.w = need(p + "ln1.gamma");
      op.b2 = need(p + "ln1.beta");
      op.rows_per_b = t;
      op.in = d;
      op.scale = kLayerNormEps;
      emit(op);
    }
    Tensor& fc1_w = param(p + "ffn.fc1.weight");  // [d, ffn_hidden]
    const int64_t ffn_hidden = fc1_w.size(1);
    int32_t f1 =
        linear("ffn.fc1", h1, t, d, ffn_hidden, Activation::kGelu);
    int32_t f2 = linear("ffn.fc2", f1, t, ffn_hidden, d, Activation::kNone);
    int32_t ln2_sum = ex->NewBuffer(t * d, p + "ln2_sum");
    int32_t ln2_xh = ex->NewBuffer(t * d, p + "ln2_xhat");
    int32_t h2 = ex->NewBuffer(t * d, p + "ln2");
    {
      Op op;
      op.kind = OpKind::kResidualLayerNorm;
      op.label = p + "ln2";
      op.src = h1;
      op.src2 = f2;
      op.dst = h2;
      op.scratch = ln2_sum;
      op.scratch2 = ln2_xh;
      op.w = need(p + "ln2.gamma");
      op.b2 = need(p + "ln2.beta");
      op.rows_per_b = t;
      op.in = d;
      op.scale = kLayerNormEps;
      emit(op);
    }
    cur = h2;
  }
  const int32_t encoded = cur;

  // --- Per-behavior interest extraction. key_proj is computed once and
  // shared across behavior channels (the training forward recomputes it per
  // channel with bitwise-identical results — see docs/INFERENCE.md).
  int32_t keys = ex->NewBuffer(t * d, "key_proj");
  {
    Op op;
    op.kind = OpKind::kLinear;
    op.label = "key_proj";
    op.src = encoded;
    op.dst = keys;
    op.w = need("key_proj.weight");
    op.bias = need("key_proj.bias");
    op.rows_per_b = t;
    op.in = d;
    op.out = d;
    emit(op);
  }
  // Per-row scratch for scores [T, K] + transposed scores [K, T].
  int32_t interest_scratch = ex->NewBuffer(2 * t * K, "interest_scratch");
  Tensor& queries = param("interest_queries");  // [nb * K, d]
  MISSL_CHECK(queries.dim() == 2 &&
              queries.size(0) == static_cast<int64_t>(nb) * K &&
              queries.size(1) == d)
      << "planned executor: unexpected interest_queries shape";
  const float* queries_data = need("interest_queries");
  const int32_t target = nb - 1;
  const bool use_aux = cfg.use_aux_behaviors && nb >= 2;
  auto extract = [&](int32_t behavior) {
    // Plan-time constant: the transposed query block Transpose(q) with
    // q = interest_queries[behavior*K .. (behavior+1)*K), laid out [d, K].
    std::vector<float> qt(static_cast<size_t>(d * K));
    for (int64_t kk = 0; kk < K; ++kk) {
      const float* row = queries_data + (behavior * K + kk) * d;
      for (int64_t j = 0; j < d; ++j) {
        qt[static_cast<size_t>(j * K + kk)] = row[j];
      }
    }
    int32_t dst =
        ex->NewBuffer(K * d, "interests" + std::to_string(behavior));
    Op op;
    op.kind = OpKind::kInterestExtract;
    op.label = "interests" + std::to_string(behavior);
    op.src = keys;
    op.src2 = encoded;
    op.dst = dst;
    op.scratch = interest_scratch;
    op.w = ex->AddConstant(std::move(qt));
    op.t = t;
    op.k = K;
    op.in = d;
    op.behavior = behavior;
    emit(op);
    return dst;
  };
  int32_t v_tgt = extract(target);
  int32_t fused = v_tgt;

  // --- Auxiliary-view mean + sigmoid-gated fusion.
  if (use_aux) {
    std::vector<int32_t> aux_bufs;
    for (int32_t beh = 0; beh < target; ++beh) aux_bufs.push_back(extract(beh));
    int32_t v_aux = ex->NewBuffer(K * d, "v_aux");
    {
      Op op;
      op.kind = OpKind::kAuxMean;
      op.label = "aux_mean";
      op.srcs = aux_bufs;
      op.dst = v_aux;
      op.rows_per_b = K;
      op.in = d;
      op.scale = 1.0f / static_cast<float>(aux_bufs.size());
      emit(op);
    }
    int32_t aux_proj = ex->NewBuffer(K * d, "aux_fusion");
    {
      Op op;
      op.kind = OpKind::kLinear;
      op.label = "aux_fusion";
      op.src = v_aux;
      op.dst = aux_proj;
      op.w = need("aux_fusion.weight");
      op.bias = need("aux_fusion.bias");
      op.rows_per_b = K;
      op.in = d;
      op.out = d;
      emit(op);
    }
    // Plan-time constant: sigmoid of the (frozen) scalar fusion gate,
    // computed by the Sigmoid op itself.
    float gate;
    {
      NoGradGuard no_grad;
      gate = Sigmoid(param("fusion_gate")).data()[0];
    }
    int32_t fused2 = ex->NewBuffer(K * d, "fused_aux");
    {
      Op op;
      op.kind = OpKind::kGatedFuse;
      op.label = "gated_fuse";
      op.src = fused;
      op.src2 = aux_proj;
      op.dst = fused2;
      op.rows_per_b = K;
      op.in = d;
      op.scale = gate;
      emit(op);
    }
    fused = fused2;
  }

  // --- Common-interest pathway.
  if (cfg.use_common_interest) {
    int32_t common = ex->NewBuffer(d, "common_pool");
    {
      Op op;
      op.kind = OpKind::kCommonPool;
      op.label = "common_pool";
      op.src = encoded;
      op.dst = common;
      op.t = t;
      op.in = d;
      emit(op);
    }
    int32_t cproj = ex->NewBuffer(d, "common_proj");
    {
      Op op;
      op.kind = OpKind::kLinear;
      op.label = "common_proj";
      op.src = common;
      op.dst = cproj;
      op.w = need("common_proj.weight");
      op.bias = need("common_proj.bias");
      op.rows_per_b = 1;
      op.in = d;
      op.out = d;
      emit(op);
    }
    int32_t fused2 = ex->NewBuffer(K * d, "fused_common");
    {
      Op op;
      op.kind = OpKind::kBroadcastAddRow;
      op.label = "add_common";
      op.src = fused;
      op.src2 = cproj;
      op.dst = fused2;
      op.k = K;
      op.in = d;
      emit(op);
    }
    fused = fused2;
  }

  // --- Catalog scoring with interest routing, column-tiled: per stripe,
  // one tile of raw interest-row scores and (max routing) one of routed
  // rows, sized for max_batch rows.
  const bool mean_routing = cfg.routing == core::InterestRouting::kMean;
  const int64_t V = ex->num_items_;
  const int64_t act_rows = mean_routing ? 1 : K;  // activation rows per b
  Op op;
  op.kind = OpKind::kCatalogScore;
  op.src = fused;
  op.k = K;
  op.in = d;
  op.out = V;
  op.flag = mean_routing;
  if (mean_routing) op.scratch2 = ex->NewBuffer(d, "interest_mean");
  op.scratch = ex->NewBuffer(
      kMaxStripes * (act_rows + (mean_routing ? 0 : 1)) * kTileCols,
      "catalog_tiles");
  if (!options.quantize_catalog) {
    // The fp32 score reads the item table itself, one transposed tile per
    // stripe at a time.
    op.label = mean_routing ? "catalog_score(mean)" : "catalog_score(max)";
    op.w = need("item_emb.weight");
    ex->tile_t_ =
        std::make_unique_for_overwrite<float[]>(kMaxStripes * d * kTileCols);
  } else {
    // Int8 tier: quantize the item table once, per item, so each item score
    // is one contiguous int8 row-dot, with one fp32 scale per item
    // (symmetric, zero-safe — tensor/quant.h).
    ex->catalog_q_.resize(static_cast<size_t>(V * d));
    ex->catalog_scale_.resize(static_cast<size_t>(V));
    quant::RowQuantStats st;
    quant::QuantizeRowsSymmetric(item_w.data(), V, d, ex->catalog_q_.data(),
                                 ex->catalog_scale_.data(), &st);
    ex->qinfo_.enabled = true;
    ex->qinfo_.min_scale = st.min_scale;
    ex->qinfo_.max_scale = st.max_scale;
    ex->qinfo_.zero_rows = st.zero_rows;
    ex->qinfo_.saturated = st.saturated;
    ex->qinfo_.int8_bytes =
        V * d * static_cast<int64_t>(sizeof(int8_t)) +
        V * static_cast<int64_t>(sizeof(float));
    ex->qinfo_.fp32_bytes = V * d * static_cast<int64_t>(sizeof(float));
    // One quantized activation row per interest row (max routing) or per
    // batch row (mean routing).
    ex->act_q_.assign(static_cast<size_t>(max_batch * act_rows * d), 0);
    ex->act_scale_.assign(static_cast<size_t>(max_batch * act_rows), 0.0f);
    op.label =
        mean_routing ? "catalog_score_q(mean)" : "catalog_score_q(max)";
    op.wq = ex->catalog_q_.data();
    op.wscale = ex->catalog_scale_.data();
  }
  ex->scores_buf_ = ex->NewBuffer(V, "scores");
  op.dst = ex->scores_buf_;
  emit(op);
  // Top-k sink: at most V candidate slots per row, in fresh pages.
  const size_t cand_bytes =
      static_cast<size_t>(max_batch * V) * sizeof(ScoredItem);
  void* cand = ::mmap(nullptr, cand_bytes, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  MISSL_CHECK(cand != MAP_FAILED)
      << "planned executor: cannot map " << cand_bytes << " candidate bytes";
  ex->cand_ = std::unique_ptr<ScoredItem[], Unmap>(
      static_cast<ScoredItem*>(cand), Unmap{cand_bytes});
  ex->heaps_.resize(static_cast<size_t>(kMaxStripes * max_batch));
  ex->ranked_.resize(static_cast<size_t>(max_batch));

  // --- Pack the buffers into one pooled arena sized for max_batch. A
  // buffer is live from the first op that references it to the last (the
  // scores buffer past the final op, since Run returns it). Buffers are
  // placed first-fit in creation order around the already-placed buffers
  // whose live ranges overlap theirs, so two buffers share bytes only if no
  // op sees both.
  const size_t nbufs = ex->bufs_.size();
  std::vector<int64_t> first(nbufs, -1), last(nbufs, -1);
  for (int64_t i = 0; i < ex->num_ops(); ++i) {
    const Op& op = ex->ops_[static_cast<size_t>(i)];
    std::vector<int32_t> ids = {op.src,     op.src2,    op.src3,
                                op.dst,     op.scratch, op.scratch2};
    ids.insert(ids.end(), op.srcs.begin(), op.srcs.end());
    for (int32_t id : ids) {
      if (id < 0) continue;
      if (first[id] < 0) first[id] = i;
      last[id] = i;
    }
  }
  last[static_cast<size_t>(ex->scores_buf_)] = ex->num_ops();
  int64_t total = 0;
  for (size_t id = 0; id < nbufs; ++id) {
    const int64_t size = max_batch * ex->bufs_[id].per_b;
    std::vector<std::pair<int64_t, int64_t>> taken;  // [begin, end) floats
    for (size_t j = 0; j < id; ++j) {
      if (first[j] <= last[id] && first[id] <= last[j]) {
        const int64_t begin = ex->bufs_[j].offset;
        taken.emplace_back(begin, begin + max_batch * ex->bufs_[j].per_b);
      }
    }
    std::sort(taken.begin(), taken.end());
    int64_t offset = 0;
    for (const auto& [begin, end] : taken) {
      if (offset + size <= begin) break;
      offset = std::max(offset, end);
    }
    ex->bufs_[id].offset = offset;
    total = std::max(total, offset + size);
  }
  // Ops write before they read, so the arena is left unwritten: rows past
  // the batch sizes actually served never become resident.
  ex->arena_.allocate_uninitialized(total);

  if (obs::MetricsEnabled()) {
    auto& reg = obs::MetricsRegistry::Global();
    reg.GetCounter("infer.compiles").Add(1);
    reg.GetHistogram("infer.compile_ns").Observe(obs::NowNanos() - t0);
    reg.GetGauge("infer.plan_ops").Set(ex->num_ops());
    reg.GetGauge("infer.scratch_bytes").Set(ex->scratch_bytes());
    if (ex->qinfo_.enabled) {
      // Gauges are integral; scales are published in microunits.
      reg.GetGauge("infer.quant.scale_min_e6")
          .Set(static_cast<int64_t>(
              std::lround(static_cast<double>(ex->qinfo_.min_scale) * 1e6)));
      reg.GetGauge("infer.quant.scale_max_e6")
          .Set(static_cast<int64_t>(
              std::lround(static_cast<double>(ex->qinfo_.max_scale) * 1e6)));
      reg.GetGauge("infer.quant.zero_rows").Set(ex->qinfo_.zero_rows);
      reg.GetCounter("infer.quant.saturated").Add(ex->qinfo_.saturated);
      reg.GetGauge("infer.quant.catalog_bytes").Set(ex->qinfo_.int8_bytes);
    }
  }
  return ex;
}

std::string PlannedExecutor::ToString() const {
  std::ostringstream os;
  os << "plan: " << ops_.size() << " ops, " << bufs_.size() << " buffers, "
     << scratch_bytes() << " scratch bytes (max_batch=" << max_batch_
     << " t=" << t_ << " d=" << d_ << " k=" << k_ << " items=" << num_items_
     << ")\n";
  for (size_t i = 0; i < ops_.size(); ++i) {
    const Op& op = ops_[i];
    os << "[" << i << "] " << KindName(op.kind) << " " << op.label;
    if (op.rows_per_b > 0) os << " rows=" << op.rows_per_b;
    if (op.in > 0) os << " in=" << op.in;
    if (op.out > 0) os << " out=" << op.out;
    if (op.act != Activation::kNone) os << " act=" << ActName(op.act);
    if (op.behavior >= 0) os << " behavior=" << op.behavior;
    os << "\n";
  }
  return os.str();
}

}  // namespace missl::infer
