// Plan execution: the serving hot path. Each Exec* interpreter replicates
// the float-op sequence of the corresponding training-mode tensor op
// (tensor/ops_*.cc) exactly — same kernels (simd.h) where the training op
// uses them, same scalar formulas where it does not, same accumulation
// order everywhere — so Run is bitwise-identical to
// MisslModel::ScoreAllItems on every SIMD tier at every thread count (the
// contract is spelled out in docs/INFERENCE.md and enforced by
// tests/infer_test.cc). Nothing here allocates: all floats live in the
// plan's arena, the integer id streams and the top-k candidate lists in
// buffers presized at compile time.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "core/recommend.h"
#include "hypergraph/incidence.h"
#include "infer/plan.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/parallel_for.h"
#include "tensor/quant.h"
#include "tensor/simd.h"
#include "utils/check.h"

namespace missl::infer {

namespace {

struct InferMetrics {
  obs::Counter& runs;
  obs::Histogram& run_ns;
  /// Activation-side int8 codes clamped to ±127 (rounding edge cases; the
  /// per-row symmetric scale makes genuine saturation impossible).
  obs::Counter& quant_act_saturated;
  static InferMetrics& Get() {
    static InferMetrics m{
        obs::MetricsRegistry::Global().GetCounter("infer.runs"),
        obs::MetricsRegistry::Global().GetHistogram("infer.run_ns"),
        obs::MetricsRegistry::Global().GetCounter(
            "infer.quant.act_saturated")};
    return m;
  }
};

// Mean routing's per-row interest mean: ascending-K sum from 0.0f, then the
// 1/K scale, as Mean in ops_reduce.cc. ints is [b, K, d], mean is [b, d].
void MeanInterests(const float* ints, int64_t b, int64_t K, int64_t d,
                   float* mean) {
  runtime::ParallelFor(0, b, 1, [&](int64_t b0, int64_t b1) {
    for (int64_t bb = b0; bb < b1; ++bb) {
      for (int64_t j = 0; j < d; ++j) {
        float acc = 0.0f;
        for (int64_t kk = 0; kk < K; ++kk) acc += ints[(bb * K + kk) * d + j];
        mean[bb * d + j] = acc * (1.0f / static_cast<float>(K));
      }
    }
  });
}

bool RanksBeforeItem(const ScoredItem& a, const ScoredItem& b) {
  return core::RanksBefore(a.score, a.item, b.score, b.item);
}

}  // namespace

const float* PlannedExecutor::Run(const data::Batch& batch) {
  specs_ = nullptr;
  RunOps(batch);
  return arena_.data() + bufs_[static_cast<size_t>(scores_buf_)].offset;
}

void PlannedExecutor::RunTopK(const data::Batch& batch,
                              const RankSpec* specs) {
  MISSL_CHECK(specs != nullptr);
  for (int64_t r = 0; r < batch.batch_size; ++r) {
    MISSL_CHECK(specs[r].k >= 1 && specs[r].num_exclude >= 0)
        << "planned executor: bad rank spec for row " << r;
  }
  specs_ = specs;
  RunOps(batch);
  specs_ = nullptr;
}

void PlannedExecutor::RunOps(const data::Batch& batch) {
  const int64_t b = batch.batch_size, t = t_;
  MISSL_CHECK(b >= 1 && b <= max_batch_)
      << "planned executor: batch size " << b << " exceeds compiled max_batch "
      << max_batch_;
  MISSL_CHECK(batch.max_len == t)
      << "planned executor: batch max_len " << batch.max_len
      << " != compiled max_len " << t;
  const int64_t n = b * t;
  MISSL_CHECK(static_cast<int64_t>(batch.merged_items.size()) == n &&
              static_cast<int64_t>(batch.merged_behaviors.size()) == n)
      << "planned executor: merged stream size mismatch";

  static constexpr obs::SpanSite kRunSpan{"infer.run", "infer"};
  obs::TraceSpan span(kRunSpan);
  const int64_t t0 = obs::NowNanos();

  // Masked id streams, exactly as MisslModel::Encode derives them:
  // effective items (aux-ablation hides non-target events), behaviors and
  // recency buckets nulled wherever the effective item is padding.
  const int32_t* mi = batch.merged_items.data();
  const int32_t* mb = batch.merged_behaviors.data();
  const int32_t target = num_behaviors_ - 1;
  for (int64_t i = 0; i < n; ++i) {
    int32_t id = mi[i];
    if (!cfg_.use_aux_behaviors && mb[i] != target) id = -1;
    items_[static_cast<size_t>(i)] = id;
    behs_[static_cast<size_t>(i)] = id < 0 ? -1 : mb[i];
  }
  if (cfg_.use_recency) {
    MISSL_CHECK(static_cast<int64_t>(batch.merged_recency.size()) == n)
        << "planned executor: merged_recency size mismatch";
    for (int64_t i = 0; i < n; ++i) {
      rec_[static_cast<size_t>(i)] =
          items_[static_cast<size_t>(i)] < 0 ? -1 : batch.merged_recency[i];
    }
  }
  orig_behs_ = mb;

  for (const Op& op : ops_) Execute(op, b);

  InferMetrics& m = InferMetrics::Get();
  m.runs.Add(1);
  m.run_ns.Observe(obs::NowNanos() - t0);
}

void PlannedExecutor::Execute(const Op& op, int64_t b) {
  switch (op.kind) {
    case OpKind::kEmbedSum: return ExecEmbedSum(op, b);
    case OpKind::kBuildIncidence: return ExecBuildIncidence(op, b);
    case OpKind::kLinear: return ExecLinear(op, b);
    case OpKind::kMaskedNormalize: return ExecMaskedNormalize(op, b);
    case OpKind::kBatchedGemm: return ExecBatchedGemm(op, b);
    case OpKind::kAttention: return ExecAttention(op, b);
    case OpKind::kResidualLayerNorm: return ExecResidualLayerNorm(op, b);
    case OpKind::kInterestExtract: return ExecInterestExtract(op, b);
    case OpKind::kAuxMean: return ExecAuxMean(op, b);
    case OpKind::kGatedFuse: return ExecGatedFuse(op, b);
    case OpKind::kCommonPool: return ExecCommonPool(op, b);
    case OpKind::kBroadcastAddRow: return ExecBroadcastAddRow(op, b);
    case OpKind::kCatalogScore: return ExecCatalogScore(op, b);
  }
  MISSL_CHECK(false) << "planned executor: unknown op kind";
}

// (item + position) + behavior (+ recency) lookups summed per position.
// Invalid ids contribute a zero row, and the adds are performed literally
// even then — x + 0.0f normalizes -0.0f to +0.0f exactly like the chain of
// EmbeddingLookup + Add ops does in Encode.
void PlannedExecutor::ExecEmbedSum(const Op& op, int64_t b) {
  const int64_t t = op.t, d = op.in;
  float* dst = BufPtr(op.dst);
  const int32_t* items = items_.data();
  const int32_t* behs = behs_.data();
  const int32_t* rec = cfg_.use_recency ? rec_.data() : nullptr;
  runtime::ParallelFor(
      0, b * t, runtime::GrainForCost(4 * d), [&](int64_t r0, int64_t r1) {
        for (int64_t idx = r0; idx < r1; ++idx) {
          const int64_t i = idx % t;
          const int32_t id = items[idx];
          const int32_t bh = behs[idx];
          const float* it =
              id >= 0 ? op.w + static_cast<int64_t>(id) * d : nullptr;
          const float* ps = id >= 0 ? op.w2 + i * d : nullptr;
          const float* bw =
              bh >= 0 ? op.w3 + static_cast<int64_t>(bh) * d : nullptr;
          const float* rw = nullptr;
          if (op.bias != nullptr && rec[idx] >= 0) {
            rw = op.bias + static_cast<int64_t>(rec[idx]) * d;
          }
          float* o = dst + idx * d;
          for (int64_t j = 0; j < d; ++j) {
            float v = (it ? it[j] : 0.0f) + (ps ? ps[j] : 0.0f);
            v = v + (bw ? bw[j] : 0.0f);
            if (op.bias != nullptr) v = v + (rw ? rw[j] : 0.0f);
            o[j] = v;
          }
        }
      });
}

void PlannedExecutor::ExecBuildIncidence(const Op& op, int64_t b) {
  const int64_t t = op.t, e = op.e;
  float* dst = BufPtr(op.dst);
  runtime::ParallelFor(0, b, 1, [&](int64_t r0, int64_t r1) {
    for (int64_t row = r0; row < r1; ++row) {
      float* pr = dst + row * e * t;
      std::fill(pr, pr + e * t, 0.0f);
      hypergraph::FillIncidenceRow(items_.data() + row * t,
                                   behs_.data() + row * t, t, num_behaviors_,
                                   cfg_.hg, pr);
    }
  });
}

// GEMM with the bias add and activation fused into the epilogue of each
// row chunk. MatMul zero-initializes its output and accumulates with
// GemmRows; doing the fill + GemmRows + AddRow + activation kernel per
// chunk touches each output row once while leaving every rounded operation
// identical to the MatMul / Add / Tanh / Gelu op chain.
void PlannedExecutor::ExecLinear(const Op& op, int64_t b) {
  const float* src = BufPtr(op.src);
  float* dst = BufPtr(op.dst);
  const int64_t in = op.in, out = op.out;
  runtime::ParallelFor(
      0, b * op.rows_per_b, runtime::GrainForCost(2 * in * out),
      [&](int64_t r0, int64_t r1) {
        std::fill(dst + r0 * out, dst + r1 * out, 0.0f);
        simd::GemmRows(src, op.w, dst, in, out, out, out, r0, r1);
        for (int64_t r = r0; r < r1; ++r) {
          float* y = dst + r * out;
          if (op.bias != nullptr) simd::AddRow(y, op.bias, y, out);
          switch (op.act) {
            case Activation::kNone:
              break;
            case Activation::kTanh:
              simd::TanhRow(y, y, out);
              break;
            case Activation::kGelu:
              simd::GeluRow(y, y, out);
              break;
          }
        }
      });
}

// The HGAT masked normalizer: exp(clamp(scores)) * mask, row-normalized
// with the +1e-9 guard (hgat.cc MaskedNormalize). The per-column exp is
// computed once per (batch, column) into the scratch row and reused by
// every output row — the training path evaluates exp on the same value
// once per cell, with an identical result (the broadcast Add(scores, Zeros)
// it goes through only flips -0 to +0, which exp cannot distinguish).
void PlannedExecutor::ExecMaskedNormalize(const Op& op, int64_t b) {
  const int64_t rows = op.rows_per_b, cols = op.out, t = op.t;
  const float* scores = BufPtr(op.src);
  const float* mask = BufPtr(op.src2);
  const int64_t mask_per_b = bufs_[static_cast<size_t>(op.src2)].per_b;
  float* ex = BufPtr(op.scratch);
  float* dst = BufPtr(op.dst);
  runtime::ParallelFor(0, b * cols, runtime::GrainForCost(8),
                       [&](int64_t i0, int64_t i1) {
                         for (int64_t i = i0; i < i1; ++i) {
                           const float x = scores[i];
                           ex[i] =
                               x < -10.0f ? -10.0f : (x > 10.0f ? 10.0f : x);
                         }
                         simd::ExpRow(ex + i0, ex + i0, i1 - i0);
                       });
  runtime::ParallelFor(
      0, b * rows, runtime::GrainForCost(4 * cols),
      [&](int64_t r0, int64_t r1) {
        for (int64_t rr = r0; rr < r1; ++rr) {
          const int64_t bb = rr / rows, r = rr % rows;
          const float* exb = ex + bb * cols;
          const float* mk = mask + bb * mask_per_b;
          float* o = dst + rr * cols;
          float denom = 0.0f;
          for (int64_t c = 0; c < cols; ++c) {
            // Literal multiply by the 0/1 mask (not a branch): x * 0.0f
            // keeps the sign semantics of the training-mode Mul.
            const float m = op.flag ? mk[c * t + r] : mk[r * cols + c];
            const float w = exb[c] * m;
            o[c] = w;
            denom += w;
          }
          denom = denom + 1e-9f;
          for (int64_t c = 0; c < cols; ++c) o[c] = o[c] / denom;
        }
      });
}

// Rank-3 batched matmul, replicating MatMul's slab-split row partition.
void PlannedExecutor::ExecBatchedGemm(const Op& op, int64_t b) {
  const int64_t m = op.rows_per_b, k = op.in, nn = op.out;
  const float* a = BufPtr(op.src);
  const float* bb = BufPtr(op.src2);
  float* dst = BufPtr(op.dst);
  runtime::ParallelFor(
      0, b * m, runtime::GrainForCost(2 * k * nn), [&](int64_t r0, int64_t r1) {
        std::fill(dst + r0 * nn, dst + r1 * nn, 0.0f);
        int64_t r = r0;
        while (r < r1) {
          const int64_t s = r / m;
          const int64_t end = std::min((s + 1) * m, r1);
          simd::GemmRows(a + s * m * k, bb + s * k * nn, dst + s * m * nn, k,
                         nn, nn, nn, r - s * m, end - s * m);
          r = end;
        }
      });
}

// The fused attention core: per-(batch, head) slab packs the head slices,
// runs scores = (q k^T) * scale + pad-mask, softmax, probs x v, and
// scatters the head output into the concat layout — one op instead of the
// Slice / Transpose / MatMul / MulScalar / Add / Softmax / MatMul / Concat
// chain. The packs are pure data movement; the arithmetic per element is
// the training chain verbatim (mask adds are executed literally even when
// the addend is 0.0f).
void PlannedExecutor::ExecAttention(const Op& op, int64_t b) {
  const int64_t t = op.t, heads = op.heads, dh = op.dh, d = d_;
  const float* q = BufPtr(op.src);
  const float* k = BufPtr(op.src2);
  const float* v = BufPtr(op.src3);
  float* dst = BufPtr(op.dst);
  float* scratch = BufPtr(op.scratch);
  const int64_t slab = 4 * t * dh + t * t;
  runtime::ParallelFor(0, b * heads, 1, [&](int64_t s0, int64_t s1) {
    for (int64_t s = s0; s < s1; ++s) {
      const int64_t bb = s / heads, h = s % heads;
      float* qp = scratch + s * slab;   // [t, dh]
      float* kt = qp + t * dh;          // [dh, t]
      float* vp = kt + dh * t;          // [t, dh]
      float* sc = vp + t * dh;          // [t, t]
      float* out = sc + t * t;          // [t, dh]
      for (int64_t i = 0; i < t; ++i) {
        const float* base = q + (bb * t + i) * d + h * dh;
        std::memcpy(qp + i * dh, base, static_cast<size_t>(dh) * sizeof(float));
      }
      for (int64_t i = 0; i < t; ++i) {
        const float* kr = k + (bb * t + i) * d + h * dh;
        for (int64_t c = 0; c < dh; ++c) kt[c * t + i] = kr[c];
      }
      for (int64_t i = 0; i < t; ++i) {
        const float* base = v + (bb * t + i) * d + h * dh;
        std::memcpy(vp + i * dh, base, static_cast<size_t>(dh) * sizeof(float));
      }
      std::fill(sc, sc + t * t, 0.0f);
      simd::GemmRows(qp, kt, sc, dh, t, t, t, 0, t);
      const int32_t* it = items_.data() + bb * t;
      for (int64_t i = 0; i < t; ++i) {
        float* row = sc + i * t;
        simd::ScaleRow(row, op.scale, row, t);
        for (int64_t j = 0; j < t; ++j) {
          row[j] = row[j] + (it[j] < 0 ? -1e9f : 0.0f);
        }
        simd::SoftmaxRow(row, row, t);
      }
      std::fill(out, out + t * dh, 0.0f);
      simd::GemmRows(sc, vp, out, t, dh, dh, dh, 0, t);
      for (int64_t i = 0; i < t; ++i) {
        std::memcpy(dst + (bb * t + i) * d + h * dh, out + i * dh,
                    static_cast<size_t>(dh) * sizeof(float));
      }
    }
  });
}

// Residual add fused into the layer-norm pass: per row, sum = x + a
// (AddRow, the same kernel the Add op uses), then exactly the LayerNorm
// loop of tensor/ops_nn.cc.
void PlannedExecutor::ExecResidualLayerNorm(const Op& op, int64_t b) {
  const int64_t d = op.in;
  const float* x = BufPtr(op.src);
  const float* a = BufPtr(op.src2);
  float* sum = BufPtr(op.scratch);
  float* xh = BufPtr(op.scratch2);
  float* dst = BufPtr(op.dst);
  const float eps = op.scale;
  runtime::ParallelFor(
      0, b * op.rows_per_b, runtime::GrainForCost(6 * d),
      [&](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1; ++r) {
          float* s = sum + r * d;
          simd::AddRow(x + r * d, a + r * d, s, d);
          float mu = 0.0f;
          for (int64_t i = 0; i < d; ++i) mu += s[i];
          mu /= static_cast<float>(d);
          float var = 0.0f;
          for (int64_t i = 0; i < d; ++i) {
            const float c = s[i] - mu;
            var += c * c;
          }
          var /= static_cast<float>(d);
          const float is = 1.0f / std::sqrt(var + eps);
          simd::LayerNormAffineRow(s, mu, is, op.w, op.b2, xh + r * d,
                                   dst + r * d, d);
        }
      });
}

// Per-behavior interest pooling: scores = keys x q^T (plan-constant
// transposed query block), transposed, channel-masked, softmaxed, applied
// to the encoded states, and zeroed via the literal 0/1 indicator multiply
// when the row has no event of this channel.
void PlannedExecutor::ExecInterestExtract(const Op& op, int64_t b) {
  const int64_t t = op.t, K = op.k, d = op.in;
  const float* keys = BufPtr(op.src);
  const float* enc = BufPtr(op.src2);
  float* dst = BufPtr(op.dst);
  float* scratch = BufPtr(op.scratch);
  const int64_t slab = 2 * t * K;
  const int32_t* all_items = items_.data();
  const int32_t* all_behs = orig_behs_;
  runtime::ParallelFor(0, b, 1, [&](int64_t b0, int64_t b1) {
    for (int64_t bb = b0; bb < b1; ++bb) {
      float* stk = scratch + bb * slab;  // [t, K]
      float* skt = stk + t * K;          // [K, t]
      std::fill(stk, stk + t * K, 0.0f);
      simd::GemmRows(keys + bb * t * d, op.w, stk, d, K, K, K, 0, t);
      for (int64_t i = 0; i < t; ++i) {
        for (int64_t kk = 0; kk < K; ++kk) skt[kk * t + i] = stk[i * K + kk];
      }
      // Membership mask uses the ORIGINAL behavior tags with the effective
      // items, exactly as ExtractInterests builds it.
      const int32_t* it = all_items + bb * t;
      const int32_t* bh = all_behs + bb * t;
      bool any = false;
      for (int64_t j = 0; j < t; ++j) {
        any |= (it[j] >= 0 && bh[j] == op.behavior);
      }
      for (int64_t kk = 0; kk < K; ++kk) {
        float* row = skt + kk * t;
        for (int64_t j = 0; j < t; ++j) {
          const bool member = it[j] >= 0 && bh[j] == op.behavior;
          row[j] = row[j] + (member ? 0.0f : -1e9f);
        }
        simd::SoftmaxRow(row, row, t);
      }
      float* o = dst + bb * K * d;
      std::fill(o, o + K * d, 0.0f);
      simd::GemmRows(skt, enc + bb * t * d, o, t, d, d, d, 0, K);
      const float ind = any ? 1.0f : 0.0f;
      for (int64_t i = 0; i < K * d; ++i) o[i] = o[i] * ind;
    }
  });
}

// Mean of the auxiliary interest views: the same left-associative pairwise
// Add chain as UserInterests, then the 1/n scale.
void PlannedExecutor::ExecAuxMean(const Op& op, int64_t b) {
  float* dst = BufPtr(op.dst);
  const int64_t total = b * op.rows_per_b * op.in;
  const size_t ns = op.srcs.size();
  const float* first = BufPtr(op.srcs[0]);
  runtime::ParallelFor(
      0, total, runtime::GrainForCost(static_cast<int64_t>(ns)),
      [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i) {
          float acc = first[i];
          for (size_t s = 1; s < ns; ++s) acc = acc + BufPtr(op.srcs[s])[i];
          dst[i] = acc * op.scale;
        }
      });
}

// fused = v_tgt + aux_proj * sigmoid(gate); the gate is a plan constant.
void PlannedExecutor::ExecGatedFuse(const Op& op, int64_t b) {
  const float* x = BufPtr(op.src);
  const float* a = BufPtr(op.src2);
  float* dst = BufPtr(op.dst);
  const float g = op.scale;
  runtime::ParallelFor(0, b * op.rows_per_b * op.in, runtime::GrainForCost(2),
                       [&](int64_t i0, int64_t i1) {
                         for (int64_t i = i0; i < i1; ++i) {
                           dst[i] = x[i] + a[i] * g;
                         }
                       });
}

// Common interest: masked mean over every visible position plus the last
// position's state, replicating MaskedMeanPool (mask-multiply then
// ascending-t accumulation from 0.0f, count + 1e-9 guard) and LastPosition.
void PlannedExecutor::ExecCommonPool(const Op& op, int64_t b) {
  const int64_t t = op.t, d = op.in;
  const float* h = BufPtr(op.src);
  float* dst = BufPtr(op.dst);
  const int32_t* all_items = items_.data();
  runtime::ParallelFor(0, b, 1, [&](int64_t b0, int64_t b1) {
    for (int64_t bb = b0; bb < b1; ++bb) {
      const int32_t* it = all_items + bb * t;
      float count = 0.0f;
      for (int64_t i = 0; i < t; ++i) count += (it[i] >= 0 ? 1.0f : 0.0f);
      count = count + 1e-9f;
      const float* hb = h + bb * t * d;
      const float* last = hb + (t - 1) * d;
      float* o = dst + bb * d;
      for (int64_t j = 0; j < d; ++j) {
        float acc = 0.0f;
        for (int64_t i = 0; i < t; ++i) {
          acc += hb[i * d + j] * (it[i] >= 0 ? 1.0f : 0.0f);
        }
        o[j] = acc / count + last[j];
      }
    }
  });
}

// Adds the [d] common-interest row to each of the K interest rows.
void PlannedExecutor::ExecBroadcastAddRow(const Op& op, int64_t b) {
  const int64_t K = op.k, d = op.in;
  const float* x = BufPtr(op.src);
  const float* add = BufPtr(op.src2);
  float* dst = BufPtr(op.dst);
  runtime::ParallelFor(0, b * K, runtime::GrainForCost(d),
                       [&](int64_t r0, int64_t r1) {
                         for (int64_t r = r0; r < r1; ++r) {
                           simd::AddRow(x + r * d, add + (r / K) * d,
                                        dst + r * d, d);
                         }
                       });
}

// Catalog scoring, one column tile at a time. Per tile, every activation
// row (the b·K fused interests, or the b interest means under mean routing)
// is scored against the tile's columns into an op-private tile: fp32 by
// GemmRows reading the [d, V] catalog in place (ldb = V), so each cell keeps
// the ascending-k chain of the full-width MatMul; int8 by the exact integer
// dot with the fixed (act_scale * item_scale) * float(dot) dequant. Max
// routing then folds K rows per column with the strict-> ascending-K scan
// of Max (ops_reduce.cc). So every routed score is bitwise the value the
// full [b, V] computation produces, and the sink decides what happens to
// it: Run copies it into the score matrix, RunTopK selects from it.
//
// The columns are split into stripes of whole tiles, one per ParallelFor
// chunk; each chunk owns a tile and its stripes' per-row heaps. A heap keeps
// the best min(k, stripe width) entries under core::RanksBefore, a strict
// total order, so the rows' merged lists are the same for every partition:
// results stay bitwise identical across tiers and thread counts.
void PlannedExecutor::ExecCatalogScore(const Op& op, int64_t b) {
  const int64_t K = op.k, d = op.in, V = op.out;
  const bool mean = op.flag;
  const float* act = BufPtr(op.src);
  int64_t rows = b * K;
  if (mean) {
    float* m = BufPtr(op.scratch2);
    MeanInterests(act, b, K, d, m);
    act = m;
    rows = b;
  }
  if (op.wq != nullptr) {
    // Activation quantization stays serial: at most max_batch * K short
    // rows, and a single scan keeps the saturation count free of atomics.
    quant::RowQuantStats st;
    quant::QuantizeRowsSymmetric(act, rows, d, act_q_.data(),
                                 act_scale_.data(), &st);
    if (st.saturated > 0 && obs::MetricsEnabled()) {
      InferMetrics::Get().quant_act_saturated.Add(st.saturated);
    }
  }
  constexpr int64_t TW = kTileCols;
  const int64_t ntiles = (V + TW - 1) / TW;
  const int64_t stripes = std::min<int64_t>(
      {static_cast<int64_t>(runtime::NumThreads()), ntiles, kMaxStripes});
  auto stripe_tiles = [&](int64_t s) {
    return std::pair<int64_t, int64_t>(s * ntiles / stripes,
                                       (s + 1) * ntiles / stripes);
  };
  if (specs_ != nullptr) {
    // Lay each row's stripe heaps out back to back: row r needs at most
    // sum over stripes of min(k, width) <= V slots.
    int64_t next = 0;
    for (int64_t r = 0; r < b; ++r) {
      for (int64_t s = 0; s < stripes; ++s) {
        const auto [t0, t1] = stripe_tiles(s);
        const int64_t width = std::min(t1 * TW, V) - t0 * TW;
        Heap& h = heaps_[static_cast<size_t>(s * max_batch_ + r)];
        h.begin = next;
        h.size = 0;
        h.cap = std::min<int64_t>(specs_[r].k, width);
        next += h.cap;
      }
    }
  }
  float* scores = BufPtr(op.dst);
  float* tiles = BufPtr(op.scratch);
  const int64_t tile_floats = (rows + (mean ? 0 : b)) * TW;
  runtime::ParallelFor(0, stripes, 1, [&](int64_t s0, int64_t s1) {
    float* raw = tiles + s0 * tile_floats;
    float* routed = mean ? raw : raw + rows * TW;
    for (int64_t s = s0; s < s1; ++s) {
      const auto [t0, t1] = stripe_tiles(s);
      for (int64_t tile = t0; tile < t1; ++tile) {
        const int64_t c0 = tile * TW, tw = std::min(TW, V - c0);
        if (op.wq == nullptr) {
          std::fill(raw, raw + rows * TW, 0.0f);
          simd::GemmRows(act, op.w + c0, raw, d, tw, V, TW, 0, rows);
        } else {
          simd::Int8DotDequantTile(act_q_.data(), act_scale_.data(), rows,
                                   op.wq + c0 * d, op.wscale + c0, raw, TW,
                                   d, 0, tw);
        }
        if (specs_ == nullptr) {  // Run: write the routed tile
          for (int64_t r = 0; r < b; ++r) {
            float* out = scores + r * V + c0;
            if (mean) {
              std::memcpy(out, raw + r * TW,
                          static_cast<size_t>(tw) * sizeof(float));
            } else {
              simd::MaxRows(raw + r * K * TW, K, TW, out, tw);
            }
          }
          continue;
        }
        for (int64_t r = 0; r < b; ++r) {  // RunTopK: select from it
          if (!mean) {
            simd::MaxRows(raw + r * K * TW, K, TW, routed + r * TW, tw);
          }
          PushTile(s * max_batch_ + r, specs_[r], routed + r * TW, c0, tw);
        }
      }
    }
  });
  if (specs_ == nullptr) return;
  // Merge each row's stripe heaps in stripe order: they are contiguous, so
  // compact them to the front and sort the best k.
  for (int64_t r = 0; r < b; ++r) {
    const Heap& first = heaps_[static_cast<size_t>(r)];
    ScoredItem* row = cand_.get() + first.begin;
    int64_t n = first.size;
    for (int64_t s = 1; s < stripes; ++s) {
      const Heap& h = heaps_[static_cast<size_t>(s * max_batch_ + r)];
      std::memmove(row + n, cand_.get() + h.begin,
                   static_cast<size_t>(h.size) * sizeof(ScoredItem));
      n += h.size;
    }
    const int64_t take = std::min<int64_t>(specs_[r].k, n);
    std::partial_sort(row, row + take, row + n, RanksBeforeItem);
    ranked_[static_cast<size_t>(r)] = RankedRow{row, take};
  }
}

// A bounded heap with its worst entry on top. Columns arrive in ascending
// id order within a stripe, so a column whose score only ties the worst
// loses the id tie-break: once the heap is full, FindFirstGreater can skip
// every column not strictly above the worst score (a NaN worst, which any
// number beats, disables the skip). Exclusions are skipped by merge-walk.
void PlannedExecutor::PushTile(int64_t heap, const RankSpec& spec,
                               const float* x, int64_t c0, int64_t n) {
  Heap& h = heaps_[static_cast<size_t>(heap)];
  ScoredItem* data = cand_.get() + h.begin;
  const int32_t* ex_end = spec.exclude + spec.num_exclude;
  const int32_t* ex = std::lower_bound(spec.exclude, ex_end, c0);
  for (int64_t j = 0; j < n; ++j) {
    if (h.size == h.cap && !std::isnan(data[0].score)) {
      j += simd::FindFirstGreater(x + j, n - j, data[0].score);
      if (j == n) return;
    }
    const ScoredItem cand{x[j], static_cast<int32_t>(c0 + j)};
    while (ex != ex_end && *ex < cand.item) ++ex;
    if (ex != ex_end && *ex == cand.item) continue;
    if (h.size < h.cap) {
      data[h.size++] = cand;
      std::push_heap(data, data + h.size, RanksBeforeItem);
    } else if (RanksBeforeItem(cand, data[0])) {
      std::pop_heap(data, data + h.size, RanksBeforeItem);
      data[h.size - 1] = cand;
      std::push_heap(data, data + h.size, RanksBeforeItem);
    }
  }
}

}  // namespace missl::infer
