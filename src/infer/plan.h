// Inference-only planned executor (see docs/INFERENCE.md).
//
// The serving hot path never backpropagates, yet it used to run the
// training-mode forward: every intermediate materialized as an
// autograd-capable Tensor, with shape derivation, graph bookkeeping and a
// fresh round of allocator traffic on every coalesced batch.
// PlannedExecutor removes all of that. Compile() walks a frozen
// core::MisslModel ONCE and captures its serving forward
//
//   embed-sum -> hypergraph attention -> transformer encoder
//     -> per-behavior K-interest extraction -> gated fusion (+ common
//        interest) -> column-tiled catalog scoring -> per-row top-k
//
// into a static sequence of Op records over a fixed buffer table. Every
// shape, arena offset, fused weight pointer and plan-time constant (the
// transposed interest-query blocks, the sigmoid of the fusion gate) is
// resolved at compile time for a fixed geometry (max_batch, model max_len);
// Run() then executes the list with zero Tensor construction, zero autograd
// nodes and zero steady-state allocations — all intermediates live in one
// pool-backed scratch arena sized at plan time.
//
// The plan ends at the answer. Its last op walks the catalog in column
// tiles: it scores every interest row against one tile, folds routing (and
// the int8 dequant) per column, and feeds the routed tile to one of two
// sinks — RunTopK pushes it into per-row bounded top-k heaps (the serving
// path; no [b, V] score matrix is ever written), Run copies it into the
// full [b, V] score matrix (the parity oracle's view).
//
// The bitwise contract: Run() produces scores bitwise identical to
// MisslModel::ScoreAllItems on the same batch, and RunTopK() lists bitwise
// identical to core::TopKRow over those scores, on every SIMD tier at every
// thread count. Fusions (bias+activation in the GEMM epilogue,
// residual-add folded into layer-norm, the additive mask folded into the
// softmax pass, the exp/clamp of the hypergraph normalizer computed once
// per column instead of once per cell) only ever reorganize WHICH pass
// computes a value — each output element's chain of rounded float
// operations is kept instruction-for-instruction identical to the
// training-mode ops (tensor/ops_*.cc), which is what makes the training
// forward usable as the oracle in tests/infer_test.cc. See
// docs/INFERENCE.md for the full rule set.
#ifndef MISSL_INFER_PLAN_H_
#define MISSL_INFER_PLAN_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "core/missl.h"
#include "data/batch.h"
#include "tensor/alloc.h"
#include "tensor/tensor.h"
#include "utils/status.h"

namespace missl::infer {

/// Op kinds of the static plan. Each op reads/writes whole buffers from the
/// plan's buffer table; the per-kind field conventions are documented on Op.
enum class OpKind : int {
  kEmbedSum = 0,        ///< fused item+position+behavior(+recency) gather-sum
  kBuildIncidence,      ///< dense 0/1 hypergraph incidence from the int ids
  kLinear,              ///< dst = act(src x w + bias), GEMM with fused epilogue
  kMaskedNormalize,     ///< hypergraph attention row-normalizer (exp/clamp/mask)
  kBatchedGemm,         ///< dst[s] = a[s] x b[s] per batch slab
  kAttention,           ///< fused per-(batch, head) scaled-dot attention core
  kResidualLayerNorm,   ///< dst = LN(src + src2) with fused residual add
  kInterestExtract,     ///< per-behavior K-interest attention pooling
  kAuxMean,             ///< dst = mean over srcs (left-to-right add chain)
  kGatedFuse,           ///< dst = src + src2 * scale (sigmoid gate folded in)
  kCommonPool,          ///< masked mean pool + last position (common interest)
  kBroadcastAddRow,     ///< dst[b,k,:] = src[b,k,:] + src2[b,:]
  kCatalogScore,        ///< column-tiled interests x catalog (fp32 GEMM or
                        ///< int8 dot + dequant), max/mean routing per
                        ///< column, into the top-k or full-score sink
};

/// Fused activation epilogues applied per element after the bias add of a
/// kLinear op, with exactly the scalar formulas of tensor/ops_elementwise.cc.
enum class Activation : int { kNone = 0, kTanh, kGelu };

/// One entry of the plan's buffer table. Buffers are float regions inside
/// the single scratch arena, sized for max_batch rows at plan time; an op
/// running a smaller batch b touches only the first b * per_b floats.
/// Buffers with disjoint live ranges share bytes: ops write before reading.
struct BufferSpec {
  int64_t offset = 0;   ///< float offset into the arena
  int64_t per_b = 0;    ///< floats per batch row
  std::string label;    ///< for ToString / debugging
};

/// One op of the static plan. Field conventions by kind:
///   kEmbedSum:         w/w2/w3 = item/position/behavior tables, bias =
///                      recency table (null unless use_recency); in = dim.
///   kBuildIncidence:   t/e = sequence length / edges; dst = incidence.
///   kLinear:           src [rows_per_b, in] x w [in, out] + bias, act.
///   kMaskedNormalize:  src = per-column scores, src2 = incidence mask,
///                      scratch = exp row cache; rows_per_b x out cells;
///                      flag = read the mask transposed (node gather pass).
///   kBatchedGemm:      src [rows_per_b, in] x src2 [in, out] per batch.
///   kAttention:        src/src2/src3 = q/k/v, dst = head-concat layout,
///                      scratch = per-(batch, head) packing slabs; scale =
///                      1/sqrt(dh).
///   kResidualLayerNorm: w/b2 = gamma/beta, scale = eps, scratch/scratch2 =
///                      residual-sum and xhat rows.
///   kInterestExtract:  src = keys, src2 = encoded, w = transposed query
///                      block [d, K] (plan constant), behavior = channel.
///   kAuxMean:          srcs = per-behavior interests, scale = 1/n.
///   kGatedFuse:        scale = sigmoid(fusion_gate) plan constant.
///   kCommonPool:       src = encoded, dst = [d] pooled common interest.
///   kBroadcastAddRow:  src2 = [d] row added to each of the K interest rows.
///   kCatalogScore:     w = fp32 item table [V, d] (item-major; each tile
///                      is transposed into a per-stripe [d, kTileCols]
///                      block before its GEMM), or (int8 tier, w null)
///                      wq/wscale = item-major int8 catalog [V, d] + per-item
///                      scales [V]; flag = mean routing; dst = the Run score
///                      sink [V]; scratch = per-stripe tiles (raw interest
///                      rows x kTileCols, then the routed rows); scratch2 =
///                      interest mean ([d], mean routing only). The
///                      transposed tiles, the int8 activation rows and the
///                      top-k candidate lists live in presized executor
///                      members, not the float arena.
struct Op {
  OpKind kind = OpKind::kLinear;
  std::string label;
  int32_t src = -1, src2 = -1, src3 = -1;    ///< input buffer ids
  int32_t dst = -1;                          ///< output buffer id
  int32_t scratch = -1, scratch2 = -1;       ///< op-private scratch buffers
  std::vector<int32_t> srcs;                 ///< kAuxMean input list
  const float* w = nullptr;                  ///< primary weight / table
  const int8_t* wq = nullptr;                ///< quantized catalog [V, d]
  const float* wscale = nullptr;             ///< per-item fp32 scales [V]
  const float* w2 = nullptr;                 ///< secondary table (positions)
  const float* w3 = nullptr;                 ///< tertiary table (behaviors)
  const float* bias = nullptr;               ///< bias / recency table
  const float* b2 = nullptr;                 ///< layer-norm beta
  Activation act = Activation::kNone;
  int64_t rows_per_b = 0;                    ///< output rows per batch row
  int64_t in = 0, out = 0;                   ///< GEMM inner/outer dims
  int64_t t = 0, e = 0;                      ///< sequence length / edge count
  int64_t heads = 0, dh = 0, k = 0;          ///< attention / interest dims
  float scale = 0.0f;                        ///< scale / eps / gate constant
  int32_t behavior = -1;                     ///< interest channel
  bool flag = false;                         ///< kind-specific switch
};

/// Compile-time options. The defaults reproduce the fp32 plan exactly.
struct InferConfig {
  /// Quantize the catalog to symmetric per-item int8 at compile time; the
  /// one kCatalogScore op then scores the int8 catalog, and the plan keeps
  /// no fp32 copy. The int8 path is bitwise deterministic across SIMD tiers
  /// and thread counts (integer accumulation), but its scores differ from
  /// fp32 by quantization error — accuracy is gated as a ranking-level
  /// NDCG@10/Recall@10 bound in tests/quant_test.cc, never as float equality.
  bool quantize_catalog = false;
};

/// Catalog-quantization statistics, resolved at compile time (plus the
/// running activation-side saturation count). Exposed on /statusz.
struct QuantInfo {
  bool enabled = false;
  float min_scale = 0.0f;     ///< smallest non-zero per-item scale
  float max_scale = 0.0f;     ///< largest per-item scale
  int64_t zero_rows = 0;      ///< all-zero catalog items (scale 0)
  int64_t saturated = 0;      ///< catalog codes clamped to ±127 at compile
  int64_t int8_bytes = 0;     ///< quantized catalog + scales footprint
  int64_t fp32_bytes = 0;     ///< fp32 catalog footprint, for the ratio
};

/// One ranked catalog entry.
struct ScoredItem {
  float score;
  int32_t item;
};

/// What RunTopK ranks for one batch row.
struct RankSpec {
  int32_t k = 10;                    ///< list length, >= 1
  const int32_t* exclude = nullptr;  ///< sorted ascending; duplicates and ids
                                     ///< outside [0, V) are harmless
  int64_t num_exclude = 0;
};

/// A row's answer from the last RunTopK: `size` entries, best first.
struct RankedRow {
  const ScoredItem* items = nullptr;
  int64_t size = 0;
};

/// A frozen MisslModel forward compiled to a static op plan. Thread-safety:
/// Compile is safe anywhere; Run and RunTopK mutate the scratch arena, so at
/// most one run may execute at a time (RecoService calls it from the single
/// dispatcher thread). The model's parameters are kept alive by the executor
/// (shared storage), so the executor may outlive the model object.
class PlannedExecutor {
 public:
  /// Compiles the serving forward of `model` (weights must already be
  /// frozen/loaded) for batches of at most `max_batch` rows of exactly
  /// model.max_len() positions. The fp32 catalog score reads the model's
  /// item-major item table, the one the input embedding gathers from, so
  /// the plan holds no second copy of it; an int8 plan keeps only its
  /// quantized copy. Returns nullptr with *status set on an unsupported
  /// model; never allocates after it returns.
  static std::unique_ptr<PlannedExecutor> Compile(const core::MisslModel& model,
                                                  int64_t max_batch,
                                                  Status* status);

  /// Same, with compile-time options (InferConfig::quantize_catalog selects
  /// the int8 catalog tier). The overload above is Compile(..., {} , ...).
  static std::unique_ptr<PlannedExecutor> Compile(const core::MisslModel& model,
                                                  int64_t max_batch,
                                                  const InferConfig& options,
                                                  Status* status);

  /// The same two, kept only for bench/ledger's probes, which still pass the
  /// [d, V] PrecomputeCatalog matrix; the plan does not read it, so a wrong
  /// catalog is not rejected. Delete both once the probes drop the argument
  /// (ROADMAP item 10).
  static std::unique_ptr<PlannedExecutor> Compile(
      const core::MisslModel& model, const Tensor& /*catalog*/,
      int64_t max_batch, Status* status) {
    return Compile(model, max_batch, status);
  }
  static std::unique_ptr<PlannedExecutor> Compile(
      const core::MisslModel& model, const Tensor& /*catalog*/,
      int64_t max_batch, const InferConfig& options, Status* status) {
    return Compile(model, max_batch, options, status);
  }

  /// Executes the plan on `batch` and returns the [batch_size, num_items]
  /// row-major score matrix, resident in the plan's arena (valid until the
  /// next Run). Requires batch.max_len == the compiled max_len and
  /// batch.batch_size <= max_batch. Performs no tensor allocation: the
  /// allocator counters (tensor/alloc.h) are flat across calls, which
  /// tests/infer_test.cc and bench_m1_alloc's churn gate both enforce.
  const float* Run(const data::Batch& batch);

  /// Executes the plan on `batch` and ranks row r of the catalog by
  /// core::RanksBefore, skipping specs[r].exclude; ranked(r) then holds
  /// min(specs[r].k, items left) entries, bitwise equal to core::TopKRow
  /// over Run's scores. The score matrix is never written: each column tile
  /// is routed and selected from while it is cache-resident. Same
  /// requirements as Run, and the same zero-allocation guarantee (the
  /// candidate lists are presized at Compile).
  void RunTopK(const data::Batch& batch, const RankSpec* specs);
  /// Row `row`'s list from the last RunTopK (valid until the next run).
  RankedRow ranked(int64_t row) const {
    return ranked_[static_cast<size_t>(row)];
  }

  /// Catalog columns per tile: one tile of every interest row (b·K x 64
  /// floats at most, 12 KiB at b = 16, K = 3) stays L1/L2-resident while it
  /// is routed and ranked.
  static constexpr int64_t kTileCols = 64;
  /// Column stripes one catalog pass is split into, at most (one per
  /// ParallelFor chunk, each with its own tiles and candidate lists). The
  /// count is min(tiles, kMaxStripes): a function of V alone, so the
  /// partition never depends on the thread count.
  static constexpr int64_t kMaxStripes = 8;
  /// Batches with fewer multiply-adds in the catalog score (rows·V·d, with
  /// rows = b·K under max routing and b under mean routing) run on the
  /// calling thread alone. A batch opens ~25 parallel regions, and
  /// each pays a worker wake-up (runtime.pool.queue_wait_ns, ~8 us mean)
  /// and a join (runtime.pool.join_wait_ns, ~8 us) on a 4-CPU x86 box, while
  /// one thread scores ~5 catalog multiply-adds per ns. Measured there at
  /// d = 32, K = 3, 4 threads against 1: b = 1 at V = 20,000 (1.9 M) took
  /// 463 us against 360 us, b = 8 at V = 2,000 (1.5 M) tied, b = 16 at
  /// V = 2,000 (3.1 M) won 10 % and b = 16 at V = 20,000 (31 M) 2.8x.
  /// The floor sits above 3.1 M all the same: a full batch on a 2,000-item
  /// catalog gains little, and an open-loop server sees one only after a
  /// backlog, where waking the pool spawns three workers that stay and
  /// hold ~0.3 MiB of an ~8 MiB process. These are max-routing
  /// measurements; mean routing uses the same floor.
  static constexpr int64_t kSerialFloorMacs = 4'000'000;

  int64_t num_ops() const { return static_cast<int64_t>(ops_.size()); }
  /// Bytes of the pooled scratch arena (buffers packed by live range).
  int64_t scratch_bytes() const {
    return arena_.size() * static_cast<int64_t>(sizeof(float));
  }
  int64_t max_batch() const { return max_batch_; }
  int64_t max_len() const { return t_; }
  int64_t num_items() const { return num_items_; }
  /// True when the plan scores through the int8 catalog tier.
  bool quantized() const { return qinfo_.enabled; }
  /// Catalog-quantization statistics (all zero when !quantized()).
  const QuantInfo& quant_info() const { return qinfo_; }

  /// One line per op ("[12] linear rows=20 in=32 out=64 act=gelu ..."), the
  /// human-readable plan dump used by tests and debugging.
  std::string ToString() const;

 private:
  PlannedExecutor() = default;

  // compile.cc helpers.
  int32_t NewBuffer(int64_t per_b, std::string label);
  const float* AddConstant(std::vector<float> values);

  // execute.cc: op interpreters. Each replicates the exact float-op
  // sequence of the corresponding training-mode tensor ops.
  void Execute(const Op& op, int64_t b);
  void ExecEmbedSum(const Op& op, int64_t b);
  void ExecBuildIncidence(const Op& op, int64_t b);
  void ExecLinear(const Op& op, int64_t b);
  void ExecMaskedNormalize(const Op& op, int64_t b);
  void ExecBatchedGemm(const Op& op, int64_t b);
  void ExecAttention(const Op& op, int64_t b);
  void ExecResidualLayerNorm(const Op& op, int64_t b);
  void ExecInterestExtract(const Op& op, int64_t b);
  void ExecAuxMean(const Op& op, int64_t b);
  void ExecGatedFuse(const Op& op, int64_t b);
  void ExecCommonPool(const Op& op, int64_t b);
  void ExecBroadcastAddRow(const Op& op, int64_t b);
  void ExecCatalogScore(const Op& op, int64_t b);
  /// Shared body of Run and RunTopK; specs_ selects the catalog sink.
  void RunOps(const data::Batch& batch);
  /// Pushes routed scores x[0, n) of columns [c0, c0 + n) into the
  /// chunk-local heap heaps_[heap].
  void PushTile(int64_t heap, const RankSpec& spec, const float* x,
                int64_t c0, int64_t n);

  float* BufPtr(int32_t id) {
    return arena_.data() + bufs_[static_cast<size_t>(id)].offset;
  }

  // Geometry, resolved at compile time.
  core::MisslConfig cfg_;
  int32_t num_behaviors_ = 0;
  int64_t num_items_ = 0;
  int64_t max_batch_ = 0;
  int64_t t_ = 0;      ///< sequence length (model max_len)
  int64_t d_ = 0;      ///< embedding dim
  int64_t k_ = 0;      ///< interests per behavior channel
  int64_t e_ = 0;      ///< hyperedges per row (0 when hypergraph off)
  int64_t heads_ = 0, dh_ = 0;

  std::vector<Op> ops_;
  std::vector<BufferSpec> bufs_;
  int32_t scores_buf_ = -1;
  Storage arena_;  ///< one pooled allocation holding every buffer

  std::deque<std::vector<float>> constants_;  ///< plan-time derived weights
  std::vector<Tensor> keepalive_;  ///< shares ownership of referenced params

  // Fp32 catalog tier: one transposed [d, kTileCols] tile slot per stripe.
  // A chunk uses its first stripe's slot and writes it before reading it,
  // so a serial batch makes only one slot resident.
  std::unique_ptr<float[]> tile_t_;

  // Int8 catalog tier (InferConfig::quantize_catalog). The quantized
  // catalog is item-major, like the item table it is quantized from, so
  // each item score is one contiguous int8 row-dot; the activation-side
  // buffers are presized at compile so Run stays allocation-free (same rule
  // as the integer id scratch below).
  QuantInfo qinfo_;
  std::vector<int8_t> catalog_q_;      ///< [V, d] item-major int8 codes
  std::vector<float> catalog_scale_;   ///< [V] per-item scales
  std::vector<int8_t> act_q_;          ///< per-run quantized activation rows
  std::vector<float> act_scale_;       ///< per-run activation row scales

  // Catalog top-k sink. Row r's stripe heaps sit back to back in cand_,
  // each holding min(k, stripe width) entries at most, so a row never needs
  // more than V slots; only the slots a run's k values reach are touched.
  // cand_ is mapped straight from the kernel: a heap block of this size can
  // be memory an earlier phase (loading, compiling) already made resident,
  // while fresh pages become resident only when a run writes them.
  struct Unmap {
    size_t bytes;
    void operator()(ScoredItem* p) const;
  };
  struct Heap {
    int64_t begin = 0;  ///< first slot in cand_
    int64_t size = 0;
    int64_t cap = 0;
  };
  const RankSpec* specs_ = nullptr;      ///< set during RunTopK only
  std::unique_ptr<ScoredItem[], Unmap> cand_;  ///< [max_batch * V]
  std::vector<Heap> heaps_;              ///< [kMaxStripes * max_batch]
  std::vector<RankedRow> ranked_;        ///< [max_batch]

  // Per-run integer scratch (presized at compile; Run only overwrites).
  std::vector<int32_t> items_;  ///< effective merged items (ablation-masked)
  std::vector<int32_t> behs_;   ///< behaviors, -1 where items_ < 0
  std::vector<int32_t> rec_;    ///< recency buckets, -1 where items_ < 0
  const int32_t* orig_behs_ = nullptr;  ///< batch.merged_behaviors during Run
};

}  // namespace missl::infer

#endif  // MISSL_INFER_PLAN_H_
