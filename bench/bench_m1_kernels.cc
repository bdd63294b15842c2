// M1 — Engine microbenchmarks (google-benchmark): the kernels every model's
// step time is made of. Not a paper artifact; used to sanity-check that
// experiment wall-clock is dominated by matmul as designed.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "baselines/sasrec.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "hypergraph/hgat.h"
#include "hypergraph/incidence.h"
#include "nn/attention.h"
#include "nn/transformer.h"
#include "runtime/runtime.h"
#include "tensor/ops.h"
#include "tensor/simd.h"
#include "utils/rng.h"

namespace {

using namespace missl;

void BM_MatMul(benchmark::State& state) {
  int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::Randn({n, n}, &rng);
  Tensor b = Tensor::Randn({n, n}, &rng);
  NoGradGuard ng;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b).data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(32)->Arg(64)->Arg(128);

void BM_BatchedMatMul(benchmark::State& state) {
  Rng rng(2);
  Tensor a = Tensor::Randn({64, 30, 32}, &rng);
  Tensor b = Tensor::Randn({64, 32, 30}, &rng);
  NoGradGuard ng;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b).data());
  }
}
BENCHMARK(BM_BatchedMatMul);

void BM_Softmax(benchmark::State& state) {
  Rng rng(3);
  Tensor a = Tensor::Randn({128, 30, 30}, &rng);
  NoGradGuard ng;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Softmax(a).data());
  }
}
BENCHMARK(BM_Softmax);

void BM_LayerNorm(benchmark::State& state) {
  Rng rng(4);
  Tensor x = Tensor::Randn({128, 30, 32}, &rng);
  Tensor g = Tensor::Ones({32});
  Tensor b = Tensor::Zeros({32});
  NoGradGuard ng;
  for (auto _ : state) {
    benchmark::DoNotOptimize(LayerNorm(x, g, b).data());
  }
}
BENCHMARK(BM_LayerNorm);

void BM_EmbeddingLookup(benchmark::State& state) {
  Rng rng(5);
  Tensor w = Tensor::Randn({2000, 32}, &rng);
  std::vector<int32_t> ids(128 * 30);
  for (auto& id : ids) id = static_cast<int32_t>(rng.UniformInt(2000));
  NoGradGuard ng;
  for (auto _ : state) {
    benchmark::DoNotOptimize(EmbeddingLookup(w, ids, {128, 30}).data());
  }
}
BENCHMARK(BM_EmbeddingLookup);

void BM_AttentionLayer(benchmark::State& state) {
  Rng rng(6);
  nn::MultiHeadAttention mha(32, 2, 0.0f, &rng);
  mha.SetTraining(false);
  Tensor x = Tensor::Randn({64, 30, 32}, &rng);
  NoGradGuard ng;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mha.Forward(x, x, x).data());
  }
}
BENCHMARK(BM_AttentionLayer);

void BM_HypergraphLayer(benchmark::State& state) {
  Rng rng(7);
  hypergraph::HypergraphAttentionLayer layer(32, 0.0f, &rng);
  layer.SetTraining(false);
  Tensor x = Tensor::Randn({64, 30, 32}, &rng);
  std::vector<int32_t> items(64 * 30), behs(64 * 30);
  for (size_t i = 0; i < items.size(); ++i) {
    items[i] = static_cast<int32_t>(rng.UniformInt(500));
    behs[i] = static_cast<int32_t>(rng.UniformInt(4));
  }
  hypergraph::HypergraphConfig cfg;
  Tensor inc = hypergraph::BuildIncidence(items, behs, 64, 30, 4, cfg);
  NoGradGuard ng;
  for (auto _ : state) {
    benchmark::DoNotOptimize(layer.Forward(x, inc).data());
  }
}
BENCHMARK(BM_HypergraphLayer);

void BM_IncidenceBuild(benchmark::State& state) {
  Rng rng(8);
  std::vector<int32_t> items(128 * 30), behs(128 * 30);
  for (size_t i = 0; i < items.size(); ++i) {
    items[i] = static_cast<int32_t>(rng.UniformInt(500));
    behs[i] = static_cast<int32_t>(rng.UniformInt(4));
  }
  hypergraph::HypergraphConfig cfg;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        hypergraph::BuildIncidence(items, behs, 128, 30, 4, cfg).data());
  }
}
BENCHMARK(BM_IncidenceBuild);

// SIMD-tier variants (Args = {size, tier}; tier 0 = scalar, 1 = avx2).
// Single-threaded on purpose: the scalar/avx2 rows isolate the kernel-tier
// speedup from thread scaling. Results are bitwise identical across tiers
// by construction (see docs/KERNELS.md); only the wall clock should move.
// On hardware without AVX2 the tier-1 rows are skipped with an error note.
bool SkipIfTierUnavailable(benchmark::State& state, simd::Tier tier) {
  if (tier == simd::Tier::kAvx2 && !simd::Avx2Available()) {
    state.SkipWithError("AVX2 not available on this host");
    return true;
  }
  return false;
}

void BM_MatMulSimd(benchmark::State& state) {
  int64_t n = state.range(0);
  auto tier = static_cast<simd::Tier>(state.range(1));
  if (SkipIfTierUnavailable(state, tier)) return;
  simd::ScopedTier st(tier);
  runtime::ScopedNumThreads nt(1);
  Rng rng(1);
  Tensor a = Tensor::Randn({n, n}, &rng);
  Tensor b = Tensor::Randn({n, n}, &rng);
  NoGradGuard ng;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b).data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
  state.SetLabel(simd::TierName(tier));
}
BENCHMARK(BM_MatMulSimd)
    ->Args({64, 0})->Args({64, 1})
    ->Args({128, 0})->Args({128, 1})
    ->Args({256, 0})->Args({256, 1});

// The transcendental rows (Args = {shape, tier}): shape 0 is the attention
// scores [128,30,30], 1 the encoder FFN hidden [128,30,64], 2 the
// full-catalog logits [128,1200]. Softmax is the forward alone; Gelu is the
// forward, and GeluBackward is Sum(Gelu(x)).Backward() with the forward
// included.
Shape TranscendentalShape(int64_t i) {
  static const Shape kShapes[] = {{128, 30, 30}, {128, 30, 64}, {128, 1200}};
  return kShapes[i];
}

void BM_SoftmaxSimd(benchmark::State& state) {
  const Shape shape = TranscendentalShape(state.range(0));
  auto tier = static_cast<simd::Tier>(state.range(1));
  if (SkipIfTierUnavailable(state, tier)) return;
  simd::ScopedTier st(tier);
  runtime::ScopedNumThreads nt(1);
  Rng rng(3);
  Tensor a = Tensor::Randn(shape, &rng);
  NoGradGuard ng;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Softmax(a).data());
  }
  state.SetLabel(std::string(simd::TierName(tier)) + " " +
                 ShapeToString(shape));
}
BENCHMARK(BM_SoftmaxSimd)
    ->Args({0, 0})->Args({0, 1})
    ->Args({1, 0})->Args({1, 1})
    ->Args({2, 0})->Args({2, 1});

void BM_GeluSimd(benchmark::State& state) {
  const Shape shape = TranscendentalShape(state.range(0));
  auto tier = static_cast<simd::Tier>(state.range(1));
  if (SkipIfTierUnavailable(state, tier)) return;
  simd::ScopedTier st(tier);
  runtime::ScopedNumThreads nt(1);
  Rng rng(8);
  Tensor a = Tensor::Randn(shape, &rng);
  NoGradGuard ng;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Gelu(a).data());
  }
  state.SetItemsProcessed(state.iterations() * a.numel());
  state.SetLabel(std::string(simd::TierName(tier)) + " " +
                 ShapeToString(shape));
}
BENCHMARK(BM_GeluSimd)->Args({1, 0})->Args({1, 1})->Args({2, 0})->Args({2, 1});

void BM_GeluBackwardSimd(benchmark::State& state) {
  const Shape shape = TranscendentalShape(state.range(0));
  auto tier = static_cast<simd::Tier>(state.range(1));
  if (SkipIfTierUnavailable(state, tier)) return;
  simd::ScopedTier st(tier);
  runtime::ScopedNumThreads nt(1);
  Rng rng(9);
  Tensor x = Tensor::Randn(shape, &rng, 1.0f, true);
  for (auto _ : state) {
    Sum(Gelu(x)).Backward();
    benchmark::DoNotOptimize(x.impl()->grad.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * x.numel());
  state.SetLabel(std::string(simd::TierName(tier)) + " " +
                 ShapeToString(shape));
}
BENCHMARK(BM_GeluBackwardSimd)
    ->Args({1, 0})->Args({1, 1})
    ->Args({2, 0})->Args({2, 1});

void BM_LayerNormSimd(benchmark::State& state) {
  auto tier = static_cast<simd::Tier>(state.range(0));
  if (SkipIfTierUnavailable(state, tier)) return;
  simd::ScopedTier st(tier);
  runtime::ScopedNumThreads nt(1);
  Rng rng(4);
  Tensor x = Tensor::Randn({128, 30, 32}, &rng);
  Tensor g = Tensor::Ones({32});
  Tensor b = Tensor::Zeros({32});
  NoGradGuard ng;
  for (auto _ : state) {
    benchmark::DoNotOptimize(LayerNorm(x, g, b).data());
  }
  state.SetLabel(simd::TierName(tier));
}
BENCHMARK(BM_LayerNormSimd)->Arg(0)->Arg(1);

void BM_ElementwiseSimd(benchmark::State& state) {
  auto tier = static_cast<simd::Tier>(state.range(0));
  if (SkipIfTierUnavailable(state, tier)) return;
  simd::ScopedTier st(tier);
  runtime::ScopedNumThreads nt(1);
  Rng rng(5);
  Tensor a = Tensor::Randn({128, 30, 32}, &rng);
  Tensor b = Tensor::Randn({128, 30, 32}, &rng);
  NoGradGuard ng;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Mul(Add(a, b), b).data());
  }
  state.SetLabel(simd::TierName(tier));
}
BENCHMARK(BM_ElementwiseSimd)->Arg(0)->Arg(1);

// Training backward on the tiers: Sum(op).Backward() with both inputs
// requiring grad, forward included. Args = {shape, tier}; shape 0 is the
// encoder Linear product [3840,32]x[32,32] (batch 128 x 30 positions), 1 the
// full-catalog logits [128,32]x[32,1200].
void BM_MatMulBackwardSimd(benchmark::State& state) {
  static constexpr int64_t kShapes[][3] = {{3840, 32, 32}, {128, 32, 1200}};
  const int64_t* s = kShapes[state.range(0)];
  auto tier = static_cast<simd::Tier>(state.range(1));
  if (SkipIfTierUnavailable(state, tier)) return;
  simd::ScopedTier st(tier);
  runtime::ScopedNumThreads nt(1);
  Rng rng(6);
  Tensor a = Tensor::Randn({s[0], s[1]}, &rng, 1.0f, true);
  Tensor b = Tensor::Randn({s[1], s[2]}, &rng, 1.0f, true);
  for (auto _ : state) {
    Sum(MatMul(a, b)).Backward();
    benchmark::DoNotOptimize(a.impl()->grad.data());
    benchmark::DoNotOptimize(b.impl()->grad.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * s[0] * s[1] * s[2]);
  state.SetLabel(std::string(simd::TierName(tier)) + " [" +
                 std::to_string(s[0]) + "," + std::to_string(s[1]) + "]x[" +
                 std::to_string(s[1]) + "," + std::to_string(s[2]) + "]");
}
BENCHMARK(BM_MatMulBackwardSimd)
    ->Args({0, 0})->Args({0, 1})
    ->Args({1, 0})->Args({1, 1});

// The encoder bias add [128,30,32] + [32] through the broadcast row walk.
void BM_BiasAddBackwardSimd(benchmark::State& state) {
  auto tier = static_cast<simd::Tier>(state.range(0));
  if (SkipIfTierUnavailable(state, tier)) return;
  simd::ScopedTier st(tier);
  runtime::ScopedNumThreads nt(1);
  Rng rng(7);
  Tensor x = Tensor::Randn({128, 30, 32}, &rng, 1.0f, true);
  Tensor bias = Tensor::Randn({32}, &rng, 1.0f, true);
  for (auto _ : state) {
    Sum(Add(x, bias)).Backward();
    benchmark::DoNotOptimize(x.impl()->grad.data());
    benchmark::DoNotOptimize(bias.impl()->grad.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(simd::TierName(tier));
}
BENCHMARK(BM_BiasAddBackwardSimd)->Arg(0)->Arg(1);

// Int8 catalog-dot kernel (docs/KERNELS.md §int8 tier): one activation row
// against V item-major int8 catalog rows, int32 accumulate, fp32 dequant
// per row. Args = {V, tier}; d fixed at the serving shape (32). Unlike the
// fp32 rows above the tiers are bitwise identical by integer associativity,
// not by a fixed accumulation order.
void BM_Int8DotSimd(benchmark::State& state) {
  int64_t v = state.range(0);
  auto tier = static_cast<simd::Tier>(state.range(1));
  if (SkipIfTierUnavailable(state, tier)) return;
  simd::ScopedTier st(tier);
  runtime::ScopedNumThreads nt(1);
  constexpr int64_t kD = 32;
  Rng rng(10);
  std::vector<int8_t> act(kD), cat(v * kD);
  for (auto& c : act) c = static_cast<int8_t>(rng.UniformInt(255)) % 127;
  for (auto& c : cat) c = static_cast<int8_t>(rng.UniformInt(255)) % 127;
  std::vector<float> scales(static_cast<size_t>(v));
  for (auto& s : scales) s = rng.Uniform(1e-3f, 2.0f);
  std::vector<float> out(static_cast<size_t>(v));
  for (auto _ : state) {
    simd::Int8DotDequantRows(act.data(), 0.02f, cat.data(), scales.data(),
                             out.data(), kD, 0, v);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * v * kD);
  state.SetLabel(simd::TierName(tier));
}
BENCHMARK(BM_Int8DotSimd)
    ->Args({1000, 0})->Args({1000, 1})
    ->Args({20000, 0})->Args({20000, 1});

// Thread-scaling variants (Arg = thread count). Results are bitwise
// identical across Args by construction (see docs/RUNTIME.md); only the
// wall clock should move. On a single-core host the >1-thread rows just
// measure oversubscription overhead.
void BM_MatMulThreaded(benchmark::State& state) {
  runtime::ScopedNumThreads t(static_cast<int>(state.range(0)));
  Rng rng(1);
  Tensor a = Tensor::Randn({256, 256}, &rng);
  Tensor b = Tensor::Randn({256, 256}, &rng);
  NoGradGuard ng;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b).data());
  }
  state.SetItemsProcessed(state.iterations() * 256 * 256 * 256);
}
BENCHMARK(BM_MatMulThreaded)->Arg(1)->Arg(2)->Arg(4);

void BM_BackwardThroughEncoderThreaded(benchmark::State& state) {
  runtime::ScopedNumThreads t(static_cast<int>(state.range(0)));
  Rng rng(9);
  nn::TransformerConfig cfg;
  cfg.dim = 32;
  cfg.heads = 2;
  cfg.layers = 1;
  cfg.ffn_hidden = 64;
  cfg.dropout = 0.0f;
  nn::TransformerEncoder enc(cfg, &rng);
  Tensor x = Tensor::Randn({32, 30, 32}, &rng);
  for (auto _ : state) {
    enc.ZeroGrad();
    Sum(Square(enc.Forward(x))).Backward();
  }
}
BENCHMARK(BM_BackwardThroughEncoderThreaded)->Arg(1)->Arg(2)->Arg(4);

void BM_FullEvalThreaded(benchmark::State& state) {
  runtime::ScopedNumThreads t(static_cast<int>(state.range(0)));
  data::SyntheticConfig cfg;
  cfg.num_users = 64;
  cfg.num_items = 300;
  cfg.min_events = 15;
  cfg.max_events = 30;
  cfg.seed = 5;
  data::Dataset ds = data::GenerateSynthetic(cfg);
  data::SplitView split(ds);
  eval::EvalConfig ec;
  ec.max_len = 20;
  ec.batch_size = 8;
  ec.mode = eval::CandidateMode::kFullRanking;
  eval::Evaluator evaluator(ds, split, ec);
  baselines::SasRecConfig mc;
  mc.dim = 32;
  mc.heads = 2;
  mc.layers = 1;
  baselines::SasRec model(ds.num_items(), ec.max_len, mc);
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.Evaluate(&model).mrr);
  }
}
BENCHMARK(BM_FullEvalThreaded)->Arg(1)->Arg(2)->Arg(4);

void BM_BackwardThroughEncoder(benchmark::State& state) {
  Rng rng(9);
  nn::TransformerConfig cfg;
  cfg.dim = 32;
  cfg.heads = 2;
  cfg.layers = 1;
  cfg.ffn_hidden = 64;
  cfg.dropout = 0.0f;
  nn::TransformerEncoder enc(cfg, &rng);
  Tensor x = Tensor::Randn({32, 30, 32}, &rng);
  for (auto _ : state) {
    enc.ZeroGrad();
    Sum(Square(enc.Forward(x))).Backward();
  }
}
BENCHMARK(BM_BackwardThroughEncoder);

}  // namespace

// Custom main instead of BENCHMARK_MAIN so --smoke can cut iteration time
// to a ctest-friendly budget before google-benchmark parses its flags.
int main(int argc, char** argv) {
  bool smoke = false;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (i > 0 && std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  std::string min_time = "--benchmark_min_time=0.01";
  if (smoke) args.push_back(min_time.data());
  // This bench speaks google-benchmark, so MISSL_BENCH_JSON_DIR maps onto
  // the library's native JSON reporter rather than the table mirror the
  // other benches use (bench/bench_common.cc).
  std::string out_flag, fmt_flag = "--benchmark_out_format=json";
  if (const char* dir = std::getenv("MISSL_BENCH_JSON_DIR");
      dir != nullptr && dir[0] != '\0') {
    out_flag = std::string("--benchmark_out=") + dir +
               "/BENCH_bench_m1_kernels.json";
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
