// Kernel correctness harness for the SIMD tier (tensor/simd.h).
//
// The tier contract is "tiers change wall clock, never numbers": for every
// op with a vectorized path, scalar vs AVX2 vs threaded×AVX2 execution must
// produce bitwise-identical tensors — forward AND backward — at any shape,
// including ragged tails narrower than one vector width and size-0/1 edges.
// A NaN result only has to be NaN on every tier; its sign and payload are
// unspecified (tensor/simd.h), and the row-kernel sweeps check exactly that.
// This file enforces that with randomized shape sweeps (memcmp, not
// EXPECT_NEAR), runs gradcheck on the SIMD tier, pins the tier
// dispatch/gauge plumbing, checks the contiguity guard, and locks the whole
// stack down with a seeded 2-epoch end-to-end training golden compared
// bitwise across every tier × thread-count combination.
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/zoo.h"
#include "data/synthetic.h"
#include "obs/metrics.h"
#include "runtime/runtime.h"
#include "tensor/alloc.h"
#include "tensor/broadcast.h"
#include "tensor/ops.h"
#include "tensor/simd.h"
#include "tensor/tensor.h"
#include "test_util.h"
#include "train/trainer.h"

namespace missl {
namespace {

using simd::Tier;
using testing::GradCheck;

std::vector<Tier> TiersToTest() {
  std::vector<Tier> tiers{Tier::kScalar};
  if (simd::Avx2Available()) tiers.push_back(Tier::kAvx2);
  return tiers;
}

// Mixed-sign data with an optional fraction of exact zeros (exercises the
// matmul zero-skip branch, which must behave identically on every tier).
std::vector<float> RandomData(int64_t n, Rng* rng, float zero_frac = 0.0f) {
  std::vector<float> v(static_cast<size_t>(n));
  for (float& x : v) {
    x = rng->Uniform() < zero_frac ? 0.0f : rng->Uniform(-2.0f, 2.0f);
  }
  return v;
}

struct CaseResult {
  std::vector<float> out;
  std::vector<std::vector<float>> grads;
};

// Runs `fn` over fresh tensors built from `data`/`shapes` under the given
// tier and thread count; captures the forward output and (optionally) every
// input's gradient after backprop from Sum(out).
CaseResult RunOpCase(Tier tier, int threads,
                     const std::function<Tensor(std::vector<Tensor>&)>& fn,
                     const std::vector<std::vector<float>>& data,
                     const std::vector<Shape>& shapes, bool backward) {
  simd::ScopedTier st(tier);
  runtime::ScopedNumThreads snt(threads);
  std::vector<Tensor> inputs;
  for (size_t i = 0; i < data.size(); ++i) {
    inputs.push_back(Tensor::FromData(data[i], shapes[i], backward));
  }
  Tensor out = fn(inputs);
  CaseResult res;
  res.out = out.ToVector();
  if (backward) {
    Tensor loss = out.numel() == 1 ? out : Sum(out);
    loss.Backward();
    for (Tensor& in : inputs) {
      res.grads.push_back(in.has_grad() ? in.impl()->grad.ToVector()
                                        : std::vector<float>());
    }
  }
  return res;
}

void ExpectBitwise(const std::vector<float>& want,
                   const std::vector<float>& got, const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  if (!want.empty()) {
    EXPECT_EQ(0, std::memcmp(want.data(), got.data(),
                             want.size() * sizeof(float)))
        << what << ": bitwise mismatch";
  }
}

// The sweep core: reference run on (scalar, 1 thread), then every tier ×
// {1, 2, 4} threads must reproduce it bit for bit.
void SweepOp(const std::string& name,
             const std::function<Tensor(std::vector<Tensor>&)>& fn,
             const std::vector<std::vector<float>>& data,
             const std::vector<Shape>& shapes, bool backward = true) {
  CaseResult ref = RunOpCase(Tier::kScalar, 1, fn, data, shapes, backward);
  for (Tier tier : TiersToTest()) {
    for (int threads : {1, 2, 4}) {
      SCOPED_TRACE(name + " tier=" + simd::TierName(tier) +
                   " threads=" + std::to_string(threads));
      CaseResult got = RunOpCase(tier, threads, fn, data, shapes, backward);
      ExpectBitwise(ref.out, got.out, "forward");
      ASSERT_EQ(ref.grads.size(), got.grads.size());
      for (size_t i = 0; i < ref.grads.size(); ++i) {
        ExpectBitwise(ref.grads[i], got.grads[i],
                      "grad of input " + std::to_string(i));
      }
    }
  }
}

// ---- Tier dispatch ----------------------------------------------------------

TEST(SimdTierTest, ScalarAlwaysAvailableAndNamed) {
  EXPECT_STREQ("scalar", simd::TierName(Tier::kScalar));
  EXPECT_STREQ("avx2", simd::TierName(Tier::kAvx2));
  simd::ScopedTier st(Tier::kScalar);
  EXPECT_EQ(Tier::kScalar, simd::ActiveTier());
}

TEST(SimdTierTest, ScopedTierRestoresPrevious) {
  Tier before = simd::ActiveTier();
  {
    simd::ScopedTier st(Tier::kScalar);
    EXPECT_EQ(Tier::kScalar, simd::ActiveTier());
    if (simd::Avx2Available()) {
      simd::ScopedTier inner(Tier::kAvx2);
      EXPECT_EQ(Tier::kAvx2, simd::ActiveTier());
    }
    EXPECT_EQ(Tier::kScalar, simd::ActiveTier());
  }
  EXPECT_EQ(before, simd::ActiveTier());
}

TEST(SimdTierTest, GaugeReportsActiveTier) {
  obs::SetMetricsEnabled(true);
  auto& gauge = obs::MetricsRegistry::Global().GetGauge("simd.tier");
  Tier before = simd::ActiveTier();
  simd::SetTier(Tier::kScalar);
  EXPECT_EQ(0, gauge.value());
  if (simd::Avx2Available()) {
    simd::SetTier(Tier::kAvx2);
    EXPECT_EQ(1, gauge.value());
  }
  simd::SetTier(before);
  obs::SetMetricsEnabled(false);
}

// ---- Property-based shape sweeps -------------------------------------------

// Elementwise binary ops, same-shape fast path. Shapes deliberately include
// sub-vector-width (n < 8), exact multiples, n % 8 tails, and size-0/1.
TEST(KernelPropertyTest, ElementwiseBinarySweep) {
  Rng rng;
  rng.Seed(101);
  const std::vector<Shape> shapes = {{0},      {1},      {7},     {8},
                                     {9},      {3, 5},   {4, 8},  {2, 17},
                                     {5, 33},  {2, 3, 20}};
  struct BinCase {
    const char* name;
    Tensor (*op)(const Tensor&, const Tensor&);
  };
  const BinCase cases[] = {
      {"Add", Add}, {"Sub", Sub}, {"Mul", Mul}, {"Div", Div}};
  for (const Shape& s : shapes) {
    int64_t n = NumElements(s);
    std::vector<float> a = RandomData(n, &rng);
    // Keep divisors away from zero so Div stays finite.
    std::vector<float> b(static_cast<size_t>(n));
    for (float& x : b) {
      x = rng.Uniform(0.5f, 2.5f) * (rng.Bernoulli(0.5f) ? 1.0f : -1.0f);
    }
    for (const BinCase& c : cases) {
      SweepOp(std::string(c.name) + " " + ShapeToString(s),
              [op = c.op](std::vector<Tensor>& in) { return op(in[0], in[1]); },
              {a, b}, {s, s}, /*backward=*/n > 0);
    }
  }
}

// The broadcast (different-shape) path runs the row kernels on rows along
// which both inputs advance; it must agree with itself across tiers and
// threads (BackwardOracle* below pin it to the per-element reference).
TEST(KernelPropertyTest, ElementwiseBroadcastSweep) {
  Rng rng;
  rng.Seed(202);
  std::vector<float> a = RandomData(6 * 9, &rng);
  std::vector<float> b = RandomData(9, &rng);
  SweepOp("Add broadcast [6,9]+[9]",
          [](std::vector<Tensor>& in) { return Add(in[0], in[1]); }, {a, b},
          {{6, 9}, {9}});
  SweepOp("Mul broadcast [6,9]*[9]",
          [](std::vector<Tensor>& in) { return Mul(in[0], in[1]); }, {a, b},
          {{6, 9}, {9}});
}

TEST(KernelPropertyTest, ElementwiseUnarySweep) {
  Rng rng;
  rng.Seed(303);
  const std::vector<Shape> shapes = {{0},     {1},    {7},    {8},
                                     {15},    {16},   {17},   {3, 11},
                                     {2, 40}, {129}};
  for (const Shape& s : shapes) {
    int64_t n = NumElements(s);
    std::vector<float> a = RandomData(n, &rng, /*zero_frac=*/0.1f);
    SweepOp("Relu " + ShapeToString(s),
            [](std::vector<Tensor>& in) { return Relu(in[0]); }, {a}, {s},
            n > 0);
    SweepOp("AddScalar " + ShapeToString(s),
            [](std::vector<Tensor>& in) { return AddScalar(in[0], 0.37f); },
            {a}, {s}, n > 0);
    SweepOp("MulScalar " + ShapeToString(s),
            [](std::vector<Tensor>& in) { return MulScalar(in[0], -1.7f); },
            {a}, {s}, n > 0);
    SweepOp("Neg " + ShapeToString(s),
            [](std::vector<Tensor>& in) { return Neg(in[0]); }, {a}, {s},
            n > 0);
    // The transcendental ops, on [-2, 2] and on a range wide enough to reach
    // every clamp of the exp/tanh kernels.
    std::vector<float> wide = a;
    for (float& x : wide) x *= 60.0f;
    for (const auto* data : {&a, &wide}) {
      const std::string tag =
          (data == &a ? " " : " wide ") + ShapeToString(s);
      SweepOp("Gelu" + tag,
              [](std::vector<Tensor>& in) { return Gelu(in[0]); }, {*data},
              {s}, n > 0);
      SweepOp("Tanh" + tag,
              [](std::vector<Tensor>& in) { return Tanh(in[0]); }, {*data},
              {s}, n > 0);
      SweepOp("Exp" + tag,
              [](std::vector<Tensor>& in) { return Exp(in[0]); }, {*data},
              {s}, n > 0);
      SweepOp("Sigmoid" + tag,
              [](std::vector<Tensor>& in) { return Sigmoid(in[0]); },
              {*data}, {s}, n > 0);
    }
  }
}

// ---- Transcendental kernels -------------------------------------------------

float NextUp(float x) {
  return std::nextafter(x, std::numeric_limits<float>::infinity());
}
float NextDown(float x) {
  return std::nextafter(x, -std::numeric_limits<float>::infinity());
}

// Inputs every transcendental kernel must agree on across tiers: signed
// zeros, denormals, infinities, NaN, each clamp and branch edge of
// ExpRow/TanhRow (and the HGAT normaliser's +-10 clamp) one ulp either
// side, the softmax pad mask and an overflowing +100.
std::vector<float> SpecialInputs() {
  const float inf = std::numeric_limits<float>::infinity();
  const float dmin = std::numeric_limits<float>::denorm_min();
  std::vector<float> v = {0.0f,  -0.0f, dmin,  -dmin, 1e-40f, -1e-40f,
                          inf,   -inf,  std::numeric_limits<float>::quiet_NaN(),
                          -1e9f, 100.0f};
  for (float edge : {88.75f, -87.33654f, 88.72284f, 7.90531110763549805f,
                     0.0004f, 9.0109f, 10.0f}) {
    for (float e : {edge, -edge}) {
      v.push_back(e);
      v.push_back(NextUp(e));
      v.push_back(NextDown(e));
    }
  }
  return v;
}

// The tier contract for NaN results (tensor/simd.h): a NaN must be NaN on
// every tier, but its sign and payload are unspecified, because which of
// two NaN operands x86 returns depends on operand order. Mapping every NaN
// to one value before a bitwise compare checks every other bit exactly.
std::vector<float> CanonNan(std::vector<float> v) {
  for (float& f : v) {
    if (std::isnan(f)) f = std::numeric_limits<float>::quiet_NaN();
  }
  return v;
}

// Every row kernel of the transcendental family, and the two-input kernels
// whose NaN results depend on operand order, as one signature: (x, g, o, n)
// where o is the output (accumulated into by GeluGradRow) and ScaleRow's
// scalar is g[0]. nan_pairs marks the two-input kernels, which also get
// opposite-sign NaN pairs in x and g; the others keep inputs that are
// mostly finite, since one NaN poisons a whole SoftmaxRow row.
struct RowKernelCase {
  const char* name;
  std::function<void(const float*, const float*, float*, int64_t)> run;
  bool nan_pairs = false;
};

std::vector<RowKernelCase> RowKernels() {
  return {
      {"ExpRow", [](const float* x, const float*, float* o,
                    int64_t n) { simd::ExpRow(x, o, n); }},
      {"TanhRow", [](const float* x, const float*, float* o,
                     int64_t n) { simd::TanhRow(x, o, n); }},
      {"GeluRow", [](const float* x, const float*, float* o,
                     int64_t n) { simd::GeluRow(x, o, n); }},
      {"GeluGradRow", [](const float* x, const float* g, float* o,
                         int64_t n) { simd::GeluGradRow(x, g, o, n); }},
      {"SoftmaxRow", [](const float* x, const float*, float* o, int64_t n) {
         if (n > 0) simd::SoftmaxRow(x, o, n);
       }},
      {"AddRow", [](const float* x, const float* g, float* o,
                    int64_t n) { simd::AddRow(x, g, o, n); },
       true},
      {"MulRow", [](const float* x, const float* g, float* o,
                    int64_t n) { simd::MulRow(x, g, o, n); },
       true},
      {"ScaleRow", [](const float* x, const float* g, float* o, int64_t n) {
         if (n > 0) simd::ScaleRow(x, g[0], o, n);
       },
       true},
  };
}

// Each kernel on lengths 0..67 at every offset 0..7 from a 32-byte boundary
// (so full vectors, masked tails and unaligned rows all occur), on inputs
// mixing random values in [-12, 12] with the special values (and, for the
// two-input kernels, with NaN pairs of opposite sign in x and g), must
// return the scalar tier's bits on every tier, in and out of place, up to
// the NaN rule of CanonNan.
TEST(KernelPropertyTest, RowKernelsBitwiseAcrossTiers) {
  Rng rng(9090);
  const std::vector<float> special = SpecialInputs();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const RowKernelCase& k : RowKernels()) {
    for (int64_t n = 0; n <= 67; ++n) {
      for (int64_t off = 0; off < 8; ++off) {
        std::vector<float> x(static_cast<size_t>(n));
        std::vector<float> g(static_cast<size_t>(n));
        std::vector<float> o0(static_cast<size_t>(n));
        for (int64_t i = 0; i < n; ++i) {
          const float u = k.nan_pairs ? rng.Uniform() : 1.0f;
          if (u < 0.1f) {
            x[i] = u < 0.05f ? nan : -nan;
            g[i] = -x[i];
          } else {
            x[i] = rng.Uniform() < 0.3f
                       ? special[rng.UniformInt(special.size())]
                       : rng.Uniform(-12.0f, 12.0f);
            g[i] = rng.Uniform(-2.0f, 2.0f);
          }
          o0[i] = rng.Uniform() < 0.2f ? -0.0f : rng.Uniform(-1.0f, 1.0f);
        }
        auto run = [&](Tier tier, bool in_place) {
          simd::ScopedTier st(tier);
          alignas(32) float buf[3][80];
          float* px = buf[0] + off;
          float* pg = buf[1] + off;
          float* po = in_place ? px : buf[2] + off;
          std::copy(x.begin(), x.end(), px);
          std::copy(g.begin(), g.end(), pg);
          if (!in_place) std::copy(o0.begin(), o0.end(), po);
          k.run(px, pg, po, n);
          return std::vector<float>(po, po + n);
        };
        // GeluGradRow accumulates into its output, so it has no in-place form.
        for (bool in_place : {false, true}) {
          if (in_place && k.name == std::string("GeluGradRow")) continue;
          const std::vector<float> ref = CanonNan(run(Tier::kScalar, in_place));
          for (Tier tier : TiersToTest()) {
            ExpectBitwise(ref, CanonNan(run(tier, in_place)),
                          std::string(k.name) + " tier=" +
                              simd::TierName(tier) + " n=" +
                              std::to_string(n) + " off=" +
                              std::to_string(off) +
                              (in_place ? " in place" : ""));
          }
        }
      }
    }
  }
}

// Distance in units in the last place: |Key(a) - Key(b)| over the
// monotone integer image of the floats (+0 and -0 are both 0; inf is one
// past FLT_MAX).
int64_t UlpKey(float x) {
  int32_t i;
  std::memcpy(&i, &x, sizeof(i));
  return i < 0 ? -static_cast<int64_t>(i & 0x7fffffff) : i;
}
int64_t UlpDistance(float a, float b) {
  const int64_t d = UlpKey(a) - UlpKey(b);
  return d < 0 ? -d : d;
}
uint32_t FloatBits(float x) {
  uint32_t u;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

// The error contract of simd.h against libm, on a strided walk over every
// finite float (about a million inputs, both signs, every binade), on
// every tier: exp within 2 ulp on [-87.3, 88.7], +0 below FLT_MIN's log
// and +inf where expf overflows; tanh within 8 ulp everywhere, odd bit for
// bit, x itself for |x| < 4e-4 and exactly +-1 wherever tanhf is. Prints
// the worst input on failure.
TEST(KernelPropertyTest, TranscendentalUlpBoundsAgainstLibm) {
  std::vector<float> xs;
  for (uint64_t u = 0; u < (uint64_t{1} << 32); u += 4093) {
    uint32_t b = static_cast<uint32_t>(u);
    float x;
    std::memcpy(&x, &b, sizeof(x));
    if (std::isfinite(x)) xs.push_back(x);
  }
  for (float x : SpecialInputs()) {
    if (std::isfinite(x)) xs.push_back(x);
  }
  const int64_t n = static_cast<int64_t>(xs.size());
  std::vector<float> neg(xs.size());
  for (size_t i = 0; i < xs.size(); ++i) neg[i] = -xs[i];
  for (Tier tier : TiersToTest()) {
    SCOPED_TRACE(std::string("tier=") + simd::TierName(tier));
    simd::ScopedTier st(tier);
    std::vector<float> e(xs.size()), t(xs.size()), tn(xs.size());
    simd::ExpRow(xs.data(), e.data(), n);
    simd::TanhRow(xs.data(), t.data(), n);
    simd::TanhRow(neg.data(), tn.data(), n);
    int64_t worst_exp = 0, worst_tanh = 0;
    float worst_exp_x = 0.0f, worst_tanh_x = 0.0f;
    for (size_t i = 0; i < xs.size(); ++i) {
      const float x = xs[i];
      if (x >= -87.3f && x <= 88.7f) {
        const int64_t d = UlpDistance(e[i], std::exp(x));
        if (d > worst_exp) {
          worst_exp = d;
          worst_exp_x = x;
        }
      } else if (x < -87.33654f) {
        EXPECT_EQ(FloatBits(e[i]), 0u) << "exp(" << x << ") = " << e[i];
      } else if (std::isinf(std::exp(x))) {
        EXPECT_EQ(e[i], std::numeric_limits<float>::infinity())
            << "exp(" << x << ") = " << e[i];
      }
      const float want = std::tanh(x);
      const int64_t d = UlpDistance(t[i], want);
      if (d > worst_tanh) {
        worst_tanh = d;
        worst_tanh_x = x;
      }
      EXPECT_EQ(FloatBits(tn[i]), FloatBits(t[i]) ^ 0x80000000u)
          << "tanh is not odd at " << x;
      if (std::fabs(x) < 0.0004f) {
        EXPECT_EQ(FloatBits(t[i]), FloatBits(x)) << "tanh(" << x << ")";
      }
      if (std::fabs(want) == 1.0f) {
        EXPECT_EQ(t[i], want) << "tanh(" << x << ") = " << t[i];
      }
    }
    EXPECT_LE(worst_exp, 2) << "worst exp input " << worst_exp_x;
    EXPECT_LE(worst_tanh, 8) << "worst tanh input " << worst_tanh_x;
    // Non-finite inputs.
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    float in[5] = {inf, -inf, nan, -nan, 0.0f};
    float out[5];
    simd::ExpRow(in, out, 5);
    EXPECT_EQ(out[0], inf);
    EXPECT_EQ(FloatBits(out[1]), 0u);
    EXPECT_TRUE(std::isnan(out[2]) && std::isnan(out[3]));
    EXPECT_EQ(out[4], 1.0f);
    simd::TanhRow(in, out, 5);
    EXPECT_EQ(out[0], 1.0f);
    EXPECT_EQ(out[1], -1.0f);
    EXPECT_TRUE(std::isnan(out[2]) && std::isnan(out[3]));
    EXPECT_EQ(FloatBits(out[4]), 0u);
  }
}

// MatMul: output-column counts sweep across the 32-wide register-blocked
// path, the 8-wide path, and the scalar tail — plus batched and shared-B
// variants. ~20% exact zeros in A exercise the zero-skip branch.
TEST(KernelPropertyTest, MatMulSweep) {
  Rng rng;
  rng.Seed(404);
  struct Dims {
    int64_t m, k, n;
  };
  const Dims dims[] = {{1, 1, 1},  {2, 3, 1},  {3, 4, 7},   {4, 5, 8},
                       {5, 6, 9},  {3, 8, 31}, {2, 7, 32},  {3, 5, 33},
                       {4, 9, 40}, {2, 16, 67}};
  for (const Dims& d : dims) {
    std::vector<float> a = RandomData(d.m * d.k, &rng, /*zero_frac=*/0.2f);
    std::vector<float> b = RandomData(d.k * d.n, &rng);
    SweepOp("MatMul [" + std::to_string(d.m) + "," + std::to_string(d.k) +
                "]x[" + std::to_string(d.k) + "," + std::to_string(d.n) + "]",
            [](std::vector<Tensor>& in) { return MatMul(in[0], in[1]); },
            {a, b}, {{d.m, d.k}, {d.k, d.n}});
  }
  // Batched and shared-right-operand forms.
  const int64_t bt = 3, m = 4, k = 5, n = 33;
  std::vector<float> a3 = RandomData(bt * m * k, &rng, 0.2f);
  std::vector<float> b3 = RandomData(bt * k * n, &rng);
  std::vector<float> b2 = RandomData(k * n, &rng);
  SweepOp("MatMul batched",
          [](std::vector<Tensor>& in) { return MatMul(in[0], in[1]); },
          {a3, b3}, {{bt, m, k}, {bt, k, n}});
  SweepOp("MatMul shared-B",
          [](std::vector<Tensor>& in) { return MatMul(in[0], in[1]); },
          {a3, b2}, {{bt, m, k}, {k, n}});
}

// The catalog top-k's kernels: GemmRows over a column range of a wider B
// (ldb/ldc strides) equals those columns of the dense product; MaxRows keeps
// the strict-> scan's NaN/±0 semantics; FindFirstGreater finds the same
// index on every tier, across the 32/8-lane blocks and the scalar tail.
TEST(KernelPropertyTest, CatalogTopKKernelsMatchScalarOnEveryTier) {
  Rng rng(17);
  const float nan = std::nanf("");
  const float inf = std::numeric_limits<float>::infinity();
  for (Tier tier : TiersToTest()) {
    simd::ScopedTier st(tier);
    for (int64_t n : {int64_t{1}, int64_t{7}, int64_t{40}, int64_t{64},
                      int64_t{100}}) {
      const int64_t m = 5, k = 9, c0 = n / 3, w = n - c0;
      std::vector<float> a = RandomData(m * k, &rng, 0.3f);
      std::vector<float> bm = RandomData(k * n, &rng);
      std::vector<float> dense(static_cast<size_t>(m * n), 0.0f);
      simd::GemmRows(a.data(), bm.data(), dense.data(), k, n, n, n, 0, m);
      std::vector<float> part(static_cast<size_t>(m * w), 0.0f);
      simd::GemmRows(a.data(), bm.data() + c0, part.data(), k, w, n, w, 0, m);
      for (int64_t i = 0; i < m; ++i) {
        EXPECT_EQ(std::memcmp(part.data() + i * w, dense.data() + i * n + c0,
                              static_cast<size_t>(w) * sizeof(float)),
                  0)
            << simd::TierName(tier) << " n=" << n << " row " << i;
      }

      // Rows of specials: NaN never wins, the first of +0/-0 stays, an
      // all-NaN column yields -inf.
      const float specials[] = {nan, 0.0f, -0.0f, -inf, inf, 1.0f};
      std::vector<float> rows(static_cast<size_t>(3 * n));
      for (float& x : rows) x = specials[rng.UniformInt(6)];
      std::vector<float> got(static_cast<size_t>(n));
      simd::MaxRows(rows.data(), 3, n, got.data(), n);
      for (int64_t j = 0; j < n; ++j) {
        float best = -inf;
        for (int64_t r = 0; r < 3; ++r) {
          const float x = rows[static_cast<size_t>(r * n + j)];
          if (x > best) best = x;
        }
        EXPECT_EQ(std::memcmp(&got[static_cast<size_t>(j)], &best,
                              sizeof(float)),
                  0)
            << simd::TierName(tier) << " n=" << n << " col " << j;
      }

      for (float thr : {-inf, 0.0f, 1.0f, inf, nan}) {
        int64_t want = n;
        for (int64_t j = 0; j < n; ++j) {
          if (rows[static_cast<size_t>(j)] > thr) {
            want = j;
            break;
          }
        }
        EXPECT_EQ(simd::FindFirstGreater(rows.data(), n, thr), want)
            << simd::TierName(tier) << " n=" << n << " thr=" << thr;
      }
      // One hit at each lane-block edge, behind a run of misses.
      for (int64_t hit : {int64_t{0}, int64_t{31}, int64_t{32}, int64_t{39},
                          n - 1}) {
        if (hit >= n) continue;
        std::vector<float> x(static_cast<size_t>(n), -0.0f);
        x[static_cast<size_t>(hit)] = 0.5f;
        EXPECT_EQ(simd::FindFirstGreater(x.data(), n, 0.0f), hit)
            << simd::TierName(tier) << " n=" << n;
      }
    }
  }
}

TEST(KernelPropertyTest, SoftmaxFamilySweep) {
  Rng rng;
  rng.Seed(505);
  const std::vector<Shape> shapes = {{1, 1},  {1, 7},  {3, 8},  {4, 9},
                                     {2, 33}, {5, 17}, {2, 3, 11}};
  for (const Shape& s : shapes) {
    int64_t n = NumElements(s);
    std::vector<float> a = RandomData(n, &rng);
    SweepOp("Softmax " + ShapeToString(s),
            [](std::vector<Tensor>& in) { return Softmax(in[0]); }, {a}, {s});
    SweepOp("LogSoftmax " + ShapeToString(s),
            [](std::vector<Tensor>& in) { return LogSoftmax(in[0]); }, {a},
            {s});
    SweepOp("L2Normalize " + ShapeToString(s),
            [](std::vector<Tensor>& in) { return L2Normalize(in[0]); }, {a},
            {s});
  }
}

TEST(KernelPropertyTest, LayerNormSweep) {
  Rng rng;
  rng.Seed(606);
  const std::vector<Shape> shapes = {{1, 1},  {2, 7},  {3, 8},
                                     {4, 9},  {2, 33}, {3, 2, 17}};
  for (const Shape& s : shapes) {
    int64_t d = s.back();
    std::vector<float> x = RandomData(NumElements(s), &rng);
    std::vector<float> gamma = RandomData(d, &rng);
    std::vector<float> beta = RandomData(d, &rng);
    SweepOp("LayerNorm " + ShapeToString(s),
            [](std::vector<Tensor>& in) {
              return LayerNorm(in[0], in[1], in[2]);
            },
            {x, gamma, beta}, {s, {d}, {d}});
  }
}

TEST(KernelPropertyTest, CrossEntropySweep) {
  Rng rng;
  rng.Seed(707);
  for (int64_t c : {1, 7, 8, 9, 33, 50}) {
    const int64_t bsz = 5;
    std::vector<float> logits = RandomData(bsz * c, &rng);
    std::vector<int32_t> targets;
    for (int64_t r = 0; r < bsz; ++r) {
      // Mix in an ignored (-1) target to cover that branch too.
      targets.push_back(r == 2 ? -1
                               : static_cast<int32_t>(rng.UniformInt(
                                     static_cast<uint64_t>(c))));
    }
    SweepOp("CrossEntropy C=" + std::to_string(c),
            [targets](std::vector<Tensor>& in) {
              return CrossEntropyLoss(in[0], targets);
            },
            {logits}, {{bsz, c}});
  }
}

// ---- Backward oracles -------------------------------------------------------

// The MatMul backward and the broadcast walk as they were before both moved
// onto the row kernels — the per-cell scalar dA dot, the per-(s, i, kk) dB
// row update, and the per-element odometer with its ReduceGradTo — kept here
// as the reference. The rewritten paths must reproduce them bit for bit on
// every tier and thread count, accumulating into pre-existing gradients.

// Forward reference: GemmRows' contract, ascending k with the a == 0 skip.
void RefMatMul(const float* pa, const float* pb, float* po, int64_t batch,
               int64_t m, int64_t k, int64_t n, bool b_batched) {
  for (int64_t s = 0; s < batch; ++s) {
    const float* bs = pb + (b_batched ? s * k * n : 0);
    for (int64_t i = 0; i < m; ++i) {
      const float* arow = pa + (s * m + i) * k;
      float* orow = po + (s * m + i) * n;
      for (int64_t j = 0; j < n; ++j) orow[j] = 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) {
        float av = arow[kk];
        if (av == 0.0f) continue;
        for (int64_t j = 0; j < n; ++j) orow[j] += av * bs[kk * n + j];
      }
    }
  }
}

void RefMatMulBackward(const float* pa, const float* pb, const float* g,
                       float* ga, float* gb, int64_t batch, int64_t m,
                       int64_t k, int64_t n, bool b_batched) {
  for (int64_t r = 0; r < batch * m; ++r) {
    int64_t s = r / m;
    const float* bs = pb + (b_batched ? s * k * n : 0);
    const float* grow = g + r * n;
    float* garow = ga + r * k;
    for (int64_t kk = 0; kk < k; ++kk) {
      const float* brow = bs + kk * n;
      float acc = 0.0f;
      for (int64_t j = 0; j < n; ++j) acc += grow[j] * brow[j];
      garow[kk] += acc;
    }
  }
  for (int64_t s = 0; s < batch; ++s) {
    const float* as = pa + s * m * k;
    const float* gs = g + s * m * n;
    float* gbs = gb + (b_batched ? s * k * n : 0);
    for (int64_t i = 0; i < m; ++i) {
      const float* arow = as + i * k;
      const float* grow = gs + i * n;
      for (int64_t kk = 0; kk < k; ++kk) {
        float av = arow[kk];
        if (av == 0.0f) continue;
        for (int64_t j = 0; j < n; ++j) gbs[kk * n + j] += av * grow[j];
      }
    }
  }
}

std::vector<int64_t> RefBroadcastStrides(const Shape& in, const Shape& out) {
  size_t r = out.size(), ri = in.size();
  std::vector<int64_t> strides(r, 0);
  int64_t s = 1;
  for (size_t i = 0; i < ri; ++i) {
    size_t din = ri - 1 - i;
    size_t dout = r - 1 - i;
    strides[dout] = in[din] == out[dout] ? s : 0;
    s *= in[din];
  }
  return strides;
}

// fn(out_index, a_offset, b_offset) for every element of `out`.
template <typename Fn>
void RefBroadcastIterate(const Shape& out, const Shape& a, const Shape& b,
                         Fn&& fn) {
  int64_t n = NumElements(out);
  if (n == 0) return;
  size_t rank = out.size();
  std::vector<int64_t> sa = RefBroadcastStrides(a, out);
  std::vector<int64_t> sb = RefBroadcastStrides(b, out);
  std::vector<int64_t> idx(rank, 0);
  int64_t oa = 0, ob = 0;
  for (int64_t i = 0;;) {
    fn(i, oa, ob);
    if (++i == n) break;
    for (size_t d = rank; d-- > 0;) {
      ++idx[d];
      oa += sa[d];
      ob += sb[d];
      if (idx[d] < out[d]) break;
      oa -= sa[d] * out[d];
      ob -= sb[d] * out[d];
      idx[d] = 0;
    }
  }
}

std::vector<float> RefReduceGradTo(const float* g, const Shape& out,
                                   const Shape& in) {
  std::vector<float> r(static_cast<size_t>(NumElements(in)), 0.0f);
  RefBroadcastIterate(out, in, in, [&](int64_t i, int64_t oin, int64_t) {
    r[static_cast<size_t>(oin)] += g[i];
  });
  return r;
}

struct RefBinary {
  const char* name;
  Tensor (*op)(const Tensor&, const Tensor&);
  float (*f)(float, float);
  float (*dx)(float, float);
  float (*dy)(float, float);
};

const RefBinary kRefBinaries[] = {
    {"Add", Add, [](float x, float y) { return x + y; },
     [](float, float) { return 1.0f; }, [](float, float) { return 1.0f; }},
    {"Sub", Sub, [](float x, float y) { return x - y; },
     [](float, float) { return 1.0f; }, [](float, float) { return -1.0f; }},
    {"Mul", Mul, [](float x, float y) { return x * y; },
     [](float, float y) { return y; }, [](float x, float) { return x; }},
    {"Div", Div, [](float x, float y) { return x / y; },
     [](float, float y) { return 1.0f / y; },
     [](float x, float y) { return -x / (y * y); }},
};

// One input of an oracle case: values plus the gradient already sitting in
// its buffer before Backward accumulates into it. A fifth of that gradient
// is -0.0, the one value for which `grad += 0 + x` and `grad += x` differ
// (at x = -0.0), so a path that drops the reference's zero-started partial
// sum shows.
struct OracleInput {
  std::vector<float> data, grad;
  Shape shape;
};

OracleInput MakeOracleInput(Shape shape, Rng* rng, float zero_frac) {
  const int64_t n = NumElements(shape);
  std::vector<float> grad = RandomData(n, rng, 0.2f);
  for (float& x : grad) x = x == 0.0f ? -0.0f : x;
  return {RandomData(n, rng, zero_frac), std::move(grad), std::move(shape)};
}

// Runs op(a, b) under every tier x {1, 2, 4} threads with g = the upstream
// gradient (delivered as the weights of Sum(Mul(out, g))) and pre-filled
// input gradients; the output and both gradients must equal `want_*`.
void ExpectMatchesOracle(const std::string& name,
                         Tensor (*op)(const Tensor&, const Tensor&),
                         const OracleInput& a, const OracleInput& b,
                         const std::vector<float>& g,
                         const std::vector<float>& want_out,
                         const std::vector<float>& want_ga,
                         const std::vector<float>& want_gb) {
  for (Tier tier : TiersToTest()) {
    for (int threads : {1, 2, 4}) {
      SCOPED_TRACE(name + " tier=" + simd::TierName(tier) +
                   " threads=" + std::to_string(threads));
      simd::ScopedTier st(tier);
      runtime::ScopedNumThreads snt(threads);
      Tensor ta = Tensor::FromData(a.data, a.shape, true);
      Tensor tb = Tensor::FromData(b.data, b.shape, true);
      ta.impl()->EnsureGrad();
      ta.impl()->grad.copy_from(a.grad.data(), ta.numel());
      tb.impl()->EnsureGrad();
      tb.impl()->grad.copy_from(b.grad.data(), tb.numel());
      Tensor out = op(ta, tb);
      Sum(Mul(out, Tensor::FromData(g, out.shape()))).Backward();
      ExpectBitwise(want_out, out.ToVector(), "forward");
      ExpectBitwise(want_ga, ta.impl()->grad.ToVector(), "grad of a");
      ExpectBitwise(want_gb, tb.impl()->grad.ToVector(), "grad of b");
    }
  }
}

// Shared and batched B; n and k below, at and above 32 and off multiples of
// 8; m = 1; enough rows for several chunks at 4 threads, and contractions
// longer than one dB tile of 256 rows. A is 20% exact zeros (the dB skip)
// and g 50% (the dA skip).
TEST(KernelPropertyTest, BackwardOracleMatMul) {
  Rng rng(1001);
  struct Dims {
    int64_t batch, m, k, n;
  };
  const Dims dims[] = {{1, 1, 5, 7},   {1, 1, 32, 32}, {1, 6, 33, 45},
                       {2, 3, 31, 70}, {3, 1, 40, 13}, {2, 9, 67, 33},
                       {4, 17, 12, 100}, {8, 30, 32, 32}, {2, 64, 32, 3},
                       {3, 100, 10, 36}, {1, 600, 4, 20}};
  for (const Dims& d : dims) {
    for (int form = 0; form < 3; ++form) {  // 2-D, shared B, batched B
      if (form == 0 && d.batch != 1) continue;
      const bool b_batched = form == 2;
      const Shape sa = form == 0 ? Shape{d.m, d.k} : Shape{d.batch, d.m, d.k};
      const Shape sb =
          b_batched ? Shape{d.batch, d.k, d.n} : Shape{d.k, d.n};
      OracleInput a = MakeOracleInput(sa, &rng, 0.2f);
      OracleInput b = MakeOracleInput(sb, &rng, 0.0f);
      std::vector<float> g = RandomData(d.batch * d.m * d.n, &rng, 0.5f);
      std::vector<float> out(g.size()), ga = a.grad, gb = b.grad;
      RefMatMul(a.data.data(), b.data.data(), out.data(), d.batch, d.m, d.k,
                d.n, b_batched);
      RefMatMulBackward(a.data.data(), b.data.data(), g.data(), ga.data(),
                        gb.data(), d.batch, d.m, d.k, d.n, b_batched);
      ExpectMatchesOracle("MatMul " + ShapeToString(sa) + " x " +
                              ShapeToString(sb),
                          MatMul, a, b, g, out, ga, gb);
    }
  }
}

// The broadcast shapes the models use — bias rows, a leading 1, the bias on
// the left, a key mask over the middle axis, a per-position scale — at row
// lengths below and above one vector, off multiples of 8, and longer than
// the 256-float gradient tile.
TEST(KernelPropertyTest, BackwardOracleBroadcast) {
  Rng rng(1002);
  std::vector<std::pair<Shape, Shape>> cases;
  for (int64_t d : {5, 32, 300}) {
    const int64_t bt = 3, t = 4;
    cases.push_back({{bt, t, d}, {d}});
    cases.push_back({{bt, t, d}, {1, d}});
    cases.push_back({{d}, {bt, t, d}});
    cases.push_back({{bt, t, d}, {bt, t, 1}});
  }
  for (int64_t t : {5, 9, 40}) cases.push_back({{2, t, t}, {2, 1, t}});
  for (const auto& [sa, sb] : cases) {
    const Shape so = internal::BroadcastShape(sa, sb);
    const int64_t n = NumElements(so);
    OracleInput a = MakeOracleInput(sa, &rng, 0.1f);
    OracleInput b = MakeOracleInput(sb, &rng, 0.0f);
    // Keep divisors away from zero so Div stays finite.
    for (float& y : b.data) y = y < 0.0f ? y - 0.5f : y + 0.5f;
    std::vector<float> g = RandomData(n, &rng, 0.5f);
    for (const RefBinary& op : kRefBinaries) {
      std::vector<float> out(static_cast<size_t>(n)), full(out.size());
      RefBroadcastIterate(so, sa, sb, [&](int64_t i, int64_t ia, int64_t ib) {
        out[i] = op.f(a.data[ia], b.data[ib]);
      });
      std::vector<float> ga = a.grad, gb = b.grad;
      RefBroadcastIterate(so, sa, sb, [&](int64_t i, int64_t ia, int64_t ib) {
        full[i] = op.dx(a.data[ia], b.data[ib]) * g[i];
      });
      std::vector<float> red = RefReduceGradTo(full.data(), so, sa);
      for (size_t e = 0; e < red.size(); ++e) ga[e] += red[e];
      RefBroadcastIterate(so, sa, sb, [&](int64_t i, int64_t ia, int64_t ib) {
        full[i] = op.dy(a.data[ia], b.data[ib]) * g[i];
      });
      red = RefReduceGradTo(full.data(), so, sb);
      for (size_t e = 0; e < red.size(); ++e) gb[e] += red[e];
      ExpectMatchesOracle(std::string(op.name) + " " + ShapeToString(sa) +
                              " with " + ShapeToString(sb),
                          op.op, a, b, g, out, ga, gb);
    }
  }
}

// The one intended change against the reference: dA skips g == 0 terms, as
// the forward skips a == 0, so a zero gradient no longer turns an inf or NaN
// of B into a NaN of dA (0 * inf was NaN under the old dot product).
TEST(KernelPropertyTest, MatMulBackwardSkipsZeroGradientTerms) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (Tier tier : TiersToTest()) {
    for (int threads : {1, 2, 4}) {
      SCOPED_TRACE(std::string("tier=") + simd::TierName(tier) +
                   " threads=" + std::to_string(threads));
      simd::ScopedTier st(tier);
      runtime::ScopedNumThreads snt(threads);
      Tensor a = Tensor::FromData({1.0f, 1.0f}, {1, 2}, true);
      Tensor b = Tensor::FromData({1.0f, inf, 2.0f, nan}, {2, 2}, true);
      // g = [1, 0]: column 1, where B holds inf and NaN, gets no gradient.
      Sum(Mul(MatMul(a, b), Tensor::FromData({1.0f, 0.0f}, {1, 2})))
          .Backward();
      ExpectBitwise({1.0f, 2.0f}, a.impl()->grad.ToVector(), "grad of a");
      ExpectBitwise({1.0f, 0.0f, 1.0f, 0.0f}, b.impl()->grad.ToVector(),
                    "grad of b");
    }
  }
}

// ---- Gradcheck on the SIMD tier --------------------------------------------

TEST(KernelPropertyTest, GradcheckOnSimdTier) {
  if (!simd::Avx2Available()) GTEST_SKIP() << "AVX2 tier not available";
  simd::ScopedTier st(Tier::kAvx2);
  Rng rng;
  rng.Seed(808);
  Tensor a = Tensor::Rand({3, 9}, &rng, -1.0f, 1.0f);
  Tensor b = Tensor::Rand({3, 9}, &rng, 0.5f, 1.5f);
  GradCheck([](const std::vector<Tensor>& in) { return Sum(Add(in[0], in[1])); },
            {a.Detach(), b.Detach()});
  GradCheck([](const std::vector<Tensor>& in) { return Sum(Mul(in[0], in[1])); },
            {a.Detach(), b.Detach()});
  GradCheck([](const std::vector<Tensor>& in) { return Sum(Div(in[0], in[1])); },
            {a.Detach(), b.Detach()});
  GradCheck(
      [](const std::vector<Tensor>& in) { return Sum(MulScalar(in[0], -1.3f)); },
      {a.Detach()});
  Tensor ma = Tensor::Rand({4, 5}, &rng, -1.0f, 1.0f);
  Tensor mb = Tensor::Rand({5, 9}, &rng, -1.0f, 1.0f);
  GradCheck(
      [](const std::vector<Tensor>& in) { return Sum(MatMul(in[0], in[1])); },
      {ma, mb});
  Tensor x = Tensor::Rand({3, 9}, &rng, -1.0f, 1.0f);
  Tensor gamma = Tensor::Rand({9}, &rng, 0.5f, 1.5f);
  Tensor beta = Tensor::Rand({9}, &rng, -0.5f, 0.5f);
  GradCheck(
      [](const std::vector<Tensor>& in) {
        return Sum(Square(LayerNorm(in[0], in[1], in[2])));
      },
      {x, gamma, beta});
  Tensor s = Tensor::Rand({2, 9}, &rng, -1.0f, 1.0f);
  GradCheck(
      [](const std::vector<Tensor>& in) { return Sum(Square(Softmax(in[0]))); },
      {s.Detach()});
  GradCheck(
      [](const std::vector<Tensor>& in) {
        return Sum(Square(LogSoftmax(in[0])));
      },
      {s.Detach()});
}

// ---- Contiguity guard -------------------------------------------------------

// A hand-assembled impl whose storage does not match its shape simulates the
// strided/transposed views this library does not support; kernels must
// refuse it instead of reading the wrong elements.
TEST(KernelPropertyTest, NonContiguousInputIsRejected) {
  Tensor a = Tensor::FromData({1, 2, 3, 4, 5, 6}, {2, 3});
  EXPECT_TRUE(a.IsContiguous());
  a.impl()->shape = {3, 3};  // storage still holds 6 floats
  EXPECT_FALSE(a.IsContiguous());
  Tensor b = Tensor::Ones({3, 2});
  EXPECT_DEATH(MatMul(a, b), "contiguous");
  EXPECT_DEATH(Add(a, Tensor::Ones({3, 3})), "contiguous");
  EXPECT_DEATH(Softmax(a), "contiguous");
  EXPECT_DEATH(LayerNorm(a, Tensor::Ones({3}), Tensor::Zeros({3})),
               "contiguous");
}

// Transpose materializes a dense copy, so its output is contiguous and safe
// to feed the kernels; the result must match a hand-computed product.
TEST(KernelPropertyTest, TransposedInputIsDenseAndMatches) {
  Rng rng;
  rng.Seed(909);
  Tensor a = Tensor::Rand({3, 4}, &rng, -1.0f, 1.0f);
  Tensor at = Transpose(a);
  EXPECT_TRUE(at.IsContiguous());
  Tensor b = Tensor::Rand({3, 9}, &rng, -1.0f, 1.0f);
  Tensor out = MatMul(at, b);  // [4,3] x [3,9]
  for (Tier tier : TiersToTest()) {
    simd::ScopedTier st(tier);
    Tensor again = MatMul(Transpose(a), b);
    ExpectBitwise(out.ToVector(), again.ToVector(),
                  std::string("transposed matmul on ") +
                      simd::TierName(tier));
  }
}

// ---- Pooled-storage alignment and the AVX2 aligned-load fast path -----------

// The allocator contract the AVX2 tier's vmovaps fast path rests on: every
// tensor buffer is 32-byte aligned, in pool AND system mode (tensor/alloc.h
// kAlignment). A violation here would make the aligned loads fault.
TEST(KernelPropertyTest, TensorBuffersAre32ByteAligned) {
  Rng rng(4242);
  for (alloc::Mode mode : {alloc::Mode::kPool, alloc::Mode::kSystem}) {
    alloc::ScopedMode sm(mode);
    for (int64_t n : {1, 7, 8, 9, 16, 33, 100, 1000, 4097}) {
      Tensor t = Tensor::Rand({n}, &rng);
      EXPECT_EQ(reinterpret_cast<uintptr_t>(t.data()) % 32, 0u)
          << "mode=" << alloc::ModeName(alloc::ActiveMode()) << " n=" << n;
      t.set_requires_grad(true);
      Sum(t).Backward();
      EXPECT_EQ(reinterpret_cast<uintptr_t>(t.impl()->grad.data()) % 32, 0u)
          << "grad buffer, mode=" << alloc::ModeName(alloc::ActiveMode())
          << " n=" << n;
    }
  }
}

// The aligned-load fast path must be invisible in the numbers: loads and
// stores carry no rounding, so vmovaps vs vmovups sequences are bitwise
// identical. Sweep shapes whose row widths hit both the aligned path
// (multiples of 8 floats keep 32-byte alignment row to row) and the
// unaligned fallback (odd widths break it mid-tensor), forward and
// backward, comparing pool against system storage on every tier.
TEST(KernelPropertyTest, AlignedFastPathMatchesUnalignedAcrossModes) {
  Rng rng(7575);
  const std::vector<Shape> shapes = {{4, 8}, {4, 16}, {3, 7}, {5, 9},
                                     {2, 3, 8}, {2, 3, 5}, {1, 64}, {6, 1}};
  for (const Shape& shape : shapes) {
    const int64_t n = NumElements(shape);
    const auto a = RandomData(n, &rng, 0.1f);
    const auto b = RandomData(n, &rng, 0.1f);
    auto run_all = [&](alloc::Mode mode, Tier tier) {
      alloc::ScopedMode sm(mode);
      std::vector<CaseResult> results;
      const std::vector<std::vector<float>> data1 = {a};
      const std::vector<std::vector<float>> data2 = {a, b};
      const std::vector<Shape> shapes1 = {shape};
      const std::vector<Shape> shapes2 = {shape, shape};
      results.push_back(RunOpCase(
          tier, 1,
          [&](std::vector<Tensor>& in) { return Add(in[0], in[1]); }, data2,
          shapes2, true));
      results.push_back(RunOpCase(
          tier, 1,
          [&](std::vector<Tensor>& in) { return Mul(in[0], in[1]); }, data2,
          shapes2, true));
      results.push_back(RunOpCase(
          tier, 1, [&](std::vector<Tensor>& in) { return Relu(in[0]); },
          data1, shapes1, true));
      results.push_back(RunOpCase(
          tier, 1,
          [&](std::vector<Tensor>& in) { return MulScalar(in[0], 1.7f); },
          data1, shapes1, true));
      results.push_back(RunOpCase(
          tier, 1,
          [&](std::vector<Tensor>& in) { return Softmax(in[0]); }, data1,
          shapes1, true));
      return results;
    };
    for (Tier tier : TiersToTest()) {
      auto pool = run_all(alloc::Mode::kPool, tier);
      auto system = run_all(alloc::Mode::kSystem, tier);
      ASSERT_EQ(pool.size(), system.size());
      for (size_t c = 0; c < pool.size(); ++c) {
        SCOPED_TRACE(std::string("tier=") + simd::TierName(tier) + " case=" +
                     std::to_string(c) + " shape=" + ShapeToString(shape));
        ExpectBitwise(pool[c].out, system[c].out, "forward pool-vs-system");
        ASSERT_EQ(pool[c].grads.size(), system[c].grads.size());
        for (size_t g = 0; g < pool[c].grads.size(); ++g) {
          ExpectBitwise(pool[c].grads[g], system[c].grads[g],
                        "grad pool-vs-system");
        }
      }
    }
  }
}

// ---- Seeded end-to-end training golden --------------------------------------

// Two epochs of real training (the paper model, synthetic multi-behavior
// data) must produce identical losses, metrics, and final weights on every
// tier × thread-count combination. This is the drift tripwire: any kernel
// change that alters a single bit anywhere in forward/backward/optimizer
// shows up here.
TEST(KernelPropertyTest, TrainTwoEpochsGoldenAcrossTiersAndThreads) {
  data::SyntheticConfig cfg;
  cfg.num_users = 60;
  cfg.num_items = 120;
  cfg.num_clusters = 6;
  cfg.min_events = 12;
  cfg.max_events = 25;
  cfg.seed = 33;
  data::Dataset ds = data::GenerateSynthetic(cfg);
  data::SplitView split(ds);
  eval::EvalConfig ec;
  ec.max_len = 12;
  eval::Evaluator evaluator(ds, split, ec);

  baselines::ZooConfig zc;
  zc.dim = 16;
  zc.max_len = 12;
  zc.num_interests = 2;

  auto run = [&](Tier tier, int threads) {
    simd::ScopedTier st(tier);
    train::TrainConfig tc;
    tc.max_epochs = 2;
    tc.batch_size = 32;
    tc.max_len = 12;
    tc.num_threads = threads;
    auto model = baselines::CreateModel("MISSL", ds, zc);
    train::TrainResult r =
        train::Fit(model.get(), ds, split, evaluator, tc);
    std::vector<float> params;
    for (const Tensor& p : model->Parameters()) {
      params.insert(params.end(), p.data(), p.data() + p.numel());
    }
    return std::make_tuple(r.final_train_loss, r.test.ndcg10, r.test.hr10,
                           std::move(params));
  };

  auto ref = run(Tier::kScalar, 1);
  for (Tier tier : TiersToTest()) {
    for (int threads : {1, 2, 4}) {
      if (tier == Tier::kScalar && threads == 1) continue;
      SCOPED_TRACE(std::string("tier=") + simd::TierName(tier) +
                   " threads=" + std::to_string(threads));
      auto got = run(tier, threads);
      EXPECT_EQ(std::get<0>(ref), std::get<0>(got)) << "final train loss";
      EXPECT_DOUBLE_EQ(std::get<1>(ref), std::get<1>(got)) << "test ndcg10";
      EXPECT_DOUBLE_EQ(std::get<2>(ref), std::get<2>(got)) << "test hr10";
      ExpectBitwise(std::get<3>(ref), std::get<3>(got), "final parameters");
    }
  }
}

}  // namespace
}  // namespace missl
