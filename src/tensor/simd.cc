#include "tensor/simd.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "obs/metrics.h"
#include "tensor/simd_math.h"
#include "utils/check.h"
#include "utils/logging.h"

namespace missl::simd {

// AVX2 implementations live in simd_avx2.cc, which is the only translation
// unit compiled with -mavx2 (and with -ffp-contract=off so nothing is ever
// fused into an FMA). This file only declares and dispatches to them.
#ifdef MISSL_SIMD_AVX2
namespace avx2 {
void GemmRows(const float* a, const float* b, float* c, int64_t k, int64_t n,
              int64_t ldb, int64_t ldc, int64_t r0, int64_t r1);
void TransposeTile(const float* src, int64_t lds, float* dst, int64_t ldd,
                   int64_t rows, int64_t cols);
void MaxRows(const float* a, int64_t rows, int64_t lda, float* o, int64_t n);
int64_t FindFirstGreater(const float* x, int64_t n, float thr);
void AxpyRow(float s, const float* x, float* y, int64_t n);
void AddRow(const float* a, const float* b, float* o, int64_t n);
void SubRow(const float* a, const float* b, float* o, int64_t n);
void MulRow(const float* a, const float* b, float* o, int64_t n);
void DivRow(const float* a, const float* b, float* o, int64_t n);
void ScaleRow(const float* a, float s, float* o, int64_t n);
void AddScalarRow(const float* a, float s, float* o, int64_t n);
void AccumRow(const float* g, float* acc, int64_t n);
void NegAccumRow(const float* g, float* acc, int64_t n);
void MulAccumRow(const float* b, const float* g, float* acc, int64_t n);
void LayerNormAffineRow(const float* x, float mu, float is, const float* gamma,
                        const float* beta, float* xh, float* y, int64_t n);
void LayerNormGradRow(const float* g, const float* gamma, const float* xh,
                      float m1, float m2, float is, float* gx, int64_t n);
void SoftmaxGradRow(const float* y, const float* g, float dot, float* ga,
                    int64_t n);
void ExpRow(const float* a, float* o, int64_t n);
void TanhRow(const float* a, float* o, int64_t n);
void GeluRow(const float* a, float* o, int64_t n);
void GeluGradRow(const float* x, const float* g, float* gx, int64_t n);
void Int8DotDequantRows(const int8_t* a, float act_scale, const int8_t* b,
                        const float* scales, float* o, int64_t k, int64_t r0,
                        int64_t r1);
void Int8DotDequantTile(const int8_t* a, const float* act_scales, int64_t na,
                        const int8_t* b, const float* scales, float* o,
                        int64_t ldo, int64_t k, int64_t r0, int64_t r1);
}  // namespace avx2
#endif  // MISSL_SIMD_AVX2

namespace {

bool CpuHasAvx2() {
#if defined(MISSL_SIMD_AVX2) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

bool CpuHasAvxVnni() {
#if defined(MISSL_SIMD_AVX2) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avxvnni");
#else
  return false;
#endif
}

void PublishTierGauge(Tier t) {
  static obs::Gauge& gauge =
      obs::MetricsRegistry::Global().GetGauge("simd.tier");
  gauge.Set(static_cast<int64_t>(t));
}

void PublishVnniGauge(bool on) {
  static obs::Gauge& gauge =
      obs::MetricsRegistry::Global().GetGauge("simd.vnni");
  gauge.Set(on ? 1 : 0);
}

// Resolves the startup tier from MISSL_SIMD + CPUID. Unknown values fall
// back to auto-detection with a warning rather than aborting: a bad env var
// must not take down a serving process.
Tier ResolveTier() {
  const char* env = std::getenv("MISSL_SIMD");
  bool want_avx2 = false;
  bool forced_off = false;
  if (env == nullptr || env[0] == '\0' || std::strcmp(env, "auto") == 0 ||
      std::strcmp(env, "on") == 0 || std::strcmp(env, "1") == 0) {
    want_avx2 = true;
  } else if (std::strcmp(env, "off") == 0 || std::strcmp(env, "0") == 0 ||
             std::strcmp(env, "scalar") == 0) {
    forced_off = true;
  } else if (std::strcmp(env, "avx2") == 0) {
    want_avx2 = true;
    if (!Avx2Available()) {
      MISSL_LOG_WARN << "MISSL_SIMD=avx2 but the AVX2 tier is unavailable "
                     << "(not compiled in or no CPU support); falling back "
                     << "to scalar";
    }
  } else {
    MISSL_LOG_WARN << "unknown MISSL_SIMD value '" << env
                   << "' (want off|scalar|avx2|auto); auto-detecting";
    want_avx2 = true;
  }
  if (!forced_off && want_avx2 && Avx2Available()) return Tier::kAvx2;
  return Tier::kScalar;
}

// -1 = unresolved; otherwise the Tier value. Relaxed loads are fine: the
// value is write-once (or explicitly overridden by SetTier) and any racing
// reader either sees the final tier or resolves the same value itself.
std::atomic<int> g_tier{-1};

// VNNI sub-dispatch state for the int8 kernels, same write-once discipline:
// -1 = unresolved, else 0/1. Resolved from CPU availability alone.
std::atomic<int> g_vnni{-1};

}  // namespace

bool Avx2Available() {
#ifdef MISSL_SIMD_AVX2
  static const bool available = CpuHasAvx2();
  return available;
#else
  return false;
#endif
}

bool AvxVnniAvailable() {
#ifdef MISSL_SIMD_AVX2
  static const bool available = Avx2Available() && CpuHasAvxVnni();
  return available;
#else
  return false;
#endif
}

bool AvxVnniEnabled() {
  int v = g_vnni.load(std::memory_order_relaxed);
  if (v < 0) {
    bool resolved = AvxVnniAvailable();
    int expected = -1;
    if (g_vnni.compare_exchange_strong(expected, resolved ? 1 : 0,
                                       std::memory_order_relaxed)) {
      PublishVnniGauge(resolved);
      v = resolved ? 1 : 0;
    } else {
      v = expected;  // another thread resolved (or SetAvxVnni ran) first
    }
  }
  return v != 0;
}

void SetAvxVnni(bool on) {
  MISSL_CHECK(!on || AvxVnniAvailable())
      << "AVX-VNNI is not available in this build or on this CPU";
  g_vnni.store(on ? 1 : 0, std::memory_order_relaxed);
  PublishVnniGauge(on);
}

ScopedAvxVnni::ScopedAvxVnni(bool on) : prev_(AvxVnniEnabled()) {
  SetAvxVnni(on);
}
ScopedAvxVnni::~ScopedAvxVnni() { SetAvxVnni(prev_); }

Tier ActiveTier() {
  int t = g_tier.load(std::memory_order_relaxed);
  if (t < 0) {
    Tier resolved = ResolveTier();
    int expected = -1;
    if (g_tier.compare_exchange_strong(expected, static_cast<int>(resolved),
                                       std::memory_order_relaxed)) {
      PublishTierGauge(resolved);
      t = static_cast<int>(resolved);
    } else {
      t = expected;  // another thread resolved (or SetTier ran) first
    }
  }
  return static_cast<Tier>(t);
}

void SetTier(Tier t) {
  MISSL_CHECK(t == Tier::kScalar || Avx2Available())
      << "SIMD tier '" << TierName(t) << "' is not available in this build "
      << "or on this CPU";
  g_tier.store(static_cast<int>(t), std::memory_order_relaxed);
  PublishTierGauge(t);
}

const char* TierName(Tier t) {
  switch (t) {
    case Tier::kScalar: return "scalar";
    case Tier::kAvx2: return "avx2";
  }
  return "unknown";
}

ScopedTier::ScopedTier(Tier t) : prev_(ActiveTier()) { SetTier(t); }
ScopedTier::~ScopedTier() { SetTier(prev_); }

// ---- Portable (scalar-tier) kernels -----------------------------------------
// These loops ARE the reference semantics: one rounded multiply and one
// rounded add per accumulation step, reductions in ascending index order.
// The AVX2 paths replay exactly this per-element instruction sequence.

namespace scalar {

void GemmRows(const float* a, const float* b, float* c, int64_t k, int64_t n,
              int64_t ldb, int64_t ldc, int64_t r0, int64_t r1) {
  for (int64_t i = r0; i < r1; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * ldc;
    for (int64_t kk = 0; kk < k; ++kk) {
      float av = arow[kk];
      if (av == 0.0f) continue;
      const float* brow = b + kk * ldb;
      for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

// Walks 16-row blocks so the strided side of the copy stays in L1.
void TransposeTile(const float* src, int64_t lds, float* dst, int64_t ldd,
                   int64_t rows, int64_t cols) {
  constexpr int64_t kBlock = 16;
  for (int64_t r0 = 0; r0 < rows; r0 += kBlock) {
    const int64_t r1 = std::min(r0 + kBlock, rows);
    for (int64_t c = 0; c < cols; ++c) {
      for (int64_t r = r0; r < r1; ++r) dst[c * ldd + r] = src[r * lds + c];
    }
  }
}

void MaxRows(const float* a, int64_t rows, int64_t lda, float* o, int64_t n) {
  for (int64_t j = 0; j < n; ++j) {
    float best = -std::numeric_limits<float>::infinity();
    for (int64_t r = 0; r < rows; ++r) {
      const float x = a[r * lda + j];
      if (x > best) best = x;
    }
    o[j] = best;
  }
}

int64_t FindFirstGreater(const float* x, int64_t n, float thr) {
  for (int64_t j = 0; j < n; ++j) {
    if (x[j] > thr) return j;
  }
  return n;
}

void AxpyRow(float s, const float* x, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] += s * x[i];
}

void AddRow(const float* a, const float* b, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] + b[i];
}

void SubRow(const float* a, const float* b, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] - b[i];
}

void MulRow(const float* a, const float* b, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] * b[i];
}

void DivRow(const float* a, const float* b, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] / b[i];
}

void ScaleRow(const float* a, float s, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] * s;
}

void AddScalarRow(const float* a, float s, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = a[i] + s;
}

void AccumRow(const float* g, float* acc, int64_t n) {
  for (int64_t i = 0; i < n; ++i) acc[i] += g[i];
}

void NegAccumRow(const float* g, float* acc, int64_t n) {
  for (int64_t i = 0; i < n; ++i) acc[i] += -1.0f * g[i];
}

void MulAccumRow(const float* b, const float* g, float* acc, int64_t n) {
  for (int64_t i = 0; i < n; ++i) acc[i] += b[i] * g[i];
}

void LayerNormAffineRow(const float* x, float mu, float is, const float* gamma,
                        const float* beta, float* xh, float* y, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    xh[i] = (x[i] - mu) * is;
    y[i] = gamma[i] * xh[i] + beta[i];
  }
}

void LayerNormGradRow(const float* g, const float* gamma, const float* xh,
                      float m1, float m2, float is, float* gx, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    float gg = gamma[i] * g[i];
    gx[i] += (gg - m1 - xh[i] * m2) * is;
  }
}

void SoftmaxGradRow(const float* y, const float* g, float dot, float* ga,
                    int64_t n) {
  for (int64_t i = 0; i < n; ++i) ga[i] += y[i] * (g[i] - dot);
}

// The transcendentals: every operation below rounds once, in the order
// written, and Exp8/Tanh8 in simd_avx2.cc perform the same operations in
// the same order on eight lanes. The clamps are
// written `c < x ? c : x` (and `c > x ? c : x`), the operand order of
// vminps(c, x) / vmaxps(c, x), which return x when it is NaN. The 2^n scale
// is built from the bits of the rounded t, never by converting a float to an
// integer, so a NaN input flows through defined integer arithmetic to a NaN
// result.
inline float ExpF(float x) {
  using namespace math;
  float c = kExpHi < x ? kExpHi : x;
  c = kExpMinArg > c ? kExpMinArg : c;
  const float t = c * kLog2e + kRoundMagic;  // n in t's low mantissa bits
  const float nf = t - kRoundMagic;          // n, exactly
  float r = c - nf * kLn2Hi;
  r = r - nf * kLn2Lo;
  float p = kExpP0 * r + kExpP1;
  p = p * r + kExpP2;
  p = p * r + kExpP3;
  p = p * r + kExpP4;
  p = p * r + kExpP5;
  p = p * (r * r) + r;
  p = p + 1.0f;
  const int32_t n = static_cast<int32_t>(std::bit_cast<uint32_t>(t) -
                                         std::bit_cast<uint32_t>(kRoundMagic));
  const int32_t n1 = n >> 1;
  const int32_t n2 = n - n1;
  float y = p * std::bit_cast<float>(static_cast<uint32_t>(n1 + 127) << 23);
  y = y * std::bit_cast<float>(static_cast<uint32_t>(n2 + 127) << 23);
  return x < kExpMinArg ? 0.0f : y;
}

inline float TanhF(float x) {
  using namespace math;
  float c = kTanhClamp < x ? kTanhClamp : x;
  c = -kTanhClamp > c ? -kTanhClamp : c;
  const float x2 = c * c;
  float p = kTanhA13 * x2 + kTanhA11;
  p = p * x2 + kTanhA9;
  p = p * x2 + kTanhA7;
  p = p * x2 + kTanhA5;
  p = p * x2 + kTanhA3;
  p = p * x2 + kTanhA1;
  p = p * c;
  float q = kTanhB6 * x2 + kTanhB4;
  q = q * x2 + kTanhB2;
  q = q * x2 + kTanhB0;
  const float r = p / q;
  return std::fabs(x) < kTanhTiny ? x : r;
}

inline float GeluU(float x) {
  return math::kGeluC * (x + math::kGeluA * x * x * x);
}

void ExpRow(const float* a, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = ExpF(a[i]);
}

void TanhRow(const float* a, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) o[i] = TanhF(a[i]);
}

void GeluRow(const float* a, float* o, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    const float x = a[i];
    o[i] = 0.5f * x * (1.0f + TanhF(GeluU(x)));
  }
}

void GeluGradRow(const float* x, const float* g, float* gx, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    const float xi = x[i];
    const float t = TanhF(GeluU(xi));
    const float du = math::kGeluC * (1.0f + math::kGeluA3 * xi * xi);
    const float d = 0.5f * (1.0f + t) + 0.5f * xi * (1.0f - t * t) * du;
    gx[i] += d * g[i];
  }
}

// Int8 dot + dequant. Unlike the float loops above, the integer dot is the
// contract only up to the mathematical sum — int32 adds are associative, so
// any re-blocking (the AVX2 path uses 32-lane maddubs partials) is bitwise
// identical automatically. The epilogue is a fixed per-element rounding
// sequence (convert, two multiplies) that the AVX2 path replays lane-wise.
void Int8DotDequantRows(const int8_t* a, float act_scale, const int8_t* b,
                        const float* scales, float* o, int64_t k, int64_t r0,
                        int64_t r1) {
  for (int64_t r = r0; r < r1; ++r) {
    const int8_t* brow = b + r * k;
    int32_t acc = 0;
    for (int64_t i = 0; i < k; ++i) {
      acc += static_cast<int32_t>(a[i]) * static_cast<int32_t>(brow[i]);
    }
    o[r] = (act_scale * scales[r]) * static_cast<float>(acc);
  }
}

// Tile = na independent row-kernel calls; the AVX2 path only changes the
// catalog traversal order (pairing activation rows), never the arithmetic.
void Int8DotDequantTile(const int8_t* a, const float* act_scales, int64_t na,
                        const int8_t* b, const float* scales, float* o,
                        int64_t ldo, int64_t k, int64_t r0, int64_t r1) {
  for (int64_t i = 0; i < na; ++i) {
    Int8DotDequantRows(a + i * k, act_scales[i], b, scales, o + i * ldo, k,
                       r0, r1);
  }
}

}  // namespace scalar

// ---- Dispatch ---------------------------------------------------------------

#ifdef MISSL_SIMD_AVX2
#define MISSL_SIMD_DISPATCH(fn, ...)                                    \
  do {                                                                  \
    if (ActiveTier() == Tier::kAvx2) return avx2::fn(__VA_ARGS__);      \
    return scalar::fn(__VA_ARGS__);                                     \
  } while (0)
#else
#define MISSL_SIMD_DISPATCH(fn, ...) return scalar::fn(__VA_ARGS__)
#endif

void GemmRows(const float* a, const float* b, float* c, int64_t k, int64_t n,
              int64_t ldb, int64_t ldc, int64_t r0, int64_t r1) {
  MISSL_SIMD_DISPATCH(GemmRows, a, b, c, k, n, ldb, ldc, r0, r1);
}

void TransposeTile(const float* src, int64_t lds, float* dst, int64_t ldd,
                   int64_t rows, int64_t cols) {
  MISSL_SIMD_DISPATCH(TransposeTile, src, lds, dst, ldd, rows, cols);
}

void MaxRows(const float* a, int64_t rows, int64_t lda, float* o, int64_t n) {
  MISSL_SIMD_DISPATCH(MaxRows, a, rows, lda, o, n);
}

int64_t FindFirstGreater(const float* x, int64_t n, float thr) {
  MISSL_SIMD_DISPATCH(FindFirstGreater, x, n, thr);
}

void AxpyRow(float s, const float* x, float* y, int64_t n) {
  MISSL_SIMD_DISPATCH(AxpyRow, s, x, y, n);
}

void AddRow(const float* a, const float* b, float* o, int64_t n) {
  MISSL_SIMD_DISPATCH(AddRow, a, b, o, n);
}

void SubRow(const float* a, const float* b, float* o, int64_t n) {
  MISSL_SIMD_DISPATCH(SubRow, a, b, o, n);
}

void MulRow(const float* a, const float* b, float* o, int64_t n) {
  MISSL_SIMD_DISPATCH(MulRow, a, b, o, n);
}

void DivRow(const float* a, const float* b, float* o, int64_t n) {
  MISSL_SIMD_DISPATCH(DivRow, a, b, o, n);
}

void ScaleRow(const float* a, float s, float* o, int64_t n) {
  MISSL_SIMD_DISPATCH(ScaleRow, a, s, o, n);
}

void AddScalarRow(const float* a, float s, float* o, int64_t n) {
  MISSL_SIMD_DISPATCH(AddScalarRow, a, s, o, n);
}

void AccumRow(const float* g, float* acc, int64_t n) {
  MISSL_SIMD_DISPATCH(AccumRow, g, acc, n);
}

void NegAccumRow(const float* g, float* acc, int64_t n) {
  MISSL_SIMD_DISPATCH(NegAccumRow, g, acc, n);
}

void MulAccumRow(const float* b, const float* g, float* acc, int64_t n) {
  MISSL_SIMD_DISPATCH(MulAccumRow, b, g, acc, n);
}

void LayerNormAffineRow(const float* x, float mu, float is, const float* gamma,
                        const float* beta, float* xh, float* y, int64_t n) {
  MISSL_SIMD_DISPATCH(LayerNormAffineRow, x, mu, is, gamma, beta, xh, y, n);
}

void LayerNormGradRow(const float* g, const float* gamma, const float* xh,
                      float m1, float m2, float is, float* gx, int64_t n) {
  MISSL_SIMD_DISPATCH(LayerNormGradRow, g, gamma, xh, m1, m2, is, gx, n);
}

void SoftmaxGradRow(const float* y, const float* g, float dot, float* ga,
                    int64_t n) {
  MISSL_SIMD_DISPATCH(SoftmaxGradRow, y, g, dot, ga, n);
}

void ExpRow(const float* a, float* o, int64_t n) {
  MISSL_SIMD_DISPATCH(ExpRow, a, o, n);
}

void TanhRow(const float* a, float* o, int64_t n) {
  MISSL_SIMD_DISPATCH(TanhRow, a, o, n);
}

void GeluRow(const float* a, float* o, int64_t n) {
  MISSL_SIMD_DISPATCH(GeluRow, a, o, n);
}

void GeluGradRow(const float* x, const float* g, float* gx, int64_t n) {
  MISSL_SIMD_DISPATCH(GeluGradRow, x, g, gx, n);
}

void Int8DotDequantRows(const int8_t* a, float act_scale, const int8_t* b,
                        const float* scales, float* o, int64_t k, int64_t r0,
                        int64_t r1) {
  MISSL_SIMD_DISPATCH(Int8DotDequantRows, a, act_scale, b, scales, o, k, r0,
                      r1);
}

void Int8DotDequantTile(const int8_t* a, const float* act_scales, int64_t na,
                        const int8_t* b, const float* scales, float* o,
                        int64_t ldo, int64_t k, int64_t r0, int64_t r1) {
  MISSL_SIMD_DISPATCH(Int8DotDequantTile, a, act_scales, na, b, scales, o,
                      ldo, k, r0, r1);
}

#undef MISSL_SIMD_DISPATCH

void SoftmaxRow(const float* x, float* y, int64_t n) {
  float mx = x[0];
  for (int64_t i = 1; i < n; ++i) mx = std::max(mx, x[i]);
  AddScalarRow(x, -mx, y, n);  // x + (-mx) == x - mx, bit for bit
  ExpRow(y, y, n);
  float sum = 0.0f;
  for (int64_t i = 0; i < n; ++i) sum += y[i];
  ScaleRow(y, 1.0f / sum, y, n);
}

}  // namespace missl::simd
