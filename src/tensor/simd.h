// SIMD kernel tier for the tensor hot paths (see docs/KERNELS.md).
//
// Every kernel here comes in (at least) two implementations — a portable
// scalar loop and an AVX2 vector path — selected once per process by
// runtime dispatch. The defining constraint, inherited from the parallel
// runtime (runtime/parallel_for.h): **tiers change wall clock, never
// numbers.** A vector path may only vectorize ACROSS independent output
// elements (matmul output columns, elementwise slots, softmax/layer-norm
// row entries); each output element's own chain of rounded operations —
// in particular the ascending-k accumulation order of a matmul cell —
// must be instruction-for-instruction the sequence the scalar loop
// performs. Concretely that means:
//   - multiply-then-add, never FMA: a fused multiply-add skips the
//     intermediate rounding of the product and would change low bits, so
//     the AVX2 translation unit is compiled without FMA codegen
//     (-ffp-contract=off and no -mfma) and uses mul/add intrinsics only;
//   - reductions keep the serial order: sums over k (matmul), over a row
//     (softmax's exp-sum, layer-norm's mean/variance) are NOT horizontally
//     vectorized — the vector tier accelerates the surrounding
//     elementwise work and leaves ordered reductions scalar;
//   - branch semantics are preserved exactly (e.g. the matmul zero-skip:
//     a == 0.0f contributes nothing on every tier).
// Under these rules scalar, AVX2, and threaded×AVX2 execution produce
// bitwise-identical tensors, which tests/kernel_property_test.cc enforces.
// The one exception is the NaN payload: every result that is not NaN is
// bitwise identical across tiers, and a NaN result is NaN on every tier,
// but its sign and payload are unspecified. When both operands of a
// two-input operation are NaN, x86 returns the NaN of the instruction's
// first source, and the scalar and vector paths need not order their
// operands alike: ScaleRow({+NaN}, -NaN) gives 0x7fc00000 on the scalar
// tier and 0xffc00000 on AVX2.
//
// Selection: the MISSL_SIMD environment variable ("off"/"0"/"scalar"
// forces the portable tier, "avx2" requests AVX2, unset/"auto"/"on"
// picks the best available), gated on the CMake option MISSL_SIMD (which
// compiles the AVX2 translation unit at all) and a CPUID check at
// startup. The resolved tier is published on the "simd.tier" obs gauge.
//
// Within the AVX2 tier, the integer int8 kernels additionally sub-dispatch
// to AVX-VNNI (vpdpbusd) when the CPU has it: one instruction replaces the
// sign-trick maddubs/madd pair and accumulates u8 x s8 quads into int32
// exactly — no int16 intermediate at all, so the result is the same exact
// integer sum and the sub-tier stays bitwise invisible. The resolved state
// is on the "simd.vnni" gauge.
#ifndef MISSL_TENSOR_SIMD_H_
#define MISSL_TENSOR_SIMD_H_

#include <cstdint>

namespace missl::simd {

/// Kernel tiers, ordered by preference. Values are stable: they are what
/// the "simd.tier" gauge reports.
enum class Tier : int {
  kScalar = 0,  ///< portable loops; the reference semantics
  kAvx2 = 1,    ///< 8-wide AVX2, mul+add only (no FMA)
};

/// The tier kernels dispatch on. Resolved once from MISSL_SIMD + CPUID on
/// first use (thread-safe), then cached; SetTier overrides it.
Tier ActiveTier();

/// Overrides the active tier (tests/benches). CHECK-fails if `t` is not
/// available in this build/on this CPU. Re-publishes the "simd.tier" gauge.
void SetTier(Tier t);

/// True when the AVX2 tier was compiled in (CMake MISSL_SIMD=ON on x86-64)
/// and the running CPU supports it.
bool Avx2Available();

/// True when the AVX2 tier is available AND the CPU supports AVX-VNNI
/// (the 256-bit vpdpbusd extension; CPUID leaf 7.1 EAX bit 4).
bool AvxVnniAvailable();

/// True when the int8 kernels' AVX2 path will use vpdpbusd: available and
/// not overridden by SetAvxVnni. Resolved once on first use, then cached.
bool AvxVnniEnabled();

/// Overrides the VNNI sub-dispatch (tests/benches compare the maddubs and
/// vpdpbusd paths on the same machine). CHECK-fails if `on` but AVX-VNNI is
/// unavailable. Re-publishes the "simd.vnni" gauge.
void SetAvxVnni(bool on);

/// RAII VNNI override restoring the previous state on scope exit.
class ScopedAvxVnni {
 public:
  explicit ScopedAvxVnni(bool on);
  ~ScopedAvxVnni();
  ScopedAvxVnni(const ScopedAvxVnni&) = delete;
  ScopedAvxVnni& operator=(const ScopedAvxVnni&) = delete;

 private:
  bool prev_;
};

/// Human-readable tier name ("scalar", "avx2").
const char* TierName(Tier t);

/// RAII tier override restoring the previous tier on scope exit; used by
/// tests and benches to compare tiers on the same computation.
class ScopedTier {
 public:
  explicit ScopedTier(Tier t);
  ~ScopedTier();
  ScopedTier(const ScopedTier&) = delete;
  ScopedTier& operator=(const ScopedTier&) = delete;

 private:
  Tier prev_;
};

// ---- Kernels ----------------------------------------------------------------
// All pointers are to dense row-major float buffers (callers MISSL_CHECK
// tensor contiguity before handing out raw pointers). Unless noted, `o` may
// alias `a` (pure elementwise, in-place safe) but distinct inputs must not
// overlap outputs.

/// C[i,:n] += A[i,:] * B[:, :n] for output rows i in [r0, r1) of one
/// [m,k] x [k,n] product, where B and C have row strides ldb and ldc (a
/// dense product passes ldb = ldc = n; a column range of a wider B is read
/// in place by pointing b at its first column). Each C cell accumulates over
/// k in ascending order with a rounded multiply then a rounded add per step,
/// skipping a == 0.0f terms — on every tier, so the result is bitwise
/// tier-independent and independent of which column range a call covers.
void GemmRows(const float* a, const float* b, float* c, int64_t k, int64_t n,
              int64_t ldb, int64_t ldc, int64_t r0, int64_t r1);

/// o[j] = the strict-> ascending-r max of a[r*lda + j] over r in [0, rows),
/// starting from -inf (Max in ops_reduce.cc): a NaN never wins, so an
/// all-NaN column yields -inf, and of equal values (+0/-0) the first stays.
/// The AVX2 path's _mm256_max_ps(x, best) is exactly `x > best ? x : best`.
void MaxRows(const float* a, int64_t rows, int64_t lda, float* o, int64_t n);

/// The smallest j in [0, n) with x[j] > thr (ordered compare: NaN is never
/// greater), or n when there is none. Pure comparison, so every tier
/// returns the same index.
int64_t FindFirstGreater(const float* x, int64_t n, float thr);

/// y[j] += s * x[j]. The MulScalar backward row.
void AxpyRow(float s, const float* x, float* y, int64_t n);

/// o[i] = a[i] + b[i] / a[i] - b[i] / a[i] * b[i] / a[i] / b[i].
void AddRow(const float* a, const float* b, float* o, int64_t n);
void SubRow(const float* a, const float* b, float* o, int64_t n);
void MulRow(const float* a, const float* b, float* o, int64_t n);
void DivRow(const float* a, const float* b, float* o, int64_t n);

/// o[i] = max(a[i], 0.0f), with scalar `x > 0 ? x : 0` semantics for
/// -0.0/NaN (both map to +0.0 on every tier).
void ReluRow(const float* a, float* o, int64_t n);

/// o[i] = a[i] * s  and  o[i] = a[i] + s.
void ScaleRow(const float* a, float s, float* o, int64_t n);
void AddScalarRow(const float* a, float s, float* o, int64_t n);

/// acc[i] += g[i]  and  acc[i] += (-1.0f) * g[i]  and  acc[i] += b[i] * g[i]
/// and  acc[i] += s * g[i]. The Add/Sub/Mul/scalar-op backward rows.
void AccumRow(const float* g, float* acc, int64_t n);
void NegAccumRow(const float* g, float* acc, int64_t n);
void MulAccumRow(const float* b, const float* g, float* acc, int64_t n);

/// xh[i] = (x[i] - mu) * is; y[i] = gamma[i] * xh[i] + beta[i].
/// The layer-norm normalize+affine pass (mean/variance stay scalar).
void LayerNormAffineRow(const float* x, float mu, float is, const float* gamma,
                        const float* beta, float* xh, float* y, int64_t n);

/// gx[i] += (gamma[i] * g[i] - m1 - xh[i] * m2) * is. The layer-norm input
/// gradient row (the m1/m2 means stay scalar).
void LayerNormGradRow(const float* g, const float* gamma, const float* xh,
                      float m1, float m2, float is, float* gx, int64_t n);

/// ga[i] += y[i] * (g[i] - dot). The softmax input gradient row (the dot
/// reduction stays scalar).
void SoftmaxGradRow(const float* y, const float* g, float dot, float* ga,
                    int64_t n);

// ---- Transcendentals --------------------------------------------------------
// exp and tanh are defined here, once, as fixed sequences of rounded float
// operations (range reduction, then a polynomial or a rational; multiply
// then add, never FMA; no libm call). The scalar tier is the reference and
// the AVX2 lanes replay it operation for operation, so every tier returns
// the same bits. Contract (tests/kernel_property_test.cc):
//   - exp is within 2 ulp of libm's expf on [-87.3, 88.7]. It returns +0
//     where expf would be below FLT_MIN (x < -87.33654, no denormals), +inf
//     where expf overflows, and NaN for NaN.
//   - tanh is within 8 ulp of libm's tanhf for every finite x, odd bit for
//     bit, tanh(+-0) = +-0, passes |x| < 4e-4 (denormals included) through
//     unchanged, returns exactly +-1 wherever tanhf does, and NaN for NaN.
//   - Clamps keep NaN on every tier, and the scalar path converts no NaN or
//     out-of-range float to an integer.
// Inputs may be any floats; `o` may alias `a`.

/// o[i] = exp(a[i]).
void ExpRow(const float* a, float* o, int64_t n);

/// o[i] = tanh(a[i]).
void TanhRow(const float* a, float* o, int64_t n);

/// o[i] = 0.5 * a * (1 + tanh(u)), u = c * (a + 0.044715 * a^3), c =
/// sqrt(2 / pi): the tanh-approximation GELU (the Gelu op's forward).
void GeluRow(const float* a, float* o, int64_t n);

/// gx[i] += gelu'(x[i]) * g[i], recomputing tanh(u) from x (the Gelu op's
/// backward, which keeps no activation buffer).
void GeluGradRow(const float* x, const float* g, float* gx, int64_t n);

/// y = softmax(x) over one row of n > 0 entries, in place when y == x: the
/// max (strict-< scan from x[0]) and the exp-sum (ascending) are ordered
/// scalar reductions; y = x + (-max), ExpRow, sum, then ScaleRow by 1/sum.
/// The one softmax row of the Softmax op, CrossEntropyLoss and the serving
/// plan, so their outputs agree bit for bit.
void SoftmaxRow(const float* x, float* y, int64_t n);

/// o[r] = (act_scale * scales[r]) * float(dot(a, b[r,:])) for rows r in
/// [r0, r1): one quantized activation row dotted against rows of a row-major
/// int8 matrix (the item-major quantized catalog), dequantized per output.
/// The dot's contract is quant::Int8DotRef (tensor/quant.h): a plain int32
/// sum of element products. Integer accumulation is order-free, so the dot
/// is bitwise identical on every tier by arithmetic — stronger than the fp32
/// kernels' fixed-order rule, and the AVX2 maddubs path may therefore
/// re-block freely. Inputs must be quantization codes in [-127, 127]; -128
/// would let a maddubs pair sum saturate int16. The dequant is one
/// int32->fp32 convert and two multiplies, each individually rounded in that
/// fixed sequence; the AVX2 path applies it lane-wise (no FMA, no
/// reassociation), so the tiers agree bitwise. The int32 totals never touch
/// memory.
void Int8DotDequantRows(const int8_t* a, float act_scale, const int8_t* b,
                        const float* scales, float* o, int64_t k, int64_t r0,
                        int64_t r1);

/// o[i*ldo + r] = (act_scales[i] * scales[r]) * float(dot(a[i,:], b[r,:]))
/// for activation rows i in [0, na) x catalog rows r in [r0, r1):
/// Int8DotDequantRows over a whole tile of activation rows. Semantically
/// exactly na independent calls of the row kernel — same exact integer dots,
/// same per-element dequant sequence, so bitwise identical on every tier.
/// The AVX2 path walks the catalog once per PAIR of activation rows (each
/// loaded catalog vector feeds two dot chains), halving the kernel's
/// dominant memory stream — the catalog re-read per activation row.
void Int8DotDequantTile(const int8_t* a, const float* act_scales, int64_t na,
                        const int8_t* b, const float* scales, float* o,
                        int64_t ldo, int64_t k, int64_t r0, int64_t r1);

}  // namespace missl::simd

#endif  // MISSL_TENSOR_SIMD_H_
