// AVX2 kernel tier. This is the only translation unit built with -mavx2,
// and it is built with -ffp-contract=off and WITHOUT -mfma: every multiply
// and every add below rounds separately, exactly like the scalar reference
// loops in simd.cc. Vector lanes hold independent output elements; no
// horizontal operations, no reassociated reductions, no FMA.
#ifdef MISSL_SIMD_AVX2

#include <immintrin.h>

#include <cstdint>

#include "tensor/simd.h"
#include "tensor/simd_math.h"

namespace missl::simd::avx2 {

namespace {

// ---- Aligned-load fast path -------------------------------------------------
//
// The pooled tensor allocator (tensor/alloc.h) guarantees every Storage
// buffer is 32-byte aligned, so in practice the row kernels below almost
// always see aligned base pointers and can use vmovaps instead of vmovups.
// Alignment is checked per invocation on the actual row pointers (ops hand
// kernels row offsets, and a row stride that is not a multiple of 8 floats
// breaks alignment mid-tensor), and the 8-float step preserves 32-byte
// alignment from one iteration to the next. The unaligned fallback is the
// exact same instruction sequence with vmovups — loads/stores carry no
// rounding, so both paths are bitwise identical (asserted by
// kernel_property_test.cc's pool-vs-system and alignment sweeps).

inline bool Aligned32(const void* p) {
  return (reinterpret_cast<uintptr_t>(p) & 31u) == 0;
}

template <bool kAligned>
inline __m256 Load(const float* p) {
  if constexpr (kAligned) {
    return _mm256_load_ps(p);
  } else {
    return _mm256_loadu_ps(p);
  }
}

template <bool kAligned>
inline void Store(float* p, __m256 v) {
  if constexpr (kAligned) {
    _mm256_store_ps(p, v);
  } else {
    _mm256_storeu_ps(p, v);
  }
}

// o[i] = a[i] OP b[i] for one row, 8 lanes at a time plus a scalar tail.
// The tail uses the same single rounded OP per element, so ragged widths
// (n % 8 != 0) stay bitwise identical to the scalar tier.
template <bool kA, typename VecOp, typename ScalarOp>
inline void BinaryRowImpl(const float* a, const float* b, float* o, int64_t n,
                          VecOp vop, ScalarOp sop) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 av = Load<kA>(a + i);
    __m256 bv = Load<kA>(b + i);
    Store<kA>(o + i, vop(av, bv));
  }
  for (; i < n; ++i) o[i] = sop(a[i], b[i]);
}

template <typename VecOp, typename ScalarOp>
inline void BinaryRow(const float* a, const float* b, float* o, int64_t n,
                      VecOp vop, ScalarOp sop) {
  if (Aligned32(a) && Aligned32(b) && Aligned32(o)) {
    BinaryRowImpl<true>(a, b, o, n, vop, sop);
  } else {
    BinaryRowImpl<false>(a, b, o, n, vop, sop);
  }
}

// crow[j:] += arow * B[:, j:] for one output row starting at column j,
// ascending-k accumulation per cell, zero-skip preserved: a 64-column
// register-blocked loop that keeps eight accumulators in ymm registers
// across the whole k loop (eight independent add chains hide the add
// latency and remove the C load/store per k step), a 32-column block, then
// an 8-wide loop, then a scalar tail. Every variant performs, per C cell
// and per k step, one rounded multiply followed by one rounded add in
// ascending k order — the scalar semantics exactly.
void GemmOneRow(const float* arow, const float* b, float* crow, int64_t k,
                int64_t n, int64_t ldb, int64_t j) {
  for (; j + 64 <= n; j += 64) {
    __m256 acc0 = _mm256_loadu_ps(crow + j);
    __m256 acc1 = _mm256_loadu_ps(crow + j + 8);
    __m256 acc2 = _mm256_loadu_ps(crow + j + 16);
    __m256 acc3 = _mm256_loadu_ps(crow + j + 24);
    __m256 acc4 = _mm256_loadu_ps(crow + j + 32);
    __m256 acc5 = _mm256_loadu_ps(crow + j + 40);
    __m256 acc6 = _mm256_loadu_ps(crow + j + 48);
    __m256 acc7 = _mm256_loadu_ps(crow + j + 56);
    for (int64_t kk = 0; kk < k; ++kk) {
      float av = arow[kk];
      if (av == 0.0f) continue;
      const float* brow = b + kk * ldb + j;
      __m256 avv = _mm256_set1_ps(av);
      acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(avv, _mm256_loadu_ps(brow)));
      acc1 =
          _mm256_add_ps(acc1, _mm256_mul_ps(avv, _mm256_loadu_ps(brow + 8)));
      acc2 =
          _mm256_add_ps(acc2, _mm256_mul_ps(avv, _mm256_loadu_ps(brow + 16)));
      acc3 =
          _mm256_add_ps(acc3, _mm256_mul_ps(avv, _mm256_loadu_ps(brow + 24)));
      acc4 =
          _mm256_add_ps(acc4, _mm256_mul_ps(avv, _mm256_loadu_ps(brow + 32)));
      acc5 =
          _mm256_add_ps(acc5, _mm256_mul_ps(avv, _mm256_loadu_ps(brow + 40)));
      acc6 =
          _mm256_add_ps(acc6, _mm256_mul_ps(avv, _mm256_loadu_ps(brow + 48)));
      acc7 =
          _mm256_add_ps(acc7, _mm256_mul_ps(avv, _mm256_loadu_ps(brow + 56)));
    }
    _mm256_storeu_ps(crow + j, acc0);
    _mm256_storeu_ps(crow + j + 8, acc1);
    _mm256_storeu_ps(crow + j + 16, acc2);
    _mm256_storeu_ps(crow + j + 24, acc3);
    _mm256_storeu_ps(crow + j + 32, acc4);
    _mm256_storeu_ps(crow + j + 40, acc5);
    _mm256_storeu_ps(crow + j + 48, acc6);
    _mm256_storeu_ps(crow + j + 56, acc7);
  }
  for (; j + 32 <= n; j += 32) {
    __m256 acc0 = _mm256_loadu_ps(crow + j);
    __m256 acc1 = _mm256_loadu_ps(crow + j + 8);
    __m256 acc2 = _mm256_loadu_ps(crow + j + 16);
    __m256 acc3 = _mm256_loadu_ps(crow + j + 24);
    for (int64_t kk = 0; kk < k; ++kk) {
      float av = arow[kk];
      if (av == 0.0f) continue;
      const float* brow = b + kk * ldb + j;
      __m256 avv = _mm256_set1_ps(av);
      acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(avv, _mm256_loadu_ps(brow)));
      acc1 =
          _mm256_add_ps(acc1, _mm256_mul_ps(avv, _mm256_loadu_ps(brow + 8)));
      acc2 =
          _mm256_add_ps(acc2, _mm256_mul_ps(avv, _mm256_loadu_ps(brow + 16)));
      acc3 =
          _mm256_add_ps(acc3, _mm256_mul_ps(avv, _mm256_loadu_ps(brow + 24)));
    }
    _mm256_storeu_ps(crow + j, acc0);
    _mm256_storeu_ps(crow + j + 8, acc1);
    _mm256_storeu_ps(crow + j + 16, acc2);
    _mm256_storeu_ps(crow + j + 24, acc3);
  }
  for (; j + 8 <= n; j += 8) {
    __m256 acc = _mm256_loadu_ps(crow + j);
    for (int64_t kk = 0; kk < k; ++kk) {
      float av = arow[kk];
      if (av == 0.0f) continue;
      __m256 avv = _mm256_set1_ps(av);
      acc = _mm256_add_ps(
          acc, _mm256_mul_ps(avv, _mm256_loadu_ps(b + kk * ldb + j)));
    }
    _mm256_storeu_ps(crow + j, acc);
  }
  for (; j < n; ++j) {
    float acc = crow[j];
    for (int64_t kk = 0; kk < k; ++kk) {
      float av = arow[kk];
      if (av == 0.0f) continue;
      acc += av * b[kk * ldb + j];
    }
    crow[j] = acc;
  }
}

}  // namespace

// C[i,:] += A[i,:] * B for rows [r0, r1). Cache-aware traversal, not a
// different computation. The naive row-major loop re-streams all of B from
// L2 once per output row, and at power-of-two n the rows of a k x 32
// column strip of B are 4*n bytes apart — they alias onto a handful of L1
// sets and evict each other no matter how small the strip is. So the hot
// path packs each k-tile of the strip into a small contiguous stack buffer
// (a pure copy — bitwise-neutral) and then sweeps all output rows, in
// pairs, against that L1-resident tile; each loaded B vector feeds two
// output rows. Traversal order and copying are the only changes — every C
// cell still receives one rounded multiply followed by one rounded add per
// k step in ascending k order (k-tiles are visited in ascending order and
// accumulate into C), and the zero-skip is applied per row exactly as in
// the scalar tier, so results stay bitwise identical.
void GemmRows(const float* a, const float* b, float* c, int64_t k, int64_t n,
              int64_t ldb, int64_t ldc, int64_t r0, int64_t r1) {
  // 64 k-steps x 32 columns = 8 KiB: comfortably L1-resident alongside the
  // A and C lines the sweep touches.
  constexpr int64_t kKTile = 64;
  alignas(32) float pack[kKTile * 32];
  // Last row of an odd-sized range is swept unpaired against the same tile.
  const int64_t rows2 = r0 + ((r1 - r0) / 2) * 2;
  int64_t j = 0;
  for (; j + 32 <= n; j += 32) {
    for (int64_t kk0 = 0; kk0 < k; kk0 += kKTile) {
      const int64_t kt = kk0 + kKTile <= k ? kKTile : k - kk0;
      for (int64_t t = 0; t < kt; ++t) {
        const float* brow = b + (kk0 + t) * ldb + j;
        float* prow = pack + t * 32;
        _mm256_store_ps(prow, _mm256_loadu_ps(brow));
        _mm256_store_ps(prow + 8, _mm256_loadu_ps(brow + 8));
        _mm256_store_ps(prow + 16, _mm256_loadu_ps(brow + 16));
        _mm256_store_ps(prow + 24, _mm256_loadu_ps(brow + 24));
      }
      for (int64_t i = r0; i < rows2; i += 2) {
        const float* arow0 = a + i * k + kk0;
        const float* arow1 = arow0 + k;
        float* crow0 = c + i * ldc + j;
        float* crow1 = crow0 + ldc;
        __m256 p0 = _mm256_loadu_ps(crow0);
        __m256 p1 = _mm256_loadu_ps(crow0 + 8);
        __m256 p2 = _mm256_loadu_ps(crow0 + 16);
        __m256 p3 = _mm256_loadu_ps(crow0 + 24);
        __m256 q0 = _mm256_loadu_ps(crow1);
        __m256 q1 = _mm256_loadu_ps(crow1 + 8);
        __m256 q2 = _mm256_loadu_ps(crow1 + 16);
        __m256 q3 = _mm256_loadu_ps(crow1 + 24);
        for (int64_t t = 0; t < kt; ++t) {
          float av0 = arow0[t];
          float av1 = arow1[t];
          if (av0 == 0.0f && av1 == 0.0f) continue;
          const float* bp = pack + t * 32;
          __m256 b0 = _mm256_load_ps(bp);
          __m256 b1 = _mm256_load_ps(bp + 8);
          __m256 b2 = _mm256_load_ps(bp + 16);
          __m256 b3 = _mm256_load_ps(bp + 24);
          if (av0 != 0.0f) {
            __m256 avv = _mm256_set1_ps(av0);
            p0 = _mm256_add_ps(p0, _mm256_mul_ps(avv, b0));
            p1 = _mm256_add_ps(p1, _mm256_mul_ps(avv, b1));
            p2 = _mm256_add_ps(p2, _mm256_mul_ps(avv, b2));
            p3 = _mm256_add_ps(p3, _mm256_mul_ps(avv, b3));
          }
          if (av1 != 0.0f) {
            __m256 avv = _mm256_set1_ps(av1);
            q0 = _mm256_add_ps(q0, _mm256_mul_ps(avv, b0));
            q1 = _mm256_add_ps(q1, _mm256_mul_ps(avv, b1));
            q2 = _mm256_add_ps(q2, _mm256_mul_ps(avv, b2));
            q3 = _mm256_add_ps(q3, _mm256_mul_ps(avv, b3));
          }
        }
        _mm256_storeu_ps(crow0, p0);
        _mm256_storeu_ps(crow0 + 8, p1);
        _mm256_storeu_ps(crow0 + 16, p2);
        _mm256_storeu_ps(crow0 + 24, p3);
        _mm256_storeu_ps(crow1, q0);
        _mm256_storeu_ps(crow1 + 8, q1);
        _mm256_storeu_ps(crow1 + 16, q2);
        _mm256_storeu_ps(crow1 + 24, q3);
      }
      if (rows2 < r1) {
        const float* arow = a + rows2 * k + kk0;
        float* crow = c + rows2 * ldc + j;
        __m256 p0 = _mm256_loadu_ps(crow);
        __m256 p1 = _mm256_loadu_ps(crow + 8);
        __m256 p2 = _mm256_loadu_ps(crow + 16);
        __m256 p3 = _mm256_loadu_ps(crow + 24);
        for (int64_t t = 0; t < kt; ++t) {
          float av = arow[t];
          if (av == 0.0f) continue;
          const float* bp = pack + t * 32;
          __m256 avv = _mm256_set1_ps(av);
          p0 = _mm256_add_ps(p0, _mm256_mul_ps(avv, _mm256_load_ps(bp)));
          p1 = _mm256_add_ps(p1, _mm256_mul_ps(avv, _mm256_load_ps(bp + 8)));
          p2 = _mm256_add_ps(p2, _mm256_mul_ps(avv, _mm256_load_ps(bp + 16)));
          p3 = _mm256_add_ps(p3, _mm256_mul_ps(avv, _mm256_load_ps(bp + 24)));
        }
        _mm256_storeu_ps(crow, p0);
        _mm256_storeu_ps(crow + 8, p1);
        _mm256_storeu_ps(crow + 16, p2);
        _mm256_storeu_ps(crow + 24, p3);
      }
    }
  }
  if (j < n) {
    // Ragged column tail (< 32 columns), unpacked per row.
    for (int64_t i = r0; i < r1; ++i) {
      GemmOneRow(a + i * k, b, c + i * ldc, k, n, ldb, j);
    }
  }
}

// 8 x 8 blocks: each register is loaded as two 128-bit halves (four
// columns of row i below the same four of row i + 4), so the loads do the
// lane crossing; unpacks interleave row pairs, and one shuffle plus two
// blends (which, unlike the shuffles, need not share one port) finish each
// pair of output rows. Lane moves only, so every bit (NaN payloads
// included) is copied as is. The ragged row and column edges are copied
// one float at a time.
void TransposeTile(const float* src, int64_t lds, float* dst, int64_t ldd,
                   int64_t rows, int64_t cols) {
  auto halves = [lds](const float* s, int64_t i) {
    const __m256 lo = _mm256_castps128_ps256(_mm_loadu_ps(s + i * lds));
    return _mm256_insertf128_ps(lo, _mm_loadu_ps(s + (i + 4) * lds), 1);
  };
  // Per 128-bit lane: out0 = [x0 x1 y0 y1], out1 = [x2 x3 y2 y3].
  auto pair = [](__m256 x, __m256 y, __m256* out0, __m256* out1) {
    const __m256 v = _mm256_shuffle_ps(x, y, _MM_SHUFFLE(1, 0, 3, 2));
    *out0 = _mm256_blend_ps(x, v, 0xCC);
    *out1 = _mm256_blend_ps(y, v, 0x33);
  };
  int64_t r = 0;
  for (; r + 8 <= rows; r += 8) {
    int64_t c = 0;
    for (; c + 8 <= cols; c += 8) {
      const float* s = src + r * lds + c;
      const __m256 r0 = halves(s, 0), r1 = halves(s, 1);
      const __m256 r2 = halves(s, 2), r3 = halves(s, 3);
      const __m256 r4 = halves(s + 4, 0), r5 = halves(s + 4, 1);
      const __m256 r6 = halves(s + 4, 2), r7 = halves(s + 4, 3);
      __m256 o[8];
      pair(_mm256_unpacklo_ps(r0, r1), _mm256_unpacklo_ps(r2, r3), &o[0],
           &o[1]);
      pair(_mm256_unpackhi_ps(r0, r1), _mm256_unpackhi_ps(r2, r3), &o[2],
           &o[3]);
      pair(_mm256_unpacklo_ps(r4, r5), _mm256_unpacklo_ps(r6, r7), &o[4],
           &o[5]);
      pair(_mm256_unpackhi_ps(r4, r5), _mm256_unpackhi_ps(r6, r7), &o[6],
           &o[7]);
      float* d = dst + c * ldd + r;
      for (int i = 0; i < 8; ++i) _mm256_storeu_ps(d + i * ldd, o[i]);
    }
    for (; c < cols; ++c) {
      for (int64_t i = r; i < r + 8; ++i) dst[c * ldd + i] = src[i * lds + c];
    }
  }
  for (; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) dst[c * ldd + r] = src[r * lds + c];
  }
}

// Lane-wise strict-> max: _mm256_max_ps(x, best) returns x only when
// x > best (NaN or equal values keep best), the scalar `if (x > best)`.
void MaxRows(const float* a, int64_t rows, int64_t lda, float* o, int64_t n) {
  const __m256 ninf = _mm256_set1_ps(-__builtin_inff());
  int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    __m256 best = ninf;
    for (int64_t r = 0; r < rows; ++r) {
      best = _mm256_max_ps(_mm256_loadu_ps(a + r * lda + j), best);
    }
    _mm256_storeu_ps(o + j, best);
  }
  for (; j < n; ++j) {
    float best = -__builtin_inff();
    for (int64_t r = 0; r < rows; ++r) {
      const float x = a[r * lda + j];
      if (x > best) best = x;
    }
    o[j] = best;
  }
}

// 32 lanes per step: a catalog top-k row rejects almost every column once
// its heap is full, so the scan is the hot loop of ranking.
int64_t FindFirstGreater(const float* x, int64_t n, float thr) {
  const __m256 t = _mm256_set1_ps(thr);
  int64_t j = 0;
  for (; j + 32 <= n; j += 32) {
    const __m256 m0 = _mm256_cmp_ps(_mm256_loadu_ps(x + j), t, _CMP_GT_OQ);
    const __m256 m1 = _mm256_cmp_ps(_mm256_loadu_ps(x + j + 8), t, _CMP_GT_OQ);
    const __m256 m2 =
        _mm256_cmp_ps(_mm256_loadu_ps(x + j + 16), t, _CMP_GT_OQ);
    const __m256 m3 =
        _mm256_cmp_ps(_mm256_loadu_ps(x + j + 24), t, _CMP_GT_OQ);
    const uint32_t bits =
        static_cast<uint32_t>(_mm256_movemask_ps(m0)) |
        (static_cast<uint32_t>(_mm256_movemask_ps(m1)) << 8) |
        (static_cast<uint32_t>(_mm256_movemask_ps(m2)) << 16) |
        (static_cast<uint32_t>(_mm256_movemask_ps(m3)) << 24);
    if (bits != 0) return j + __builtin_ctz(bits);
  }
  for (; j + 8 <= n; j += 8) {
    const int bits = _mm256_movemask_ps(
        _mm256_cmp_ps(_mm256_loadu_ps(x + j), t, _CMP_GT_OQ));
    if (bits != 0) return j + __builtin_ctz(static_cast<unsigned>(bits));
  }
  for (; j < n; ++j) {
    if (x[j] > thr) return j;
  }
  return n;
}

namespace {
template <bool kA>
inline void AxpyRowImpl(float s, const float* x, float* y, int64_t n) {
  __m256 sv = _mm256_set1_ps(s);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 yv = Load<kA>(y + i);
    yv = _mm256_add_ps(yv, _mm256_mul_ps(sv, Load<kA>(x + i)));
    Store<kA>(y + i, yv);
  }
  for (; i < n; ++i) y[i] += s * x[i];
}
}  // namespace

void AxpyRow(float s, const float* x, float* y, int64_t n) {
  if (Aligned32(x) && Aligned32(y)) {
    AxpyRowImpl<true>(s, x, y, n);
  } else {
    AxpyRowImpl<false>(s, x, y, n);
  }
}

void AddRow(const float* a, const float* b, float* o, int64_t n) {
  BinaryRow(
      a, b, o, n, [](__m256 x, __m256 y) { return _mm256_add_ps(x, y); },
      [](float x, float y) { return x + y; });
}

void SubRow(const float* a, const float* b, float* o, int64_t n) {
  BinaryRow(
      a, b, o, n, [](__m256 x, __m256 y) { return _mm256_sub_ps(x, y); },
      [](float x, float y) { return x - y; });
}

void MulRow(const float* a, const float* b, float* o, int64_t n) {
  BinaryRow(
      a, b, o, n, [](__m256 x, __m256 y) { return _mm256_mul_ps(x, y); },
      [](float x, float y) { return x * y; });
}

void DivRow(const float* a, const float* b, float* o, int64_t n) {
  BinaryRow(
      a, b, o, n, [](__m256 x, __m256 y) { return _mm256_div_ps(x, y); },
      [](float x, float y) { return x / y; });
}

// max(a, 0.0f) with the second operand as the max "fallback" matches the
// scalar `a > 0 ? a : 0` exactly: vmaxps returns the SECOND operand when
// either input is NaN or when comparing -0.0 vs +0.0, so NaN -> 0.0f and
// -0.0f -> +0.0f on both tiers.
namespace {
template <bool kA>
inline void ReluRowImpl(const float* a, float* o, int64_t n) {
  __m256 zero = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    Store<kA>(o + i, _mm256_max_ps(Load<kA>(a + i), zero));
  }
  for (; i < n; ++i) o[i] = a[i] > 0.0f ? a[i] : 0.0f;
}
}  // namespace

void ReluRow(const float* a, float* o, int64_t n) {
  if (Aligned32(a) && Aligned32(o)) {
    ReluRowImpl<true>(a, o, n);
  } else {
    ReluRowImpl<false>(a, o, n);
  }
}

namespace {
template <bool kA>
inline void ScaleRowImpl(const float* a, float s, float* o, int64_t n) {
  __m256 sv = _mm256_set1_ps(s);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    Store<kA>(o + i, _mm256_mul_ps(Load<kA>(a + i), sv));
  }
  for (; i < n; ++i) o[i] = a[i] * s;
}
}  // namespace

void ScaleRow(const float* a, float s, float* o, int64_t n) {
  if (Aligned32(a) && Aligned32(o)) {
    ScaleRowImpl<true>(a, s, o, n);
  } else {
    ScaleRowImpl<false>(a, s, o, n);
  }
}

namespace {
template <bool kA>
inline void AddScalarRowImpl(const float* a, float s, float* o, int64_t n) {
  __m256 sv = _mm256_set1_ps(s);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    Store<kA>(o + i, _mm256_add_ps(Load<kA>(a + i), sv));
  }
  for (; i < n; ++i) o[i] = a[i] + s;
}
}  // namespace

void AddScalarRow(const float* a, float s, float* o, int64_t n) {
  if (Aligned32(a) && Aligned32(o)) {
    AddScalarRowImpl<true>(a, s, o, n);
  } else {
    AddScalarRowImpl<false>(a, s, o, n);
  }
}

namespace {
template <bool kA>
inline void AccumRowImpl(const float* g, float* acc, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 av = Load<kA>(acc + i);
    Store<kA>(acc + i, _mm256_add_ps(av, Load<kA>(g + i)));
  }
  for (; i < n; ++i) acc[i] += g[i];
}
}  // namespace

void AccumRow(const float* g, float* acc, int64_t n) {
  if (Aligned32(g) && Aligned32(acc)) {
    AccumRowImpl<true>(g, acc, n);
  } else {
    AccumRowImpl<false>(g, acc, n);
  }
}

// acc[i] += (-1.0f) * g[i], keeping the scalar's explicit rounded multiply
// (NOT a subtract: -1*g and acc-g differ in sign for g == 0 edge cases of
// the intermediate, so we replay the same instruction sequence).
namespace {
template <bool kA>
inline void NegAccumRowImpl(const float* g, float* acc, int64_t n) {
  __m256 neg1 = _mm256_set1_ps(-1.0f);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 av = Load<kA>(acc + i);
    av = _mm256_add_ps(av, _mm256_mul_ps(neg1, Load<kA>(g + i)));
    Store<kA>(acc + i, av);
  }
  for (; i < n; ++i) acc[i] += -1.0f * g[i];
}
}  // namespace

void NegAccumRow(const float* g, float* acc, int64_t n) {
  if (Aligned32(g) && Aligned32(acc)) {
    NegAccumRowImpl<true>(g, acc, n);
  } else {
    NegAccumRowImpl<false>(g, acc, n);
  }
}

namespace {
template <bool kA>
inline void MulAccumRowImpl(const float* b, const float* g, float* acc,
                            int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 av = Load<kA>(acc + i);
    av = _mm256_add_ps(av, _mm256_mul_ps(Load<kA>(b + i), Load<kA>(g + i)));
    Store<kA>(acc + i, av);
  }
  for (; i < n; ++i) acc[i] += b[i] * g[i];
}
}  // namespace

void MulAccumRow(const float* b, const float* g, float* acc, int64_t n) {
  if (Aligned32(b) && Aligned32(g) && Aligned32(acc)) {
    MulAccumRowImpl<true>(b, g, acc, n);
  } else {
    MulAccumRowImpl<false>(b, g, acc, n);
  }
}

namespace {
template <bool kA>
inline void LayerNormAffineRowImpl(const float* x, float mu, float is,
                                   const float* gamma, const float* beta,
                                   float* xh, float* y, int64_t n) {
  __m256 muv = _mm256_set1_ps(mu);
  __m256 isv = _mm256_set1_ps(is);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 xv = Load<kA>(x + i);
    __m256 xhv = _mm256_mul_ps(_mm256_sub_ps(xv, muv), isv);
    Store<kA>(xh + i, xhv);
    __m256 yv =
        _mm256_add_ps(_mm256_mul_ps(Load<kA>(gamma + i), xhv),
                      Load<kA>(beta + i));
    Store<kA>(y + i, yv);
  }
  for (; i < n; ++i) {
    xh[i] = (x[i] - mu) * is;
    y[i] = gamma[i] * xh[i] + beta[i];
  }
}
}  // namespace

void LayerNormAffineRow(const float* x, float mu, float is, const float* gamma,
                        const float* beta, float* xh, float* y, int64_t n) {
  if (Aligned32(x) && Aligned32(gamma) && Aligned32(beta) && Aligned32(xh) &&
      Aligned32(y)) {
    LayerNormAffineRowImpl<true>(x, mu, is, gamma, beta, xh, y, n);
  } else {
    LayerNormAffineRowImpl<false>(x, mu, is, gamma, beta, xh, y, n);
  }
}

namespace {
template <bool kA>
inline void LayerNormGradRowImpl(const float* g, const float* gamma,
                                 const float* xh, float m1, float m2, float is,
                                 float* gx, int64_t n) {
  __m256 m1v = _mm256_set1_ps(m1);
  __m256 m2v = _mm256_set1_ps(m2);
  __m256 isv = _mm256_set1_ps(is);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 gg = _mm256_mul_ps(Load<kA>(gamma + i), Load<kA>(g + i));
    __m256 t = _mm256_sub_ps(_mm256_sub_ps(gg, m1v),
                             _mm256_mul_ps(Load<kA>(xh + i), m2v));
    __m256 gxv = _mm256_add_ps(Load<kA>(gx + i), _mm256_mul_ps(t, isv));
    Store<kA>(gx + i, gxv);
  }
  for (; i < n; ++i) {
    float gg = gamma[i] * g[i];
    gx[i] += (gg - m1 - xh[i] * m2) * is;
  }
}
}  // namespace

void LayerNormGradRow(const float* g, const float* gamma, const float* xh,
                      float m1, float m2, float is, float* gx, int64_t n) {
  if (Aligned32(g) && Aligned32(gamma) && Aligned32(xh) && Aligned32(gx)) {
    LayerNormGradRowImpl<true>(g, gamma, xh, m1, m2, is, gx, n);
  } else {
    LayerNormGradRowImpl<false>(g, gamma, xh, m1, m2, is, gx, n);
  }
}

namespace {
template <bool kA>
inline void SoftmaxGradRowImpl(const float* y, const float* g, float dot,
                               float* ga, int64_t n) {
  __m256 dotv = _mm256_set1_ps(dot);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 t =
        _mm256_mul_ps(Load<kA>(y + i), _mm256_sub_ps(Load<kA>(g + i), dotv));
    Store<kA>(ga + i, _mm256_add_ps(Load<kA>(ga + i), t));
  }
  for (; i < n; ++i) ga[i] += y[i] * (g[i] - dot);
}
}  // namespace

void SoftmaxGradRow(const float* y, const float* g, float dot, float* ga,
                    int64_t n) {
  if (Aligned32(y) && Aligned32(g) && Aligned32(ga)) {
    SoftmaxGradRowImpl<true>(y, g, dot, ga, n);
  } else {
    SoftmaxGradRowImpl<false>(y, g, dot, ga, n);
  }
}

// ---- Transcendentals ------------------------------------------------------
//
// Exp8 and Tanh8 are ExpF and TanhF of simd.cc, line for line, on eight
// lanes: the same constants (simd_math.h), the same rounded operations in
// the same order. vminps(c, x) and vmaxps(c, x) return their second operand
// when either is NaN, which is the scalar `c < x ? c : x` and keeps NaN. A
// row's last n % 8 elements go through the same vector code on a masked
// load and store, so no lane ever takes a different path. These kernels
// are bound by arithmetic, not memory, so they use unaligned loads only.

namespace {

inline __m256 Exp8(__m256 x) {
  using namespace math;
  const __m256 magic = _mm256_set1_ps(kRoundMagic);
  __m256 c = _mm256_min_ps(_mm256_set1_ps(kExpHi), x);
  c = _mm256_max_ps(_mm256_set1_ps(kExpMinArg), c);
  const __m256 t =
      _mm256_add_ps(_mm256_mul_ps(c, _mm256_set1_ps(kLog2e)), magic);
  const __m256 nf = _mm256_sub_ps(t, magic);
  __m256 r = _mm256_sub_ps(c, _mm256_mul_ps(nf, _mm256_set1_ps(kLn2Hi)));
  r = _mm256_sub_ps(r, _mm256_mul_ps(nf, _mm256_set1_ps(kLn2Lo)));
  __m256 p = _mm256_add_ps(_mm256_mul_ps(_mm256_set1_ps(kExpP0), r),
                           _mm256_set1_ps(kExpP1));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpP2));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpP3));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpP4));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpP5));
  p = _mm256_add_ps(_mm256_mul_ps(p, _mm256_mul_ps(r, r)), r);
  p = _mm256_add_ps(p, _mm256_set1_ps(1.0f));
  const __m256i n = _mm256_sub_epi32(_mm256_castps_si256(t),
                                     _mm256_castps_si256(magic));
  const __m256i n1 = _mm256_srai_epi32(n, 1);
  const __m256i n2 = _mm256_sub_epi32(n, n1);
  const __m256i bias = _mm256_set1_epi32(127);
  __m256 y = _mm256_mul_ps(p, _mm256_castsi256_ps(_mm256_slli_epi32(
                                  _mm256_add_epi32(n1, bias), 23)));
  y = _mm256_mul_ps(y, _mm256_castsi256_ps(_mm256_slli_epi32(
                           _mm256_add_epi32(n2, bias), 23)));
  const __m256 under =
      _mm256_cmp_ps(x, _mm256_set1_ps(kExpMinArg), _CMP_LT_OQ);
  return _mm256_andnot_ps(under, y);
}

inline __m256 Tanh8(__m256 x) {
  using namespace math;
  __m256 c = _mm256_min_ps(_mm256_set1_ps(kTanhClamp), x);
  c = _mm256_max_ps(_mm256_set1_ps(-kTanhClamp), c);
  const __m256 x2 = _mm256_mul_ps(c, c);
  __m256 p = _mm256_add_ps(_mm256_mul_ps(_mm256_set1_ps(kTanhA13), x2),
                           _mm256_set1_ps(kTanhA11));
  p = _mm256_add_ps(_mm256_mul_ps(p, x2), _mm256_set1_ps(kTanhA9));
  p = _mm256_add_ps(_mm256_mul_ps(p, x2), _mm256_set1_ps(kTanhA7));
  p = _mm256_add_ps(_mm256_mul_ps(p, x2), _mm256_set1_ps(kTanhA5));
  p = _mm256_add_ps(_mm256_mul_ps(p, x2), _mm256_set1_ps(kTanhA3));
  p = _mm256_add_ps(_mm256_mul_ps(p, x2), _mm256_set1_ps(kTanhA1));
  p = _mm256_mul_ps(p, c);
  __m256 q = _mm256_add_ps(_mm256_mul_ps(_mm256_set1_ps(kTanhB6), x2),
                           _mm256_set1_ps(kTanhB4));
  q = _mm256_add_ps(_mm256_mul_ps(q, x2), _mm256_set1_ps(kTanhB2));
  q = _mm256_add_ps(_mm256_mul_ps(q, x2), _mm256_set1_ps(kTanhB0));
  const __m256 r = _mm256_div_ps(p, q);
  const __m256 ax = _mm256_andnot_ps(_mm256_set1_ps(-0.0f), x);
  const __m256 tiny =
      _mm256_cmp_ps(ax, _mm256_set1_ps(kTanhTiny), _CMP_LT_OQ);
  return _mm256_blendv_ps(r, x, tiny);
}

inline __m256 GeluU8(__m256 x) {
  using namespace math;
  const __m256 x3 = _mm256_mul_ps(
      _mm256_mul_ps(_mm256_mul_ps(_mm256_set1_ps(kGeluA), x), x), x);
  return _mm256_mul_ps(_mm256_set1_ps(kGeluC), _mm256_add_ps(x, x3));
}

inline __m256 Gelu8(__m256 x) {
  const __m256 half_x = _mm256_mul_ps(_mm256_set1_ps(0.5f), x);
  return _mm256_mul_ps(half_x,
                       _mm256_add_ps(_mm256_set1_ps(1.0f), Tanh8(GeluU8(x))));
}

// gx + gelu'(x) * g, the scalar GeluGradRow sequence.
inline __m256 GeluGrad8(__m256 x, __m256 g, __m256 gx) {
  using namespace math;
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 t = Tanh8(GeluU8(x));
  const __m256 du = _mm256_mul_ps(
      _mm256_set1_ps(kGeluC),
      _mm256_add_ps(one, _mm256_mul_ps(
                             _mm256_mul_ps(_mm256_set1_ps(kGeluA3), x), x)));
  const __m256 a = _mm256_mul_ps(half, _mm256_add_ps(one, t));
  const __m256 b = _mm256_mul_ps(
      _mm256_mul_ps(_mm256_mul_ps(half, x),
                    _mm256_sub_ps(one, _mm256_mul_ps(t, t))),
      du);
  return _mm256_add_ps(gx, _mm256_mul_ps(_mm256_add_ps(a, b), g));
}

// Lane mask selecting the first m < 8 lanes.
inline __m256i TailMask(int64_t m) {
  alignas(32) static constexpr int32_t kMask[16] = {-1, -1, -1, -1, -1, -1,
                                                    -1, -1, 0,  0,  0,  0,
                                                    0,  0,  0,  0};
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kMask + 8 - m));
}

// o[i] = f(a[i]) over a row, the last n % 8 elements masked.
template <typename F>
inline void MapRow(const float* a, float* o, int64_t n, F f) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) _mm256_storeu_ps(o + i, f(_mm256_loadu_ps(a + i)));
  if (i < n) {
    const __m256i m = TailMask(n - i);
    _mm256_maskstore_ps(o + i, m, f(_mm256_maskload_ps(a + i, m)));
  }
}

}  // namespace

void ExpRow(const float* a, float* o, int64_t n) { MapRow(a, o, n, Exp8); }

void TanhRow(const float* a, float* o, int64_t n) { MapRow(a, o, n, Tanh8); }

void GeluRow(const float* a, float* o, int64_t n) { MapRow(a, o, n, Gelu8); }

void GeluGradRow(const float* x, const float* g, float* gx, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(gx + i,
                     GeluGrad8(_mm256_loadu_ps(x + i), _mm256_loadu_ps(g + i),
                               _mm256_loadu_ps(gx + i)));
  }
  if (i < n) {
    const __m256i m = TailMask(n - i);
    _mm256_maskstore_ps(
        gx + i, m,
        GeluGrad8(_mm256_maskload_ps(x + i, m), _mm256_maskload_ps(g + i, m),
                  _mm256_maskload_ps(gx + i, m)));
  }
}

// ---- Int8 catalog tier ------------------------------------------------------
//
// Unlike the float kernels above, the int8 dot is free to re-block: the
// contract (quant::Int8DotRef) is an int32 sum of int32 products, and
// integer addition is associative, so maddubs pair sums, 32-lane partials
// and the final horizontal reduction all land on exactly the scalar result.
// The signed x signed product runs through the classic sign trick —
// maddubs multiplies u8 x s8, so feed it |a| and b*sign(a). Codes are
// clamped to [-127, 127] at quantization time (tensor/quant.cc), which
// bounds every maddubs pair sum by 2 * 127 * 127 = 32258 < 2^15: the
// intermediate int16 never saturates and the pair sums are exact.
//
// Structure note: the hot shapes (k = 32 and k = 64, the embedding dims the
// serving stack ships) get their own branch-free template instantiations.
// A single generic loop with a runtime block count looks tidier but makes
// GCC merge all paths into one allocation region and bounce every catalog
// load off a stack slot — measured ~2x slower than the fixed-shape loops.

namespace {

// 32 int8 lanes of a * b, pair-summed into 8 exact int32 lanes. `ua` must be
// |va| (hoisted by the caller — it only depends on the activation row).
inline __m256i Int8DotStep(__m256i va, __m256i ua, __m256i vb) {
  const __m256i sb = _mm256_sign_epi8(vb, va);  // b * sign(a); 0 where a == 0
  const __m256i pair16 = _mm256_maddubs_epi16(ua, sb);
  return _mm256_madd_epi16(pair16, _mm256_set1_epi16(1));
}

// Sum of the 8 int32 lanes (exact, order-free).
inline int32_t Hsum256(__m256i v) {
  __m128i s = _mm_add_epi32(_mm256_castsi256_si128(v),
                            _mm256_extracti128_si256(v, 1));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(s);
}

// Reduces four 8-lane int32 accumulators to their four exact totals
// [s0, s1, s2, s3] via a hadd tree — ~4x cheaper than four Hsum256 calls,
// and still exact: every step is an integer add.
inline __m128i Hsum4x256(__m256i a0, __m256i a1, __m256i a2, __m256i a3) {
  const __m256i h01 = _mm256_hadd_epi32(a0, a1);
  const __m256i h23 = _mm256_hadd_epi32(a2, a3);
  const __m256i h = _mm256_hadd_epi32(h01, h23);  // [p0 p1 p2 p3 | q0 q1 q2 q3]
  return _mm_add_epi32(_mm256_castsi256_si128(h),
                       _mm256_extracti128_si256(h, 1));
}

inline __m256i LoadI8(const int8_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

// The activation row's one or two 32-byte blocks, loaded and sign-stripped
// once per kernel call — they are loop-invariant across the whole catalog.
template <int kNB>  // number of 32-byte activation blocks (k = 32 * kNB)
struct ActRegs {
  __m256i va0, ua0, va1, ua1;
  explicit ActRegs(const int8_t* a) {
    va0 = LoadI8(a);
    ua0 = _mm256_sign_epi8(va0, va0);  // |a|, fits u8 (<= 127)
    if constexpr (kNB == 2) {
      va1 = LoadI8(a + 32);
      ua1 = _mm256_sign_epi8(va1, va1);
    } else {
      va1 = ua1 = _mm256_setzero_si256();
    }
  }
};

// Exact totals of four consecutive catalog rows starting at b0.
template <int kNB>
inline __m128i Dot4Fixed(const ActRegs<kNB>& ar, const int8_t* b0) {
  constexpr int64_t k = 32 * kNB;
  __m256i a0 = Int8DotStep(ar.va0, ar.ua0, LoadI8(b0));
  __m256i a1 = Int8DotStep(ar.va0, ar.ua0, LoadI8(b0 + k));
  __m256i a2 = Int8DotStep(ar.va0, ar.ua0, LoadI8(b0 + 2 * k));
  __m256i a3 = Int8DotStep(ar.va0, ar.ua0, LoadI8(b0 + 3 * k));
  if constexpr (kNB == 2) {
    a0 = _mm256_add_epi32(a0, Int8DotStep(ar.va1, ar.ua1, LoadI8(b0 + 32)));
    a1 = _mm256_add_epi32(a1, Int8DotStep(ar.va1, ar.ua1, LoadI8(b0 + k + 32)));
    a2 = _mm256_add_epi32(a2,
                          Int8DotStep(ar.va1, ar.ua1, LoadI8(b0 + 2 * k + 32)));
    a3 = _mm256_add_epi32(a3,
                          Int8DotStep(ar.va1, ar.ua1, LoadI8(b0 + 3 * k + 32)));
  }
  return Hsum4x256(a0, a1, a2, a3);
}

template <int kNB>
inline int32_t Dot1Fixed(const ActRegs<kNB>& ar, const int8_t* brow) {
  __m256i acc = Int8DotStep(ar.va0, ar.ua0, LoadI8(brow));
  if constexpr (kNB == 2) {
    acc = _mm256_add_epi32(acc, Int8DotStep(ar.va1, ar.ua1, LoadI8(brow + 32)));
  }
  return Hsum256(acc);
}

// Two activation rows per catalog sweep: each loaded catalog vector feeds
// both dot chains, halving the kernel's dominant memory stream (the catalog
// re-read per activation row — at serving scale the catalog lives in L2 and
// its re-streaming, not the integer ALUs, bounds throughput).
template <int kNB>
void Int8DotDequantPairFixed(const int8_t* a, const float* act_scales,
                             const int8_t* b, const float* scales, float* o,
                             int64_t ldo, int64_t r0, int64_t r1) {
  constexpr int64_t k = 32 * kNB;
  const ActRegs<kNB> x(a);
  const ActRegs<kNB> y(a + k);
  const __m128 vsx = _mm_set1_ps(act_scales[0]);
  const __m128 vsy = _mm_set1_ps(act_scales[1]);
  float* ox = o;
  float* oy = o + ldo;
  int64_t r = r0;
  for (; r + 4 <= r1; r += 4) {
    const int8_t* b0 = b + r * k;
    const __m256i v0 = LoadI8(b0);
    const __m256i v1 = LoadI8(b0 + k);
    const __m256i v2 = LoadI8(b0 + 2 * k);
    const __m256i v3 = LoadI8(b0 + 3 * k);
    __m256i x0 = Int8DotStep(x.va0, x.ua0, v0);
    __m256i x1 = Int8DotStep(x.va0, x.ua0, v1);
    __m256i x2 = Int8DotStep(x.va0, x.ua0, v2);
    __m256i x3 = Int8DotStep(x.va0, x.ua0, v3);
    __m256i y0 = Int8DotStep(y.va0, y.ua0, v0);
    __m256i y1 = Int8DotStep(y.va0, y.ua0, v1);
    __m256i y2 = Int8DotStep(y.va0, y.ua0, v2);
    __m256i y3 = Int8DotStep(y.va0, y.ua0, v3);
    if constexpr (kNB == 2) {
      const __m256i w0 = LoadI8(b0 + 32);
      const __m256i w1 = LoadI8(b0 + k + 32);
      const __m256i w2 = LoadI8(b0 + 2 * k + 32);
      const __m256i w3 = LoadI8(b0 + 3 * k + 32);
      x0 = _mm256_add_epi32(x0, Int8DotStep(x.va1, x.ua1, w0));
      x1 = _mm256_add_epi32(x1, Int8DotStep(x.va1, x.ua1, w1));
      x2 = _mm256_add_epi32(x2, Int8DotStep(x.va1, x.ua1, w2));
      x3 = _mm256_add_epi32(x3, Int8DotStep(x.va1, x.ua1, w3));
      y0 = _mm256_add_epi32(y0, Int8DotStep(y.va1, y.ua1, w0));
      y1 = _mm256_add_epi32(y1, Int8DotStep(y.va1, y.ua1, w1));
      y2 = _mm256_add_epi32(y2, Int8DotStep(y.va1, y.ua1, w2));
      y3 = _mm256_add_epi32(y3, Int8DotStep(y.va1, y.ua1, w3));
    }
    const __m128 sc = _mm_loadu_ps(scales + r);
    _mm_storeu_ps(ox + r,
                  _mm_mul_ps(_mm_mul_ps(vsx, sc),
                             _mm_cvtepi32_ps(Hsum4x256(x0, x1, x2, x3))));
    _mm_storeu_ps(oy + r,
                  _mm_mul_ps(_mm_mul_ps(vsy, sc),
                             _mm_cvtepi32_ps(Hsum4x256(y0, y1, y2, y3))));
  }
  for (; r < r1; ++r) {
    const int8_t* brow = b + r * k;
    ox[r] = (act_scales[0] * scales[r]) *
            static_cast<float>(Dot1Fixed(x, brow));
    oy[r] = (act_scales[1] * scales[r]) *
            static_cast<float>(Dot1Fixed(y, brow));
  }
}

template <int kNB>
void Int8DotDequantRowsFixed(const int8_t* a, float act_scale, const int8_t* b,
                             const float* scales, float* o, int64_t r0,
                             int64_t r1) {
  constexpr int64_t k = 32 * kNB;
  const ActRegs<kNB> ar(a);
  const __m128 vas = _mm_set1_ps(act_scale);
  int64_t r = r0;
  // The dequant epilogue applies the scalar per-element sequence — cvt, two
  // rounded multiplies, no FMA — four lanes at a time, straight out of the
  // hadd tree: the int32 totals never touch memory.
  for (; r + 4 <= r1; r += 4) {
    const __m128 sc = _mm_mul_ps(vas, _mm_loadu_ps(scales + r));
    _mm_storeu_ps(
        o + r, _mm_mul_ps(sc, _mm_cvtepi32_ps(Dot4Fixed(ar, b + r * k))));
  }
  for (; r < r1; ++r) {
    o[r] = (act_scale * scales[r]) *
           static_cast<float>(Dot1Fixed(ar, b + r * k));
  }
}

// Generic fallback for every other k: reload the activation block inside the
// loop, scalar tail for k % 32. Bitwise identical — every path computes the
// same exact integer sum.
int32_t Int8DotGeneric(const int8_t* a, const int8_t* brow, int64_t k) {
  const int64_t k32 = k - (k % 32);
  __m256i acc = _mm256_setzero_si256();
  for (int64_t i = 0; i < k32; i += 32) {
    const __m256i va = LoadI8(a + i);
    const __m256i ua = _mm256_sign_epi8(va, va);
    acc = _mm256_add_epi32(acc, Int8DotStep(va, ua, LoadI8(brow + i)));
  }
  int32_t s = Hsum256(acc);
  for (int64_t i = k32; i < k; ++i) {
    s += static_cast<int32_t>(a[i]) * static_cast<int32_t>(brow[i]);
  }
  return s;
}

// ---- AVX-VNNI sub-tier ------------------------------------------------------
//
// vpdpbusd multiplies u8 x s8 and accumulates the four-element quads straight
// into int32 — one instruction where the maddubs path needs three (sign,
// maddubs, madd), and with NO int16 intermediate, so even the [-127, 127]
// clamp argument is unnecessary: the quad sums are exact by construction.
// The sign trick (|a| times b*sign(a)) is still how signed x signed becomes
// u8 x s8, and the hadd reduction trees are shared with the maddubs path.
// Everything is exact integer arithmetic followed by the identical dequant
// epilogue, so this sub-tier is bitwise invisible; tests/quant_test.cc runs
// the int8 parity suites with VNNI forced both off and on.
//
// Only this region is compiled for avxvnni (the pragma below); the public
// entry points choose it per call via simd::AvxVnniEnabled(), which is false
// unless CPUID reports the extension.

#pragma GCC push_options
#pragma GCC target("avx2,avxvnni")

// acc += quad sums of a * b, via the sign trick. `ua` must be |va|.
inline __m256i Int8DotStepVnni(__m256i acc, __m256i va, __m256i ua,
                               __m256i vb) {
  return _mm256_dpbusd_avx_epi32(acc, ua, _mm256_sign_epi8(vb, va));
}

// Exact totals of four consecutive catalog rows starting at b0.
template <int kNB>
inline __m128i Dot4Vnni(const ActRegs<kNB>& ar, const int8_t* b0) {
  constexpr int64_t k = 32 * kNB;
  const __m256i z = _mm256_setzero_si256();
  __m256i a0 = Int8DotStepVnni(z, ar.va0, ar.ua0, LoadI8(b0));
  __m256i a1 = Int8DotStepVnni(z, ar.va0, ar.ua0, LoadI8(b0 + k));
  __m256i a2 = Int8DotStepVnni(z, ar.va0, ar.ua0, LoadI8(b0 + 2 * k));
  __m256i a3 = Int8DotStepVnni(z, ar.va0, ar.ua0, LoadI8(b0 + 3 * k));
  if constexpr (kNB == 2) {
    a0 = Int8DotStepVnni(a0, ar.va1, ar.ua1, LoadI8(b0 + 32));
    a1 = Int8DotStepVnni(a1, ar.va1, ar.ua1, LoadI8(b0 + k + 32));
    a2 = Int8DotStepVnni(a2, ar.va1, ar.ua1, LoadI8(b0 + 2 * k + 32));
    a3 = Int8DotStepVnni(a3, ar.va1, ar.ua1, LoadI8(b0 + 3 * k + 32));
  }
  return Hsum4x256(a0, a1, a2, a3);
}

template <int kNB>
inline int32_t Dot1Vnni(const ActRegs<kNB>& ar, const int8_t* brow) {
  __m256i acc = Int8DotStepVnni(_mm256_setzero_si256(), ar.va0, ar.ua0,
                                LoadI8(brow));
  if constexpr (kNB == 2) {
    acc = Int8DotStepVnni(acc, ar.va1, ar.ua1, LoadI8(brow + 32));
  }
  return Hsum256(acc);
}

template <int kNB>
void Int8DotDequantRowsVnni(const int8_t* a, float act_scale, const int8_t* b,
                            const float* scales, float* o, int64_t r0,
                            int64_t r1) {
  constexpr int64_t k = 32 * kNB;
  const ActRegs<kNB> ar(a);
  const __m128 vas = _mm_set1_ps(act_scale);
  int64_t r = r0;
  for (; r + 4 <= r1; r += 4) {
    const __m128 sc = _mm_mul_ps(vas, _mm_loadu_ps(scales + r));
    _mm_storeu_ps(o + r,
                  _mm_mul_ps(sc, _mm_cvtepi32_ps(Dot4Vnni(ar, b + r * k))));
  }
  for (; r < r1; ++r) {
    o[r] =
        (act_scale * scales[r]) * static_cast<float>(Dot1Vnni(ar, b + r * k));
  }
}

// Paired-activation catalog sweep, vpdpbusd edition of
// Int8DotDequantPairFixed: same traversal, a third fewer integer ALU ops.
template <int kNB>
void Int8DotDequantPairVnni(const int8_t* a, const float* act_scales,
                            const int8_t* b, const float* scales, float* o,
                            int64_t ldo, int64_t r0, int64_t r1) {
  constexpr int64_t k = 32 * kNB;
  const ActRegs<kNB> x(a);
  const ActRegs<kNB> y(a + k);
  const __m128 vsx = _mm_set1_ps(act_scales[0]);
  const __m128 vsy = _mm_set1_ps(act_scales[1]);
  float* ox = o;
  float* oy = o + ldo;
  int64_t r = r0;
  for (; r + 4 <= r1; r += 4) {
    const int8_t* b0 = b + r * k;
    const __m256i z = _mm256_setzero_si256();
    const __m256i v0 = LoadI8(b0);
    const __m256i v1 = LoadI8(b0 + k);
    const __m256i v2 = LoadI8(b0 + 2 * k);
    const __m256i v3 = LoadI8(b0 + 3 * k);
    __m256i x0 = Int8DotStepVnni(z, x.va0, x.ua0, v0);
    __m256i x1 = Int8DotStepVnni(z, x.va0, x.ua0, v1);
    __m256i x2 = Int8DotStepVnni(z, x.va0, x.ua0, v2);
    __m256i x3 = Int8DotStepVnni(z, x.va0, x.ua0, v3);
    __m256i y0 = Int8DotStepVnni(z, y.va0, y.ua0, v0);
    __m256i y1 = Int8DotStepVnni(z, y.va0, y.ua0, v1);
    __m256i y2 = Int8DotStepVnni(z, y.va0, y.ua0, v2);
    __m256i y3 = Int8DotStepVnni(z, y.va0, y.ua0, v3);
    if constexpr (kNB == 2) {
      const __m256i w0 = LoadI8(b0 + 32);
      const __m256i w1 = LoadI8(b0 + k + 32);
      const __m256i w2 = LoadI8(b0 + 2 * k + 32);
      const __m256i w3 = LoadI8(b0 + 3 * k + 32);
      x0 = Int8DotStepVnni(x0, x.va1, x.ua1, w0);
      x1 = Int8DotStepVnni(x1, x.va1, x.ua1, w1);
      x2 = Int8DotStepVnni(x2, x.va1, x.ua1, w2);
      x3 = Int8DotStepVnni(x3, x.va1, x.ua1, w3);
      y0 = Int8DotStepVnni(y0, y.va1, y.ua1, w0);
      y1 = Int8DotStepVnni(y1, y.va1, y.ua1, w1);
      y2 = Int8DotStepVnni(y2, y.va1, y.ua1, w2);
      y3 = Int8DotStepVnni(y3, y.va1, y.ua1, w3);
    }
    const __m128 sc = _mm_loadu_ps(scales + r);
    _mm_storeu_ps(ox + r,
                  _mm_mul_ps(_mm_mul_ps(vsx, sc),
                             _mm_cvtepi32_ps(Hsum4x256(x0, x1, x2, x3))));
    _mm_storeu_ps(oy + r,
                  _mm_mul_ps(_mm_mul_ps(vsy, sc),
                             _mm_cvtepi32_ps(Hsum4x256(y0, y1, y2, y3))));
  }
  for (; r < r1; ++r) {
    const int8_t* brow = b + r * k;
    ox[r] =
        (act_scales[0] * scales[r]) * static_cast<float>(Dot1Vnni(x, brow));
    oy[r] =
        (act_scales[1] * scales[r]) * static_cast<float>(Dot1Vnni(y, brow));
  }
}

int32_t Int8DotGenericVnni(const int8_t* a, const int8_t* brow, int64_t k) {
  const int64_t k32 = k - (k % 32);
  __m256i acc = _mm256_setzero_si256();
  for (int64_t i = 0; i < k32; i += 32) {
    const __m256i va = LoadI8(a + i);
    const __m256i ua = _mm256_sign_epi8(va, va);
    acc = Int8DotStepVnni(acc, va, ua, LoadI8(brow + i));
  }
  int32_t s = Hsum256(acc);
  for (int64_t i = k32; i < k; ++i) {
    s += static_cast<int32_t>(a[i]) * static_cast<int32_t>(brow[i]);
  }
  return s;
}

#pragma GCC pop_options

}  // namespace

void Int8DotDequantRows(const int8_t* a, float act_scale, const int8_t* b,
                        const float* scales, float* o, int64_t k, int64_t r0,
                        int64_t r1) {
  // Fused dot + dequant: the integer totals are exact (any blocking agrees
  // with the scalar sum) and the epilogue replays the scalar tier's fixed
  // per-element sequence, so the tiers agree bitwise — and the int32 totals
  // never touch memory.
  if (simd::AvxVnniEnabled()) {
    if (k == 32) return Int8DotDequantRowsVnni<1>(a, act_scale, b, scales, o,
                                                  r0, r1);
    if (k == 64) return Int8DotDequantRowsVnni<2>(a, act_scale, b, scales, o,
                                                  r0, r1);
    for (int64_t r = r0; r < r1; ++r) {
      o[r] = (act_scale * scales[r]) *
             static_cast<float>(Int8DotGenericVnni(a, b + r * k, k));
    }
    return;
  }
  if (k == 32) return Int8DotDequantRowsFixed<1>(a, act_scale, b, scales, o,
                                                 r0, r1);
  if (k == 64) return Int8DotDequantRowsFixed<2>(a, act_scale, b, scales, o,
                                                 r0, r1);
  for (int64_t r = r0; r < r1; ++r) {
    o[r] = (act_scale * scales[r]) *
           static_cast<float>(Int8DotGeneric(a, b + r * k, k));
  }
}

void Int8DotDequantTile(const int8_t* a, const float* act_scales, int64_t na,
                        const int8_t* b, const float* scales, float* o,
                        int64_t ldo, int64_t k, int64_t r0, int64_t r1) {
  // Semantically na independent Int8DotDequantRows calls; the paired sweep
  // only reorders the catalog traversal (exact integer dots, unchanged
  // dequant sequence), so the tile stays bitwise identical to the row
  // kernel on every tier.
  const bool vnni = simd::AvxVnniEnabled();
  int64_t i = 0;
  if (k == 32) {
    for (; i + 2 <= na; i += 2) {
      if (vnni) {
        Int8DotDequantPairVnni<1>(a + i * k, act_scales + i, b, scales,
                                  o + i * ldo, ldo, r0, r1);
      } else {
        Int8DotDequantPairFixed<1>(a + i * k, act_scales + i, b, scales,
                                   o + i * ldo, ldo, r0, r1);
      }
    }
  } else if (k == 64) {
    for (; i + 2 <= na; i += 2) {
      if (vnni) {
        Int8DotDequantPairVnni<2>(a + i * k, act_scales + i, b, scales,
                                  o + i * ldo, ldo, r0, r1);
      } else {
        Int8DotDequantPairFixed<2>(a + i * k, act_scales + i, b, scales,
                                   o + i * ldo, ldo, r0, r1);
      }
    }
  }
  for (; i < na; ++i) {
    Int8DotDequantRows(a + i * k, act_scales[i], b, scales, o + i * ldo, k,
                       r0, r1);
  }
}

}  // namespace missl::simd::avx2

#endif  // MISSL_SIMD_AVX2
