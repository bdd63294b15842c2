#include <cstring>

#include "obs/op_stats.h"
#include "runtime/parallel_for.h"
#include "tensor/ops.h"
#include "tensor/simd.h"

namespace missl {

using internal::AttachGrad;
using internal::MakeResult;

// The row kernel lives in tensor/simd.h (simd::GemmRows): C[i,:] += A[i,:]*B
// for output rows [r0, r1) with ascending-k accumulation per cell on every
// tier — ikj ordering keeps the inner loop contiguous, and each call writes
// only its own output rows, so row ranges parallelize without changing any
// result bit (see runtime/parallel_for.h).

Tensor MatMul(const Tensor& a, const Tensor& b) {
  MISSL_OP_SCOPE("MatMul");
  MISSL_CHECK_CONTIGUOUS(a);
  MISSL_CHECK_CONTIGUOUS(b);
  int64_t ra = a.dim(), rb = b.dim();
  MISSL_CHECK((ra == 2 && rb == 2) || (ra == 3 && rb == 3) || (ra == 3 && rb == 2))
      << "MatMul unsupported ranks " << ShapeToString(a.shape()) << " x "
      << ShapeToString(b.shape());
  int64_t batch = ra == 3 ? a.size(0) : 1;
  int64_t m = a.size(-2), k = a.size(-1);
  int64_t kb = b.size(-2), n = b.size(-1);
  MISSL_CHECK(k == kb) << "MatMul inner-dim mismatch " << ShapeToString(a.shape())
                       << " x " << ShapeToString(b.shape());
  if (ra == 3 && rb == 3) {
    MISSL_CHECK(a.size(0) == b.size(0)) << "batched MatMul batch mismatch";
  }
  Shape so = ra == 3 ? Shape{batch, m, n} : Shape{m, n};
  Tensor out = MakeResult(so);
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  bool b_batched = (rb == 3);
  // Parallel over all batch*m output rows; each row is produced start to
  // finish by one chunk, so the partition cannot change the result. Rows
  // sharing a batch slab are handed to GemmRows as one range — the kernel
  // amortizes its B-tile packing over the whole range (see simd_avx2.cc),
  // and row grouping cannot change any bit because every output row is
  // computed independently.
  runtime::ParallelFor(
      0, batch * m, runtime::GrainForCost(2 * k * n),
      [&](int64_t r0, int64_t r1) {
        int64_t r = r0;
        while (r < r1) {
          int64_t s = r / m;
          int64_t end = (s + 1) * m < r1 ? (s + 1) * m : r1;
          simd::GemmRows(pa + s * m * k, pb + (b_batched ? s * k * n : 0),
                         po + s * m * n, k, n, n, n, r - s * m, end - s * m);
          r = end;
        }
      });
  AttachGrad(&out, {a, b},
             [a, b, out = TensorRef(out), batch, m, k, n, b_batched]() {
    const float* g = out.impl()->grad.data();
    const float* pa = a.data();
    const float* pb = b.data();
    if (a.requires_grad()) {
      a.impl()->EnsureGrad();
      float* ga = a.impl()->grad.data();
      // dA[i,kk] += sum_j g[i,j] * B[kk,j] — each dA row is owned by one
      // chunk, so rows parallelize with bitwise-stable results.
      runtime::ParallelFor(
          0, batch * m, runtime::GrainForCost(2 * k * n),
          [&](int64_t r0, int64_t r1) {
            for (int64_t r = r0; r < r1; ++r) {
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
          });
    }
    if (b.requires_grad()) {
      b.impl()->EnsureGrad();
      float* gb = b.impl()->grad.data();
      // dB[kk,j] += sum_i A[i,kk] * g[i,j]; when B is shared across the
      // batch, contributions also sum over s. Owner-computes over kk: the
      // chunk owning kk accumulates all of row kk's contributions in the
      // serial (s, i) order, so duplicate accumulation never races and the
      // sum order matches the serial path exactly.
      runtime::ParallelFor(
          0, k, runtime::GrainForCost(2 * batch * m * n),
          [&](int64_t k0, int64_t k1) {
            for (int64_t s = 0; s < batch; ++s) {
              const float* as = pa + s * m * k;
              const float* gs = g + s * m * n;
              float* gbs = gb + (b_batched ? s * k * n : 0);
              for (int64_t i = 0; i < m; ++i) {
                const float* arow = as + i * k;
                const float* grow = gs + i * n;
                for (int64_t kk = k0; kk < k1; ++kk) {
                  float av = arow[kk];
                  if (av == 0.0f) continue;
                  simd::AxpyRow(av, grow, gbs + kk * n, n);
                }
              }
            }
          });
    }
  });
  return out;
}

Tensor Transpose(const Tensor& a) {
  MISSL_OP_SCOPE("Transpose");
  int64_t r = a.dim();
  MISSL_CHECK(r == 2 || r == 3) << "Transpose supports rank 2/3, got "
                                << ShapeToString(a.shape());
  int64_t batch = r == 3 ? a.size(0) : 1;
  int64_t m = a.size(-2), n = a.size(-1);
  Shape so = r == 3 ? Shape{batch, n, m} : Shape{n, m};
  Tensor out = MakeResult(so);
  const float* pa = a.data();
  float* po = out.data();
  for (int64_t s = 0; s < batch; ++s) {
    const float* as = pa + s * m * n;
    float* os = po + s * m * n;
    for (int64_t i = 0; i < m; ++i)
      for (int64_t j = 0; j < n; ++j) os[j * m + i] = as[i * n + j];
  }
  AttachGrad(&out, {a}, [a, out = TensorRef(out), batch, m, n]() {
    const float* g = out.impl()->grad.data();
    a.impl()->EnsureGrad();
    float* ga = a.impl()->grad.data();
    for (int64_t s = 0; s < batch; ++s) {
      const float* gs = g + s * m * n;
      float* gas = ga + s * m * n;
      for (int64_t i = 0; i < m; ++i)
        for (int64_t j = 0; j < n; ++j) gas[i * n + j] += gs[j * m + i];
    }
  });
  return out;
}

}  // namespace missl
