#include <algorithm>
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

namespace {

// Rows per chunk of a backward GemmRows pass: at least the cost grain, and
// about two chunks per thread at most, so each call's B-tile packing
// amortizes over many rows. Any grain gives the same bits.
int64_t GemmGrain(int64_t rows, int64_t cost_per_row) {
  return std::max(runtime::GrainForCost(cost_per_row),
                  runtime::GrainForChunks(rows, 2));
}

// The width of dA's scratch rows for a k-wide dA. GemmRows sweeps 32-column
// blocks in row pairs (eight independent add chains) but a narrower tail
// one row at a time, each 8-lane vector or scalar column one chain as long
// as the contraction. So a narrow dA runs as one whole vector or one whole
// block; the pad columns never touch a real cell's chain.
int64_t PaddedWidth(int64_t k) { return k <= 8 ? 8 : k < 32 ? 32 : k; }

// dst[c * ldd + r] = src[r * lds + c] for r in [0, rows), c in [0, cols).
// Walks 16-row blocks so the strided side of the copy stays in L1.
void TransposeInto(const float* src, int64_t lds, float* dst, int64_t ldd,
                   int64_t rows, int64_t cols) {
  constexpr int64_t kBlock = 16;
  for (int64_t r0 = 0; r0 < rows; r0 += kBlock) {
    const int64_t r1 = std::min(r0 + kBlock, rows);
    for (int64_t c = 0; c < cols; ++c) {
      for (int64_t r = r0; r < r1; ++r) dst[c * ldd + r] = src[r * lds + c];
    }
  }
}

}  // namespace

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
    // A shared B is one slab under all batch*m rows; a batched B has one
    // slab per batch entry. Both gradients are GemmRows passes per slab.
    const int64_t slabs = b_batched ? batch : 1;
    const int64_t rows = b_batched ? m : batch * m;  // A/g rows per slab
    if (a.requires_grad()) {
      // dA = g * B^T. Each dA cell is the chain `acc = 0; acc += g[i,j] *
      // B[kk,j]` over ascending j, then `dA += acc`: GemmRows computes the
      // chain into zeroed scratch rows (skipping g == 0 terms, as the
      // forward skips a == 0), and AccumRow adds them. Each chunk owns its
      // dA rows, so the partition cannot change a bit.
      a.impl()->EnsureGrad();
      float* ga = a.impl()->grad.data();
      // Scratch rows are kp wide: B^T's zero pad columns keep GemmRows on
      // whole vectors, and the pad cells are never read. Each chunk packs
      // the B^T of the slab it is in and fills one cache-resident scratch
      // tile of dA rows at a time.
      const int64_t kp = PaddedWidth(k);
      const int64_t tile = std::max<int64_t>(1, 4096 / kp);
      runtime::ParallelFor(
          0, batch * m, GemmGrain(batch * m, 2 * k * n),
          [&](int64_t r0, int64_t r1) {
            Storage bt, scratch;
            bt.assign(n * kp, 0.0f);  // [n, kp]
            scratch.allocate_uninitialized(std::min(tile, r1 - r0) * kp);
            float* c = scratch.data();
            int64_t packed = -1;  // the slab whose B^T is in bt
            for (int64_t t0 = r0; t0 < r1;) {
              const int64_t s = t0 / rows;
              const int64_t t1 = std::min({t0 + tile, r1, (s + 1) * rows});
              if (s != packed) {
                TransposeInto(pb + s * k * n, n, bt.data(), kp, k, n);
                packed = s;
              }
              std::fill(c, c + (t1 - t0) * kp, 0.0f);
              simd::GemmRows(g + t0 * n, bt.data(), c, n, kp, kp, kp, 0,
                             t1 - t0);
              if (kp == k) {
                simd::AccumRow(c, ga + t0 * k, (t1 - t0) * k);
              } else {
                for (int64_t r = t0; r < t1; ++r) {
                  simd::AccumRow(c + (r - t0) * kp, ga + r * k, k);
                }
              }
              t0 = t1;
            }
          });
    }
    if (b.requires_grad()) {
      // dB = A^T * g, accumulated straight into b.grad: each dB cell gets
      // `dB += A[i,kk] * g[i,j]` over the slab's rows i in ascending order,
      // skipping A == 0 — for a shared B the rows are the flattened (s, i)
      // pairs, the serial order. Chunks own dB rows (slab, kk). The
      // contraction runs in tiles of kSpan rows, each a GemmRows call on
      // the chunk's packed A^T tile that picks up the cells where the last
      // one stored them, so the chain per cell is unchanged.
      b.impl()->EnsureGrad();
      float* gb = b.impl()->grad.data();
      constexpr int64_t kSpan = 256;
      runtime::ParallelFor(
          0, slabs * k, GemmGrain(slabs * k, 2 * rows * n),
          [&](int64_t r0, int64_t r1) {
            Storage at;  // A^T tile, [dB rows, span]
            at.allocate_uninitialized(std::min(r1 - r0, k) *
                                      std::min(rows, kSpan));
            for (int64_t r = r0; r < r1;) {
              const int64_t s = r / k;
              const int64_t end = std::min((s + 1) * k, r1);
              for (int64_t i0 = 0; i0 < rows; i0 += kSpan) {
                const int64_t span = std::min(kSpan, rows - i0);
                const int64_t i = s * rows + i0;  // first A/g row of the tile
                TransposeInto(pa + i * k + (r - s * k), k, at.data(), span,
                              span, end - r);
                simd::GemmRows(at.data(), g + i * n, gb + r * n, span, n, n,
                               n, 0, end - r);
              }
              r = end;
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
    TransposeInto(pa + s * m * n, n, po + s * m * n, m, m, n);
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
