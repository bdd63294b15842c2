#include <algorithm>
#include <cmath>

#include "obs/op_stats.h"
#include "runtime/parallel_for.h"
#include "tensor/ops.h"
#include "tensor/simd.h"

namespace missl {

using internal::AttachGrad;
using internal::MakeResult;

namespace {

// (rows, d) view of a tensor reduced over its last dimension.
void LastDimView(const Tensor& a, int64_t* rows, int64_t* d) {
  MISSL_CHECK(a.dim() >= 1) << "op requires rank >= 1";
  *d = a.size(-1);
  *rows = a.numel() / (*d == 0 ? 1 : *d);
  MISSL_CHECK(*d > 0) << "op over empty last dimension";
}

}  // namespace

Tensor Softmax(const Tensor& a) {
  MISSL_OP_SCOPE("Softmax");
  MISSL_CHECK_CONTIGUOUS(a);
  int64_t rows, d;
  LastDimView(a, &rows, &d);
  Tensor out = MakeResult(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  // Each softmax row is computed start to finish by one chunk (disjoint
  // writes), so the partition cannot change any output bit.
  runtime::ParallelFor(0, rows, runtime::GrainForCost(4 * d),
                       [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      simd::SoftmaxRow(pa + r * d, po + r * d, d);
    }
  });
  AttachGrad(&out, {a}, [a, out = TensorRef(out), rows, d]() {
    const float* g = out.impl()->grad.data();
    const float* y = out.data();
    a.impl()->EnsureGrad();
    float* ga = a.impl()->grad.data();
    runtime::ParallelFor(0, rows, runtime::GrainForCost(4 * d),
                         [&](int64_t r0, int64_t r1) {
      for (int64_t r = r0; r < r1; ++r) {
        const float* gr = g + r * d;
        const float* yr = y + r * d;
        float* gar = ga + r * d;
        float dot = 0.0f;
        for (int64_t i = 0; i < d; ++i) dot += gr[i] * yr[i];
        simd::SoftmaxGradRow(yr, gr, dot, gar, d);
      }
    });
  });
  return out;
}

Tensor LogSoftmax(const Tensor& a) {
  MISSL_OP_SCOPE("LogSoftmax");
  MISSL_CHECK_CONTIGUOUS(a);
  int64_t rows, d;
  LastDimView(a, &rows, &d);
  Tensor out = MakeResult(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  runtime::ParallelFor(0, rows, runtime::GrainForCost(4 * d),
                       [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      const float* x = pa + r * d;
      float* y = po + r * d;
      float mx = x[0];
      for (int64_t i = 1; i < d; ++i) mx = std::max(mx, x[i]);
      // x - c == x + (-c) exactly in IEEE arithmetic, so both shifts use the
      // vector add-scalar kernel. y holds exp(x - mx) until the last one.
      simd::AddScalarRow(x, -mx, y, d);
      simd::ExpRow(y, y, d);
      float sum = 0.0f;
      for (int64_t i = 0; i < d; ++i) sum += y[i];
      float lse = mx + std::log(sum);
      simd::AddScalarRow(x, -lse, y, d);
    }
  });
  AttachGrad(&out, {a}, [a, out = TensorRef(out), rows, d]() {
    const float* g = out.impl()->grad.data();
    const float* y = out.data();
    a.impl()->EnsureGrad();
    float* ga = a.impl()->grad.data();
    runtime::ParallelFor(0, rows, runtime::GrainForCost(4 * d),
                         [&](int64_t r0, int64_t r1) {
      constexpr int64_t kTile = 256;
      alignas(32) float e[kTile];
      for (int64_t r = r0; r < r1; ++r) {
        const float* gr = g + r * d;
        const float* yr = y + r * d;
        float* gar = ga + r * d;
        float gsum = 0.0f;
        for (int64_t i = 0; i < d; ++i) gsum += gr[i];
        for (int64_t j = 0; j < d; j += kTile) {
          const int64_t n = std::min(kTile, d - j);
          simd::ExpRow(yr + j, e, n);
          for (int64_t i = 0; i < n; ++i) {
            gar[j + i] += gr[j + i] - e[i] * gsum;
          }
        }
      }
    });
  });
  return out;
}

Tensor LayerNorm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                 float eps) {
  MISSL_OP_SCOPE("LayerNorm");
  MISSL_CHECK_CONTIGUOUS(x);
  MISSL_CHECK_CONTIGUOUS(gamma);
  MISSL_CHECK_CONTIGUOUS(beta);
  int64_t rows, d;
  LastDimView(x, &rows, &d);
  MISSL_CHECK(gamma.dim() == 1 && gamma.size(0) == d)
      << "LayerNorm gamma shape mismatch";
  MISSL_CHECK(beta.dim() == 1 && beta.size(0) == d)
      << "LayerNorm beta shape mismatch";
  Tensor out = MakeResult(x.shape());
  // Cache xhat and inverse stddev for backward.
  auto xhat = std::make_shared<std::vector<float>>(
      static_cast<size_t>(x.numel()));
  auto istd = std::make_shared<std::vector<float>>(static_cast<size_t>(rows));
  const float* px = x.data();
  const float* pg = gamma.data();
  const float* pb = beta.data();
  float* po = out.data();
  runtime::ParallelFor(0, rows, runtime::GrainForCost(6 * d),
                       [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      const float* xr = px + r * d;
      float mu = 0.0f;
      for (int64_t i = 0; i < d; ++i) mu += xr[i];
      mu /= static_cast<float>(d);
      float var = 0.0f;
      for (int64_t i = 0; i < d; ++i) {
        float c = xr[i] - mu;
        var += c * c;
      }
      var /= static_cast<float>(d);
      float is = 1.0f / std::sqrt(var + eps);
      (*istd)[static_cast<size_t>(r)] = is;
      // Mean/variance above are ordered reductions (scalar on every tier);
      // the normalize+affine pass is elementwise and vectorizes.
      simd::LayerNormAffineRow(xr, mu, is, pg, pb, xhat->data() + r * d,
                               po + r * d, d);
    }
  });
  AttachGrad(&out, {x, gamma, beta},
             [x, gamma, beta, out = TensorRef(out), xhat, istd, rows, d]() {
    const float* g = out.impl()->grad.data();
    const float* pg = gamma.data();
    if (gamma.requires_grad()) {
      gamma.impl()->EnsureGrad();
      float* gg = gamma.impl()->grad.data();
      // gg[i] sums over all rows: owner-computes over the feature dims so
      // each gg[i] accumulates in the serial row order on one thread.
      runtime::ParallelFor(0, d, runtime::GrainForCost(2 * rows),
                           [&](int64_t i0, int64_t i1) {
        for (int64_t r = 0; r < rows; ++r) {
          const float* gr = g + r * d;
          const float* xh = xhat->data() + r * d;
          simd::MulAccumRow(gr + i0, xh + i0, gg + i0, i1 - i0);
        }
      });
    }
    if (beta.requires_grad()) {
      beta.impl()->EnsureGrad();
      float* gb = beta.impl()->grad.data();
      runtime::ParallelFor(0, d, runtime::GrainForCost(rows),
                           [&](int64_t i0, int64_t i1) {
        for (int64_t r = 0; r < rows; ++r) {
          simd::AccumRow(g + r * d + i0, gb + i0, i1 - i0);
        }
      });
    }
    if (x.requires_grad()) {
      x.impl()->EnsureGrad();
      float* gx = x.impl()->grad.data();
      float invd = 1.0f / static_cast<float>(d);
      runtime::ParallelFor(0, rows, runtime::GrainForCost(6 * d),
                           [&](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1; ++r) {
          const float* gr = g + r * d;
          const float* xh = xhat->data() + r * d;
          float is = (*istd)[static_cast<size_t>(r)];
          float m1 = 0.0f, m2 = 0.0f;  // mean(gamma*g), mean(gamma*g*xhat)
          for (int64_t i = 0; i < d; ++i) {
            float gg = pg[i] * gr[i];
            m1 += gg;
            m2 += gg * xh[i];
          }
          m1 *= invd;
          m2 *= invd;
          simd::LayerNormGradRow(gr, pg, xh, m1, m2, is, gx + r * d, d);
        }
      });
    }
  });
  return out;
}

// Dropout stays serial: its mask consumes a sequential RNG stream, so any
// parallel split would either race on the generator or change which draws
// land on which element. The kernel is a single cheap pass; the surrounding
// matmuls dominate.
Tensor Dropout(const Tensor& x, float p, bool training, Rng* rng) {
  MISSL_OP_SCOPE("Dropout");
  MISSL_CHECK(p >= 0.0f && p < 1.0f) << "Dropout p out of range";
  if (!training || p == 0.0f) return x;
  MISSL_CHECK(rng != nullptr);
  Tensor out = MakeResult(x.shape());
  auto mask = std::make_shared<std::vector<float>>(
      static_cast<size_t>(x.numel()));
  float scale = 1.0f / (1.0f - p);
  const float* px = x.data();
  float* po = out.data();
  for (int64_t i = 0; i < x.numel(); ++i) {
    float m = rng->Bernoulli(p) ? 0.0f : scale;
    (*mask)[static_cast<size_t>(i)] = m;
    po[i] = px[i] * m;
  }
  AttachGrad(&out, {x}, [x, out = TensorRef(out), mask]() {
    const float* g = out.impl()->grad.data();
    x.impl()->EnsureGrad();
    float* gx = x.impl()->grad.data();
    for (int64_t i = 0; i < x.numel(); ++i)
      gx[i] += g[i] * (*mask)[static_cast<size_t>(i)];
  });
  return out;
}

Tensor CrossEntropyLoss(const Tensor& logits, const std::vector<int32_t>& targets) {
  MISSL_OP_SCOPE("CrossEntropyLoss");
  MISSL_CHECK(logits.dim() == 2) << "CrossEntropyLoss expects [B, C] logits";
  int64_t bsz = logits.size(0);
  int64_t c = logits.size(1);
  MISSL_CHECK(static_cast<int64_t>(targets.size()) == bsz)
      << "targets size mismatch";
  MISSL_CHECK_CONTIGUOUS(logits);
  Tensor out = MakeResult({});
  const float* pl = logits.data();
  // Cache row softmax for backward.
  auto prob = std::make_shared<std::vector<float>>(
      static_cast<size_t>(logits.numel()));
  double loss = 0.0;
  int64_t valid = 0;
  for (int64_t r = 0; r < bsz; ++r) {
    const float* x = pl + r * c;
    float* pr = prob->data() + r * c;
    simd::SoftmaxRow(x, pr, c);
    int32_t t = targets[static_cast<size_t>(r)];
    if (t < 0) continue;
    MISSL_CHECK(t < c) << "target " << t << " out of range " << c;
    loss += -std::log(std::max(pr[t], 1e-12f));
    ++valid;
  }
  MISSL_CHECK(valid > 0) << "CrossEntropyLoss with no valid targets";
  out.data()[0] = static_cast<float>(loss / static_cast<double>(valid));
  AttachGrad(&out, {logits},
             [logits, out = TensorRef(out), prob, targets, bsz, c, valid]() {
    float g = out.impl()->grad[0] / static_cast<float>(valid);
    logits.impl()->EnsureGrad();
    float* gl = logits.impl()->grad.data();
    for (int64_t r = 0; r < bsz; ++r) {
      int32_t t = targets[static_cast<size_t>(r)];
      if (t < 0) continue;
      const float* pr = prob->data() + r * c;
      float* gr = gl + r * c;
      simd::AxpyRow(g, pr, gr, c);
      gr[t] -= g;
    }
  });
  return out;
}

Tensor L2Normalize(const Tensor& x, float eps) {
  MISSL_OP_SCOPE("L2Normalize");
  MISSL_CHECK_CONTIGUOUS(x);
  int64_t rows, d;
  LastDimView(x, &rows, &d);
  Tensor out = MakeResult(x.shape());
  auto invnorm = std::make_shared<std::vector<float>>(static_cast<size_t>(rows));
  const float* px = x.data();
  float* po = out.data();
  for (int64_t r = 0; r < rows; ++r) {
    const float* xr = px + r * d;
    float nrm = 0.0f;
    for (int64_t i = 0; i < d; ++i) nrm += xr[i] * xr[i];
    nrm = std::sqrt(nrm);
    float inv = 1.0f / std::max(nrm, eps);
    (*invnorm)[static_cast<size_t>(r)] = inv;
    simd::ScaleRow(xr, inv, po + r * d, d);
  }
  AttachGrad(&out, {x}, [x, out = TensorRef(out), invnorm, rows, d]() {
    const float* g = out.impl()->grad.data();
    const float* y = out.data();
    x.impl()->EnsureGrad();
    float* gx = x.impl()->grad.data();
    for (int64_t r = 0; r < rows; ++r) {
      const float* gr = g + r * d;
      const float* yr = y + r * d;
      float inv = (*invnorm)[static_cast<size_t>(r)];
      float dot = 0.0f;
      for (int64_t i = 0; i < d; ++i) dot += gr[i] * yr[i];
      float* gxr = gx + r * d;
      for (int64_t i = 0; i < d; ++i) gxr[i] += (gr[i] - yr[i] * dot) * inv;
    }
  });
  return out;
}

}  // namespace missl
