#include <algorithm>
#include <cmath>

#include "obs/op_stats.h"
#include "runtime/parallel_for.h"
#include "tensor/broadcast.h"
#include "tensor/ops.h"
#include "tensor/simd.h"

namespace missl {

using internal::AttachGrad;
using internal::BroadcastRows;
using internal::BroadcastShape;
using internal::MakeResult;

namespace {

// Optional vectorized row kernels for the same-shape fast paths and for
// broadcast rows along which both inputs advance. When set, the op hands
// its [i0, i1) slice or row to the kernel (which dispatches on the active
// SIMD tier, see tensor/simd.h) instead of running the scalar lambda. The
// kernel's scalar tier replays the lambda's exact per-element operation
// sequence, so enabling a hook never changes results — only which
// instructions produce them. Ops whose scalar backward sequence a
// vector kernel cannot replay bit-for-bit (e.g. Relu's `0.0f * g` keeping
// the sign of -0.0, Div's divide-then-multiply chain) simply leave the hook
// unset and keep the scalar loop on every tier.
using BinaryRowKernel = void (*)(const float*, const float*, float*, int64_t);
// (pa, pb, g, acc, n): accumulate d(op)/d(side) * g into acc.
using BinaryAccumKernel = void (*)(const float*, const float*, const float*,
                                   float*, int64_t);

// Calls f(j, x, y) for j in [0, n) with x = a[j * a_step] and
// y = b[j * b_step], holding an input that repeats along the row (step 0)
// in a scalar.
template <typename F>
void ForRow(const float* a, int64_t a_step, const float* b, int64_t b_step,
            int64_t n, F&& f) {
  if (a_step == 0) {
    const float x = *a;
    for (int64_t j = 0; j < n; ++j) f(j, x, b[j]);
  } else if (b_step == 0) {
    const float y = *b;
    for (int64_t j = 0; j < n; ++j) f(j, a[j], y);
  } else {
    for (int64_t j = 0; j < n; ++j) f(j, a[j], b[j]);
  }
}

// Accumulates the gradient of input x (a when x_is_a, else b) of a
// broadcast op, whose local partial is `d` (accumulate hook `vd`, or null).
// Per element of x it replays the reference sequence: full = d * g at each
// output element, red = 0 + the sum of those in ascending output order,
// then grad += red. When no output element shares an element of x, red is
// a zeroed row tile and rows run in parallel; otherwise red spans x, the
// walk is serial, and each row adds its full values into red in place.
template <typename D>
void BroadcastGrad(const BroadcastRows& w, bool x_is_a, const Tensor& x,
                   const float* pa, const float* pb, const float* g, D d,
                   BinaryAccumKernel vd) {
  x.impl()->EnsureGrad();
  float* gx = x.impl()->grad.data();
  const int64_t x_step = x_is_a ? w.a_step : w.b_step;
  // red[j * x_step] += d(a_j, b_j) * g[j] for j in [0, n).
  auto accum = [&](const float* arow, const float* brow, const float* grow,
                   float* red, int64_t n) {
    if (vd != nullptr && w.a_step == 1 && w.b_step == 1) {
      return vd(arow, brow, grow, red, n);
    }
    if (x_step == 1) {
      return ForRow(arow, w.a_step, brow, w.b_step, n,
                    [&](int64_t j, float xv, float yv) {
                      red[j] += d(xv, yv) * grow[j];
                    });
    }
    float sum = *red;
    ForRow(arow, w.a_step, brow, w.b_step, n,
           [&](int64_t j, float xv, float yv) { sum += d(xv, yv) * grow[j]; });
    *red = sum;
  };
  if (x.numel() == w.rows * w.len) {
    // x is not reduced: its offsets are the output's.
    constexpr int64_t kTile = 256;
    runtime::ParallelFor(0, w.rows, runtime::GrainForCost(3 * w.len),
                         [&](int64_t r0, int64_t r1) {
      alignas(32) float red[kTile];
      w.ForRows(r0, r1, [&](int64_t o, int64_t ia, int64_t ib) {
        for (int64_t j = 0; j < w.len; j += kTile) {
          const int64_t n = std::min(kTile, w.len - j);
          std::fill(red, red + n, 0.0f);
          accum(pa + ia + j * w.a_step, pb + ib + j * w.b_step, g + o + j,
                red, n);
          simd::AccumRow(red, gx + o + j, n);
        }
      });
    });
    return;
  }
  Storage red;
  red.assign(x.numel(), 0.0f);
  float* pr = red.data();
  w.ForRows(0, w.rows, [&](int64_t o, int64_t ia, int64_t ib) {
    accum(pa + ia, pb + ib, g + o, pr + (x_is_a ? ia : ib), w.len);
  });
  simd::AccumRow(pr, gx, x.numel());
}

// Generic broadcasting binary op. `fwd(x, y)` computes the value;
// `dfdx(x, y)` / `dfdy(x, y)` compute local partials at the element.
template <typename F, typename Dx, typename Dy>
Tensor BinaryOp(const char* name, const Tensor& a, const Tensor& b, F fwd,
                Dx dfdx, Dy dfdy, BinaryRowKernel vfwd = nullptr,
                BinaryAccumKernel vdx = nullptr,
                BinaryAccumKernel vdy = nullptr) {
  // Each public op instantiates BinaryOp with unique lambda types, so the
  // function-local static inside MISSL_OP_SCOPE is per-op, not shared.
  MISSL_OP_SCOPE(name);
  MISSL_CHECK_CONTIGUOUS(a);
  MISSL_CHECK_CONTIGUOUS(b);
  const Shape& sa = a.shape();
  const Shape& sb = b.shape();
  Shape so = BroadcastShape(sa, sb);
  Tensor out = MakeResult(so);
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  if (sa == sb) {
    // Elementwise slots are independent — parallel over the flat index.
    runtime::ParallelFor(0, out.numel(), runtime::GrainForCost(1),
                         [&](int64_t i0, int64_t i1) {
      if (vfwd != nullptr) return vfwd(pa + i0, pb + i0, po + i0, i1 - i0);
      for (int64_t i = i0; i < i1; ++i) po[i] = fwd(pa[i], pb[i]);
    });
  } else {
    // Broadcast: one odometer step per row; rows are independent outputs.
    const BroadcastRows w(so, sa, sb);
    runtime::ParallelFor(0, w.rows, runtime::GrainForCost(w.len),
                         [&](int64_t r0, int64_t r1) {
      w.ForRows(r0, r1, [&](int64_t o, int64_t ia, int64_t ib) {
        if (vfwd != nullptr && w.a_step == 1 && w.b_step == 1) {
          return vfwd(pa + ia, pb + ib, po + o, w.len);
        }
        ForRow(pa + ia, w.a_step, pb + ib, w.b_step, w.len,
               [&](int64_t j, float x, float y) { po[o + j] = fwd(x, y); });
      });
    });
  }
  AttachGrad(&out, {a, b},
             [a, b, out = TensorRef(out), dfdx, dfdy, vdx, vdy]() {
    const Shape& sa = a.shape();
    const Shape& sb = b.shape();
    const Shape& so = out.shape();
    const float* g = out.impl()->grad.data();
    const float* pa = a.data();
    const float* pb = b.data();
    bool need_a = a.requires_grad();
    bool need_b = b.requires_grad();
    if (sa == sb) {
      int64_t n = out.numel();
      if (need_a) {
        a.impl()->EnsureGrad();
        float* ga = a.impl()->grad.data();
        runtime::ParallelFor(0, n, runtime::GrainForCost(2),
                             [&](int64_t i0, int64_t i1) {
          if (vdx != nullptr) {
            return vdx(pa + i0, pb + i0, g + i0, ga + i0, i1 - i0);
          }
          for (int64_t i = i0; i < i1; ++i) ga[i] += dfdx(pa[i], pb[i]) * g[i];
        });
      }
      if (need_b) {
        b.impl()->EnsureGrad();
        float* gb = b.impl()->grad.data();
        runtime::ParallelFor(0, n, runtime::GrainForCost(2),
                             [&](int64_t i0, int64_t i1) {
          if (vdy != nullptr) {
            return vdy(pa + i0, pb + i0, g + i0, gb + i0, i1 - i0);
          }
          for (int64_t i = i0; i < i1; ++i) gb[i] += dfdy(pa[i], pb[i]) * g[i];
        });
      }
      return;
    }
    const BroadcastRows w(so, sa, sb);
    if (need_a) BroadcastGrad(w, /*x_is_a=*/true, a, pa, pb, g, dfdx, vdx);
    if (need_b) BroadcastGrad(w, /*x_is_a=*/false, b, pa, pb, g, dfdy, vdy);
  });
  return out;
}

// Generic unary op over row functions: fwd(pa, po, n) writes the output
// row, bwd(pa, po, g, ga, n) accumulates d(op)/dx * g into ga given input
// and output rows (so tanh/sigmoid can reuse the output). Ops with a kernel
// pass it directly; the rest lift a per-element formula with Rowwise /
// RowwiseGrad.
template <typename F, typename B>
Tensor UnaryOp(const char* name, const Tensor& a, F fwd, B bwd) {
  MISSL_OP_SCOPE(name);  // per-instantiation static; see BinaryOp
  MISSL_CHECK_CONTIGUOUS(a);
  Tensor out = MakeResult(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  runtime::ParallelFor(0, a.numel(), runtime::GrainForCost(1),
                       [&](int64_t i0, int64_t i1) {
    fwd(pa + i0, po + i0, i1 - i0);
  });
  AttachGrad(&out, {a}, [a, out = TensorRef(out), bwd]() {
    const float* g = out.impl()->grad.data();
    const float* pa = a.data();
    const float* po = out.data();
    a.impl()->EnsureGrad();
    float* ga = a.impl()->grad.data();
    runtime::ParallelFor(0, a.numel(), runtime::GrainForCost(2),
                         [&](int64_t i0, int64_t i1) {
      bwd(pa + i0, po + i0, g + i0, ga + i0, i1 - i0);
    });
  });
  return out;
}

// o[i] = f(a[i]) as a row function.
template <typename F>
auto Rowwise(F f) {
  return [f](const float* pa, float* po, int64_t n) {
    for (int64_t i = 0; i < n; ++i) po[i] = f(pa[i]);
  };
}

// ga[i] += dfd(x, y) * g[i] as a row function, from the local derivative at
// input x and output y.
template <typename D>
auto RowwiseGrad(D dfd) {
  return [dfd](const float* pa, const float* po, const float* g, float* ga,
               int64_t n) {
    for (int64_t i = 0; i < n; ++i) ga[i] += dfd(pa[i], po[i]) * g[i];
  };
}

}  // namespace

// The `1.0f * g` of the scalar backward lambdas and the plain `+= g` of
// AccumRow are bitwise interchangeable (multiplying by 1.0f is exact for
// every float), so Add/Sub gradients may use the accumulate kernels.
Tensor Add(const Tensor& a, const Tensor& b) {
  return BinaryOp(
      "Add", a, b, [](float x, float y) { return x + y; },
      [](float, float) { return 1.0f; }, [](float, float) { return 1.0f; },
      simd::AddRow,
      [](const float*, const float*, const float* g, float* acc, int64_t n) {
        simd::AccumRow(g, acc, n);
      },
      [](const float*, const float*, const float* g, float* acc, int64_t n) {
        simd::AccumRow(g, acc, n);
      });
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  return BinaryOp(
      "Sub", a, b, [](float x, float y) { return x - y; },
      [](float, float) { return 1.0f; }, [](float, float) { return -1.0f; },
      simd::SubRow,
      [](const float*, const float*, const float* g, float* acc, int64_t n) {
        simd::AccumRow(g, acc, n);
      },
      [](const float*, const float*, const float* g, float* acc, int64_t n) {
        simd::NegAccumRow(g, acc, n);
      });
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  return BinaryOp(
      "Mul", a, b, [](float x, float y) { return x * y; },
      [](float, float y) { return y; }, [](float x, float) { return x; },
      simd::MulRow,
      [](const float*, const float* pb, const float* g, float* acc,
         int64_t n) { simd::MulAccumRow(pb, g, acc, n); },
      [](const float* pa, const float*, const float* g, float* acc,
         int64_t n) { simd::MulAccumRow(pa, g, acc, n); });
}

Tensor Div(const Tensor& a, const Tensor& b) {
  // Backward stays scalar on every tier: its divide-then-multiply chains
  // ((1/y)*g, (-x/(y*y))*g) are not in the kernel set.
  return BinaryOp(
      "Div", a, b, [](float x, float y) { return x / y; },
      [](float, float y) { return 1.0f / y; },
      [](float x, float y) { return -x / (y * y); }, simd::DivRow);
}

Tensor AddScalar(const Tensor& a, float s) {
  return UnaryOp(
      "AddScalar", a,
      [s](const float* pa, float* po, int64_t n) {
        simd::AddScalarRow(pa, s, po, n);
      },
      [](const float*, const float*, const float* g, float* ga, int64_t n) {
        simd::AccumRow(g, ga, n);
      });
}

Tensor MulScalar(const Tensor& a, float s) {
  return UnaryOp(
      "MulScalar", a,
      [s](const float* pa, float* po, int64_t n) {
        simd::ScaleRow(pa, s, po, n);
      },
      [s](const float*, const float*, const float* g, float* ga, int64_t n) {
        simd::AxpyRow(s, g, ga, n);
      });
}

Tensor Neg(const Tensor& a) { return MulScalar(a, -1.0f); }

Tensor Relu(const Tensor& a) {
  // Backward stays scalar: its `0.0f * g[i]` term can be -0.0 where a masked
  // vector select would produce +0.0, and `x + (-0.0)` vs `x + (+0.0)`
  // differ bitwise when the accumulator holds -0.0.
  return UnaryOp(
      "Relu", a,
      [](const float* pa, float* po, int64_t n) { simd::ReluRow(pa, po, n); },
      RowwiseGrad([](float x, float) { return x > 0.0f ? 1.0f : 0.0f; }));
}

// Gelu, Sigmoid, Tanh and Exp evaluate exp/tanh with the tier-invariant
// kernels of tensor/simd.h, never libm.
Tensor Gelu(const Tensor& a) {
  return UnaryOp(
      "Gelu", a,
      [](const float* pa, float* po, int64_t n) { simd::GeluRow(pa, po, n); },
      [](const float* pa, const float*, const float* g, float* ga,
         int64_t n) { simd::GeluGradRow(pa, g, ga, n); });
}

Tensor Sigmoid(const Tensor& a) {
  // 1 / (1 + exp(x * -1)).
  return UnaryOp(
      "Sigmoid", a,
      [](const float* pa, float* po, int64_t n) {
        simd::ScaleRow(pa, -1.0f, po, n);
        simd::ExpRow(po, po, n);
        for (int64_t i = 0; i < n; ++i) po[i] = 1.0f / (1.0f + po[i]);
      },
      RowwiseGrad([](float, float y) { return y * (1.0f - y); }));
}

Tensor Tanh(const Tensor& a) {
  return UnaryOp(
      "Tanh", a,
      [](const float* pa, float* po, int64_t n) { simd::TanhRow(pa, po, n); },
      RowwiseGrad([](float, float y) { return 1.0f - y * y; }));
}

Tensor Exp(const Tensor& a) {
  return UnaryOp(
      "Exp", a,
      [](const float* pa, float* po, int64_t n) { simd::ExpRow(pa, po, n); },
      RowwiseGrad([](float, float y) { return y; }));
}

Tensor Log(const Tensor& a) {
  return UnaryOp("Log", a, Rowwise([](float x) { return std::log(x); }),
                 RowwiseGrad([](float x, float) { return 1.0f / x; }));
}

Tensor Sqrt(const Tensor& a) {
  return UnaryOp(
      "Sqrt", a, Rowwise([](float x) { return std::sqrt(x); }),
      RowwiseGrad(
          [](float, float y) { return 0.5f / (y > 1e-12f ? y : 1e-12f); }));
}

Tensor Square(const Tensor& a) {
  return UnaryOp("Square", a, Rowwise([](float x) { return x * x; }),
                 RowwiseGrad([](float x, float) { return 2.0f * x; }));
}

Tensor Abs(const Tensor& a) {
  return UnaryOp(
      "Abs", a, Rowwise([](float x) { return std::fabs(x); }),
      RowwiseGrad([](float x, float) {
        return x > 0.0f ? 1.0f : (x < 0.0f ? -1.0f : 0.0f);
      }));
}

Tensor Clamp(const Tensor& a, float lo, float hi) {
  MISSL_CHECK(lo <= hi) << "Clamp with lo > hi";
  return UnaryOp(
      "Clamp", a,
      Rowwise([lo, hi](float x) { return x < lo ? lo : (x > hi ? hi : x); }),
      RowwiseGrad([lo, hi](float x, float) {
        return (x >= lo && x <= hi) ? 1.0f : 0.0f;
      }));
}

Tensor Pow(const Tensor& a, float p) {
  return UnaryOp(
      "Pow", a, Rowwise([p](float x) { return std::pow(x, p); }),
      RowwiseGrad([p](float x, float) { return p * std::pow(x, p - 1.0f); }));
}

}  // namespace missl
