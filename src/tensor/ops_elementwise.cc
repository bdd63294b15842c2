#include <algorithm>
#include <cmath>
#include <functional>

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
using UnaryRowKernel = std::function<void(const float*, float*, int64_t)>;
// (pa, po, g, ga, n): accumulate d(op)/dx * g into ga.
using UnaryAccumKernel =
    std::function<void(const float*, const float*, const float*, float*,
                       int64_t)>;

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

// Generic unary op: fwd(x) value, dfd(x, y) local derivative given input x
// and output y (lets tanh/sigmoid reuse the output).
template <typename F, typename D>
Tensor UnaryOp(const char* name, const Tensor& a, F fwd, D dfd,
               UnaryRowKernel vfwd = nullptr, UnaryAccumKernel vbwd = nullptr) {
  MISSL_OP_SCOPE(name);  // per-instantiation static; see BinaryOp
  MISSL_CHECK_CONTIGUOUS(a);
  Tensor out = MakeResult(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  runtime::ParallelFor(0, a.numel(), runtime::GrainForCost(1),
                       [&](int64_t i0, int64_t i1) {
    if (vfwd) return vfwd(pa + i0, po + i0, i1 - i0);
    for (int64_t i = i0; i < i1; ++i) po[i] = fwd(pa[i]);
  });
  AttachGrad(&out, {a}, [a, out = TensorRef(out), dfd, vbwd]() {
    const float* g = out.impl()->grad.data();
    const float* pa = a.data();
    const float* po = out.data();
    a.impl()->EnsureGrad();
    float* ga = a.impl()->grad.data();
    runtime::ParallelFor(0, a.numel(), runtime::GrainForCost(2),
                         [&](int64_t i0, int64_t i1) {
      if (vbwd) return vbwd(pa + i0, po + i0, g + i0, ga + i0, i1 - i0);
      for (int64_t i = i0; i < i1; ++i) ga[i] += dfd(pa[i], po[i]) * g[i];
    });
  });
  return out;
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
      "AddScalar", a, [s](float x) { return x + s; },
      [](float, float) { return 1.0f; },
      [s](const float* pa, float* po, int64_t n) {
        simd::AddScalarRow(pa, s, po, n);
      },
      [](const float*, const float*, const float* g, float* ga, int64_t n) {
        simd::AccumRow(g, ga, n);
      });
}

Tensor MulScalar(const Tensor& a, float s) {
  return UnaryOp(
      "MulScalar", a, [s](float x) { return x * s; },
      [s](float, float) { return s; },
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
      "Relu", a, [](float x) { return x > 0.0f ? x : 0.0f; },
      [](float x, float) { return x > 0.0f ? 1.0f : 0.0f; },
      [](const float* pa, float* po, int64_t n) {
        simd::ReluRow(pa, po, n);
      });
}

Tensor Gelu(const Tensor& a) {
  // tanh approximation: 0.5 x (1 + tanh(c (x + 0.044715 x^3)))
  constexpr float kC = 0.7978845608028654f;  // sqrt(2/pi)
  return UnaryOp(
      "Gelu", a,
      [](float x) {
        float u = kC * (x + 0.044715f * x * x * x);
        return 0.5f * x * (1.0f + std::tanh(u));
      },
      [](float x, float) {
        float u = kC * (x + 0.044715f * x * x * x);
        float t = std::tanh(u);
        float du = kC * (1.0f + 3.0f * 0.044715f * x * x);
        return 0.5f * (1.0f + t) + 0.5f * x * (1.0f - t * t) * du;
      });
}

Tensor Sigmoid(const Tensor& a) {
  return UnaryOp(
      "Sigmoid", a, [](float x) { return 1.0f / (1.0f + std::exp(-x)); },
      [](float, float y) { return y * (1.0f - y); });
}

Tensor Tanh(const Tensor& a) {
  return UnaryOp(
      "Tanh", a, [](float x) { return std::tanh(x); },
      [](float, float y) { return 1.0f - y * y; });
}

Tensor Exp(const Tensor& a) {
  return UnaryOp(
      "Exp", a, [](float x) { return std::exp(x); },
      [](float, float y) { return y; });
}

Tensor Log(const Tensor& a) {
  return UnaryOp(
      "Log", a, [](float x) { return std::log(x); },
      [](float x, float) { return 1.0f / x; });
}

Tensor Sqrt(const Tensor& a) {
  return UnaryOp(
      "Sqrt", a, [](float x) { return std::sqrt(x); },
      [](float, float y) { return 0.5f / (y > 1e-12f ? y : 1e-12f); });
}

Tensor Square(const Tensor& a) {
  return UnaryOp(
      "Square", a, [](float x) { return x * x; },
      [](float x, float) { return 2.0f * x; });
}

Tensor Abs(const Tensor& a) {
  return UnaryOp(
      "Abs", a, [](float x) { return std::fabs(x); },
      [](float x, float) { return x > 0.0f ? 1.0f : (x < 0.0f ? -1.0f : 0.0f); });
}

Tensor Clamp(const Tensor& a, float lo, float hi) {
  MISSL_CHECK(lo <= hi) << "Clamp with lo > hi";
  return UnaryOp(
      "Clamp", a, [lo, hi](float x) { return x < lo ? lo : (x > hi ? hi : x); },
      [lo, hi](float x, float) { return (x >= lo && x <= hi) ? 1.0f : 0.0f; });
}

Tensor Pow(const Tensor& a, float p) {
  return UnaryOp(
      "Pow", a, [p](float x) { return std::pow(x, p); },
      [p](float x, float) { return p * std::pow(x, p - 1.0f); });
}

}  // namespace missl
