#include <cstring>

#include "obs/op_stats.h"
#include "runtime/parallel_for.h"
#include "tensor/ops.h"

namespace missl {

using internal::AttachGrad;
using internal::MakeResult;

Tensor Reshape(const Tensor& a, Shape shape) {
  MISSL_OP_SCOPE("Reshape");
  // Resolve a single -1 placeholder.
  int64_t known = 1;
  int64_t infer = -1;
  for (size_t i = 0; i < shape.size(); ++i) {
    if (shape[i] == -1) {
      MISSL_CHECK(infer == -1) << "Reshape with multiple -1 dims";
      infer = static_cast<int64_t>(i);
    } else {
      known *= shape[i];
    }
  }
  if (infer >= 0) {
    MISSL_CHECK(known > 0 && a.numel() % known == 0)
        << "cannot infer dim in Reshape to " << ShapeToString(shape) << " from "
        << ShapeToString(a.shape());
    shape[static_cast<size_t>(infer)] = a.numel() / known;
  }
  MISSL_CHECK(NumElements(shape) == a.numel())
      << "Reshape numel mismatch " << ShapeToString(a.shape()) << " -> "
      << ShapeToString(shape);
  Tensor out = MakeResult(shape);
  std::memcpy(out.data(), a.data(), sizeof(float) * static_cast<size_t>(a.numel()));
  AttachGrad(&out, {a}, [a, out = TensorRef(out)]() {
    a.impl()->AccumGrad(out.impl()->grad.data(), out.numel());
  });
  return out;
}

Tensor Slice(const Tensor& a, int64_t dim, int64_t start, int64_t end) {
  MISSL_OP_SCOPE("Slice");
  int64_t r = a.dim();
  if (dim < 0) dim += r;
  MISSL_CHECK(dim >= 0 && dim < r) << "Slice dim out of range";
  int64_t d = a.size(dim);
  if (start < 0) start += d;
  if (end < 0) end += d;
  MISSL_CHECK(0 <= start && start <= end && end <= d)
      << "Slice bounds [" << start << ", " << end << ") invalid for dim size " << d;
  Shape so = a.shape();
  so[static_cast<size_t>(dim)] = end - start;
  int64_t outer = 1, inner = 1;
  for (int64_t i = 0; i < dim; ++i) outer *= a.size(i);
  for (int64_t i = dim + 1; i < r; ++i) inner *= a.size(i);
  Tensor out = MakeResult(so);
  const float* pa = a.data();
  float* po = out.data();
  int64_t len = end - start;
  for (int64_t o = 0; o < outer; ++o) {
    std::memcpy(po + o * len * inner, pa + (o * d + start) * inner,
                sizeof(float) * static_cast<size_t>(len * inner));
  }
  AttachGrad(&out, {a},
             [a, out = TensorRef(out), outer, inner, d, start, len]() {
    const float* g = out.impl()->grad.data();
    a.impl()->EnsureGrad();
    float* ga = a.impl()->grad.data();
    for (int64_t o = 0; o < outer; ++o) {
      const float* gs = g + o * len * inner;
      float* gas = ga + (o * d + start) * inner;
      for (int64_t i = 0; i < len * inner; ++i) gas[i] += gs[i];
    }
  });
  return out;
}

Tensor Concat(const std::vector<Tensor>& ts, int64_t dim) {
  MISSL_OP_SCOPE("Concat");
  MISSL_CHECK(!ts.empty()) << "Concat of zero tensors";
  int64_t r = ts[0].dim();
  if (dim < 0) dim += r;
  MISSL_CHECK(dim >= 0 && dim < r) << "Concat dim out of range";
  Shape so = ts[0].shape();
  int64_t total = 0;
  for (const auto& t : ts) {
    MISSL_CHECK(t.dim() == r) << "Concat rank mismatch";
    for (int64_t i = 0; i < r; ++i) {
      if (i != dim) {
        MISSL_CHECK(t.size(i) == so[static_cast<size_t>(i)])
            << "Concat non-concat dim mismatch at dim " << i;
      }
    }
    total += t.size(dim);
  }
  so[static_cast<size_t>(dim)] = total;
  int64_t outer = 1, inner = 1;
  for (int64_t i = 0; i < dim; ++i) outer *= so[static_cast<size_t>(i)];
  for (int64_t i = dim + 1; i < r; ++i) inner *= so[static_cast<size_t>(i)];
  Tensor out = MakeResult(so);
  float* po = out.data();
  int64_t off = 0;  // running offset along `dim`
  for (const auto& t : ts) {
    int64_t len = t.size(dim);
    const float* pt = t.data();
    for (int64_t o = 0; o < outer; ++o) {
      std::memcpy(po + (o * total + off) * inner, pt + o * len * inner,
                  sizeof(float) * static_cast<size_t>(len * inner));
    }
    off += len;
  }
  AttachGrad(&out, ts, [ts, out = TensorRef(out), outer, inner, total, dim]() {
    const float* g = out.impl()->grad.data();
    int64_t off = 0;
    for (const auto& t : ts) {
      int64_t len = t.size(dim);
      if (t.requires_grad()) {
        t.impl()->EnsureGrad();
        float* gt = t.impl()->grad.data();
        for (int64_t o = 0; o < outer; ++o) {
          const float* gs = g + (o * total + off) * inner;
          float* gd = gt + o * len * inner;
          for (int64_t i = 0; i < len * inner; ++i) gd[i] += gs[i];
        }
      }
      off += len;
    }
  });
  return out;
}

Tensor EmbeddingLookup(const Tensor& weight, const std::vector<int32_t>& ids,
                       Shape prefix_shape) {
  MISSL_OP_SCOPE("EmbeddingLookup");
  MISSL_CHECK(weight.dim() == 2) << "EmbeddingLookup weight must be [V, d]";
  int64_t v = weight.size(0);
  int64_t d = weight.size(1);
  MISSL_CHECK(static_cast<int64_t>(ids.size()) == NumElements(prefix_shape))
      << "EmbeddingLookup ids size " << ids.size() << " vs prefix "
      << ShapeToString(prefix_shape);
  Shape so = prefix_shape;
  so.push_back(d);
  Tensor out = MakeResult(so);
  const float* pw = weight.data();
  float* po = out.data();
  // Gather: every output row is written by exactly one index slot.
  runtime::ParallelFor(
      0, static_cast<int64_t>(ids.size()), runtime::GrainForCost(d),
      [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i) {
          int32_t id = ids[static_cast<size_t>(i)];
          if (id < 0) continue;  // padding -> zeros
          MISSL_CHECK(id < v) << "embedding id " << id << " out of vocab " << v;
          std::memcpy(po + i * d, pw + static_cast<int64_t>(id) * d,
                      sizeof(float) * static_cast<size_t>(d));
        }
      });
  AttachGrad(&out, {weight}, [weight, out = TensorRef(out), ids, v, d]() {
    const float* g = out.impl()->grad.data();
    weight.impl()->EnsureGrad();
    float* gw = weight.impl()->grad.data();
    // Scatter-add: owner-computes over the vocab. Each chunk scans the full
    // id list and accumulates only the rows it owns, so duplicate ids (the
    // common case — popular items repeat within a batch) never race, and
    // each weight row sums its contributions in input order, exactly like
    // the serial loop.
    runtime::ParallelFor(
        0, v, runtime::GrainForChunks(v), [&](int64_t v0, int64_t v1) {
          for (size_t i = 0; i < ids.size(); ++i) {
            int64_t id = ids[i];
            if (id < v0 || id >= v1) continue;  // also skips padding (-1)
            float* dst = gw + id * d;
            const float* src = g + static_cast<int64_t>(i) * d;
            for (int64_t j = 0; j < d; ++j) dst[j] += src[j];
          }
        });
  });
  return out;
}

}  // namespace missl
