#include "tensor/broadcast.h"

namespace missl::internal {

Shape BroadcastShape(const Shape& a, const Shape& b) {
  size_t ra = a.size(), rb = b.size();
  size_t r = std::max(ra, rb);
  Shape out(r, 1);
  for (size_t i = 0; i < r; ++i) {
    int64_t da = i < ra ? a[ra - 1 - i] : 1;
    int64_t db = i < rb ? b[rb - 1 - i] : 1;
    if (da == db) {
      out[r - 1 - i] = da;
    } else if (da == 1) {
      out[r - 1 - i] = db;
    } else if (db == 1) {
      out[r - 1 - i] = da;
    } else {
      MISSL_CHECK(false) << "incompatible broadcast " << ShapeToString(a) << " vs "
                         << ShapeToString(b);
    }
  }
  return out;
}

BroadcastRows::BroadcastRows(const Shape& out, const Shape& a,
                             const Shape& b) {
  const size_t r = out.size(), ra = a.size(), rb = b.size();
  // Coalesced dims, innermost first: extent and each input's element stride.
  // Dim 0 becomes the row, the rest the outer odometer.
  int64_t ext[kMaxDims + 1], sa[kMaxDims + 1], sb[kMaxDims + 1];
  int n = 0;
  int64_t dense_a = 1, dense_b = 1;  // input elements inside this dim
  for (size_t i = 0; i < r; ++i) {
    const int64_t e = out[r - 1 - i];
    const int64_t da = i < ra ? a[ra - 1 - i] : 1;
    const int64_t db = i < rb ? b[rb - 1 - i] : 1;
    MISSL_CHECK((da == e || da == 1) && (db == e || db == 1))
        << "bad broadcast " << ShapeToString(a) << ", " << ShapeToString(b)
        << " under " << ShapeToString(out);
    if (e == 0) {
      rows = 0;
      return;
    }
    if (e == 1) continue;
    const int64_t ta = da == e ? dense_a : 0;
    const int64_t tb = db == e ? dense_b : 0;
    dense_a *= da;
    dense_b *= db;
    // A dim continues the one inside it when, for both inputs, stepping it
    // once equals stepping the inner one over its full extent.
    if (n > 0 && ta == sa[n - 1] * ext[n - 1] && tb == sb[n - 1] * ext[n - 1]) {
      ext[n - 1] *= e;
      continue;
    }
    MISSL_CHECK(n <= kMaxDims) << "broadcast of " << ShapeToString(a) << " and "
                               << ShapeToString(b) << " has more than "
                               << kMaxDims << " outer dims";
    ext[n] = e;
    sa[n] = ta;
    sb[n] = tb;
    ++n;
  }
  rows = 1;
  if (n == 0) return;  // a single element
  len = ext[0];
  a_step = sa[0];
  b_step = sb[0];
  outer_ = n - 1;
  for (int d = 0; d < outer_; ++d) {
    // Stored outermost first.
    dims_[d] = ext[n - 1 - d];
    a_strides_[d] = sa[n - 1 - d];
    b_strides_[d] = sb[n - 1 - d];
    rows *= dims_[d];
  }
}

}  // namespace missl::internal
