// Internal broadcasting helpers shared by op implementations. Not part of
// the public API.
#ifndef MISSL_TENSOR_BROADCAST_H_
#define MISSL_TENSOR_BROADCAST_H_

#include <cstdint>

#include "tensor/tensor.h"

namespace missl::internal {

/// NumPy broadcast of two shapes; CHECKs compatibility.
Shape BroadcastShape(const Shape& a, const Shape& b);

/// The element walk of a broadcasting binary op out = f(a, b), one
/// innermost row at a time. Output dims of extent 1 are dropped and adjacent
/// dims are coalesced wherever both inputs stay dense (or stay broadcast)
/// across them, so a row is the longest run of consecutive output elements
/// along which each input either advances by one element (step 1) or
/// repeats one element (step 0). Rows are visited in ascending output order,
/// so a walk over all rows touches every element in flat order. Holds no
/// heap memory: the outer dims live in fixed arrays.
struct BroadcastRows {
  static constexpr int kMaxDims = 8;

  /// `out` must be BroadcastShape(a, b).
  BroadcastRows(const Shape& out, const Shape& a, const Shape& b);

  int64_t rows = 0;    ///< number of rows; 0 when `out` is empty
  int64_t len = 1;     ///< elements per row
  int64_t a_step = 1;  ///< 1 when a advances along a row, 0 when it repeats
  int64_t b_step = 1;  ///< same for b

  /// Calls fn(o, oa, ob) for rows [r0, r1) in order, where o is the row's
  /// first output offset and oa/ob the matching a/b offsets: one odometer
  /// step over the outer dims per row.
  template <typename Fn>
  void ForRows(int64_t r0, int64_t r1, Fn&& fn) const {
    if (r0 >= r1) return;
    int64_t idx[kMaxDims];
    int64_t oa = 0, ob = 0;
    int64_t r = r0;
    for (int d = outer_ - 1; d >= 0; --d) {
      idx[d] = r % dims_[d];
      r /= dims_[d];
      oa += idx[d] * a_strides_[d];
      ob += idx[d] * b_strides_[d];
    }
    for (int64_t row = r0;;) {
      fn(row * len, oa, ob);
      if (++row == r1) break;
      for (int d = outer_ - 1; d >= 0; --d) {
        oa += a_strides_[d];
        ob += b_strides_[d];
        if (++idx[d] < dims_[d]) break;
        oa -= a_strides_[d] * dims_[d];
        ob -= b_strides_[d] * dims_[d];
        idx[d] = 0;
      }
    }
  }

 private:
  int outer_ = 0;  ///< coalesced dims outside the row
  int64_t dims_[kMaxDims] = {};
  int64_t a_strides_[kMaxDims] = {};
  int64_t b_strides_[kMaxDims] = {};
};

}  // namespace missl::internal

#endif  // MISSL_TENSOR_BROADCAST_H_
