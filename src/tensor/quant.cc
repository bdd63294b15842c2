#include "tensor/quant.h"

#include <cmath>

namespace missl::quant {

namespace {

// max(|x[i]|) over the row; 0 for n == 0. NaN-free inputs assumed.
float RowMaxAbs(const float* x, int64_t n) {
  float m = 0.0f;
  for (int64_t i = 0; i < n; ++i) {
    const float a = std::fabs(x[i]);
    if (a > m) m = a;
  }
  return m;
}

}  // namespace

int64_t QuantizeRowWithScale(const float* x, int64_t n, float scale,
                             int8_t* q) {
  if (scale == 0.0f) {
    for (int64_t i = 0; i < n; ++i) q[i] = 0;
    return 0;
  }
  int64_t saturated = 0;
  for (int64_t i = 0; i < n; ++i) {
    // lround rounds half away from zero independent of the FP environment,
    // so quantization is deterministic across compilers and tiers.
    const long v = std::lround(x[i] / scale);
    long c = v;
    if (c > 127) c = 127;
    if (c < -127) c = -127;
    if (c != v) ++saturated;
    q[i] = static_cast<int8_t>(c);
  }
  return saturated;
}

void QuantizeRowsSymmetric(const float* x, int64_t rows, int64_t n, int8_t* q,
                           float* scales, RowQuantStats* stats) {
  RowQuantStats st;
  bool have_nonzero = false;
  for (int64_t r = 0; r < rows; ++r) {
    const float* row = x + r * n;
    const float maxabs = RowMaxAbs(row, n);
    const float scale = maxabs / 127.0f;
    scales[r] = scale;
    st.saturated += QuantizeRowWithScale(row, n, scale, q + r * n);
    if (scale == 0.0f) {
      ++st.zero_rows;
      continue;
    }
    if (!have_nonzero || scale < st.min_scale) st.min_scale = scale;
    if (scale > st.max_scale) st.max_scale = scale;
    have_nonzero = true;
  }
  if (stats != nullptr) *stats = st;
}

int32_t Int8DotRef(const int8_t* a, const int8_t* b, int64_t n) {
  int32_t acc = 0;
  for (int64_t i = 0; i < n; ++i) {
    acc += static_cast<int32_t>(a[i]) * static_cast<int32_t>(b[i]);
  }
  return acc;
}

}  // namespace missl::quant
