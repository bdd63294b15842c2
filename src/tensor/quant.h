// Symmetric per-row int8 quantization for the serving catalog tier (see
// docs/KERNELS.md §int8 tier and docs/INFERENCE.md §quantized catalog tier).
//
// Scheme: each row r of a dense [rows, n] fp32 matrix gets one fp32 scale
//   scale[r] = maxabs(row) / 127
// and int8 codes
//   q[i] = clamp(round_half_away_from_zero(x[i] / scale[r]), -127, 127).
// Codes never reach -128, so |q| <= 127 everywhere — the invariant the AVX2
// maddubs kernel relies on (two |a|*|b| pair products fit int16 without
// saturating). All-zero rows store scale 0 and all-zero codes; dequantization
// multiplies by the scale, so a zero scale is never divided by.
//
// Int8DotRef defines the arithmetic contract of the int8 tier: a plain
// int32 sum of int32 element products. Integer addition is associative, so
// every implementation (scalar, AVX2, any blocking) that computes the same
// mathematical sum is bitwise identical — a strictly stronger guarantee than
// the fp32 tier's fixed-accumulation-order rule. The catalog kernels
// simd::Int8DotDequantRows and simd::Int8DotDequantTile compute exactly this
// sum on every tier before their fp32 dequant epilogue.
#ifndef MISSL_TENSOR_QUANT_H_
#define MISSL_TENSOR_QUANT_H_

#include <cstdint>

namespace missl::quant {

/// Aggregate statistics of one QuantizeRowsSymmetric call.
struct RowQuantStats {
  float min_scale = 0.0f;  ///< smallest non-zero row scale (0 if none)
  float max_scale = 0.0f;  ///< largest row scale
  int64_t zero_rows = 0;   ///< rows that were all zero (scale stored as 0)
  int64_t saturated = 0;   ///< codes clamped to ±127 (rounding edge cases)
};

/// Quantizes one row with a caller-provided scale. scale == 0 writes all-zero
/// codes (no division). Returns the number of codes clamped to ±127.
int64_t QuantizeRowWithScale(const float* x, int64_t n, float scale, int8_t* q);

/// Symmetric per-row quantization of a dense row-major [rows, n] matrix:
/// scales[r] = max(|row[i]|) / 127, codes via QuantizeRowWithScale. `stats`
/// may be null.
void QuantizeRowsSymmetric(const float* x, int64_t rows, int64_t n, int8_t* q,
                           float* scales, RowQuantStats* stats);

/// The scalar reference int8 dot: sum over i of int32(a[i]) * int32(b[i]).
/// This IS the int8 arithmetic contract; the integer dot inside the simd
/// int8 catalog kernels must match it bitwise on every tier.
int32_t Int8DotRef(const int8_t* a, const int8_t* b, int64_t n);

}  // namespace missl::quant

#endif  // MISSL_TENSOR_QUANT_H_
