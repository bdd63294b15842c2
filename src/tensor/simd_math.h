// Constants of the tier-invariant exp/tanh (tensor/simd.h, ExpRow and
// TanhRow). One definition serves the scalar reference in simd.cc and the
// AVX2 lanes in simd_avx2.cc, so both tiers evaluate the same sequence on
// the same float constants. docs/KERNELS.md ("Transcendentals") gives the
// sequence and its error bounds.
#ifndef MISSL_TENSOR_SIMD_MATH_H_
#define MISSL_TENSOR_SIMD_MATH_H_

namespace missl::simd::math {

// exp: x = n ln2 + r with |r| <= ln2 / 2, exp(r) by a degree-7 polynomial
// (Cephes expf coefficients), then a scale by 2^n split into two exact
// powers of two so that n = 128 and n = -126 both stay representable.
inline constexpr float kExpHi = 88.75f;  // above ln(FLT_MAX): result is +inf
inline constexpr float kExpMinArg = -87.33654f;  // ~ln(FLT_MIN): below, +0
inline constexpr float kLog2e = 1.44269504088896341f;
inline constexpr float kRoundMagic = 12582912.0f;  // 1.5 * 2^23
inline constexpr float kLn2Hi = 0.693359375f;      // 9 significant bits
inline constexpr float kLn2Lo = -2.12194440e-4f;   // ln2 - kLn2Hi
inline constexpr float kExpP0 = 1.9875691500e-4f;
inline constexpr float kExpP1 = 1.3981999507e-3f;
inline constexpr float kExpP2 = 8.3334519073e-3f;
inline constexpr float kExpP3 = 4.1665795894e-2f;
inline constexpr float kExpP4 = 1.6666665459e-1f;
inline constexpr float kExpP5 = 5.0000001201e-1f;

// tanh: an odd [13/6] rational in x on |x| clamped to kTanhClamp, where it
// evaluates to exactly 1; |x| < kTanhTiny passes x through (tanh(x) rounds
// to within an ulp of x there, and the rational would lose denormals).
inline constexpr float kTanhClamp = 7.90531110763549805f;
inline constexpr float kTanhTiny = 0.0004f;
inline constexpr float kTanhA1 = 4.89352455891786e-03f;
inline constexpr float kTanhA3 = 6.37261928875436e-04f;
inline constexpr float kTanhA5 = 1.48572235717979e-05f;
inline constexpr float kTanhA7 = 5.12229709037114e-08f;
inline constexpr float kTanhA9 = -8.60467152213735e-11f;
inline constexpr float kTanhA11 = 2.00018790482477e-13f;
inline constexpr float kTanhA13 = -2.76076847742355e-16f;
inline constexpr float kTanhB0 = 4.89352518554385e-03f;
inline constexpr float kTanhB2 = 2.26843463243900e-03f;
inline constexpr float kTanhB4 = 1.18534705686654e-04f;
inline constexpr float kTanhB6 = 1.19825839466702e-06f;

// GELU, tanh approximation: 0.5 x (1 + tanh(kGeluC (x + kGeluA x^3))).
inline constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2 / pi)
inline constexpr float kGeluA = 0.044715f;
inline constexpr float kGeluA3 = 3.0f * kGeluA;  // (kGeluA x^3)' = kGeluA3 x^2

}  // namespace missl::simd::math

#endif  // MISSL_TENSOR_SIMD_MATH_H_
