// Differentiable operations over Tensor. All ops build autograd graph edges
// when gradient mode is enabled (see NoGradGuard) and any input requires
// grad. Binary elementwise ops support full NumPy-style broadcasting.
#ifndef MISSL_TENSOR_OPS_H_
#define MISSL_TENSOR_OPS_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

/// Guards op entry points that hand raw pointers to the kernel tier
/// (tensor/simd.h): kernels assume dense row-major storage, so an impl
/// assembled by hand with a storage/shape mismatch (e.g. simulating a
/// strided/transposed view) must fail loudly here instead of reading the
/// wrong elements.
#define MISSL_CHECK_CONTIGUOUS(t)                                       \
  MISSL_CHECK((t).IsContiguous())                                       \
      << "tensor is not contiguous: storage has " << (t).numel()        \
      << " elements but shape is " << ::missl::ShapeToString((t).shape()) \
      << "; kernels require dense row-major layout"

namespace missl {

// ---- Elementwise binary (broadcasting) --------------------------------------

/// Elementwise a + b with broadcasting.
Tensor Add(const Tensor& a, const Tensor& b);
/// Elementwise a - b with broadcasting.
Tensor Sub(const Tensor& a, const Tensor& b);
/// Elementwise a * b with broadcasting.
Tensor Mul(const Tensor& a, const Tensor& b);
/// Elementwise a / b with broadcasting.
Tensor Div(const Tensor& a, const Tensor& b);

/// a + s for scalar s.
Tensor AddScalar(const Tensor& a, float s);
/// a * s for scalar s.
Tensor MulScalar(const Tensor& a, float s);
/// -a.
Tensor Neg(const Tensor& a);

inline Tensor operator+(const Tensor& a, const Tensor& b) { return Add(a, b); }
inline Tensor operator-(const Tensor& a, const Tensor& b) { return Sub(a, b); }
inline Tensor operator*(const Tensor& a, const Tensor& b) { return Mul(a, b); }
inline Tensor operator/(const Tensor& a, const Tensor& b) { return Div(a, b); }
inline Tensor operator+(const Tensor& a, float s) { return AddScalar(a, s); }
inline Tensor operator*(const Tensor& a, float s) { return MulScalar(a, s); }
inline Tensor operator-(const Tensor& a) { return Neg(a); }

// ---- Elementwise unary -------------------------------------------------------

/// Tanh-approximation GeLU (as used by BERT-family models).
Tensor Gelu(const Tensor& a);
Tensor Sigmoid(const Tensor& a);
Tensor Tanh(const Tensor& a);
Tensor Exp(const Tensor& a);
/// Natural log; inputs must be positive.
Tensor Log(const Tensor& a);
Tensor Square(const Tensor& a);
/// Clamps to [lo, hi]; gradient is passed through inside the interval only.
Tensor Clamp(const Tensor& a, float lo, float hi);

// ---- Matrix multiplication ---------------------------------------------------

/// Matrix product. Supported shapes:
///   [m,k] x [k,n]     -> [m,n]
///   [b,m,k] x [b,k,n] -> [b,m,n]   (batched)
///   [b,m,k] x [k,n]   -> [b,m,n]   (shared right operand)
Tensor MatMul(const Tensor& a, const Tensor& b);

/// Swaps the last two dimensions (rank 2 or 3).
Tensor Transpose(const Tensor& a);

// ---- Shape manipulation ------------------------------------------------------

/// Reshape preserving element count; one dimension may be -1 (inferred).
Tensor Reshape(const Tensor& a, Shape shape);

/// Slice [start, end) along dimension `dim` (negative dim allowed).
Tensor Slice(const Tensor& a, int64_t dim, int64_t start, int64_t end);

/// Concatenates tensors along `dim`; all other dims must match.
Tensor Concat(const std::vector<Tensor>& ts, int64_t dim);

/// Embedding gather: weight is [V, d]; returns prefix_shape + [d]. Index -1
/// denotes padding and yields a zero row (and receives no gradient).
/// ids.size() must equal NumElements(prefix_shape).
Tensor EmbeddingLookup(const Tensor& weight, const std::vector<int32_t>& ids,
                       Shape prefix_shape);

// ---- Reductions ---------------------------------------------------------------

/// Sum of all elements (scalar output).
Tensor Sum(const Tensor& a);
/// Mean of all elements (scalar output).
Tensor Mean(const Tensor& a);
/// Sum along one dimension.
Tensor Sum(const Tensor& a, int64_t dim, bool keepdim);
/// Mean along one dimension.
Tensor Mean(const Tensor& a, int64_t dim, bool keepdim);
/// Max along one dimension. If `argmax` is non-null it receives the winning
/// indices (size = numel of the reduced tensor). Gradient routes to argmax.
Tensor Max(const Tensor& a, int64_t dim, bool keepdim,
           std::vector<int64_t>* argmax = nullptr);

// ---- Neural-net primitives -----------------------------------------------------

/// Softmax over the last dimension.
Tensor Softmax(const Tensor& a);
/// Log-softmax over the last dimension (numerically stable).
Tensor LogSoftmax(const Tensor& a);

/// Layer normalization over the last dimension with affine params
/// gamma/beta of shape [d].
Tensor LayerNorm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                 float eps = 1e-5f);

/// Inverted dropout. Identity when !training or p == 0.
Tensor Dropout(const Tensor& x, float p, bool training, Rng* rng);

/// Mean cross-entropy between logits [B, C] and integer targets (size B).
/// Targets of -1 are ignored (contribute 0 loss); CHECKs at least one valid.
Tensor CrossEntropyLoss(const Tensor& logits, const std::vector<int32_t>& targets);

/// L2-normalizes along the last dimension: x / max(||x||, eps).
Tensor L2Normalize(const Tensor& x, float eps = 1e-8f);

}  // namespace missl

#endif  // MISSL_TENSOR_OPS_H_
