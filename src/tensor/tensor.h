// Dense row-major float tensor with reverse-mode automatic differentiation.
//
// This is the computational substrate for the whole library: every model
// (the MISSL core and all baselines) is built on these ops. Design choices:
//  - contiguous float32 storage only (no strides/views); ops copy, which at
//    the experiment scales used here (d <= 128, seq <= 64, batch <= 256) is
//    dominated by matmul cost anyway;
//  - the autograd graph is built eagerly: each op records its parent impls
//    and a closure that pushes gradient from the output into the parents;
//  - gradient mode is a thread-local flag (see NoGradGuard); ParallelFor
//    workers inherit the dispatching thread's mode for the duration of a
//    job (see runtime/parallel_for.h).
#ifndef MISSL_TENSOR_TENSOR_H_
#define MISSL_TENSOR_TENSOR_H_

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "tensor/alloc.h"
#include "utils/check.h"
#include "utils/rng.h"

namespace missl {

namespace obs {
struct OpStats;
}  // namespace obs

class TensorImpl;
using TensorImplPtr = std::shared_ptr<TensorImpl>;

/// Shape of a tensor; empty vector denotes a scalar (numel == 1).
using Shape = std::vector<int64_t>;

/// Returns the number of elements implied by a shape.
int64_t NumElements(const Shape& shape);

/// Renders a shape as "[2, 3, 4]".
std::string ShapeToString(const Shape& shape);

/// Backing storage + autograd bookkeeping for a tensor. Users interact with
/// the `Tensor` handle; TensorImpl is exposed only for op implementations.
/// Construction/destruction and buffer (re)allocation feed the process-wide
/// memory gauges in obs/memory.h.
class TensorImpl {
 public:
  TensorImpl();
  ~TensorImpl();
  TensorImpl(const TensorImpl&) = delete;
  TensorImpl& operator=(const TensorImpl&) = delete;

  Shape shape;
  Storage data;  ///< pooled, 32-byte-aligned buffer (see tensor/alloc.h)
  Storage grad;  ///< lazily allocated, same numel as data
  bool requires_grad = false;

  /// Parents in the autograd graph (inputs of the op that produced this).
  std::vector<TensorImplPtr> parents;
  /// Propagates this->grad into the parents' grad buffers. Must hold no
  /// owning reference to this impl (see TensorRef) or the node would keep
  /// itself alive forever.
  std::function<void()> backward_fn;
  /// The op that attached backward_fn (the OpScope open at AttachGrad), for
  /// per-op backward metrics; null when attached outside any op scope.
  const obs::OpStats* op = nullptr;

  int64_t numel() const { return static_cast<int64_t>(data.size()); }
  /// True when the buffer is a dense row-major layout of `shape`, i.e. the
  /// storage invariant every kernel relies on before taking raw pointers.
  /// All factory/op paths maintain this; a false return means an impl was
  /// assembled by hand (e.g. simulating a strided view) and must not be fed
  /// to the SIMD kernels — see MISSL_CHECK_CONTIGUOUS in ops.
  bool IsContiguous() const { return numel() == NumElements(shape); }
  /// Allocates (zero-filled) the grad buffer if not present.
  void EnsureGrad();
  /// Adds `n` values from `g` into the grad buffer (allocating if needed).
  void AccumGrad(const float* g, int64_t n);
  /// Re-syncs this impl's contribution to the live-bytes gauge; called after
  /// (re)allocating data or grad.
  void SyncBytesAccounting();

 private:
  int64_t accounted_bytes_ = 0;  ///< bytes currently reported to obs/memory
};

/// Returns true while gradient recording is enabled on the calling thread
/// (default true; fresh threads start enabled).
bool GradEnabled();

/// RAII guard that disables autograd graph construction in its scope; used
/// by evaluation code so forward passes allocate no graph.
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool prev_;
};

/// Value-semantics handle to a TensorImpl. Copying a Tensor aliases the same
/// storage (like torch). A default-constructed Tensor is "undefined".
class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(TensorImplPtr impl) : impl_(std::move(impl)) {}

  // ---- Factories -----------------------------------------------------------

  /// All-zeros tensor of the given shape.
  static Tensor Zeros(Shape shape, bool requires_grad = false);
  /// All-ones tensor.
  static Tensor Ones(Shape shape, bool requires_grad = false);
  /// Tensor filled with `value`.
  static Tensor Full(Shape shape, float value, bool requires_grad = false);
  /// Tensor wrapping the given data (copied); data.size() must match shape.
  static Tensor FromData(std::vector<float> data, Shape shape,
                         bool requires_grad = false);
  /// Scalar tensor.
  static Tensor Scalar(float value, bool requires_grad = false);
  /// I.i.d. normal(0, stddev) entries.
  static Tensor Randn(Shape shape, Rng* rng, float stddev = 1.0f,
                      bool requires_grad = false);
  /// I.i.d. uniform [lo, hi) entries.
  static Tensor Rand(Shape shape, Rng* rng, float lo = 0.0f, float hi = 1.0f,
                     bool requires_grad = false);

  // ---- Introspection -------------------------------------------------------

  bool defined() const { return impl_ != nullptr; }
  const Shape& shape() const { return impl()->shape; }
  int64_t dim() const { return static_cast<int64_t>(impl()->shape.size()); }
  int64_t numel() const { return impl()->numel(); }
  /// Size along dimension `d`; negative d counts from the end.
  int64_t size(int64_t d) const;
  bool requires_grad() const { return impl()->requires_grad; }
  /// True when storage is dense row-major for shape() (see TensorImpl).
  bool IsContiguous() const { return impl()->IsContiguous(); }
  /// Marks this tensor as a leaf requiring gradient.
  Tensor& set_requires_grad(bool v);

  float* data() { return impl()->data.data(); }
  const float* data() const { return impl()->data.data(); }
  /// Writable pointer to the element buffer (the replacement for the old
  /// vec() accessor — pooled Storage deliberately has no resize, so writers
  /// get a pointer + numel(), never a container they could grow).
  float* mutable_data() { return impl()->data.data(); }

  /// Copy of the elements as a plain vector (snapshots, test expectations).
  std::vector<float> ToVector() const { return impl()->data.ToVector(); }
  /// Overwrites the elements from `values`; CHECKs the size matches numel().
  void CopyFrom(const std::vector<float>& values);
  /// Sets every element to `value`.
  void Fill(float value);

  /// Value of a scalar (numel()==1) tensor.
  float item() const;
  /// Element access by multi-dimensional index (slow; for tests/debug).
  float at(std::initializer_list<int64_t> idx) const;

  /// Gradient buffer as a (non-differentiable) tensor; CHECKs it exists.
  Tensor grad() const;
  /// True if a gradient buffer has been allocated.
  bool has_grad() const { return !impl()->grad.empty(); }
  /// Zeroes the gradient buffer (no-op if unallocated).
  void ZeroGrad();

  /// Runs backpropagation from this scalar tensor (numel()==1). Clears the
  /// graph references of visited nodes afterwards so memory is released.
  void Backward();

  /// Returns a deep copy (data only) detached from the autograd graph.
  Tensor Detach() const;

  /// Human-readable summary (shape + first few values).
  std::string ToString() const;

  TensorImplPtr impl_ptr() const { return impl_; }
  TensorImpl* impl() const {
    MISSL_CHECK(impl_ != nullptr) << "use of undefined Tensor";
    return impl_.get();
  }

 private:
  TensorImplPtr impl_;
};

/// Non-owning handle to a TensorImpl with the read-only accessors an op's
/// backward closure needs. Backward closures must capture the op's own
/// output through a TensorRef rather than a Tensor: the closure is stored
/// inside that output's impl, so an owning capture would be a shared_ptr
/// self-cycle and every grad-recording forward pass whose result is dropped
/// without Backward() would leak its graph. The ref is valid whenever the
/// closure runs, because the closure lives exactly as long as the impl it
/// points to.
class TensorRef {
 public:
  TensorRef() = default;
  explicit TensorRef(const Tensor& t) : impl_(t.impl()) {}

  TensorImpl* impl() const { return impl_; }
  const Shape& shape() const { return impl_->shape; }
  int64_t numel() const { return impl_->numel(); }
  const float* data() const { return impl_->data.data(); }

 private:
  TensorImpl* impl_ = nullptr;
};

namespace internal {
/// Sets the calling thread's gradient-mode flag and returns the previous
/// value. Used by the runtime to propagate the dispatching thread's mode
/// into pool workers; everyone else should use NoGradGuard.
bool ExchangeGradEnabled(bool enabled);

/// Creates a fresh tensor for op outputs; requires_grad is set if recording
/// is enabled and any parent requires grad, in which case `parents` and the
/// backward closure should be attached by the op.
Tensor MakeResult(Shape shape);
/// Attaches autograd metadata to `out` if grad mode is on and any parent
/// requires grad. `backward` must read out.impl()->grad and accumulate into
/// the parents; it must reference the output only through a TensorRef
/// (never an owning Tensor capture — see TensorRef). Returns true if the
/// graph edge was attached.
bool AttachGrad(Tensor* out, std::vector<Tensor> parents,
                std::function<void()> backward);
}  // namespace internal

}  // namespace missl

#endif  // MISSL_TENSOR_TENSOR_H_
