#include "tensor/tensor.h"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <unordered_set>

#include "obs/memory.h"
#include "obs/op_stats.h"
#include "obs/trace.h"

namespace missl {

TensorImpl::TensorImpl() { obs::memory_internal::AddTensors(1); }

TensorImpl::~TensorImpl() {
  if (backward_fn) obs::memory_internal::AddAutogradNodes(-1);
  obs::memory_internal::AddBytes(-accounted_bytes_);
  obs::memory_internal::AddTensors(-1);
}

void TensorImpl::SyncBytesAccounting() {
  int64_t now = data.capacity_bytes() + grad.capacity_bytes();
  if (now != accounted_bytes_) {
    obs::memory_internal::AddBytes(now - accounted_bytes_);
    accounted_bytes_ = now;
  }
}

int64_t NumElements(const Shape& shape) {
  int64_t n = 1;
  for (int64_t d : shape) {
    MISSL_CHECK(d >= 0) << "negative dimension in shape " << ShapeToString(shape);
    n *= d;
  }
  return n;
}

std::string ShapeToString(const Shape& shape) {
  std::ostringstream ss;
  ss << "[";
  for (size_t i = 0; i < shape.size(); ++i) {
    if (i) ss << ", ";
    ss << shape[i];
  }
  ss << "]";
  return ss.str();
}

void TensorImpl::EnsureGrad() {
  if (grad.empty()) {
    grad.assign(data.size(), 0.0f);
    SyncBytesAccounting();
  }
}

void TensorImpl::AccumGrad(const float* g, int64_t n) {
  MISSL_CHECK(n == numel()) << "gradient size mismatch: " << n << " vs " << numel();
  EnsureGrad();
  float* dst = grad.data();
  for (int64_t i = 0; i < n; ++i) dst[i] += g[i];
}

namespace {
thread_local bool t_grad_enabled = true;
}  // namespace

bool GradEnabled() { return t_grad_enabled; }

NoGradGuard::NoGradGuard() : prev_(t_grad_enabled) { t_grad_enabled = false; }
NoGradGuard::~NoGradGuard() { t_grad_enabled = prev_; }

namespace internal {
bool ExchangeGradEnabled(bool enabled) {
  bool prev = t_grad_enabled;
  t_grad_enabled = enabled;
  return prev;
}
}  // namespace internal

// ---- Factories --------------------------------------------------------------

Tensor Tensor::Zeros(Shape shape, bool requires_grad) {
  return Full(std::move(shape), 0.0f, requires_grad);
}

Tensor Tensor::Ones(Shape shape, bool requires_grad) {
  return Full(std::move(shape), 1.0f, requires_grad);
}

Tensor Tensor::Full(Shape shape, float value, bool requires_grad) {
  auto impl = std::make_shared<TensorImpl>();
  impl->data.assign(NumElements(shape), value);
  impl->shape = std::move(shape);
  impl->requires_grad = requires_grad;
  impl->SyncBytesAccounting();
  return Tensor(std::move(impl));
}

Tensor Tensor::FromData(std::vector<float> data, Shape shape, bool requires_grad) {
  MISSL_CHECK(static_cast<int64_t>(data.size()) == NumElements(shape))
      << "data size " << data.size() << " does not match shape "
      << ShapeToString(shape);
  auto impl = std::make_shared<TensorImpl>();
  impl->data.copy_from(data.data(), static_cast<int64_t>(data.size()));
  impl->shape = std::move(shape);
  impl->requires_grad = requires_grad;
  impl->SyncBytesAccounting();
  return Tensor(std::move(impl));
}

Tensor Tensor::Scalar(float value, bool requires_grad) {
  return FromData({value}, {}, requires_grad);
}

Tensor Tensor::Randn(Shape shape, Rng* rng, float stddev, bool requires_grad) {
  MISSL_CHECK(rng != nullptr);
  Tensor t = Zeros(std::move(shape), requires_grad);
  float* d = t.mutable_data();
  const int64_t n = t.numel();
  for (int64_t i = 0; i < n; ++i) d[i] = rng->Normal(0.0f, stddev);
  return t;
}

Tensor Tensor::Rand(Shape shape, Rng* rng, float lo, float hi, bool requires_grad) {
  MISSL_CHECK(rng != nullptr);
  Tensor t = Zeros(std::move(shape), requires_grad);
  float* d = t.mutable_data();
  const int64_t n = t.numel();
  for (int64_t i = 0; i < n; ++i) d[i] = rng->Uniform(lo, hi);
  return t;
}

// ---- Introspection ----------------------------------------------------------

int64_t Tensor::size(int64_t d) const {
  int64_t nd = dim();
  if (d < 0) d += nd;
  MISSL_CHECK(d >= 0 && d < nd) << "size(" << d << ") on " << ShapeToString(shape());
  return shape()[static_cast<size_t>(d)];
}

Tensor& Tensor::set_requires_grad(bool v) {
  impl()->requires_grad = v;
  return *this;
}

float Tensor::item() const {
  MISSL_CHECK(numel() == 1) << "item() on tensor of shape " << ShapeToString(shape());
  return impl()->data[0];
}

float Tensor::at(std::initializer_list<int64_t> idx) const {
  MISSL_CHECK(static_cast<int64_t>(idx.size()) == dim())
      << "at() rank mismatch on " << ShapeToString(shape());
  int64_t off = 0;
  size_t d = 0;
  for (int64_t i : idx) {
    MISSL_CHECK(i >= 0 && i < shape()[d]) << "index " << i << " out of range in dim "
                                          << d;
    off = off * shape()[d] + i;
    ++d;
  }
  return impl()->data[static_cast<size_t>(off)];
}

Tensor Tensor::grad() const {
  MISSL_CHECK(!impl()->grad.empty()) << "grad() before any backward accumulation";
  auto out = std::make_shared<TensorImpl>();
  out->data.copy_from(impl()->grad.data(), impl()->grad.size());
  out->shape = shape();
  out->SyncBytesAccounting();
  return Tensor(std::move(out));
}

void Tensor::CopyFrom(const std::vector<float>& values) {
  MISSL_CHECK(static_cast<int64_t>(values.size()) == numel())
      << "CopyFrom size " << values.size() << " does not match "
      << ShapeToString(shape());
  impl()->data.copy_from(values.data(), static_cast<int64_t>(values.size()));
}

void Tensor::Fill(float value) {
  impl()->data.assign(numel(), value);
}

void Tensor::ZeroGrad() {
  auto& g = impl()->grad;
  std::fill(g.begin(), g.end(), 0.0f);
}

void Tensor::Backward() {
  MISSL_CHECK(numel() == 1) << "Backward() requires a scalar loss; got "
                            << ShapeToString(shape());
  static constexpr obs::SpanSite kBackwardSpan{"Tensor::Backward", "autograd"};
  obs::TraceSpan span(kBackwardSpan);
  TensorImpl* root = impl();
  root->EnsureGrad();
  root->grad[0] += 1.0f;

  // Iterative post-order DFS to produce a topological order (children before
  // parents in the reversed result).
  std::vector<TensorImpl*> topo;
  std::unordered_set<TensorImpl*> visited;
  struct Frame {
    TensorImpl* node;
    size_t next_parent;
  };
  std::vector<Frame> stack;
  if (visited.insert(root).second) stack.push_back({root, 0});
  while (!stack.empty()) {
    Frame& f = stack.back();
    if (f.next_parent < f.node->parents.size()) {
      TensorImpl* p = f.node->parents[f.next_parent++].get();
      if (visited.insert(p).second) stack.push_back({p, 0});
    } else {
      topo.push_back(f.node);
      stack.pop_back();
    }
  }
  // topo is post-order: parents appear before children; iterate in reverse so
  // each node's grad is complete before it propagates to its parents.
  // With metrics on, each closure is timed into its op's backward counters;
  // in a tracing session it is also recorded as its op's backward span.
  const bool timed = obs::MetricsEnabled();
  const bool traced = obs::TracingEnabled();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    TensorImpl* node = *it;
    if (!node->backward_fn || node->grad.empty()) continue;
    const obs::OpStats* op = timed || traced ? node->op : nullptr;
    const int64_t t0 = op != nullptr ? obs::NowNanos() : 0;
    node->backward_fn();
    if (op != nullptr) {
      const int64_t dur = obs::NowNanos() - t0;
      if (timed) {
        op->backward_calls.Add(1);
        op->backward_nanos.Add(dur);
      }
      if (traced) obs::RecordSpan(op->backward_site, t0, dur);
    }
  }
  // Release the graph so intermediate buffers can be freed.
  for (TensorImpl* node : topo) {
    if (node->backward_fn) {
      node->backward_fn = nullptr;
      obs::memory_internal::AddAutogradNodes(-1);
    }
    node->parents.clear();
  }
}

Tensor Tensor::Detach() const {
  auto out = std::make_shared<TensorImpl>();
  out->shape = impl()->shape;
  out->data.copy_from(impl()->data.data(), impl()->data.size());
  out->requires_grad = false;
  out->SyncBytesAccounting();
  return Tensor(std::move(out));
}

std::string Tensor::ToString() const {
  if (!defined()) return "Tensor(undefined)";
  std::ostringstream ss;
  ss << "Tensor" << ShapeToString(shape()) << " [";
  int64_t n = std::min<int64_t>(numel(), 8);
  for (int64_t i = 0; i < n; ++i) {
    if (i) ss << ", ";
    ss << impl()->data[static_cast<size_t>(i)];
  }
  if (numel() > n) ss << ", ...";
  ss << "]";
  return ss.str();
}

namespace internal {

Tensor MakeResult(Shape shape) { return Tensor::Zeros(std::move(shape), false); }

bool AttachGrad(Tensor* out, std::vector<Tensor> parents,
                std::function<void()> backward) {
  if (!GradEnabled()) return false;
  bool any = false;
  for (const auto& p : parents) {
    if (p.defined() && p.requires_grad()) {
      any = true;
      break;
    }
  }
  if (!any) return false;
  TensorImpl* o = out->impl();
  o->requires_grad = true;
  o->parents.reserve(parents.size());
  for (auto& p : parents) {
    if (p.defined()) o->parents.push_back(p.impl_ptr());
  }
  o->backward_fn = std::move(backward);
  o->op = obs::t_current_op;
  obs::memory_internal::AddAutogradNodes(1);
  return true;
}

}  // namespace internal

}  // namespace missl
