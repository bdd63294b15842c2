#include "optim/optimizer.h"

#include <cmath>

#include "utils/check.h"

namespace missl::optim {

Adam::Adam(std::vector<Tensor> params, float lr, float beta1, float beta2,
           float eps, float weight_decay)
    : params_(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      weight_decay_(weight_decay) {
  MISSL_CHECK(lr > 0.0f) << "learning rate must be positive";
  for (const auto& p : params_) {
    MISSL_CHECK(p.defined() && p.requires_grad())
        << "optimizer parameter must require grad";
  }
  m_.resize(params_.size());
  v_.resize(params_.size());
}

void Adam::ZeroGrad() {
  for (auto& p : params_) p.ZeroGrad();
}

void Adam::Step() {
  ++t_;
  float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  for (size_t i = 0; i < params_.size(); ++i) {
    Tensor& p = params_[i];
    if (!p.has_grad()) continue;
    float* w = p.data();
    const float* g = p.impl()->grad.data();
    int64_t n = p.numel();
    auto& m = m_[i];
    auto& v = v_[i];
    if (m.empty()) {
      m.assign(static_cast<size_t>(n), 0.0f);
      v.assign(static_cast<size_t>(n), 0.0f);
    }
    for (int64_t j = 0; j < n; ++j) {
      float grad = g[j] + weight_decay_ * w[j];
      size_t js = static_cast<size_t>(j);
      m[js] = beta1_ * m[js] + (1.0f - beta1_) * grad;
      v[js] = beta2_ * v[js] + (1.0f - beta2_) * grad * grad;
      float mhat = m[js] / bc1;
      float vhat = v[js] / bc2;
      w[j] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
    }
  }
}

float ClipGradNorm(const std::vector<Tensor>& params, float max_norm) {
  MISSL_CHECK(max_norm > 0.0f) << "max_norm must be positive";
  double total = 0.0;
  for (const auto& p : params) {
    if (!p.has_grad()) continue;
    const float* g = p.impl()->grad.data();
    for (int64_t j = 0; j < p.numel(); ++j) total += double(g[j]) * g[j];
  }
  float norm = static_cast<float>(std::sqrt(total));
  if (norm > max_norm && norm > 0.0f) {
    float scale = max_norm / norm;
    for (const auto& p : params) {
      if (!p.has_grad()) continue;
      float* g = p.impl()->grad.data();
      for (int64_t j = 0; j < p.numel(); ++j) g[j] *= scale;
    }
  }
  return norm;
}

}  // namespace missl::optim
