// Adam over parameter tensors, plus global-norm gradient clipping: the
// optimizer surface train::Fit uses.
#ifndef MISSL_OPTIM_OPTIMIZER_H_
#define MISSL_OPTIM_OPTIMIZER_H_

#include <vector>

#include "tensor/tensor.h"

namespace missl::optim {

/// Adam (Kingma & Ba); parameters are captured at construction.
/// `weight_decay` is classic L2 added to the gradient.
class Adam {
 public:
  Adam(std::vector<Tensor> params, float lr, float beta1 = 0.9f,
       float beta2 = 0.999f, float eps = 1e-8f, float weight_decay = 0.0f);

  /// Applies one update using the parameters' accumulated gradients.
  /// Parameters with no allocated gradient buffer are skipped.
  void Step();

  /// Zeroes all parameter gradients.
  void ZeroGrad();

 private:
  std::vector<Tensor> params_;
  float lr_, beta1_, beta2_, eps_, weight_decay_;
  int64_t t_ = 0;
  std::vector<std::vector<float>> m_, v_;
};

/// Scales all gradients so their global L2 norm is at most `max_norm`.
/// Returns the pre-clip norm.
float ClipGradNorm(const std::vector<Tensor>& params, float max_norm);

}  // namespace missl::optim

#endif  // MISSL_OPTIM_OPTIMIZER_H_
