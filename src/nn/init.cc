#include "nn/init.h"

#include <cmath>

#include "utils/check.h"

namespace missl::nn {

namespace {
void FanInOut(const Shape& shape, float* fan_in, float* fan_out) {
  MISSL_CHECK(shape.size() >= 1) << "init on scalar shape";
  if (shape.size() == 1) {
    *fan_in = *fan_out = static_cast<float>(shape[0]);
    return;
  }
  // For [in, out] weight layout used by Linear (x @ W).
  *fan_in = static_cast<float>(shape[0]);
  *fan_out = static_cast<float>(shape[shape.size() - 1]);
}
}  // namespace

Tensor XavierUniform(Shape shape, Rng* rng) {
  float fan_in, fan_out;
  FanInOut(shape, &fan_in, &fan_out);
  float bound = std::sqrt(6.0f / (fan_in + fan_out));
  return Tensor::Rand(std::move(shape), rng, -bound, bound);
}

Tensor NormalInit(Shape shape, Rng* rng, float stddev) {
  return Tensor::Randn(std::move(shape), rng, stddev);
}

}  // namespace missl::nn
