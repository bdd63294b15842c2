// Weight initialization helpers (Xavier/Glorot and normal schemes).
#ifndef MISSL_NN_INIT_H_
#define MISSL_NN_INIT_H_

#include "tensor/tensor.h"
#include "utils/rng.h"

namespace missl::nn {

/// Xavier-uniform initialized [fan_in, fan_out]-shaped matrix.
Tensor XavierUniform(Shape shape, Rng* rng);

/// Normal(0, stddev) initialization (used for embedding tables).
Tensor NormalInit(Shape shape, Rng* rng, float stddev = 0.02f);

}  // namespace missl::nn

#endif  // MISSL_NN_INIT_H_
