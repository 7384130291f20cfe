#pragma once

#include <cstddef>

#include "dnn/activation.hpp"
#include "vla/vector_engine.hpp"

namespace vlacnn::dnn {

/// VLA-vectorized versions of every auxiliary kernel of the Darknet
/// convolutional layer (paper §II-B: fill_cpu, copy_cpu, normalize_cpu,
/// add_bias, scale_bias, activate_array). The epilogue kernels have a
/// scalar reference counterpart (suffix `_ref`) that the unvectorized
/// baseline configuration runs.

// x[0..n) = alpha
void fill_cpu(vla::VectorEngine& eng, std::size_t n, float alpha, float* x);

// dst[0..n) = src[0..n)
void copy_cpu(vla::VectorEngine& eng, std::size_t n, const float* src,
              float* dst);

// x[c][i] = (x[c][i] - mean[c]) / sqrt(var[c] + eps), spatial size per channel
void normalize_cpu(vla::VectorEngine& eng, float* x, const float* mean,
                   const float* variance, int channels, int spatial);
void normalize_ref(float* x, const float* mean, const float* variance,
                   int channels, int spatial);

// x[c][i] += bias[c]
void add_bias(vla::VectorEngine& eng, float* x, const float* bias,
              int channels, int spatial);
void add_bias_ref(float* x, const float* bias, int channels, int spatial);

// x[c][i] *= scale[c]
void scale_bias(vla::VectorEngine& eng, float* x, const float* scale,
                int channels, int spatial);
void scale_bias_ref(float* x, const float* scale, int channels, int spatial);

// x[i] = act(x[i])
void activate_array(vla::VectorEngine& eng, float* x, std::size_t n,
                    Activation act);
void activate_ref(float* x, std::size_t n, Activation act);

// out[i] += in[i] (shortcut layers)
void axpy_cpu(vla::VectorEngine& eng, std::size_t n, float alpha,
              const float* x, float* y);

}  // namespace vlacnn::dnn
