#include "dnn/kernels.hpp"

#include <cmath>

#include "dnn/epilogue.hpp"

namespace vlacnn::dnn {

namespace {
// Registers used by the aux kernels. They are leaf kernels, so a fixed small
// allocation is safe (v0..v3).
constexpr vla::Vreg kV0 = 0, kV1 = 1, kV2 = 2;
}  // namespace

void fill_cpu(vla::VectorEngine& eng, std::size_t n, float alpha, float* x) {
  for (std::size_t i = 0; i < n;) {
    const std::size_t vl = eng.setvl(n - i);
    eng.vbroadcast(kV0, alpha);
    eng.vstore(kV0, x + i);
    eng.scalar_ops(2);  // induction + branch
    i += vl;
  }
}

void copy_cpu(vla::VectorEngine& eng, std::size_t n, const float* src,
              float* dst) {
  for (std::size_t i = 0; i < n;) {
    const std::size_t vl = eng.setvl(n - i);
    eng.vload(kV0, src + i);
    eng.vstore(kV0, dst + i);
    eng.scalar_ops(2);
    i += vl;
  }
}

void normalize_cpu(vla::VectorEngine& eng, float* x, const float* mean,
                   const float* variance, int channels, int spatial) {
  for (int c = 0; c < channels; ++c) {
    const float m = mean[c];
    const float inv_std = 1.0f / std::sqrt(variance[c] + EpilogueDesc::kBnEpsilon);
    eng.scalar_mem(mean + c, sizeof(float), false);
    eng.scalar_mem(variance + c, sizeof(float), false);
    float* xc = x + static_cast<std::size_t>(c) * spatial;
    for (int i = 0; i < spatial;) {
      const std::size_t vl = eng.setvl(static_cast<std::size_t>(spatial - i));
      eng.vload(kV0, xc + i);
      eng.vadd_scalar(kV1, kV0, -m);
      eng.vmul_scalar(kV2, kV1, inv_std);
      eng.vstore(kV2, xc + i);
      eng.scalar_ops(2);
      i += static_cast<int>(vl);
    }
  }
}

void normalize_ref(float* x, const float* mean, const float* variance,
                   int channels, int spatial) {
  for (int c = 0; c < channels; ++c) {
    const float inv_std = 1.0f / std::sqrt(variance[c] + EpilogueDesc::kBnEpsilon);
    for (int i = 0; i < spatial; ++i) {
      float& v = x[static_cast<std::size_t>(c) * spatial + i];
      v = (v - mean[c]) * inv_std;
    }
  }
}

void add_bias(vla::VectorEngine& eng, float* x, const float* bias,
              int channels, int spatial) {
  for (int c = 0; c < channels; ++c) {
    const float b = bias[c];
    eng.scalar_mem(bias + c, sizeof(float), false);
    float* xc = x + static_cast<std::size_t>(c) * spatial;
    for (int i = 0; i < spatial;) {
      const std::size_t vl = eng.setvl(static_cast<std::size_t>(spatial - i));
      eng.vload(kV0, xc + i);
      eng.vadd_scalar(kV1, kV0, b);
      eng.vstore(kV1, xc + i);
      eng.scalar_ops(2);
      i += static_cast<int>(vl);
    }
  }
}

void add_bias_ref(float* x, const float* bias, int channels, int spatial) {
  for (int c = 0; c < channels; ++c)
    for (int i = 0; i < spatial; ++i)
      x[static_cast<std::size_t>(c) * spatial + i] += bias[c];
}

void scale_bias(vla::VectorEngine& eng, float* x, const float* scale,
                int channels, int spatial) {
  for (int c = 0; c < channels; ++c) {
    const float s = scale[c];
    eng.scalar_mem(scale + c, sizeof(float), false);
    float* xc = x + static_cast<std::size_t>(c) * spatial;
    for (int i = 0; i < spatial;) {
      const std::size_t vl = eng.setvl(static_cast<std::size_t>(spatial - i));
      eng.vload(kV0, xc + i);
      eng.vmul_scalar(kV1, kV0, s);
      eng.vstore(kV1, xc + i);
      eng.scalar_ops(2);
      i += static_cast<int>(vl);
    }
  }
}

void scale_bias_ref(float* x, const float* scale, int channels, int spatial) {
  for (int c = 0; c < channels; ++c)
    for (int i = 0; i < spatial; ++i)
      x[static_cast<std::size_t>(c) * spatial + i] *= scale[c];
}

void activate_array(vla::VectorEngine& eng, float* x, std::size_t n,
                    Activation act) {
  if (act == Activation::Linear) return;
  if (act == Activation::Logistic) {
    // Transcendental: remains scalar (the compiler cannot vectorize it and
    // neither did the paper's kernels; it only appears on tiny YOLO heads).
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = activate_scalar(x[i], act);
      eng.scalar_ops(4);
    }
    eng.scalar_mem(x, n * sizeof(float), true);
    return;
  }
  for (std::size_t i = 0; i < n;) {
    const std::size_t vl = eng.setvl(n - i);
    eng.vload(kV0, x + i);
    if (act == Activation::Relu) {
      eng.vmax_scalar(kV1, kV0, 0.0f);
    } else {  // Leaky: max(x,0) + 0.1*min(x,0)
      eng.vmax_scalar(kV1, kV0, 0.0f);
      eng.vbroadcast(kV2, 0.0f);
      eng.vmin(kV2, kV0, kV2);
      eng.vfma_scalar(kV1, 0.1f, kV2);
    }
    eng.vstore(kV1, x + i);
    eng.scalar_ops(2);
    i += vl;
  }
}

void activate_ref(float* x, std::size_t n, Activation act) {
  for (std::size_t i = 0; i < n; ++i) x[i] = activate_scalar(x[i], act);
}

void axpy_cpu(vla::VectorEngine& eng, std::size_t n, float alpha,
              const float* x, float* y) {
  for (std::size_t i = 0; i < n;) {
    const std::size_t vl = eng.setvl(n - i);
    eng.vload(kV0, x + i);
    eng.vload(kV1, y + i);
    eng.vfma_scalar(kV1, alpha, kV0);
    eng.vstore(kV1, y + i);
    eng.scalar_ops(2);
    i += vl;
  }
}

}  // namespace vlacnn::dnn
