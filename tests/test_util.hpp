#pragma once

#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "core/conv_engine.hpp"
#include "dnn/conv_desc.hpp"
#include "dnn/network.hpp"

namespace vlacnn::test {

/// Direct (naive sliding-window) convolution reference: the ground truth
/// both the im2col+GEMM path and the Winograd path must match.
inline void conv_direct_ref(const dnn::ConvDesc& d, const float* input,
                            const float* weights, float* output) {
  const int oh = d.out_h(), ow = d.out_w();
  for (int oc = 0; oc < d.out_c; ++oc) {
    for (int y = 0; y < oh; ++y) {
      for (int x = 0; x < ow; ++x) {
        double acc = 0.0;
        for (int ic = 0; ic < d.in_c; ++ic) {
          for (int ky = 0; ky < d.ksize; ++ky) {
            const int iy = y * d.stride + ky - d.pad;
            if (iy < 0 || iy >= d.in_h) continue;
            for (int kx = 0; kx < d.ksize; ++kx) {
              const int ix = x * d.stride + kx - d.pad;
              if (ix < 0 || ix >= d.in_w) continue;
              const float w =
                  weights[((static_cast<std::size_t>(oc) * d.in_c + ic) *
                               d.ksize +
                           ky) *
                              d.ksize +
                          kx];
              const float v =
                  input[(static_cast<std::size_t>(ic) * d.in_h + iy) * d.in_w +
                        ix];
              acc += static_cast<double>(w) * v;
            }
          }
        }
        output[(static_cast<std::size_t>(oc) * oh + y) * ow + x] =
            static_cast<float>(acc);
      }
    }
  }
}

inline std::vector<float> random_vec(std::size_t n, std::uint64_t seed,
                                     float lo = -1.0f, float hi = 1.0f) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = rng.uniform(lo, hi);
  return v;
}

inline float max_abs_diff(const float* a, const float* b, std::size_t n) {
  float m = 0.0f;
  for (std::size_t i = 0; i < n; ++i) m = std::max(m, std::fabs(a[i] - b[i]));
  return m;
}

/// Relative tolerance check that scales with the magnitude of the data —
/// Winograd's transform arithmetic legitimately reorders float additions.
inline bool allclose(const float* a, const float* b, std::size_t n,
                     float rtol = 1e-4f, float atol = 1e-4f) {
  for (std::size_t i = 0; i < n; ++i) {
    const float diff = std::fabs(a[i] - b[i]);
    const float bound = atol + rtol * std::max(std::fabs(a[i]), std::fabs(b[i]));
    if (diff > bound) return false;
  }
  return true;
}

/// The reference every BatchScheduler run must equal bit for bit: one
/// sequential Network::forward on one ExecContext under `plan`, with the
/// weights prepared first as the scheduler prepares them.
inline std::vector<float> sequential_forward(dnn::Network& net,
                                             const core::BackendPlan& plan,
                                             const dnn::Tensor& input,
                                             unsigned vlen_bits = 512) {
  vla::VectorEngine eng(vlen_bits);
  dnn::ExecContext ctx(eng);
  core::ConvolutionEngine engine(plan);
  engine.install(ctx);
  engine.prepare(net);
  const dnn::Tensor& out = net.forward(ctx, input);
  return {out.data(), out.data() + out.size()};
}

}  // namespace vlacnn::test
