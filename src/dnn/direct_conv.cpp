#include "dnn/direct_conv.hpp"

#include <algorithm>

namespace vlacnn::dnn {

void direct_conv_vla(vla::VectorEngine& eng, const ConvDesc& d,
                     const float* input, const float* weights, float* output) {
  const int oh = d.out_h(), ow = d.out_w();
  constexpr vla::Vreg kAcc = 0, kIn = 1;

  for (int oc = 0; oc < d.out_c; ++oc) {
    const float* w_oc =
        weights + static_cast<std::size_t>(oc) * d.in_c * d.ksize * d.ksize;
    float* out_oc = output + static_cast<std::size_t>(oc) * oh * ow;
    for (int y = 0; y < oh; ++y) {
      float* out_row = out_oc + static_cast<std::size_t>(y) * ow;
      eng.scalar_ops(2);
      for (int x = 0; x < ow;) {
        const auto vl =
            static_cast<int>(eng.setvl(static_cast<std::size_t>(ow - x)));
        eng.vload(kAcc, out_row + x);
        for (int ic = 0; ic < d.in_c; ++ic) {
          const float* in_ic =
              input + static_cast<std::size_t>(ic) * d.in_h * d.in_w;
          for (int ky = 0; ky < d.ksize; ++ky) {
            const int iy = y * d.stride + ky - d.pad;
            if (iy < 0 || iy >= d.in_h) continue;
            for (int kx = 0; kx < d.ksize; ++kx) {
              const int ix0 = x * d.stride + kx - d.pad;
              // Fast path: the whole strip is in-bounds and unit-stride.
              const int ix_last =
                  (x + vl - 1) * d.stride + kx - d.pad;
              const float* w_ptr =
                  w_oc + (static_cast<std::size_t>(ic) * d.ksize + ky) *
                             d.ksize +
                  kx;
              eng.scalar_mem(w_ptr, sizeof(float), false);
              const float wv = *w_ptr;
              if (ix0 >= 0 && ix_last < d.in_w) {
                const float* src =
                    in_ic + static_cast<std::size_t>(iy) * d.in_w + ix0;
                if (d.stride == 1)
                  eng.vload(kIn, src);
                else
                  eng.vload_strided(kIn, src, d.stride);
                eng.vfma_scalar(kAcc, wv, kIn);
              } else {
                // Edge strip: predicate-like handling through a gather of
                // clamped indices would be faithful SVE; a strided load of
                // the valid sub-range keeps it simple and correct.
                for (int l = 0; l < vl; ++l) {
                  const int ix = (x + l) * d.stride + kx - d.pad;
                  if (ix < 0 || ix >= d.in_w) continue;
                  eng.set_lane(kIn, static_cast<std::size_t>(l),
                               in_ic[static_cast<std::size_t>(iy) * d.in_w + ix]);
                  eng.set_lane(kAcc, static_cast<std::size_t>(l),
                               eng.lane(kAcc, static_cast<std::size_t>(l)) +
                                   wv * eng.lane(kIn, static_cast<std::size_t>(l)));
                }
                eng.scalar_ops(static_cast<std::uint64_t>(vl) * 2);
              }
            }
          }
        }
        eng.vstore(kAcc, out_row + x);
        eng.scalar_ops(2);
        x += vl;
      }
    }
  }
}

}  // namespace vlacnn::dnn
