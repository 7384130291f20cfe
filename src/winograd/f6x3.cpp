#include "winograd/f6x3.hpp"

namespace vlacnn::winograd {

namespace {

/// tmp(R x 8) = T(R x C) * in(C x 8); all row-major, double accumulation.
template <int R, int C>
void left_multiply(const std::array<std::array<double, C>, R>& t,
                   const double* in, int in_cols, double* out) {
  for (int r = 0; r < R; ++r) {
    for (int j = 0; j < in_cols; ++j) {
      double acc = 0.0;
      for (int k = 0; k < C; ++k) acc += t[r][k] * in[k * in_cols + j];
      out[r * in_cols + j] = acc;
    }
  }
}

template <int N>
void transpose(const double* in, int rows, int cols, double* out) {
  (void)N;
  for (int r = 0; r < rows; ++r)
    for (int c = 0; c < cols; ++c) out[c * rows + r] = in[r * cols + c];
}

}  // namespace

void input_transform_ref(const float d[kTileElems], float out[kTileElems]) {
  double in[kTileElems], t1[kTileElems], t2[kTileElems], t3[kTileElems];
  for (int i = 0; i < kTileElems; ++i) in[i] = d[i];
  left_multiply<8, 8>(kBT, in, 8, t1);   // Bᵀ d
  transpose<8>(t1, 8, 8, t2);            // (Bᵀ d)ᵀ
  left_multiply<8, 8>(kBT, t2, 8, t3);   // Bᵀ (Bᵀ d)ᵀ = (Bᵀ d B)ᵀ
  transpose<8>(t3, 8, 8, t2);            // Bᵀ d B
  for (int i = 0; i < kTileElems; ++i) out[i] = static_cast<float>(t2[i]);
}

void weight_transform_ref(const float g[9], float out[kTileElems]) {
  double in[9], t1[24], t2[24], t3[kTileElems], t4[kTileElems];
  for (int i = 0; i < 9; ++i) in[i] = g[i];
  left_multiply<8, 3>(kG, in, 3, t1);    // G g            (8x3)
  transpose<8>(t1, 8, 3, t2);            // (G g)ᵀ         (3x8)
  left_multiply<8, 3>(kG, t2, 8, t3);    // G (G g)ᵀ = (G g Gᵀ)ᵀ (8x8)
  transpose<8>(t3, 8, 8, t4);            // G g Gᵀ
  for (int i = 0; i < kTileElems; ++i) out[i] = static_cast<float>(t4[i]);
}

}  // namespace vlacnn::winograd
