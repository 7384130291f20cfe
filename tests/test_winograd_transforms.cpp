// Winograd F(6x6,3x3) transform correctness: the scalar reference
// transforms must compute an exact 3x3 stride-1 convolution on a single
// tile, which validates the Bᵀ/G/Aᵀ matrices themselves.

#include <gtest/gtest.h>

#include <vector>

#include "test_util.hpp"
#include "winograd/f6x3.hpp"

namespace vlacnn::winograd {
namespace {

using test::allclose;
using test::random_vec;

/// out(6x6) = Aᵀ · m(8x8) · A in double precision: the scalar oracle of the
/// output transform.
void output_transform_ref(const float m[kTileElems], float out[36]) {
  double t[6][8];  // Aᵀ m
  for (int r = 0; r < 6; ++r)
    for (int j = 0; j < 8; ++j) {
      double acc = 0.0;
      for (int k = 0; k < 8; ++k) acc += kAT[r][k] * m[k * 8 + j];
      t[r][j] = acc;
    }
  for (int r = 0; r < 6; ++r)
    for (int c = 0; c < 6; ++c) {
      double acc = 0.0;
      for (int k = 0; k < 8; ++k) acc += t[r][k] * kAT[c][k];
      out[r * 6 + c] = static_cast<float>(acc);
    }
}

/// Direct 6x6 output of a 3x3 valid convolution on an 8x8 patch.
void direct_tile_conv(const float d[64], const float g[9], float out[36]) {
  for (int y = 0; y < 6; ++y) {
    for (int x = 0; x < 6; ++x) {
      double acc = 0.0;
      for (int ky = 0; ky < 3; ++ky)
        for (int kx = 0; kx < 3; ++kx)
          acc += static_cast<double>(g[ky * 3 + kx]) * d[(y + ky) * 8 + x + kx];
      out[y * 6 + x] = static_cast<float>(acc);
    }
  }
}

TEST(WinogradMatrices, SingleTileConvolutionExact) {
  auto d = random_vec(64, 1);
  auto g = random_vec(9, 2);
  float v[64], u[64], m[64], y[36], y_ref[36];

  input_transform_ref(d.data(), v);
  weight_transform_ref(g.data(), u);
  for (int i = 0; i < 64; ++i) m[i] = u[i] * v[i];
  output_transform_ref(m, y);
  direct_tile_conv(d.data(), g.data(), y_ref);
  EXPECT_TRUE(allclose(y_ref, y, 36, 1e-3f, 1e-3f));
}

TEST(WinogradMatrices, LinearityOfInputTransform) {
  auto d1 = random_vec(64, 3), d2 = random_vec(64, 4);
  float v1[64], v2[64], vsum[64];
  std::vector<float> dsum(64);
  for (int i = 0; i < 64; ++i) dsum[static_cast<std::size_t>(i)] = d1[static_cast<std::size_t>(i)] + d2[static_cast<std::size_t>(i)];
  input_transform_ref(d1.data(), v1);
  input_transform_ref(d2.data(), v2);
  input_transform_ref(dsum.data(), vsum);
  for (int i = 0; i < 64; ++i)
    EXPECT_NEAR(vsum[i], v1[i] + v2[i], 1e-3f) << i;
}

TEST(WinogradMatrices, ZeroInputsTransformToZero) {
  std::vector<float> zero(64, 0.0f);
  float v[64];
  input_transform_ref(zero.data(), v);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(v[i], 0.0f);

  std::vector<float> zg(9, 0.0f);
  float u[64];
  weight_transform_ref(zg.data(), u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(u[i], 0.0f);
}

TEST(WinogradMatrices, IdentityKernelPassesThrough) {
  // A 3x3 kernel with only the center tap = 1 shifts the patch by (1,1).
  float g[9] = {0, 0, 0, 0, 1, 0, 0, 0, 0};
  auto d = random_vec(64, 5);
  float v[64], u[64], m[64], y[36];
  input_transform_ref(d.data(), v);
  weight_transform_ref(g, u);
  for (int i = 0; i < 64; ++i) m[i] = u[i] * v[i];
  output_transform_ref(m, y);
  for (int r = 0; r < 6; ++r)
    for (int c = 0; c < 6; ++c)
      EXPECT_NEAR(y[r * 6 + c], d[static_cast<std::size_t>((r + 1) * 8 + c + 1)], 2e-3f);
}

TEST(WinogradMatrices, ConstantKernelSumsWindows) {
  float g[9];
  for (auto& x : g) x = 1.0f;
  auto d = random_vec(64, 6);
  float v[64], u[64], m[64], y[36];
  input_transform_ref(d.data(), v);
  weight_transform_ref(g, u);
  for (int i = 0; i < 64; ++i) m[i] = u[i] * v[i];
  output_transform_ref(m, y);
  for (int r = 0; r < 6; ++r) {
    for (int c = 0; c < 6; ++c) {
      double sum = 0.0;
      for (int ky = 0; ky < 3; ++ky)
        for (int kx = 0; kx < 3; ++kx)
          sum += d[static_cast<std::size_t>((r + ky) * 8 + c + kx)];
      EXPECT_NEAR(y[r * 6 + c], sum, 5e-3);
    }
  }
}

TEST(WinogradMatrices, ArithmeticReductionIsRealized) {
  // F(6x6,3x3): 64 tuple multiplies replace 36*9 = 324 direct multiplies.
  EXPECT_EQ(kTileElems, 64);
  EXPECT_EQ(kOutTile * kOutTile * 9, 324);
  EXPECT_LT(kTileElems * 5, kOutTile * kOutTile * 9);
}

}  // namespace
}  // namespace vlacnn::winograd
