#pragma once

#include <array>

namespace vlacnn::winograd {

/// Winograd F(6x6, 3x3) minimal-filtering transform matrices over the
/// interpolation points {0, ±1, ±2, ±1/2, ∞} — the same tile configuration
/// NNPACK uses (8x8 input tile, 3x3 kernel, 6x6 output tile).
///
/// V = Bᵀ d B   (input transform,  d: 8x8)
/// U = G g Gᵀ   (weight transform, g: 3x3)
/// Y = Aᵀ m A   (output transform, m: 8x8, Y: 6x6)

inline constexpr int kTile = 8;      ///< input tile edge
inline constexpr int kOutTile = 6;   ///< output tile edge
inline constexpr int kTileElems = kTile * kTile;  ///< 64 tuple elements

inline constexpr std::array<std::array<double, 8>, 8> kBT = {{
    {1.0, 0.0, -21.0 / 4, 0.0, 21.0 / 4, 0.0, -1.0, 0.0},
    {0.0, 1.0, 1.0, -17.0 / 4, -17.0 / 4, 1.0, 1.0, 0.0},
    {0.0, -1.0, 1.0, 17.0 / 4, -17.0 / 4, -1.0, 1.0, 0.0},
    {0.0, 0.5, 0.25, -5.0 / 2, -5.0 / 4, 2.0, 1.0, 0.0},
    {0.0, -0.5, 0.25, 5.0 / 2, -5.0 / 4, -2.0, 1.0, 0.0},
    {0.0, 2.0, 4.0, -5.0 / 2, -5.0, 0.5, 1.0, 0.0},
    {0.0, -2.0, 4.0, 5.0 / 2, -5.0, -0.5, 1.0, 0.0},
    {0.0, -1.0, 0.0, 21.0 / 4, 0.0, -21.0 / 4, 0.0, 1.0},
}};

inline constexpr std::array<std::array<double, 3>, 8> kG = {{
    {1.0, 0.0, 0.0},
    {-2.0 / 9, -2.0 / 9, -2.0 / 9},
    {-2.0 / 9, 2.0 / 9, -2.0 / 9},
    {1.0 / 90, 1.0 / 45, 2.0 / 45},
    {1.0 / 90, -1.0 / 45, 2.0 / 45},
    {32.0 / 45, 16.0 / 45, 8.0 / 45},
    {32.0 / 45, -16.0 / 45, 8.0 / 45},
    {0.0, 0.0, 1.0},
}};

inline constexpr std::array<std::array<double, 8>, 6> kAT = {{
    {1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0},
    {0.0, 1.0, -1.0, 2.0, -2.0, 0.5, -0.5, 0.0},
    {0.0, 1.0, 1.0, 4.0, 4.0, 0.25, 0.25, 0.0},
    {0.0, 1.0, -1.0, 8.0, -8.0, 0.125, -0.125, 0.0},
    {0.0, 1.0, 1.0, 16.0, 16.0, 1.0 / 16, 1.0 / 16, 0.0},
    {0.0, 1.0, -1.0, 32.0, -32.0, 1.0 / 32, -1.0 / 32, 1.0},
}};

/// Scalar reference transforms (the offline weight transform and the
/// transform micro-benchmark's baseline). Both operate on row-major tiles.

/// out(8x8) = Bᵀ · d(8x8) · B
void input_transform_ref(const float d[kTileElems], float out[kTileElems]);

/// out(8x8) = G · g(3x3) · Gᵀ
void weight_transform_ref(const float g[9], float out[kTileElems]);

}  // namespace vlacnn::winograd
