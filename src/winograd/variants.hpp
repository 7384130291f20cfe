#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace vlacnn::winograd {

/// Generic Winograd F(m x m, 3 x 3) machinery for the tile-size study.
///
/// The paper's §IV-B chooses the 8x8 tile (F(6x6,3x3)) and notes that
/// vectorizing with *larger* tiles would drop numerical accuracy — the very
/// reason the inter-tile scheme exists. These variants quantify that
/// trade-off: F(2x2,3x3) (4x4 tiles), F(4x4,3x3) (6x6 tiles) and
/// F(6x6,3x3) (8x8 tiles) share one generic implementation, so the
/// accuracy/arithmetic trade-off can be measured head-to-head
/// (`bench_paper --figure=tilesize`).
struct WinogradVariant {
  std::string name;
  int out_tile;   ///< m  (output tile edge)
  int in_tile;    ///< m + 2 (input tile edge for r = 3)
  /// Row-major transform matrices:
  ///   bt: in_tile x in_tile,  g: in_tile x 3,  at: out_tile x in_tile.
  std::vector<double> bt;
  std::vector<double> g;
  std::vector<double> at;

  /// Multiplications per output element relative to direct convolution
  /// (direct: 9 multiplies/output; Winograd: in_tile^2 / out_tile^2).
  [[nodiscard]] double arithmetic_reduction() const {
    const double direct = 9.0 * out_tile * out_tile;
    const double wino = static_cast<double>(in_tile) * in_tile;
    return direct / wino;
  }
};

/// F(2x2,3x3): 4x4 tiles, 2.25x fewer multiplies, minimal rounding error.
const WinogradVariant& f2x3();
/// F(4x4,3x3): 6x6 tiles, 4x fewer multiplies.
const WinogradVariant& f4x3();
/// F(6x6,3x3): 8x8 tiles, 5.06x fewer multiplies — the paper's choice.
const WinogradVariant& f6x3_variant();

/// Single-tile convolution through the variant's transforms:
/// out(m x m) = At . [ (G g Gt) ⊙ (Bt d B) ] . A, all in fp32 like the
/// production kernels (double is only used inside the transform matrices).
void variant_tile_conv(const WinogradVariant& v, const float* d_tile,
                       const float* g3x3, float* out_tile);

/// Full single-image convolution (one input channel, one filter, stride 1,
/// pad 1) via the variant's tiling. Reference-grade, used by the accuracy
/// study and tests.
void variant_conv2d(const WinogradVariant& v, const float* image, int h,
                    int w, const float* g3x3, float* out);

/// Max |winograd - direct| over a deterministic random image, the accuracy
/// metric of the tile-size study.
double variant_max_error(const WinogradVariant& v, int h, int w,
                         std::uint64_t seed, float magnitude = 1.0f);

}  // namespace vlacnn::winograd
