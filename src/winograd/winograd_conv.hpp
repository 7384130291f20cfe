#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "dnn/conv_desc.hpp"
#include "dnn/epilogue.hpp"
#include "sim/address_map.hpp"
#include "vla/vector_engine.hpp"
#include "winograd/weight_cache.hpp"

namespace vlacnn::winograd {

/// VLA-vectorized Winograd F(6x6,3x3) convolution with the paper's
/// inter-tile parallelization across channels (§IV-B, Fig. 4/5).
///
/// Vectorizing an 8x8 tile transform alone cannot fill a long vector
/// register without growing the tile (which hurts numerical accuracy), so
/// the transforms process one row of the 8x8 tile from `VL/4` channels at
/// once: with a 512-bit register (16 fp32 lanes) a group of 4 channels fills
/// two registers per row (elements 0..3 in "buff1", 4..7 in "buff2"); a
/// 2048-bit register uses 16 channels. Tile transposes between the two
/// transform passes use gather loads from a small scratch buffer (the
/// store+gather formulation of §VII on RVV; SVE tuple transposes are
/// timing-equivalent here to within second order). The tuple multiplication
/// vectorizes across the 64 tuple elements — 16 blocks of 4 elements, which
/// is exactly one 2048-bit register (§IV-B).
///
/// The weight transform runs offline (scalar, uninstrumented) and is cached
/// per weight pointer in a WeightCache, matching the paper's measurement
/// protocol of excluding it from inference time (§VII-A). The cache may be
/// shared (read-only after a prepare step) between the per-thread instances
/// the batched runtime installs; all other state — V/M buffers and stage
/// scratch — is owned per instance, so one WinogradConv must only ever be
/// driven by one thread at a time.
class WinogradConv {
 public:
  /// `shared_cache` may outlive-scope-share transformed weights between
  /// instances; nullptr gives the instance its own private cache.
  explicit WinogradConv(WeightCache* shared_cache = nullptr);

  /// True for the layers this algorithm handles: 3x3 kernels with pad 1 and
  /// stride 1 or 2 (stride 2 is computed as dense stride-1 Winograd followed
  /// by subsampling, which is why the paper measures it slower than GEMM).
  [[nodiscard]] static bool supports(const dnn::ConvDesc& d);

  /// Runs the convolution: output = conv(input, weights). With `epi`
  /// non-null the epilogue (BN / bias / activation) is fused into the
  /// output transform — applied on the stage registers right before the
  /// output scatter (stride-2: on the subsampling pass) instead of as
  /// separate passes re-streaming the output tensor. With a null `epi` the
  /// raw convolution is written and bias/BN/activation remain the caller's
  /// concern (the ConvLayer applies them afterwards).
  void run(vla::VectorEngine& eng, const dnn::ConvDesc& d, const float* input,
           const float* weights, float* output,
           const dnn::EpilogueDesc* epi = nullptr);

  /// Drops cached transformed weights (e.g. after mutating weights in tests).
  void invalidate_weight_cache() { cache_->clear(); }

  [[nodiscard]] WeightCache& weight_cache() { return *cache_; }

 private:
  struct Plan {
    int tiles_x = 0, tiles_y = 0, tiles = 0;
    int group = 1;        ///< channels per inter-tile group
    std::size_t vecw = 4; ///< active vector width = 4*group
  };

  struct IndexTables {
    // All gather/scatter index vectors are per (half*8 + row).
    std::vector<std::int32_t> transpose_idx;   // 16 x vecw, from scratch
    std::vector<std::int32_t> chan_idx;        // 16 x vecw, V/M <-> tiles
    std::vector<std::int32_t> in_pack_idx;     // vecw, image gather
    std::vector<std::int32_t> out_scatter1;    // vecw, cols 0..3
    std::vector<std::int32_t> out_compact;     // 2*group, lane compaction
    std::vector<std::int32_t> out_scatter2;    // 2*group, cols 4..5
  };

  /// Stage scratch: the edge-tile pack buffer, the transpose spill buffer,
  /// and the per-lane epilogue parameter vectors.
  struct StageScratch {
    AlignedBuffer<float> pack;     // 16 x vecw packed rows (edge tiles)
    AlignedBuffer<float> spill;    // 16 x vecw stage output
    AlignedBuffer<float> epi;      // 4 x vecw: -mean | inv_std | scale | bias
    sim::RegisteredRange pack_reg, spill_reg, epi_reg;

    void ensure(std::size_t vecw);
  };

  Plan make_plan(const dnn::ConvDesc& d) const;
  IndexTables make_tables(const dnn::ConvDesc& d, const Plan& plan) const;

  void transform_input(vla::VectorEngine& eng, const dnn::ConvDesc& d,
                       const Plan& plan, const IndexTables& tbl,
                       const float* input);
  void tuple_multiply(vla::VectorEngine& eng, const dnn::ConvDesc& d,
                      const Plan& plan, const float* u);
  void transform_output(vla::VectorEngine& eng, const dnn::ConvDesc& d,
                        const Plan& plan, const IndexTables& tbl,
                        float* output, const dnn::EpilogueDesc* epi);

  /// Applies one transform pass (row combinations of matrix `t`) to the 16
  /// packed input registers v0..v15, writing v16..v16+rows-1 / v24..
  void stage_pass(vla::VectorEngine& eng, const double (*t)[8], int rows_out,
                  std::size_t vecw);

  AlignedBuffer<float> v_buf_;       // V[ic][tile][64]
  AlignedBuffer<float> m_buf_;       // M[oc][tile][64]
  AlignedBuffer<float> s1_out_;      // stride-2: dense stride-1 output
  sim::RegisteredRange v_reg_, m_reg_, s1_reg_;

  StageScratch scratch_;

  WeightCache* cache_;
  std::unique_ptr<WeightCache> owned_cache_;
};

}  // namespace vlacnn::winograd
