#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "dnn/conv_desc.hpp"
#include "dnn/epilogue.hpp"
#include "sim/address_map.hpp"
#include "vla/vector_engine.hpp"

namespace vlacnn::dnn {

/// C(M×N) += alpha · A(M×K) · B(K×N); row-major with leading dimensions.
/// This matches Darknet's gemm_nn contract used by the convolutional layer.
using GemmFn = std::function<void(vla::VectorEngine&, int M, int N, int K,
                                  float alpha, const float* A, int lda,
                                  const float* B, int ldb, float* C, int ldc)>;

/// What a convolution backend did with a layer it was offered.
enum class ConvStatus {
  Declined,  ///< no backend installed/ran; caller runs the base im2col+GEMM
  Ran,       ///< raw convolution written; caller applies BN/bias/activation
  RanFused,  ///< convolution written with `epi` already applied in-kernel
};

class ExecContext;

/// Compiled per-layer backend dispatch (installed by
/// core::ConvolutionEngine::install from a core::BackendPlan): routes the
/// layer's shape to its planned backend — im2col+GEMM (3-loop / 6-loop),
/// fused implicit-GEMM, (fused) Winograd, or direct convolution. `epi`
/// describes the layer's post-GEMM work; a fusing backend applies it on the
/// output tile while it is still in registers and returns RanFused, a
/// non-fusing one ignores it and returns Ran. Declined means no backend ran
/// and the caller falls back to its own im2col + `ctx.gemm` pipeline —
/// mirroring the paper's per-layer algorithm selection (§VII).
using ConvBackendFn = std::function<ConvStatus(
    ExecContext&, const ConvDesc&, const float* input, const float* weights,
    float* output, const EpilogueDesc& epi)>;

/// Batch-fused convolution dispatch (installed alongside ConvBackendFn for
/// plans with weight-resident layers): runs the layer once for `batch`
/// items — the per-item im2col matrices concatenated logically along the
/// GEMM N axis — so each resident weight panel is reused batch× instead of
/// being re-streamed per item. `input`/`output` point at the first item of
/// the range and items are the given strides (in floats) apart; `epi` must not carry a residual
/// (the caller applies residual adds per item afterwards). Declined means
/// the layer is not weight-resident (or the backend cannot batch-fuse it)
/// and the caller keeps the per-item path.
using ConvBatchFn = std::function<ConvStatus(
    ExecContext&, const ConvDesc&, const float* input,
    std::size_t in_item_stride, const float* weights, float* output,
    std::size_t out_item_stride, int batch, const EpilogueDesc& epi)>;

/// Names the backend the dispatch table routes `d` to (for LayerRecords).
using ConvLabelFn = std::function<const char*(const ConvDesc&)>;

/// Per-layer record filled during a forward pass.
struct LayerRecord {
  std::string name;
  std::string algo;          // "im2col+gemm", "winograd", "maxpool", ...
  double flops = 0.0;        // total over all batch items this record covers
  int items = 1;             // batch items aggregated into this record
  std::uint64_t cycles = 0;  // simulated cycles spent in this layer (0 if
                             // running without a SimContext)
  double wall_seconds = 0.0; // host wall-clock (filled by the batch
                             // scheduler; 0 in simulated runs)
};

/// Deterministically merges partial records of the same layer sequence:
/// `parts` is one records-vector per work share (runtime::WorkGraph passes
/// one per item chunk), every non-empty one covering the same layers in the
/// same order. Items/flops/cycles are summed in part order, wall_seconds
/// takes the max (the layer finishes with its slowest share), so the result
/// is independent of thread scheduling.
inline std::vector<LayerRecord> merge_layer_records(
    const std::vector<std::vector<LayerRecord>>& parts) {
  std::vector<LayerRecord> merged;
  for (const auto& part : parts) {
    if (part.empty()) continue;
    if (merged.empty()) {
      merged = part;
      continue;
    }
    VLACNN_REQUIRE(part.size() == merged.size(),
                   "cannot merge record sequences of different lengths");
    for (std::size_t i = 0; i < part.size(); ++i) {
      VLACNN_REQUIRE(part[i].name == merged[i].name,
                     "cannot merge records of different layers");
      merged[i].flops += part[i].flops;
      merged[i].items += part[i].items;
      merged[i].cycles += part[i].cycles;
      merged[i].wall_seconds =
          std::max(merged[i].wall_seconds, part[i].wall_seconds);
    }
  }
  return merged;
}

/// Everything a layer needs to run: the vector engine (and through it the
/// optional simulator), the GEMM implementation, the optional compiled
/// backend dispatch, and a per-context im2col workspace.
///
/// An ExecContext is single-threaded state: the workspace, the GEMM packing
/// buffers captured inside `gemm`, and the Winograd scratch captured inside
/// `conv_backend` are all scribbled on during forward passes. Concurrent
/// workers must each own one (see runtime::BatchScheduler), which is why
/// core::ConvolutionEngine::install() materializes fresh per-context
/// algorithm state instead of sharing one instance.
class ExecContext {
 public:
  explicit ExecContext(vla::VectorEngine& engine) : engine_(&engine) {}

  [[nodiscard]] vla::VectorEngine& engine() { return *engine_; }

  GemmFn gemm;              // required before running conv/connected layers
  ConvBackendFn conv_backend;  // compiled per-layer dispatch (optional)
  ConvBatchFn conv_batch;      // batch-fused weight-resident path (optional)
  ConvLabelFn conv_label;      // backend names for LayerRecords (optional)
  bool vectorize_aux_kernels = true;  // paper vectorizes all conv-layer kernels

  /// Grows (never shrinks) the im2col scratch buffer. Growth is geometric
  /// (at least 1.5x the previous capacity) so a network whose layers request
  /// successively larger workspaces triggers O(log) reallocations instead of
  /// one per layer; each resize re-registers the range with the simulator
  /// exactly once and re-establishes AlignedBuffer's 256-byte alignment.
  float* workspace(std::size_t floats) {
    if (workspace_.size() < floats) {
      const std::size_t grown = workspace_.size() + workspace_.size() / 2;
      const std::size_t cap = std::max(floats, grown);
      workspace_reg_ = {};  // unregister before the buffer is reallocated
      workspace_.resize(cap);
      workspace_reg_ = sim::RegisteredRange(workspace_.data(),
                                            workspace_.size() * sizeof(float));
    }
    return workspace_.data();
  }

  /// Current workspace capacity in floats (for tests).
  [[nodiscard]] std::size_t workspace_capacity() const {
    return workspace_.size();
  }

  std::vector<LayerRecord> records;

 private:
  vla::VectorEngine* engine_;
  AlignedBuffer<float> workspace_;
  sim::RegisteredRange workspace_reg_;
};

}  // namespace vlacnn::dnn
