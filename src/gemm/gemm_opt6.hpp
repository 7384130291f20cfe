#pragma once

#include <vector>

#include "common/aligned_buffer.hpp"
#include "dnn/conv_desc.hpp"
#include "dnn/epilogue.hpp"
#include "gemm/blocking.hpp"
#include "gemm/packed_weight_cache.hpp"
#include "sim/address_map.hpp"
#include "vla/vector_engine.hpp"

namespace vlacnn::gemm {

/// Feature toggles of the 6-loop implementation, for the ablation study:
/// the paper's Fig. 3 applies all of them together.
struct Opt6Config {
  BlockSizes blocks{};
  int unroll_factor = 16;
  bool pack_a = true;
  bool pack_b = true;
  bool prefetch = true;  // emits prefetch hints (effective only on A64FX)
};

/// Optimized 6-loop BLIS-like GEMM (paper Fig. 3): tiles A/B/C into
/// blockM x blockN x blockK panels, packs the A and B panels into
/// contiguous buffers with vectorized copies, prefetches the C tile into L1
/// and the packed panels into L2/L1, and runs the same unrolled
/// vector-scalar-FMA micro-kernel as the 3-loop implementation on the
/// packed data.
///
/// A Gemm6 instance owns mutable packing buffers and must only be driven by
/// one thread at a time (core::ConvolutionEngine::install() hands each
/// ExecContext its own instance).
class Gemm6 {
 public:
  explicit Gemm6(const Opt6Config& cfg = {});

  /// C(MxN) += alpha * A(MxK) * B(KxN). A is treated as anonymous data —
  /// the pack-once weight cache is NOT consulted (see gemm_weights).
  void operator()(vla::VectorEngine& eng, int M, int N, int K, float alpha,
                  const float* A, int lda, const float* B, int ldb, float* C,
                  int ldc);

  /// Same contract as operator(), for call sites that KNOW `A` is a layer's
  /// weight matrix: the pack-once cache is consulted and a resident image's
  /// panels are consumed directly. Kept separate so generic GEMM calls
  /// (notably the FC layers', whose A is an activation matrix) never take
  /// the shared cache mutex or pollute its hit/miss stats — residency is
  /// signalled by the caller, not guessed from shapes.
  void gemm_weights(vla::VectorEngine& eng, int M, int N, int K, float alpha,
                    const float* A, int lda, const float* B, int ldb,
                    float* C, int ldc);

  /// Fused convolution: output = epi(weights · im2col(input)) in one pass.
  ///
  /// The B matrix of the conv GEMM is never materialized — the B-pack stage
  /// gathers im2col patches per (kc, nc) panel straight from the input
  /// tensor (im2col_pack_segment), the first k-panel stores the C tile with
  /// beta=0 (eliminating the fill pass), and `epi` (BN / bias / activation)
  /// is applied on the last k-panel while the tile is still in registers.
  /// 1x1/stride-1 layers use the input as a dense B with the same beta=0 +
  /// epilogue treatment. Bit-identical to the unfused fill + im2col +
  /// operator() + post-pass pipeline.
  ///
  /// Returns false (declining the layer) when `pack_b` is disabled — the
  /// implicit gather IS the pack stage, so the ablation configuration that
  /// removes packing has no fused equivalent.
  ///
  /// `weight_format` requests a reduced-precision resident weight image
  /// (Bf16 / Int8PerChannel): the micro-kernel consumes the quantized
  /// panels directly, widening each A element to fp32 on load (bf16: exact
  /// bit shift; int8: integer-domain accumulation with the per-channel
  /// dequantization scale folded into the epilogue's channel constants, so
  /// the epilogue stays one pass). Activations, accumulation and C stay
  /// fp32. If no image of that format is resident the call falls back to
  /// the fp32 path — quantization never happens on the hot path.
  ///
  /// The sparse formats (SparseF32 / SparseBf16, looked up at the density
  /// set via set_sparsity_pm) route the A side through the skip-aware
  /// micro-kernel: per 4-row block it reads the panel's occupancy bitmap
  /// and walks only the kept 16-column chunks of the compacted value
  /// stream — a pruned block skips both its A loads and its FMA run, so
  /// weight traffic AND MACs scale with density. The epilogue is unchanged
  /// (beta0 stores and the one-pass EpilogueDesc run for every row block,
  /// occupied or not), and a sparse miss falls back to the dense chain
  /// like any other non-resident format.
  bool conv_fused(vla::VectorEngine& eng, const dnn::ConvDesc& d,
                  const float* weights, const float* input, float* output,
                  const dnn::EpilogueDesc* epi,
                  PackFormat weight_format = PackFormat::F32);

  /// Batch-fused convolution for weight-bound layers: one fused-GEMM pass
  /// over the logical N' = N×batch column space — the im2col (or dense 1x1)
  /// B matrices of all batch items concatenated along the column axis — so
  /// every A panel that becomes cache-resident is reused batch× instead of
  /// being re-streamed per item. The batched C (M×N') is staged in an
  /// internal buffer and scattered back to the per-item output slices with
  /// vector copies; `epi` (which must not carry a residual — the caller
  /// applies residual adds per item, after the scatter) is applied in-kernel
  /// exactly as conv_fused would. Bit-identical to running conv_fused item
  /// by item: the per-element k-accumulation order is unchanged, only the
  /// strip grouping differs, and every vector op is lane-independent.
  ///
  /// `input`/`output` point at item 0; items are `in_item_stride` /
  /// `out_item_stride` floats apart. Returns false (declining) when packing
  /// is disabled or batch < 2 — the caller keeps the per-item path.
  bool conv_fused_batch(vla::VectorEngine& eng, const dnn::ConvDesc& d,
                        const float* weights, const float* input,
                        std::size_t in_item_stride, float* output,
                        std::size_t out_item_stride, int batch,
                        const dnn::EpilogueDesc* epi,
                        PackFormat weight_format = PackFormat::F32);

  /// Wires the engine-shared pack-once weight cache: run_blocked then
  /// consults it per call (keyed by the A pointer and blocking config) and
  /// consumes resident A panels directly, skipping pack_a_panel on the hot
  /// path.
  void set_weight_cache(PackedWeightCache* cache) { weight_cache_ = cache; }

  /// Block-prune density (per-mille) used to key sparse-format residency
  /// lookups; a plan's sparsity is installed here once, not threaded through
  /// every conv_fused call.
  void set_sparsity_pm(int pm) { sparsity_pm_ = pm; }
  [[nodiscard]] int sparsity_pm() const { return sparsity_pm_; }

  [[nodiscard]] const Opt6Config& config() const { return cfg_; }

 private:
  /// Column-concatenated per-item B view of a batch-fused conv: global
  /// column jg maps to item jg / n_item, local column jg % n_item.
  struct BatchB {
    const float* input;       ///< item 0 (input image, or dense 1x1 B)
    std::size_t item_stride;  ///< floats between consecutive items
    int n_item;               ///< per-item N
    bool dense;               ///< 1x1/s1/p0: the input rows ARE the B rows
  };

  /// The A panel a micro-kernel invocation consumes: run-time packed
  /// buffers and streamed A are fp32; a resident cache image keeps its own
  /// storage format, which run_blocked passes to the micro-kernel to widen
  /// on load.
  struct APanel {
    const void* data = nullptr;
    int stride = 0;  ///< row stride in ELEMENTS (kc when packed, lda else)
    /// Sparse resident image + the panel's column origin: the micro-kernel
    /// reads the (panel, row-block) bitmap/offset words itself. data/stride
    /// are unused when set.
    const PackedWeights* sparse = nullptr;
    int k1 = 0;
  };

  void run_blocked(vla::VectorEngine& eng, int M, int N, int K, float alpha,
                   const float* A, int lda, const float* B, int ldb,
                   const dnn::ConvDesc* conv, const float* conv_input,
                   float* C, int ldc, bool beta0, const dnn::EpilogueDesc* epi,
                   const BatchB* bb, bool a_is_weights, PackFormat a_fmt);
  void pack_b_panel(vla::VectorEngine& eng, const float* B, int ldb, int k0,
                    int kc, int j0, int nc);
  void pack_b_panel_implicit(vla::VectorEngine& eng, const dnn::ConvDesc& d,
                             const float* input, int k0, int kc, int j0,
                             int nc);
  void pack_b_panel_batched(vla::VectorEngine& eng, const BatchB& bb,
                            const dnn::ConvDesc* conv, int k0, int kc, int j0,
                            int nc);
  void pack_a_panel(vla::VectorEngine& eng, const float* A, int lda, int i0,
                    int mc, int k0, int kc);
  /// Dense micro-kernel over A elements stored in `fmt` (F32 / Bf16 /
  /// Int8PerChannel); alpha != 1 scales every A element.
  void micro_kernel(vla::VectorEngine& eng, PackFormat fmt, int mc, int nc,
                    int kc, float alpha, const APanel& a,
                    const float* b_panel, int b_stride, float* C, int ldc,
                    int i0, int j0, bool beta0, const dnn::EpilogueDesc* epi);
  /// Skip-aware variant consuming a sparse resident image (a.sparse set,
  /// fmt = SparseF32 / SparseBf16, alpha = 1): walks only occupied 4×16
  /// blocks of each A panel.
  void micro_kernel_sparse(vla::VectorEngine& eng, PackFormat fmt, int mc,
                           int nc, int kc, const APanel& a,
                           const float* b_panel, int b_stride, float* C,
                           int ldc, int i0, int j0, bool beta0,
                           const dnn::EpilogueDesc* epi);
  /// The two ends of one rows x gvl C tile at (ci, cj), shared by both
  /// micro-kernels, around their k-loop: C / A / B prefetch and the
  /// accumulator init (beta0 zero or C load), then the fused epilogue and
  /// the store.
  void tile_open(vla::VectorEngine& eng, int rows, int gvl, float* C, int ldc,
                 int ci, int cj, bool beta0, const void* a_pf,
                 std::size_t a_pf_bytes, const float* b_pf);
  void tile_close(vla::VectorEngine& eng, int rows, float* C, int ldc, int ci,
                  int cj, const dnn::EpilogueDesc* epi);

  Opt6Config cfg_;
  AlignedBuffer<float> pack_a_buf_;
  AlignedBuffer<float> pack_b_buf_;
  AlignedBuffer<float> batch_c_buf_;  ///< staged M×N' of conv_fused_batch
  sim::RegisteredRange pa_reg_, pb_reg_, bc_reg_;
  PackedWeightCache* weight_cache_ = nullptr;
  int sparsity_pm_ = 1000;

  /// Per-channel fused-epilogue constants, filled once per run_blocked call
  /// and read-only in the microkernel.
  std::vector<dnn::EpilogueDesc::ChannelParams> epi_params_;
};

}  // namespace vlacnn::gemm
