#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "dnn/conv_desc.hpp"
#include "gemm/gemm_opt3.hpp"
#include "gemm/gemm_opt6.hpp"

namespace vlacnn::core {

struct EnginePolicy;

/// Convolution backends a layer can be dispatched to — the algorithm
/// portfolio of the paper's §VII-A conclusion ("convolutional layers
/// require careful algorithmic selection related to kernel sizes and
/// strides") plus the fused pipelines PR 2 built. The Fused* kinds carry
/// the epilogue-fusion flag: they apply BN/bias/activation (and a folded
/// residual add) on the output tile in registers instead of as post-passes.
enum class Backend {
  Naive,          ///< scalar Darknet baseline GEMM (paper Fig. 1)
  Gemm3,          ///< im2col + vectorized 3-loop GEMM (Fig. 2)
  Gemm6,          ///< im2col + blocked/packed 6-loop GEMM (Fig. 3)
  FusedGemm6,     ///< implicit-GEMM packing + in-kernel epilogue
  Winograd,       ///< F(6x6,3x3), epilogue as post-passes
  FusedWinograd,  ///< F(6x6,3x3), epilogue on the output transform
  Direct,         ///< direct convolution (no im2col; best for tiny channels)
  Gemm6Bf16,      ///< FusedGemm6 over a bf16 resident weight image
  Gemm6Int8,      ///< FusedGemm6 over an int8 per-channel resident image
  Gemm6Sparse,    ///< FusedGemm6 over a block-sparse fp32 resident image
  Gemm6SparseBf16,///< block-sparse resident image with bf16 values
};

const char* to_string(Backend b);

/// True for the backends that apply the epilogue in-kernel.
[[nodiscard]] bool backend_fuses(Backend b);

/// True for the Gemm6 fused/unfused/quantized family — the backends that
/// can consume a pack-once resident weight image.
[[nodiscard]] bool backend_gemm6_family(Backend b);

/// True for the reduced-precision (weight-only quantized) backends. These
/// are the only backends exempt from the fp32 bit-exactness contract; their
/// outputs are instead held to the selector's accuracy budget.
[[nodiscard]] bool backend_quantized(Backend b);

/// True for the block-sparse (magnitude-pruned) backends. Like the
/// quantized kinds they are accuracy-budgeted and residency-or-nothing;
/// unlike them Gemm6Sparse stays bit-identical to dense FusedGemm6 over the
/// block-pruned weights — the lossy step is the prune, not the kernel.
[[nodiscard]] bool backend_sparse(Backend b);

/// Storage format of the resident weight image backend `b` consumes.
[[nodiscard]] gemm::PackFormat backend_pack_format(Backend b);

/// Maps a Gemm6-family backend to the variant consuming `fmt`-format
/// resident weights (F32 restores FusedGemm6 for quantized inputs); any
/// other backend is returned unchanged.
[[nodiscard]] Backend backend_with_format(Backend b, gemm::PackFormat fmt);

/// True when `b` can run the layer shape `d` at all (Winograd variants need
/// 3x3/pad-1; everything else takes any shape).
[[nodiscard]] bool backend_eligible(Backend b, const dnn::ConvDesc& d);

/// Shape key matching plan entries to layers at dispatch time (FNV-1a over
/// the convolution geometry; epilogue config deliberately excluded — the
/// backend choice depends on shape only).
[[nodiscard]] std::uint64_t conv_shape_key(const dnn::ConvDesc& d);

/// True when swapping a layer's route from `a` to `b` cannot change output
/// bits: either the same backend, or both in the Gemm6/FusedGemm6 pair
/// (epilogue fusion reorders nothing — pinned bit-identical since PR 2).
/// Winograd vs FusedWinograd is NOT in this relation (the fused output
/// transform differs by ≤2 ULP), and the quantized/sparse kinds are lossy
/// by design. The Replanner's bit-identical pinning consults this.
[[nodiscard]] bool backend_bit_compatible(Backend a, Backend b);

/// True when the layer's GEMM is weight-bound: the weight matrix A (M×K) is
/// at least as large as one item's im2col matrix B (K×N), i.e. M >= N —
/// VGG block 5 and the deep small-spatial YOLO layers, where the weight
/// stream dominates DRAM traffic and epilogue fusion cannot help. These are
/// the layers worth packing once at prepare() and executing batch-fused so
/// the resident weight panels are reused across every item of a chunk.
[[nodiscard]] bool conv_weight_bound(const dnn::ConvDesc& d);

/// One row of a per-layer backend table.
struct PlanEntry {
  int layer_index = -1;
  std::string layer_name;
  std::uint64_t shape_key = 0;
  Backend backend = Backend::Gemm6;
  std::uint64_t cycles = 0;  ///< simulated cycles of the winner (0 = not
                             ///< simulated, e.g. hand-written plans)
  /// Weight-resident layer: its weights are packed once during
  /// ConvolutionEngine::prepare() (skipping the A-pack stage on the hot
  /// path) and the BatchScheduler dispatches it batch-fused — one conv
  /// call per work-graph item chunk, over that chunk's items — instead of
  /// per item. Only meaningful for the Gemm6/FusedGemm6 backends.
  bool weight_resident = false;
  /// Every simulated (backend, cycles) candidate, for reporting.
  std::vector<std::pair<Backend, std::uint64_t>> candidates;
};

/// First-class per-layer backend dispatch table: the single structure the
/// selector and the codesign advisor emit, ConvolutionEngine::install
/// compiles into a per-context dispatch, and the runtime/serving layers
/// consume. A global EnginePolicy is just the uniform special case
/// (`BackendPlan::uniform`): an empty table whose fallback routing encodes
/// the policy's GEMM variant and Winograd flags.
///
/// Resolution order for a layer shape (`backend_for`): a table entry whose
/// shape key matches and whose backend is eligible wins; otherwise the
/// fallback routing applies — 3x3 layers go to `fallback_winograd` when the
/// matching stride flag is set, everything else to `fallback_gemm`. A
/// declined (ineligible) entry therefore keeps the layer on its plan
/// default — fused included; nothing clears fusion as a side effect.
struct BackendPlan {
  /// Kernel configuration shared by every backend of the plan.
  gemm::Opt3Config opt3{};
  gemm::Opt6Config opt6{};
  bool vectorize_aux = true;

  /// Fallback routing for layers without a (eligible) table entry.
  Backend fallback_gemm = Backend::Gemm6;
  Backend fallback_winograd = Backend::Winograd;
  bool winograd_stride1 = false;
  bool winograd_stride2 = false;

  /// Weight residency of fallback-routed conv layers (shapes without a
  /// table entry). Leave false for selected plans: an unseen shape could be
  /// activation-bound, where batch-fusing costs staging for nothing.
  /// Per-entry residency lives in PlanEntry.
  bool fallback_weight_resident = false;
  /// Batch-fuse FC layers (one out(nb×N) += X(nb×K)·W GEMM per chunk): an
  /// FC layer's weight matrix is read whole per item — the textbook
  /// weight-bound case — so this is gated separately from the conv
  /// fallback and safe for the selector to set unconditionally.
  bool fc_weight_resident = false;
  /// Byte budget of the engine's pack-once weight cache (LRU beyond it).
  std::size_t packed_weight_budget = gemm::PackedWeightCache::kDefaultBudgetBytes;

  /// Block-prune density (per-mille) of the plan's sparse routes: the
  /// fraction of 4x16 weight blocks a Gemm6Sparse* layer keeps. 1000 (all
  /// blocks) when no route is sparse; installed into every context's Gemm6
  /// so sparse residency lookups and prepare() agree on the key.
  int sparsity_pm = 1000;

  /// Micro-batch size the plan's candidate cycles were priced at (the
  /// `batch` that amortized the pack deltas). Lets a re-planner and
  /// CostModel::calibrate_from interpret `PlanEntry::cycles` without
  /// guessing; 1 for hand-written plans.
  int priced_batch = 1;

  /// Per-layer table, matched by conv_shape_key.
  std::vector<PlanEntry> entries;

  /// Compiles a global EnginePolicy into the equivalent uniform plan.
  [[nodiscard]] static BackendPlan uniform(const EnginePolicy& policy);

  [[nodiscard]] const PlanEntry* find(const dnn::ConvDesc& d) const;

  /// The backend layer shape `d` dispatches to (entry or fallback; always
  /// eligible for `d`).
  [[nodiscard]] Backend backend_for(const dnn::ConvDesc& d) const;

  /// True when layer shape `d` runs weight-resident: its backend is
  /// Gemm6/FusedGemm6 and the matching entry (or the fallback flag) marks
  /// it. ConvolutionEngine::prepare() packs exactly these layers' weights;
  /// the BatchScheduler routes exactly these through the batch-fused path.
  [[nodiscard]] bool weight_resident_for(const dnn::ConvDesc& d) const;

  /// True when any entry or fallback route can reach `b`.
  [[nodiscard]] bool may_use(Backend b) const;

  /// Copy of the plan with every Gemm6-family conv route (entries and the
  /// GEMM fallback) switched to the variant consuming `fmt`-format resident
  /// weights — the one-flag precision knob of the serving tools
  /// (`--precision=bf16|int8`). Quantized routes are forced
  /// weight-resident: the reduced image IS the backend. Non-GEMM routes
  /// (Winograd, Direct, Naive/Gemm3) are left untouched.
  [[nodiscard]] BackendPlan with_precision(gemm::PackFormat fmt) const;

  /// Copy of the plan with every Gemm6-family conv route switched to its
  /// block-sparse variant at `density` (fraction of 4x16 blocks kept, in
  /// (0, 1]) — the serving tools' `--sparsity=0.5` knob. Precision
  /// composes: bf16 routes become Gemm6SparseBf16, fp32/fused routes
  /// Gemm6Sparse; int8 routes are left dense (no sparse integer kernel —
  /// the scale fold and the skip walk would fight over the epilogue).
  /// Sparse routes are forced weight-resident: the pruned image IS the
  /// backend, and a residency miss falls back to the dense sibling at run
  /// time.
  [[nodiscard]] BackendPlan with_sparsity(double density) const;

  /// Printable per-layer table (one line per entry + the fallback), for
  /// serving startup logs and the advisor examples.
  [[nodiscard]] std::string summary() const;
};

}  // namespace vlacnn::core
