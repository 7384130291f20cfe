#pragma once

#include <array>
#include <cstdint>

#include "core/backend_plan.hpp"
#include "core/cost_model.hpp"
#include "dnn/network.hpp"
#include "sim/machine_config.hpp"

namespace vlacnn::core {

/// Pinned accuracy gates for the reduced-precision weight backends (the
/// bounds the selector and the claims of `bench_paper --figure=reuse`
/// enforce; fp32 backends stay bit-identical and never consult these).
///
/// bf16 rounds each weight to 8 mantissa bits (relative step 2^-8); the
/// fp32 accumulation over K compounds that to output errors a few times
/// larger, and the ULP distance is taken down to outputs 1024x below the
/// peak magnitude, where a 2^-8-of-peak absolute error spans many more
/// representable steps. The pinned bounds sit ~4x above the worst
/// observation on the VGG/YOLO layer shapes (2.4e7 ULP on the 512-channel
/// 3x3 block-5 conv) so routine runs never flake, while a real regression
/// (double rounding, a wrong widen) overshoots them by orders of
/// magnitude.
inline constexpr float kBf16OutputRelTol = 1.0f / 128;  // 2^-7 of max |ref|
inline constexpr std::uint32_t kBf16OutputMaxUlp = 1u << 27;
/// int8 per-channel quantization has a relative weight step of ~1/127 on
/// the channel's amax; the output bound is correspondingly looser, and the
/// top-1 (argmax-over-channels) check is the classification-preserving
/// gate the tolerance alone cannot give.
inline constexpr float kInt8OutputRelTol = 1.0f / 16;   // 2^-4 of max |ref|
/// Block-sparse backends drop whole 4x16 weight blocks, so the output error
/// is governed by the pruned mass, not a rounding step: on the selector's
/// deterministic uniform-random weights (the incompressible worst case — no
/// real checkpoint's magnitude distribution is that flat) a 0.5-density
/// prune leaves roughly half the L1 weight mass out of every output
/// channel. The pinned bound covers that worst case with headroom.
inline constexpr float kSparseOutputRelTol = 0.75f;

/// Per-plan accuracy budget gating quantized candidates in
/// select_per_layer. The default admits NONE (fp32-only selection, the
/// historical behavior); relaxed() opts both formats in under the pinned
/// gates above. int8 candidates must also keep the per-position argmax over
/// output channels (the top-1-preserving criterion).
struct AccuracyBudget {
  bool allow_bf16 = false;
  bool allow_int8 = false;
  /// Opt block-sparse candidates in (Gemm6Sparse; plus Gemm6SparseBf16 when
  /// allow_bf16 is also set) at `sparse_density` (fraction of 4x16 blocks
  /// kept). Sparse admission uses its own rel gate and no top-1 check —
  /// magnitude pruning at serving time is a deliberate accuracy/throughput
  /// trade the budget owner opts into.
  bool allow_sparse = false;
  float sparse_density = 0.5f;

  [[nodiscard]] static AccuracyBudget relaxed() {
    AccuracyBudget b;
    b.allow_bf16 = true;
    b.allow_int8 = true;
    return b;
  }

  /// Budget admitting sparse candidates at `density` (and nothing else).
  [[nodiscard]] static AccuracyBudget sparse(float density) {
    AccuracyBudget b;
    b.allow_sparse = true;
    b.sparse_density = density;
    return b;
  }
};

/// Simulation-driven per-layer backend selection — the tool form of the
/// paper's conclusion that "convolutional layers require careful
/// algorithmic selection related to the kernel sizes and strides" (§VII-A).
///
/// For every convolutional layer of `net`, each *eligible* candidate
/// backend — both im2col+GEMM variants, the fused implicit-GEMM, Winograd
/// and fused Winograd (3x3 layers only), and direct convolution — is
/// simulated in isolation on `machine`. Each candidate runs the *full*
/// layer pipeline, BN/bias/activation included (in-kernel for the fused
/// backends, as post-passes otherwise), so the comparison prices the
/// epilogue-fusion advantage instead of just the raw convolution.
///
/// Returns a BackendPlan: one entry per conv layer recording the winner and
/// every candidate's cycles, with the machine-tuned 6-loop GEMM as the
/// fallback. Install it via core::ConvolutionEngine(plan) — there is no
/// separate "apply" step, and a layer whose entry cannot run (or whose
/// shape the plan has never seen) keeps the plan's default backend, fused
/// included.
///
/// Weight-bound layers (conv_weight_bound: the weight matrix dominates one
/// item's im2col matrix) are priced with pack-once amortization: their GEMM
/// candidates simulate weight-RESIDENT (A panels pre-packed at prepare(),
/// no hot-path pack stage) and the packing delta is charged as a one-time
/// prepare() cost spread over `batch` calls — not re-charged on every
/// simulated call, which is what used to make resident candidates look
/// uniformly worse than they serve. Winning GEMM candidates on those
/// layers get PlanEntry::weight_resident, so ConvolutionEngine::prepare()
/// packs them and the BatchScheduler runs them batch-fused; the plan's
/// fc_weight_resident is set so FC layers batch-fuse too. `batch` is
/// the micro-batch size the plan is priced for (>= 1).
///
/// When `accuracy` opts reduced-precision formats in, weight-bound layers
/// additionally get Gemm6Bf16/Gemm6Int8 candidates: each is first checked
/// functionally against the fp32 fused reference on a deterministic input
/// (rejected outright if it breaks the budget's gates), then priced as the
/// warm quantized pass — whose reduced weight stream the MemorySystem
/// simulation sees directly as fewer DRAM line fills — plus the fp32 pack
/// delta amortized over `batch`, exactly like the fp32 resident pricing.
///
/// allow_sparse adds block-sparse candidates the same way: the skip-aware
/// kernel's simulation sees both the density-proportional weight stream
/// (fewer resident-image line fills) AND the density-proportional MAC count
/// (skipped FMA runs) — the lever neither reduced-precision format has.
/// Admission is identical in spirit: functional accuracy gate first,
/// residency-or-nothing at run time (a budget-evicted sparse image falls
/// back to the dense sibling inside the kernel). The candidate table is
/// memoized per (shape, format-budget signature), never per shape alone —
/// a dense sim result must not be silently reused for a quantized/sparse
/// variant of the same shape.
///
/// `source` picks how candidates are priced: CostSource::Simulated runs the
/// full cache/timing simulator per candidate (the reference path,
/// simulator-seconds per network); CostSource::Analytic prices through the
/// supplied calibrated `model` in closed form — microseconds per network,
/// the online re-planning path. Accuracy gates (functional, host-speed) run
/// identically under both sources whenever the budget admits lossy formats;
/// the default fp32 budget runs none, which is what makes the analytic path
/// ≥100× faster end to end. `stats`, when given, receives the shape-memo
/// hit/miss counters, the wall-clock plan-compute time, and per-backend win
/// counts.
BackendPlan select_per_layer(dnn::Network& net,
                             const sim::MachineConfig& machine,
                             std::uint64_t input_seed = 7, int batch = 4,
                             const AccuracyBudget& accuracy = {},
                             CostSource source = CostSource::Simulated,
                             const CostModel* model = nullptr,
                             SelectorStats* stats = nullptr);

/// Simulates one full conv layer (convolution + epilogue) routed through
/// `backend` on `machine` and returns the cycle count — the selector's
/// reference measurement, exported for CostModel::calibrate and the
/// agreement tests. `weight_resident` prices the Gemm6-family steady state
/// with the A-panel image pre-packed (the pack stage uncharged).
std::uint64_t simulate_backend_cycles(Backend backend, const dnn::ConvDesc& d,
                                      const sim::MachineConfig& machine,
                                      const gemm::Opt6Config& o6,
                                      std::uint64_t input_seed,
                                      bool weight_resident,
                                      int sparsity_pm = 1000);

/// Re-prices an already-selected plan for a different effective batch size
/// through the analytic `model` — the Replanner's core operation, and the
/// reason re-planning needs neither the simulator NOR the accuracy gates:
/// every entry's candidate set was admitted (accuracy-gated) when `base`
/// was built, and re-planning only re-ranks those same admitted candidates
/// at the new amortization point. Microseconds per network.
///
/// With `pin_bit_identical` (the serving default), an entry only moves to a
/// new winner when `backend_bit_compatible` with the incumbent — so a live
/// swap mid-stream changes which kernel runs, never the bits it produces.
/// Residency flags re-derive from the (possibly re-pinned) winner; the
/// returned plan records `priced_batch = batch`.
BackendPlan replan_for_batch(const dnn::Network& net, const BackendPlan& base,
                             const CostModel& model, int batch,
                             bool pin_bit_identical = true,
                             SelectorStats* stats = nullptr);

}  // namespace vlacnn::core
