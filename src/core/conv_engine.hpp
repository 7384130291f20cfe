#pragma once

#include <memory>

#include "core/backend_plan.hpp"
#include "dnn/exec_context.hpp"
#include "gemm/gemm.hpp"
#include "winograd/weight_cache.hpp"
#include "winograd/winograd_conv.hpp"

namespace vlacnn::dnn {
class Network;
}  // namespace vlacnn::dnn

namespace vlacnn::core {

/// Per-layer algorithm-selection policy (paper §VII: "convolutional layers
/// require careful algorithmic selection related to kernel sizes and
/// strides").
struct EnginePolicy {
  gemm::GemmVariant gemm_variant = gemm::GemmVariant::Opt3Loop;
  gemm::Opt3Config opt3{};
  gemm::Opt6Config opt6{};
  /// Use Winograd for 3x3 stride-1 layers (falls back to GEMM elsewhere).
  bool winograd_stride1 = false;
  /// Additionally use Winograd for 3x3 stride-2 layers (the paper measures
  /// this slower than GEMM; kept for reproducing that comparison).
  bool winograd_stride2 = false;
  /// Vectorize the auxiliary conv-layer kernels (im2col, bias, norm, act).
  bool vectorize_aux = true;
  /// Fuse the convolution pipeline: implicit-GEMM packing (no materialized
  /// im2col workspace), beta=0 first-panel stores (no fill pass), and the
  /// BN/bias/activation epilogue applied in-kernel — on the GEMM
  /// microkernel's final tile store (Opt6Loop only) and on the Winograd
  /// output transform. Off by default so instrumented paper-reproduction
  /// runs keep the unfused Darknet pipeline they model.
  bool fuse_conv = false;
  /// Weight residency: pack every GEMM-routed conv layer's weights once at
  /// ConvolutionEngine::prepare() (the A-pack stage disappears from the hot
  /// path) and let the BatchScheduler execute those layers — and FC layers
  /// — batch-fused, streaming each work-graph item chunk past each
  /// resident weight panel. Off by default: the instrumented paper policies model Darknet's
  /// per-call packing.
  bool weight_resident = false;

  [[nodiscard]] static EnginePolicy naive() {
    EnginePolicy p;
    p.gemm_variant = gemm::GemmVariant::Naive;
    p.vectorize_aux = false;
    return p;
  }
  [[nodiscard]] static EnginePolicy opt3loop(int unroll = 16) {
    EnginePolicy p;
    p.gemm_variant = gemm::GemmVariant::Opt3Loop;
    p.opt3.unroll_factor = unroll;
    return p;
  }
  [[nodiscard]] static EnginePolicy opt6loop(const gemm::Opt6Config& cfg = {}) {
    EnginePolicy p;
    p.gemm_variant = gemm::GemmVariant::Opt6Loop;
    p.opt6 = cfg;
    return p;
  }
  /// Winograd where profitable (3x3/s1), optimized GEMM elsewhere — the
  /// paper's best configuration (§VII-B).
  [[nodiscard]] static EnginePolicy winograd(
      gemm::GemmVariant fallback = gemm::GemmVariant::Opt6Loop) {
    EnginePolicy p;
    p.gemm_variant = fallback;
    p.winograd_stride1 = true;
    return p;
  }
  /// Fused conv pipeline on the 6-loop GEMM (optionally with Winograd for
  /// 3x3/s1, whose output transform then applies the epilogue) — the
  /// lowest-traffic serving configuration.
  [[nodiscard]] static EnginePolicy fused(bool use_winograd = false,
                                          const gemm::Opt6Config& cfg = {}) {
    EnginePolicy p;
    p.gemm_variant = gemm::GemmVariant::Opt6Loop;
    p.opt6 = cfg;
    p.winograd_stride1 = use_winograd;
    p.fuse_conv = true;
    return p;
  }
};

/// Compiles a BackendPlan into per-context dispatch tables and installs
/// them into dnn::ExecContexts. A global EnginePolicy is accepted as the
/// uniform special case (it is compiled through BackendPlan::uniform).
///
/// install() materializes *fresh per-context* mutable state — the packed-
/// buffer GEMM and the Winograd V/M/stage scratch — behind one compiled
/// dnn::ConvBackendFn that routes each layer shape to its planned backend,
/// so any number of ExecContexts installed from one engine can run forward
/// passes on different threads concurrently. The only shared pieces are the
/// (immutable) plan and the Winograd transformed-weight cache, which is
/// insert-only behind a mutex and becomes a read-only lookup after
/// prepare() has swept the network (the paper excludes the weight transform
/// from inference time, §VII-A, so the prepare step also keeps the
/// measurement protocol honest under multi-threading).
class ConvolutionEngine {
 public:
  explicit ConvolutionEngine(const EnginePolicy& policy);
  explicit ConvolutionEngine(BackendPlan plan);

  /// Installs the compiled per-context dispatch.
  void install(dnn::ExecContext& ctx);

  /// Pre-transforms Winograd weights for every conv layer of `net` the
  /// plan routes to (fused) Winograd, and packs the weights of every layer
  /// the plan marks weight-resident into the shared PackedWeightCache, so
  /// concurrent forward passes only read the shared caches. Both
  /// preparations are host-side and uninstrumented (the paper excludes
  /// weight preparation from inference time, §VII-A).
  void prepare(const dnn::Network& net);

  /// Single-layer prepare (the selector's simulation harness and the
  /// weight-residency benches drive layers outside a Network).
  void prepare(const dnn::ConvDesc& d, const float* weights);

  /// Replaces the plan (online re-planning). Cheap: swaps the shared_ptr.
  /// Already-installed ExecContexts keep dispatching through the plan they
  /// were compiled against (each compiled dispatch owns a shared_ptr to
  /// it), so a swap never yanks state out from under a running pass —
  /// re-install each context at a quiescent point to pick the new plan up,
  /// then prepare() packs/transforms whatever the new routing needs. The
  /// shared weight caches are (shape, format, density)-keyed, so entries
  /// valid under both plans stay warm across the swap; the packed-cache
  /// byte budget is fixed at construction and the new plan's budget field
  /// is ignored.
  void set_plan(BackendPlan plan);

  /// The compiled plan — authoritative whichever constructor was used.
  [[nodiscard]] const BackendPlan& plan() const { return *plan_; }
  [[nodiscard]] winograd::WeightCache& weight_cache() { return weight_cache_; }
  [[nodiscard]] gemm::PackedWeightCache& packed_weights() {
    return packed_cache_;
  }

 private:
  std::shared_ptr<const BackendPlan> plan_;
  winograd::WeightCache weight_cache_;
  gemm::PackedWeightCache packed_cache_;
};

}  // namespace vlacnn::core
