#include "core/conv_engine.hpp"

#include "dnn/direct_conv.hpp"
#include "dnn/kernels.hpp"
#include "dnn/layers.hpp"
#include "dnn/network.hpp"

namespace vlacnn::core {

ConvolutionEngine::ConvolutionEngine(const EnginePolicy& policy)
    : plan_(std::make_shared<const BackendPlan>(BackendPlan::uniform(policy))),
      packed_cache_(plan_->packed_weight_budget) {}

ConvolutionEngine::ConvolutionEngine(BackendPlan plan)
    : plan_(std::make_shared<const BackendPlan>(std::move(plan))),
      packed_cache_(plan_->packed_weight_budget) {}

void ConvolutionEngine::set_plan(BackendPlan plan) {
  plan_ = std::make_shared<const BackendPlan>(std::move(plan));
}

void ConvolutionEngine::install(dnn::ExecContext& ctx) {
  const std::shared_ptr<const BackendPlan> plan = plan_;

  // Per-context mutable kernel state shared by every backend the plan can
  // route to. One Gemm6 instance backs the plain 6-loop, the fused
  // implicit-GEMM entry and the FC-layer GemmFn, so they share packing
  // buffers; the Winograd instance (own V/M/stage scratch) sits over the
  // engine-shared read-mostly weight cache.
  struct Backends {
    std::shared_ptr<gemm::Gemm6> gemm6;
    std::shared_ptr<winograd::WinogradConv> wino;
    dnn::GemmFn gemm6_fn, gemm6_conv_fn, gemm3_fn, naive_fn;
  };
  auto st = std::make_shared<Backends>();
  st->gemm6 = std::make_shared<gemm::Gemm6>(plan->opt6);
  // Every per-context instance shares the engine's pack-once weight cache
  // (read-only during passes): any layer prepare() packed skips its A-pack
  // stage in every context, fused and unfused Gemm6 paths alike. Only the
  // conv dispatch uses the cache-consulting entry (gemm_weights) — its A
  // is a weight matrix by construction; the generic gemm6_fn (FC layers,
  // base path) must not guess.
  st->gemm6->set_weight_cache(&packed_cache_);
  // Sparse routes key their residency lookups by the plan's prune density;
  // installing it here keeps the conv_fused signature density-free.
  st->gemm6->set_sparsity_pm(plan->sparsity_pm);
  st->gemm6_fn = gemm::wrap_gemm6(st->gemm6);
  st->gemm6_conv_fn = [impl = st->gemm6](vla::VectorEngine& eng, int M, int N,
                                         int K, float alpha, const float* A,
                                         int lda, const float* B, int ldb,
                                         float* C, int ldc) {
    impl->gemm_weights(eng, M, N, K, alpha, A, lda, B, ldb, C, ldc);
  };
  st->gemm3_fn = gemm::make_gemm_fn(gemm::GemmVariant::Opt3Loop, plan->opt3);
  st->naive_fn = gemm::make_gemm_fn(gemm::GemmVariant::Naive);
  if (plan->may_use(Backend::Winograd) ||
      plan->may_use(Backend::FusedWinograd)) {
    st->wino = std::make_shared<winograd::WinogradConv>(&weight_cache_);
  }

  // FC layers (1xN GEMV) and the base path of un-dispatched contexts run
  // the plan's fallback GEMM.
  switch (plan->fallback_gemm) {
    case Backend::Naive: ctx.gemm = st->naive_fn; break;
    case Backend::Gemm3: ctx.gemm = st->gemm3_fn; break;
    default: ctx.gemm = st->gemm6_fn; break;
  }
  ctx.vectorize_aux_kernels = plan->vectorize_aux;
  ctx.conv_label = [plan](const dnn::ConvDesc& d) {
    return to_string(plan->backend_for(d));
  };
  ctx.conv_backend = [st, plan](dnn::ExecContext& c, const dnn::ConvDesc& d,
                                const float* input, const float* weights,
                                float* output,
                                const dnn::EpilogueDesc& epi)
      -> dnn::ConvStatus {
    vla::VectorEngine& eng = c.engine();
    const Backend b = plan->backend_for(d);
    switch (b) {
      case Backend::FusedWinograd:
        // Epilogue (and any folded residual) applied on the output
        // transform's registers; stride-2 fuses into the subsample pass.
        st->wino->run(eng, d, input, weights, output, &epi);
        return dnn::ConvStatus::RanFused;
      case Backend::Winograd:
        // Raw convolution only (no fill needed — the transform overwrites
        // the output completely); the layer applies the epilogue.
        st->wino->run(eng, d, input, weights, output);
        return dnn::ConvStatus::Ran;
      case Backend::Direct: {
        const std::size_t out_elems =
            static_cast<std::size_t>(d.out_c) * d.out_h() * d.out_w();
        dnn::fill_cpu(eng, out_elems, 0.0f, output);
        dnn::direct_conv_vla(eng, d, input, weights, output);
        return dnn::ConvStatus::Ran;
      }
      case Backend::Gemm6Bf16:
      case Backend::Gemm6Int8:
      case Backend::Gemm6Sparse:
      case Backend::Gemm6SparseBf16:
      case Backend::FusedGemm6:
        // Quantized and sparse kinds run the same fused kernel over the
        // format-tagged resident image; a missing image (budget-evicted, or
        // weights not prepared) silently falls back to the dense fp32 path
        // inside the kernel.
        if (st->gemm6->conv_fused(eng, d, weights, input, output, &epi,
                                  backend_pack_format(b)))
          return dnn::ConvStatus::RanFused;
        [[fallthrough]];  // packing disabled: no fused equivalent — run the
                          // unfused 6-loop, NOT a silent fusion clear
      case Backend::Gemm6:
        dnn::run_im2col_gemm(c, d, input, weights, output, st->gemm6_conv_fn);
        return dnn::ConvStatus::Ran;
      case Backend::Gemm3:
        dnn::run_im2col_gemm(c, d, input, weights, output, st->gemm3_fn);
        return dnn::ConvStatus::Ran;
      case Backend::Naive:
        dnn::run_im2col_gemm(c, d, input, weights, output, st->naive_fn);
        return dnn::ConvStatus::Ran;
    }
    return dnn::ConvStatus::Declined;
  };
  ctx.conv_batch = [st, plan](dnn::ExecContext& c, const dnn::ConvDesc& d,
                              const float* input, std::size_t in_item_stride,
                              const float* weights, float* output,
                              std::size_t out_item_stride, int batch,
                              const dnn::EpilogueDesc& epi)
      -> dnn::ConvStatus {
    // Batch-fused execution only for weight-resident layers — the staged
    // batched C is only worth paying where the resident weight stream
    // dominates. The fused kernel serves
    // both Gemm6 kinds: fused and unfused outputs are bit-identical by
    // contract, and a resident unfused layer wants the traffic cut too.
    if (!plan->weight_resident_for(d)) return dnn::ConvStatus::Declined;
    if (st->gemm6->conv_fused_batch(c.engine(), d, weights, input,
                                    in_item_stride, output, out_item_stride,
                                    batch, &epi,
                                    backend_pack_format(plan->backend_for(d))))
      return dnn::ConvStatus::RanFused;
    return dnn::ConvStatus::Declined;
  };
}

void ConvolutionEngine::prepare(const dnn::Network& net) {
  const bool any_winograd = plan_->may_use(Backend::Winograd) ||
                            plan_->may_use(Backend::FusedWinograd);
  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    const auto* conv = dynamic_cast<const dnn::ConvLayer*>(&net.layer(i));
    if (conv == nullptr) continue;
    // The transform depends only on in_c/out_c and the raw weights, so the
    // same cached entry serves both the stride-1 and the dense-stride-1
    // view of a stride-2 layer.
    const Backend b = plan_->backend_for(conv->desc());
    if (any_winograd &&
        (b == Backend::Winograd || b == Backend::FusedWinograd))
      weight_cache_.prepare(conv->desc(), conv->weights());
    if (plan_->weight_resident_for(conv->desc())) {
      const gemm::PackFormat fmt = backend_pack_format(b);
      packed_cache_.prepare(conv->weights(), conv->desc().gemm_m(),
                            conv->desc().gemm_k(),
                            plan_->opt6.blocks.block_k, fmt,
                            gemm::pack_format_sparse(fmt) ? plan_->sparsity_pm
                                                          : 1000);
    }
  }
}

void ConvolutionEngine::prepare(const dnn::ConvDesc& d, const float* weights) {
  const Backend b = plan_->backend_for(d);
  if (b == Backend::Winograd || b == Backend::FusedWinograd)
    weight_cache_.prepare(d, weights);
  if (plan_->weight_resident_for(d)) {
    const gemm::PackFormat fmt = backend_pack_format(b);
    packed_cache_.prepare(weights, d.gemm_m(), d.gemm_k(),
                          plan_->opt6.blocks.block_k, fmt,
                          gemm::pack_format_sparse(fmt) ? plan_->sparsity_pm
                                                        : 1000);
  }
}

}  // namespace vlacnn::core
