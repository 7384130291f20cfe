#include "core/selector.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/conv_engine.hpp"
#include "gemm/blocking.hpp"
#include "sim/sim_context.hpp"

namespace vlacnn::core {

namespace {

constexpr Backend kCandidates[] = {
    Backend::Gemm3,    Backend::Gemm6,         Backend::FusedGemm6,
    Backend::Winograd, Backend::FusedWinograd, Backend::Direct,
};

[[nodiscard]] bool is_gemm6_backend(Backend b) {
  return b == Backend::Gemm6 || b == Backend::FusedGemm6;
}

/// Runs one full conv layer (convolution + epilogue) on `ctx`, routed
/// through `backend` by a one-entry plan — the same compiled dispatch that
/// executes the plan at serving time — and returns the layer's output
/// values. Weights/BN parameters and the input are deterministic per shape,
/// so the cycle simulations and the functional accuracy runs see the same
/// data. When `weight_resident` is set the pack-once weight image is built
/// before the forward pass (host-side, uncharged on a simulated `ctx`).
std::vector<float> run_one_layer(dnn::ExecContext& ctx, Backend backend,
                                 const dnn::ConvDesc& d,
                                 const gemm::Opt6Config& o6,
                                 std::uint64_t input_seed,
                                 bool weight_resident, int sparsity_pm) {
  const std::uint64_t key = conv_shape_key(d);
  dnn::ConvLayer layer(d, key);

  BackendPlan bench;
  bench.opt6 = o6;
  bench.sparsity_pm = sparsity_pm;
  PlanEntry entry;
  entry.shape_key = key;
  entry.backend = backend;
  entry.weight_resident = weight_resident;
  bench.entries.push_back(std::move(entry));
  ConvolutionEngine engine(std::move(bench));
  engine.install(ctx);
  if (weight_resident) engine.prepare(d, layer.weights());

  dnn::Tensor input(d.in_c, d.in_h, d.in_w);
  Rng rng(input_seed ^ key);
  input.randomize(rng, -1.0f, 1.0f);
  layer.forward(ctx, {&input});
  const dnn::Tensor& out = layer.output();
  return {out.data(), out.data() + out.size()};
}

/// ULP distance between two fp32 values (lexicographic integer mapping, so
/// the measure is monotone across the sign boundary).
[[nodiscard]] std::uint32_t ulp_distance(float a, float b) {
  auto to_ordered = [](float x) {
    std::int32_t i;
    std::memcpy(&i, &x, sizeof(i));
    return i < 0 ? std::int64_t{std::numeric_limits<std::int32_t>::min()} - i
                 : std::int64_t{i};
  };
  const std::int64_t delta = to_ordered(a) - to_ordered(b);
  const std::int64_t mag = delta < 0 ? -delta : delta;
  return mag > std::numeric_limits<std::uint32_t>::max()
             ? std::numeric_limits<std::uint32_t>::max()
             : static_cast<std::uint32_t>(mag);
}

struct AccuracyStats {
  float max_rel = 0.0f;         ///< max abs error / max |reference|
  std::uint32_t max_ulp = 0;    ///< max per-element ULP distance
  bool top1_preserved = true;   ///< per-position channel argmax unchanged
};

/// Functional (host-speed, vlen-512) run of the full layer through
/// `backend` with a weight-resident plan, returning the output tensor's
/// values.
std::vector<float> run_functional(Backend backend, const dnn::ConvDesc& d,
                                  const gemm::Opt6Config& o6,
                                  std::uint64_t input_seed,
                                  int sparsity_pm = 1000) {
  vla::VectorEngine eng(512);
  dnn::ExecContext ctx(eng);
  return run_one_layer(ctx, backend, d, o6, input_seed,
                       /*weight_resident=*/true, sparsity_pm);
}

/// Compares a quantized/sparse backend's layer output against the fp32
/// fused reference: the admission check behind the selector's accuracy
/// budget.
AccuracyStats measure_quantized_accuracy(Backend qb, const dnn::ConvDesc& d,
                                         const gemm::Opt6Config& o6,
                                         std::uint64_t input_seed,
                                         int sparsity_pm = 1000) {
  const std::vector<float> ref =
      run_functional(Backend::FusedGemm6, d, o6, input_seed);
  const std::vector<float> quant =
      run_functional(qb, d, o6, input_seed, sparsity_pm);
  AccuracyStats st;
  float max_abs_ref = 0.0f, max_abs_err = 0.0f;
  for (std::size_t i = 0; i < ref.size(); ++i)
    max_abs_ref = std::max(max_abs_ref, std::fabs(ref[i]));
  // ULP distance is only meaningful at working magnitude: a cancellation-
  // dominated (or Relu-clipped) near-zero output can sit a billion "ULPs"
  // from an equally tiny reference while being numerically fine — those
  // elements are governed by the absolute/relative gate instead.
  const float ulp_floor = max_abs_ref / 1024.0f;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    max_abs_err = std::max(max_abs_err, std::fabs(ref[i] - quant[i]));
    if (std::fabs(ref[i]) >= ulp_floor)
      st.max_ulp = std::max(st.max_ulp, ulp_distance(ref[i], quant[i]));
  }
  st.max_rel = max_abs_ref > 0.0f ? max_abs_err / max_abs_ref
                                  : (max_abs_err > 0.0f ? 1.0f : 0.0f);
  // Top-1 preservation: the argmax over output channels at every spatial
  // position must survive quantization (the classification proxy of the
  // paper's accuracy protocol).
  const std::size_t hw = ref.size() / static_cast<std::size_t>(d.out_c);
  for (std::size_t j = 0; j < hw && st.top1_preserved; ++j) {
    std::size_t ref_arg = 0, q_arg = 0;
    for (std::size_t c = 1; c < static_cast<std::size_t>(d.out_c); ++c) {
      if (ref[c * hw + j] > ref[ref_arg * hw + j]) ref_arg = c;
      if (quant[c * hw + j] > quant[q_arg * hw + j]) q_arg = c;
    }
    if (ref_arg != q_arg) st.top1_preserved = false;
  }
  return st;
}

}  // namespace

// The weight transform of the Winograd candidates — and, when
// `weight_resident` is set, the pack-once A-panel image of the GEMM
// candidates — stays host-side and uncharged, matching the paper's
// measurement protocol (§VII-A).
std::uint64_t simulate_backend_cycles(Backend backend, const dnn::ConvDesc& d,
                                      const sim::MachineConfig& machine,
                                      const gemm::Opt6Config& o6,
                                      std::uint64_t input_seed,
                                      bool weight_resident, int sparsity_pm) {
  sim::SimContext sctx(machine);
  vla::VectorEngine eng(sctx);
  dnn::ExecContext ctx(eng);
  run_one_layer(ctx, backend, d, o6, input_seed, weight_resident,
                sparsity_pm);
  return sctx.cycles();
}

BackendPlan select_per_layer(dnn::Network& net,
                             const sim::MachineConfig& machine,
                             std::uint64_t input_seed, int batch,
                             const AccuracyBudget& accuracy,
                             CostSource source, const CostModel* model,
                             SelectorStats* stats) {
  VLACNN_REQUIRE(batch >= 1, "selector batch must be >= 1");
  VLACNN_REQUIRE(source == CostSource::Simulated || model != nullptr,
                 "analytic selection needs a calibrated CostModel");
  const bool analytic = source == CostSource::Analytic;
  const auto t0 = std::chrono::steady_clock::now();
  BackendPlan plan;
  plan.opt6.blocks = gemm::tune_block_sizes(machine);
  plan.fallback_gemm = Backend::Gemm6;
  // FC layers are the textbook weight-bound case (the whole K×N weight
  // matrix is read per item): let the scheduler batch-fuse them. Conv
  // layers get per-entry flags below; the conv FALLBACK stays non-resident
  // — a shape the plan never saw could be activation-bound, and
  // batch-fusing one of those costs staging and batch parallelism.
  plan.fc_weight_resident = true;
  // Sparse routes (entries or just listed candidates) key their residency
  // by the plan's density; harmless when nothing sparse ends up admitted.
  if (accuracy.allow_sparse)
    plan.sparsity_pm = std::clamp(
        static_cast<int>(accuracy.sparse_density * 1000.0f + 0.5f), 1, 1000);

  // Identical shapes get identical candidate simulations, so the cycle
  // table is memoized — but the key must carry the format axes of the
  // candidate set (which reduced-precision/sparse kinds the budget admits,
  // and at what density) alongside the shape: the simulated cost of a shape
  // is format-specific, and a memo keyed by shape alone would silently hand
  // a dense entry to a quantized/sparse variant of the same shape.
  const std::uint64_t sparsity_pm =
      static_cast<std::uint64_t>(plan.sparsity_pm);
  const std::uint64_t fmt_sig = (accuracy.allow_bf16 ? 1u : 0u) |
                                (accuracy.allow_int8 ? 2u : 0u) |
                                (accuracy.allow_sparse ? 4u : 0u) |
                                (sparsity_pm << 3);
  using ShapeFormatKey = std::pair<std::uint64_t, std::uint64_t>;
  std::map<ShapeFormatKey, PlanEntry> by_shape;

  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    const auto* conv = dynamic_cast<const dnn::ConvLayer*>(&net.layer(i));
    if (conv == nullptr) continue;
    const dnn::ConvDesc& d = conv->desc();
    const std::uint64_t key = conv_shape_key(d);

    auto it = by_shape.find({key, fmt_sig});
    if (stats != nullptr) {
      if (it != by_shape.end())
        ++stats->memo_hits;
      else
        ++stats->memo_misses;
    }
    if (it == by_shape.end()) {
      const bool weight_bound = conv_weight_bound(d);
      PlanEntry e;
      e.shape_key = key;
      std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
      std::uint64_t fused_pack = 0;  // FusedGemm6's cold-warm packing delta
      for (Backend b : kCandidates) {
        if (!backend_eligible(b, d)) continue;
        if (b == Backend::FusedGemm6 && !plan.opt6.pack_b) continue;
        std::uint64_t cycles;
        if (weight_bound && is_gemm6_backend(b) && plan.opt6.pack_a) {
          // Weight-resident pricing: the steady state skips the A-pack
          // stage entirely (the image is packed at prepare()); the packing
          // delta — what the cold path pays over the resident one — is a
          // one-time cost amortized over the micro-batch, not a per-call
          // charge. cold >= warm by construction (same pipeline minus the
          // pack stage), but saturate anyway against simulator noise. The
          // analytic model prices warm + pack_scale·pack/batch directly.
          if (analytic) {
            cycles = model->cycles(b, d, /*weight_resident=*/true, batch);
          } else {
            const std::uint64_t warm = simulate_backend_cycles(
                b, d, machine, plan.opt6, input_seed,
                /*weight_resident=*/true);
            const std::uint64_t cold = simulate_backend_cycles(
                b, d, machine, plan.opt6, input_seed,
                /*weight_resident=*/false);
            const std::uint64_t pack = cold > warm ? cold - warm : 0;
            if (b == Backend::FusedGemm6) fused_pack = pack;
            cycles = warm + pack / static_cast<std::uint64_t>(batch);
          }
        } else if (analytic) {
          cycles = model->cycles(b, d, /*weight_resident=*/false, 1);
        } else {
          cycles = simulate_backend_cycles(b, d, machine, plan.opt6,
                                           input_seed,
                                           /*weight_resident=*/false);
        }
        e.candidates.emplace_back(b, cycles);
        if (cycles < best) {
          best = cycles;
          e.backend = b;
          e.cycles = cycles;
        }
      }
      // Reduced-precision candidates: weight-bound layers only (elsewhere
      // the weight stream is not the bottleneck and the accuracy spend buys
      // nothing), requiring both pack stages (the quantized image IS a
      // packed A; the fused kernel needs pack_b). Each candidate must first
      // survive the functional accuracy gate against the fp32 fused
      // reference; the simulation then prices its halved/quartered weight
      // stream through the ordinary MemorySystem model — no synthetic
      // discounts. The pack delta is the fp32 one: packing cost is
      // dominated by reading the fp32 source weights either way.
      if (weight_bound && plan.opt6.pack_a && plan.opt6.pack_b &&
          (accuracy.allow_bf16 || accuracy.allow_int8)) {
        for (Backend qb : {Backend::Gemm6Bf16, Backend::Gemm6Int8}) {
          if (qb == Backend::Gemm6Bf16 && !accuracy.allow_bf16) continue;
          if (qb == Backend::Gemm6Int8 && !accuracy.allow_int8) continue;
          const AccuracyStats st =
              measure_quantized_accuracy(qb, d, plan.opt6, input_seed);
          const bool within =
              qb == Backend::Gemm6Bf16
                  ? st.max_rel <= kBf16OutputRelTol &&
                        st.max_ulp <= kBf16OutputMaxUlp
                  : st.max_rel <= kInt8OutputRelTol && st.top1_preserved;
          if (!within) continue;  // over budget: not even listed
          const std::uint64_t cycles =
              analytic
                  ? model->cycles(qb, d, /*weight_resident=*/true, batch)
                  : simulate_backend_cycles(qb, d, machine, plan.opt6,
                                            input_seed,
                                            /*weight_resident=*/true) +
                        fused_pack / static_cast<std::uint64_t>(batch);
          e.candidates.emplace_back(qb, cycles);
          if (cycles < best) {
            best = cycles;
            e.backend = qb;
            e.cycles = cycles;
          }
        }
      }
      // Block-sparse candidates: same weight-bound + pack-stage conditions
      // as the quantized kinds, plus the kernel's 4-row panel-alignment
      // requirement. The prune happens functionally first — a candidate
      // whose pruned output breaks the sparse gate is not even listed —
      // then the warm sparse pass is priced through the ordinary sim, where
      // the skip-aware kernel's density-proportional weight stream AND FMA
      // count show up as real line fills and issue slots. Pack delta: the
      // fp32 one again (prune + pack both stream the fp32 source once).
      if (weight_bound && plan.opt6.pack_a && plan.opt6.pack_b &&
          plan.opt6.blocks.block_m % gemm::kSparseBlockM == 0 &&
          accuracy.allow_sparse) {
        const int pm = static_cast<int>(sparsity_pm);
        for (Backend sb : {Backend::Gemm6Sparse, Backend::Gemm6SparseBf16}) {
          if (sb == Backend::Gemm6SparseBf16 && !accuracy.allow_bf16)
            continue;
          const AccuracyStats st =
              measure_quantized_accuracy(sb, d, plan.opt6, input_seed, pm);
          if (st.max_rel > kSparseOutputRelTol)
            continue;  // over budget: not even listed
          const std::uint64_t cycles =
              analytic
                  ? model->cycles(sb, d, /*weight_resident=*/true, batch, pm)
                  : simulate_backend_cycles(sb, d, machine, plan.opt6,
                                            input_seed,
                                            /*weight_resident=*/true, pm) +
                        fused_pack / static_cast<std::uint64_t>(batch);
          e.candidates.emplace_back(sb, cycles);
          if (cycles < best) {
            best = cycles;
            e.backend = sb;
            e.cycles = cycles;
          }
        }
      }
      e.weight_resident = weight_bound && backend_gemm6_family(e.backend) &&
                          plan.opt6.pack_a;
      it = by_shape.emplace(ShapeFormatKey{key, fmt_sig}, std::move(e)).first;
    }

    PlanEntry e = it->second;
    e.layer_index = static_cast<int>(i);
    e.layer_name = conv->name();
    plan.entries.push_back(std::move(e));
  }
  plan.priced_batch = batch;
  if (stats != nullptr) {
    for (const PlanEntry& e : plan.entries)
      ++stats->wins[static_cast<std::size_t>(e.backend)];
    stats->plan_compute_us = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
  }
  return plan;
}

BackendPlan replan_for_batch(const dnn::Network& net, const BackendPlan& base,
                             const CostModel& model, int batch,
                             bool pin_bit_identical, SelectorStats* stats) {
  VLACNN_REQUIRE(batch >= 1, "replan batch must be >= 1");
  const auto t0 = std::chrono::steady_clock::now();
  BackendPlan plan = base;
  plan.priced_batch = batch;
  for (PlanEntry& e : plan.entries) {
    if (e.layer_index < 0 ||
        static_cast<std::size_t>(e.layer_index) >= net.num_layers())
      continue;
    const auto* conv = dynamic_cast<const dnn::ConvLayer*>(
        &net.layer(static_cast<std::size_t>(e.layer_index)));
    if (conv == nullptr || e.candidates.empty()) continue;
    const dnn::ConvDesc& d = conv->desc();
    const bool weight_bound = conv_weight_bound(d);
    Backend best_backend = e.backend;
    std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t incumbent = 0;
    for (auto& [b, cycles] : e.candidates) {
      // Re-rank only the candidates `base` already admitted; residency
      // re-derives per candidate exactly as original selection did.
      const bool resident =
          weight_bound && backend_gemm6_family(b) && plan.opt6.pack_a;
      cycles = model.cycles(b, d, resident, batch, plan.sparsity_pm);
      if (b == e.backend) incumbent = cycles;
      if (cycles < best) {
        best = cycles;
        best_backend = b;
      }
    }
    if (pin_bit_identical &&
        !backend_bit_compatible(e.backend, best_backend)) {
      // The cheaper kernel would change output bits mid-stream: keep the
      // incumbent route. Residency below still re-derives, which is also
      // bit-identical (resident vs hot-path pack is pinned equal).
      best_backend = e.backend;
      best = incumbent;
    }
    e.backend = best_backend;
    e.cycles = best;
    e.weight_resident = weight_bound && backend_gemm6_family(e.backend) &&
                        plan.opt6.pack_a;
  }
  if (stats != nullptr) {
    for (const PlanEntry& e : plan.entries)
      ++stats->wins[static_cast<std::size_t>(e.backend)];
    stats->plan_compute_us = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
  }
  return plan;
}

}  // namespace vlacnn::core
