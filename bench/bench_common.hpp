#pragma once

// Shared harness utilities of the benchmarks: the common CLI options, the
// run header, the `--machine` presets and the weight-DRAM-bytes/item metric
// of bench_fused_conv and bench_weight_reuse; including it also brings in
// BenchJson for the serving benches. bench_paper reproduces the paper's
// figures at a reduced input resolution (96x96, --input=N; paper 608x608);
// EXPERIMENTS.md records that scale mapping and every paper claim's result.

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/bench_json.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/conv_engine.hpp"
#include "dnn/layers.hpp"
#include "dnn/models.hpp"
#include "sim/address_map.hpp"
#include "sim/machine_config.hpp"
#include "sim/sim_context.hpp"

namespace vlacnn::bench {

struct BenchOptions {
  int input_hw = 96;       ///< network input resolution (paper: 608)
  int vgg_input_hw = 64;   ///< VGG16 input resolution (paper: 224)
  bool quick = false;      ///< trim sweeps for smoke runs
  std::uint64_t seed = 1234;
  std::string json_path;   ///< --json=<path>: machine-readable records

  static BenchOptions from_cli(int argc, char** argv) {
    CliArgs args(argc, argv);
    BenchOptions o;
    o.input_hw = static_cast<int>(args.get_int("input", 96));
    o.vgg_input_hw = static_cast<int>(args.get_int("vgg-input", 64));
    o.quick = args.get_bool("quick", false);
    o.seed = static_cast<std::uint64_t>(args.get_int("seed", 1234));
    o.json_path = args.get("json", "");
    return o;
  }
};

inline void print_header(const std::string& title, const std::string& paper_ref,
                         const BenchOptions& o) {
  std::printf("== %s ==\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("workload scale: input %dx%d (paper: 608x608); see EXPERIMENTS.md\n\n",
              o.input_hw, o.input_hw);
  std::fflush(stdout);
}

/// `--machine=sve|rvv|a64fx` → MachineConfig (default: gem5's SVE model).
inline sim::MachineConfig machine_from_name(const std::string& name) {
  if (name == "rvv") return sim::rvv_gem5();
  if (name == "a64fx") return sim::a64fx();
  return sim::sve_gem5();
}

/// Per-item DRAM bytes attributed to `layer`'s weight stream — DRAM line
/// fills, on a fresh instrumented run under `policy`, whose address falls
/// in [weights, weights+weight_bytes) or in the layer's resident packed
/// image (when `conv_desc` is given and the policy packs it). The batch is
/// `input`'s N: batch-fused when the policy is weight-resident and the
/// layer supports it, per item otherwise. The single definition of the
/// "weight DRAM bytes/item" metric shared by bench_fused_conv's
/// weight-residency section and bench_weight_reuse, so the two benches'
/// JSON records cannot drift.
inline double weight_dram_bytes_per_item(
    dnn::Layer& layer, const float* weights, std::uint64_t weight_bytes,
    const dnn::ConvDesc* conv_desc, core::BackendPlan plan, bool batch_fused,
    const sim::MachineConfig& machine, const dnn::Tensor& input) {
  sim::SimContext sctx(machine);
  vla::VectorEngine eng(sctx);
  dnn::ExecContext ctx(eng);
  core::ConvolutionEngine engine(std::move(plan));
  engine.install(ctx);
  if (conv_desc != nullptr) {
    engine.prepare(*conv_desc, weights);
    // Watch the layer's resident image in the format the plan routes it
    // to (falling back to the fp32 image — e.g. a quantized plan whose
    // image was not retained); an int8 image's scale vector streams too,
    // and a sparse image's bitmap/offset metadata — the skip test reads it
    // on every panel, so leaving it unwatched would flatter the format.
    const gemm::PackFormat fmt =
        core::backend_pack_format(engine.plan().backend_for(*conv_desc));
    const int density_pm = gemm::pack_format_sparse(fmt)
                               ? engine.plan().sparsity_pm
                               : 1000;
    auto img = engine.packed_weights().find(
        weights, conv_desc->gemm_m(), conv_desc->gemm_k(),
        engine.plan().opt6.blocks.block_k, fmt, density_pm);
    if (img == nullptr && fmt != gemm::PackFormat::F32)
      img = engine.packed_weights().find(weights, conv_desc->gemm_m(),
                                         conv_desc->gemm_k(),
                                         engine.plan().opt6.blocks.block_k);
    if (img != nullptr) {
      sctx.memory().add_dram_watch(
          sim::AddressMap::instance().translate(img->raw()),
          img->data_bytes());
      if (img->scales() != nullptr)
        sctx.memory().add_dram_watch(
            sim::AddressMap::instance().translate(img->scales()),
            img->scales_bytes());
      if (img->sparse_meta() != nullptr)
        sctx.memory().add_dram_watch(
            sim::AddressMap::instance().translate(img->sparse_meta()),
            img->sparse_meta_bytes());
    }
  }
  sctx.memory().add_dram_watch(
      sim::AddressMap::instance().translate(weights), weight_bytes);

  const int batch = input.n();
  const std::vector<const dnn::Tensor*> ins{&input};
  layer.prepare_batch(ins);
  bool fused = false;
  if (batch > 1 && batch_fused) fused = layer.forward_batch(ctx, ins);
  if (!fused)
    for (int b = 0; b < batch; ++b) layer.forward_item(ctx, ins, b);
  return static_cast<double>(sctx.memory().watched_dram_line_fills()) *
         machine.l2.line_bytes / batch;
}

}  // namespace vlacnn::bench
