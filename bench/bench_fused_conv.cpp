// Fused vs unfused convolution pipeline: per-layer bytes moved and wall
// time.
//
// The unfused Darknet pipeline streams the output tensor up to five times
// per conv layer (fill, GEMM accumulate, normalize, bias, activation) and
// materializes a full K×N im2col workspace that the GEMM pack stage then
// re-reads. The fused pipeline (EnginePolicy::fused) gathers im2col patches
// per (kc, nc) panel straight from the input, stores the first k-panel with
// beta=0, and applies the epilogue on the microkernel's final tile store —
// so the workspace, the fill pass and the post-passes disappear.
//
// Two traffic metrics per layer:
//   * bytes moved (DRAM): simulated line fills on --machine (default
//     arm-sve-gem5, 1 MB L2) — the off-chip traffic the paper's roofline
//     argues conv is bounded by. Expected reduction on VGG-style shapes:
//     well above 30%.
//   * bytes moved (engine): every vector/scalar load+store byte the kernels
//     issue, cache-blind (functional counters).
// Wall time is measured functionally (host speed), min over --reps.
//
//   ./bench_fused_conv [--model=vgg|tiny] [--vgg-input=128] [--input=96]
//                      [--machine=sve|rvv|a64fx] [--reps=3] [--quick]
//                      [--json=<path>]
//
// --json emits one {bench, config, wall_ms, bytes_moved, ...} record per
// (layer, mode) for the perf trajectory (BENCH_*.json).
//
// The VGG default here is 128 (not the 64 the cycle-accuracy benches use):
// below that, VGG's last conv block collapses to a 4x4 spatial extent whose
// im2col workspace fits L2 outright — those layers become pure
// weight-streaming (M*K dominates K*N), which no amount of fusion can cut,
// and the per-layer reduction column bottoms out for a reason that has
// nothing to do with the pipeline under test.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "dnn/layers.hpp"
#include "sim/address_map.hpp"

using namespace vlacnn;

namespace {

struct LayerCase {
  std::string name;  // "L3 conv 128 3x3/1"
  dnn::ConvDesc desc;
  std::uint64_t seed;
};

struct Measurement {
  double wall_ms = 0.0;
  double dram_bytes = 0.0;
  double engine_bytes = 0.0;
  std::uint64_t cycles = 0;
};

std::vector<LayerCase> conv_layers(const dnn::Network& net,
                                   const std::string& model) {
  std::vector<LayerCase> cases;
  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    const auto* conv = dynamic_cast<const dnn::ConvLayer*>(&net.layer(i));
    if (conv == nullptr) continue;
    cases.push_back({model + " L" + std::to_string(i) + " " + conv->name(),
                     conv->desc(), 1000 + i});
  }
  return cases;
}

Measurement measure(const LayerCase& lc, const core::EnginePolicy& policy,
                    const sim::MachineConfig& machine, int reps) {
  Measurement m;
  // Traffic: one instrumented pass (fresh caches, deterministic layout).
  {
    dnn::ConvLayer layer(lc.desc, lc.seed);
    sim::SimContext sctx(machine);
    vla::VectorEngine eng(sctx);
    dnn::ExecContext ctx(eng);
    core::ConvolutionEngine engine(policy);
    engine.install(ctx);
    dnn::Tensor in(lc.desc.in_c, lc.desc.in_h, lc.desc.in_w);
    Rng rng(7);
    in.randomize(rng);
    layer.forward(ctx, {&in});
    m.cycles = sctx.cycles();
    m.dram_bytes = static_cast<double>(sctx.memory().dram_line_fills()) *
                   machine.l2.line_bytes;
    m.engine_bytes = static_cast<double>(eng.mem_bytes_moved());
  }
  // Wall time: functional passes at host speed (min over reps, after one
  // warm-up that sizes the packing buffers / workspace).
  {
    dnn::ConvLayer layer(lc.desc, lc.seed);
    vla::VectorEngine eng(machine.vlen_bits);
    dnn::ExecContext ctx(eng);
    core::ConvolutionEngine engine(policy);
    engine.install(ctx);
    dnn::Tensor in(lc.desc.in_c, lc.desc.in_h, lc.desc.in_w);
    Rng rng(7);
    in.randomize(rng);
    layer.forward(ctx, {&in});  // warm-up
    double best = 1e30;
    for (int r = 0; r < reps; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      layer.forward(ctx, {&in});
      best = std::min(best, std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count());
    }
    m.wall_ms = best * 1e3;
  }
  return m;
}

std::string mb(double bytes) {
  return Table::fmt(bytes / (1024.0 * 1024.0), 2);
}

std::string pct(double base, double v) {
  if (base <= 0.0) return "-";
  return Table::fmt(100.0 * (base - v) / base, 1) + "%";
}

/// bench::weight_dram_bytes_per_item over a LayerCase at the given batch.
double case_weight_dram_per_item(const LayerCase& lc,
                                 const core::EnginePolicy& policy,
                                 const sim::MachineConfig& machine,
                                 int batch) {
  dnn::ConvLayer layer(lc.desc, lc.seed);
  dnn::Tensor in(batch, lc.desc.in_c, lc.desc.in_h, lc.desc.in_w);
  in.randomize_batch(7, -1.0f, 1.0f);
  return bench::weight_dram_bytes_per_item(
      layer, layer.weights(),
      static_cast<std::uint64_t>(lc.desc.weight_count()) * sizeof(float),
      &lc.desc, core::BackendPlan::uniform(policy), policy.weight_resident,
      machine, in);
}

}  // namespace

int main(int argc, char** argv) try {
  CliArgs args(argc, argv);
  auto opt = bench::BenchOptions::from_cli(argc, argv);
  if (!args.has("vgg-input")) opt.vgg_input_hw = 128;  // see header comment
  const std::string model = args.get("model", "vgg");
  const std::string machine_name = args.get("machine", "sve");
  const int reps = static_cast<int>(args.get_int("reps", opt.quick ? 1 : 3));
  const sim::MachineConfig machine = sim::machine_by_name(machine_name);

  bench::print_header(
      "Fused conv pipeline — implicit-GEMM packing + in-kernel epilogue",
      "bytes-moved reduction vs the unfused Darknet pipeline", opt);
  std::printf("machine=%s (L2 %llu KiB, %u B lines), reps=%d\n\n",
              machine.name.c_str(),
              static_cast<unsigned long long>(machine.l2.size_bytes / 1024),
              machine.l2.line_bytes, reps);

  std::unique_ptr<dnn::Network> net;
  if (model == "tiny") {
    net = dnn::build_yolov3_tiny(opt.quick ? 32 : opt.input_hw);
  } else {
    net = dnn::build_vgg16(opt.quick ? 32 : opt.vgg_input_hw, -1, opt.seed);
  }
  std::vector<LayerCase> cases = conv_layers(*net, model);
  // Weight-bound layer set (VGG block 5 and friends — the layers the
  // weight-residency section below measures): kept even when --quick trims
  // the main sweep, which would otherwise retain only the early,
  // activation-bound layers.
  std::vector<LayerCase> weight_bound;
  for (const LayerCase& lc : cases)
    if (core::conv_weight_bound(lc.desc)) weight_bound.push_back(lc);
  if (opt.quick && cases.size() > 6) cases.resize(6);
  if (opt.quick && weight_bound.size() > 2)
    weight_bound.erase(weight_bound.begin(), weight_bound.end() - 2);
  net.reset();  // the layer cases carry everything we need

  gemm::Opt6Config o6;
  o6.blocks = gemm::tune_block_sizes(machine);
  const core::EnginePolicy unfused = core::EnginePolicy::opt6loop(o6);
  const core::EnginePolicy fused =
      core::EnginePolicy::fused(/*use_winograd=*/false, o6);

  bench::BenchJson json("fused_conv", opt.json_path);
  Table table({"layer", "DRAM MB unfused", "DRAM MB fused", "DRAM saved",
               "eng MB unfused", "eng MB fused", "eng saved", "wall speedup"});

  double tot_dram_u = 0, tot_dram_f = 0, tot_eng_u = 0, tot_eng_f = 0;
  double tot_wall_u = 0, tot_wall_f = 0;
  double sum_reduction = 0.0;
  for (const LayerCase& lc : cases) {
    const Measurement mu = measure(lc, unfused, machine, reps);
    const Measurement mf = measure(lc, fused, machine, reps);
    tot_dram_u += mu.dram_bytes;
    tot_dram_f += mf.dram_bytes;
    tot_eng_u += mu.engine_bytes;
    tot_eng_f += mf.engine_bytes;
    tot_wall_u += mu.wall_ms;
    tot_wall_f += mf.wall_ms;
    if (mu.dram_bytes > 0)
      sum_reduction += (mu.dram_bytes - mf.dram_bytes) / mu.dram_bytes;
    table.add_row({lc.name, mb(mu.dram_bytes), mb(mf.dram_bytes),
                   pct(mu.dram_bytes, mf.dram_bytes), mb(mu.engine_bytes),
                   mb(mf.engine_bytes), pct(mu.engine_bytes, mf.engine_bytes),
                   Table::fmt(mu.wall_ms / mf.wall_ms, 2) + "x"});
    // weight_resident describes the MEASURED run (both main-sweep policies
    // are non-resident; only the residency section below sets 1.0);
    // weight_bound describes the shape.
    const double weight_bytes =
        static_cast<double>(lc.desc.weight_count()) * sizeof(float);
    const double ai = lc.desc.arithmetic_intensity();
    const double wbound = core::conv_weight_bound(lc.desc) ? 1.0 : 0.0;
    json.add(lc.name + " unfused", mu.wall_ms, mu.dram_bytes,
             {{"engine_bytes", mu.engine_bytes},
              {"cycles", static_cast<double>(mu.cycles)},
              {"weight_bytes", weight_bytes},
              {"arithmetic_intensity", ai},
              {"weight_bound", wbound},
              {"weight_resident", 0.0}});
    json.add(lc.name + " fused", mf.wall_ms, mf.dram_bytes,
             {{"engine_bytes", mf.engine_bytes},
              {"cycles", static_cast<double>(mf.cycles)},
              {"weight_bytes", weight_bytes},
              {"arithmetic_intensity", ai},
              {"weight_bound", wbound},
              {"weight_resident", 0.0}});
  }
  table.add_row({"TOTAL", mb(tot_dram_u), mb(tot_dram_f),
                 pct(tot_dram_u, tot_dram_f), mb(tot_eng_u), mb(tot_eng_f),
                 pct(tot_eng_u, tot_eng_f),
                 Table::fmt(tot_wall_u / tot_wall_f, 2) + "x"});
  table.print();

  std::printf("\nmean per-layer DRAM bytes-moved reduction: %.1f%%   "
              "total: %s\n",
              cases.empty() ? 0.0 : 100.0 * sum_reduction / cases.size(),
              pct(tot_dram_u, tot_dram_f).c_str());
  std::printf(
      "Shape check: the fused pipeline should cut DRAM bytes per conv "
      "layer by >= 30%% on the VGG-style shapes (workspace round-trip, fill "
      "pass and output post-passes eliminated) and never be slower. Layers "
      "whose spatial extent degenerates at reduced resolution (VGG block 5) "
      "are weight-streaming-bound and sit below that — fusion cannot cut "
      "weight traffic.\n");

  // ---- weight residency: what fusion cannot cut, pack-once + batch-fused
  // execution can. For the weight-bound layer set, per-item DRAM bytes
  // attributed to the weight stream at batch 1 vs batch 4 under the
  // weight-resident fused policy: the batched pass streams each resident
  // A panel once for the whole batch.
  if (!weight_bound.empty()) {
    core::EnginePolicy resident = fused;
    resident.weight_resident = true;
    Table wt({"weight-bound layer", "weights MB", "AI", "wt DRAM MB/item b1",
              "b4", "reduction"});
    double worst = 1e30;
    for (const LayerCase& lc : weight_bound) {
      const double b1 = case_weight_dram_per_item(lc, resident, machine, 1);
      const double b4 = case_weight_dram_per_item(lc, resident, machine, 4);
      const double weight_bytes =
          static_cast<double>(lc.desc.weight_count()) * sizeof(float);
      if (b1 > 0) worst = std::min(worst, b1 / std::max(b4, 1.0));
      wt.add_row({lc.name, mb(weight_bytes),
                  Table::fmt(lc.desc.arithmetic_intensity(), 1), mb(b1),
                  mb(b4), b1 > 0 ? Table::fmt(b1 / std::max(b4, 1.0), 2) + "x"
                                 : "-"});
      json.add(lc.name + " weight-resident", 0.0, b4,
               {{"weight_dram_bytes_per_item_b1", b1},
                {"weight_dram_bytes_per_item_b4", b4},
                {"weight_bytes", weight_bytes},
                {"arithmetic_intensity", lc.desc.arithmetic_intensity()},
                {"weight_resident", 1.0}});
    }
    std::printf("\n");
    wt.print();
    std::printf(
        "\nweight residency check: per-item weight DRAM bytes at batch 4 "
        "should drop >= 2x vs batch 1 on these layers (worst: %.2fx).\n",
        worst == 1e30 ? 0.0 : worst);
  }
  if (!json.write()) return 1;
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
