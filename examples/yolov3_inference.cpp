// Object-detection scenario: YOLOv3 inference with per-layer breakdown.
//
// Mirrors the paper's Darknet workflow: build YOLOv3, run one inference on
// a synthetic image, and report the per-layer cycle/FLOP breakdown on a
// chosen simulated machine — showing GEMM's dominance (§II-B: ~93% of
// computation) and where Winograd takes over when enabled.
//
//   ./yolov3_inference [--input=96] [--layers=24] [--machine=a64fx|rvv|sve]
//                      [--winograd]

#include <cstdio>
#include <string>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/codesign.hpp"
#include "dnn/models.hpp"

using namespace vlacnn;

int main(int argc, char** argv) try {
  CliArgs args(argc, argv);
  args.require_known({"input", "layers", "machine", "winograd"});
  const int input = static_cast<int>(args.get_int("input", 96));
  const int layers = static_cast<int>(args.get_int("layers", 24));
  const std::string machine_name = args.get("machine", "a64fx");
  const bool winograd = args.get_bool("winograd", false);

  const sim::MachineConfig machine = sim::machine_by_name(machine_name);

  auto net = dnn::build_yolov3(input, layers);
  std::printf("YOLOv3 (%zu layers, %zu conv) at %dx%d on %s%s\n\n",
              net->num_layers(), net->num_conv_layers(), input, input,
              machine.name.c_str(), winograd ? " with Winograd" : "");

  const core::EnginePolicy policy = winograd ? core::EnginePolicy::winograd()
                                             : core::EnginePolicy::opt6loop();
  const core::RunResult r = core::run_simulated(*net, machine, policy);

  Table table({"#", "layer", "GFLOP", "Mcycles", "% of total"});
  std::size_t idx = 0;
  for (const auto& rec : r.layers) {
    table.add_row({std::to_string(idx++), rec.name,
                   Table::fmt(rec.flops / 1e9, 3),
                   Table::fmt(static_cast<double>(rec.cycles) / 1e6, 1),
                   Table::fmt(100.0 * static_cast<double>(rec.cycles) /
                                  static_cast<double>(r.cycles),
                              1)});
  }
  table.print("per-layer breakdown:");

  std::uint64_t conv = core::conv_cycles(r);
  std::printf("\ntotals: %.2f GFLOP in %.1f Mcycles (%.2f GFLOP/s sustained, "
              "%.1f%% in conv layers)\n",
              r.total_flops / 1e9, static_cast<double>(r.cycles) / 1e6,
              r.gflops_sustained,
              100.0 * static_cast<double>(conv) / static_cast<double>(r.cycles));
  std::printf("L2 miss rate %.1f%%, avg VL %.0f bits\n",
              100.0 * r.l2_miss_rate, r.avg_vl_bits);
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
