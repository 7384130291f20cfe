// Hardware-designer scenario: a custom co-design sweep over the
// (vector length x L2 size) plane for a user-chosen workload, printing a
// grid of cycles — the tool a hardware architect would use to pick design
// points, built from the same API as the paper-reproduction benches.
//
//   ./codesign_sweep [--model=yolo|tiny|vgg] [--input=64] [--layers=12]
//                    [--machine=rvv|sve|a64fx] [--winograd]

#include <cstdio>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/codesign.hpp"
#include "dnn/models.hpp"

using namespace vlacnn;

int main(int argc, char** argv) try {
  CliArgs args(argc, argv);
  args.require_known({"model", "input", "layers", "machine", "winograd"});
  const std::string model = args.get("model", "yolo");
  const int requested_input = static_cast<int>(args.get_int("input", 64));
  const int layers = static_cast<int>(args.get_int("layers", 12));
  dnn::warn_if_input_resized(model, requested_input);
  // Builds once up front so an unknown --model fails before the sweep.
  const int input = dnn::build_model(model, requested_input, layers)->in_h();
  const std::string machine_name = args.get("machine", "rvv");
  const bool winograd = args.get_bool("winograd", false);

  const sim::MachineConfig base = sim::machine_by_name(machine_name);
  // The sweep's VLs, cut at the machine's MVL (a64fx sweeps L2 only).
  std::vector<unsigned> vlens = base.isa == sim::Isa::ArmSve
                                    ? std::vector<unsigned>{512, 1024, 2048}
                                    : std::vector<unsigned>{512, 2048, 8192};
  std::erase_if(vlens, [&](unsigned vl) { return vl > base.max_vlen_bits; });
  const std::vector<std::uint64_t> l2s = {1ull << 20, 8ull << 20, 64ull << 20};

  const core::EnginePolicy policy = winograd ? core::EnginePolicy::winograd()
                                             : core::EnginePolicy::opt3loop();

  std::printf("co-design sweep: %s (%d layers) at %dx%d on %s%s\n\n",
              model.c_str(), layers, input, input, base.name.c_str(),
              winograd ? " with Winograd" : "");

  std::vector<std::string> headers = {"VL \\ L2"};
  for (auto l2 : l2s) headers.push_back(std::to_string(l2 >> 20) + "MB");
  Table table(headers);
  std::uint64_t best = UINT64_MAX;
  std::string best_point;
  for (unsigned vl : vlens) {
    std::vector<std::string> row = {std::to_string(vl) + "-bit"};
    for (auto l2 : l2s) {
      auto net = dnn::build_model(model, input, layers);
      const core::RunResult r =
          core::run_simulated(*net, base.with_vlen(vl).with_l2_size(l2), policy);
      row.push_back(Table::fmt(static_cast<double>(r.cycles) / 1e6, 1));
      if (r.cycles < best) {
        best = r.cycles;
        best_point = std::to_string(vl) + "-bit / " +
                     std::to_string(l2 >> 20) + "MB";
      }
    }
    table.add_row(row);
  }
  table.print("cycles (millions):");
  std::printf("\nbest design point: %s (%.1f Mcycles)\n", best_point.c_str(),
              static_cast<double>(best) / 1e6);
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
