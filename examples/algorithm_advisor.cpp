// Compiler/framework-developer scenario: simulation-driven per-layer
// algorithm selection (the tool form of the paper's conclusion that
// "convolutional layers require careful algorithmic selection related to
// the kernel sizes and strides", §VII-A).
//
// For each convolutional layer of the chosen model, all eligible backends
// (3-loop GEMM, 6-loop GEMM, fused implicit-GEMM, Winograd, fused
// Winograd, direct) are priced on the chosen machine — full layer
// pipeline, epilogue included — and the winners are reported as a
// BackendPlan ready to install into a ConvolutionEngine.
//
// --cost picks the pricing path: "sim" runs the full cache/timing
// simulator per candidate (the reference, simulator-seconds); "analytic"
// prices through the calibrated core::CostModel (microseconds — the online
// re-planning path); "both" runs the two and prints a per-layer agreement
// table plus the planning-time speedup. --check exits nonzero unless the
// analytic argmax matches the simulated one on every layer AND analytic
// planning ran >= 100x faster — the CI agreement gate.
//
//   ./algorithm_advisor [--model=yolo|tiny|vgg] [--input=64]
//                       [--layers=16] [--machine=a64fx|rvv|sve] [--vlen=N]
//                       [--cost=sim|analytic|both] [--check] [--batch=4]

#include <cstdio>
#include <memory>
#include <string>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/selector.hpp"
#include "dnn/models.hpp"

using namespace vlacnn;

namespace {

void print_plan(const core::BackendPlan& plan, const char* title) {
  Table table({"layer", "winner", "Mcycles", "candidates (Mcycles)"});
  for (const auto& e : plan.entries) {
    std::string cands;
    for (const auto& [backend, cycles] : e.candidates) {
      if (!cands.empty()) cands += ", ";
      cands += std::string(core::to_string(backend)) + "=" +
               Table::fmt(static_cast<double>(cycles) / 1e6, 2);
    }
    table.add_row({std::to_string(e.layer_index) + " " + e.layer_name,
                   core::to_string(e.backend),
                   Table::fmt(static_cast<double>(e.cycles) / 1e6, 2), cands});
  }
  table.print(title);
}

void print_selector_stats(const core::SelectorStats& st, const char* label) {
  std::printf(
      "%s: plan computed in %llu us; shape memo %llu hits / %llu misses\n",
      label, static_cast<unsigned long long>(st.plan_compute_us),
      static_cast<unsigned long long>(st.memo_hits),
      static_cast<unsigned long long>(st.memo_misses));
}

}  // namespace

int main(int argc, char** argv) try {
  CliArgs args(argc, argv);
  args.require_known({"model", "input", "layers", "machine", "vlen", "cost",
                      "check", "batch"});
  const std::string model = args.get("model", "yolo");
  const int requested_input = static_cast<int>(args.get_int("input", 64));
  const int layers = static_cast<int>(args.get_int("layers", 16));
  const std::string machine_name = args.get("machine", "a64fx");
  const auto vlen = static_cast<unsigned>(args.get_int("vlen", 0));
  const std::string cost = args.get("cost", "sim");
  const bool check = args.get_bool("check", false);
  const int batch = static_cast<int>(args.get_int("batch", 4));

  sim::MachineConfig machine = sim::machine_by_name(machine_name);
  if (vlen != 0) machine = machine.with_vlen(vlen);

  dnn::warn_if_input_resized(model, requested_input);
  std::unique_ptr<dnn::Network> net =
      dnn::build_model(model, requested_input, layers);
  const int input = net->in_h();

  std::printf("algorithm advisor: %s (%zu conv layers) at %dx%d on %s "
              "[cost=%s]\n\n",
              model.c_str(), net->num_conv_layers(), input, input,
              machine.name.c_str(), cost.c_str());

  const bool want_sim = cost == "sim" || cost == "both";
  const bool want_ana = cost == "analytic" || cost == "both";

  core::BackendPlan sim_plan;
  core::SelectorStats sim_stats;
  if (want_sim) {
    sim_plan = core::select_per_layer(*net, machine, 7, batch, {},
                                      core::CostSource::Simulated, nullptr,
                                      &sim_stats);
    print_plan(sim_plan, "per-layer BackendPlan (fastest simulated backend):");
    print_selector_stats(sim_stats, "simulated");
  }

  core::BackendPlan ana_plan;
  core::SelectorStats ana_stats;
  if (want_ana) {
    // Calibration: free from the simulated plan's own candidate table when
    // we just built one ("both"); a one-shot simulator pass over this
    // model's shapes otherwise.
    core::CostModel cm(machine, sim_plan.opt6);
    if (want_sim) {
      cm.calibrate_from(*net, sim_plan);
    } else {
      core::BackendPlan shapes_of;  // tuned opt6 for the estimators
      shapes_of.opt6.blocks = gemm::tune_block_sizes(machine);
      cm = core::CostModel(machine, shapes_of.opt6);
      std::vector<dnn::ConvDesc> shapes;
      for (std::size_t i = 0; i < net->num_layers(); ++i) {
        const auto* conv =
            dynamic_cast<const dnn::ConvLayer*>(&net->layer(i));
        if (conv != nullptr) shapes.push_back(conv->desc());
      }
      cm.calibrate(shapes);
    }
    ana_plan = core::select_per_layer(*net, machine, 7, batch, {},
                                      core::CostSource::Analytic, &cm,
                                      &ana_stats);
    print_plan(ana_plan, "per-layer BackendPlan (analytic cost model):");
    print_selector_stats(ana_stats, "analytic");
  }

  bool agree = true;
  if (want_sim && want_ana) {
    Table cmp({"layer", "simulated", "analytic", "agree"});
    for (std::size_t i = 0; i < sim_plan.entries.size(); ++i) {
      const auto& es = sim_plan.entries[i];
      const auto& ea = ana_plan.entries[i];
      const bool ok = es.backend == ea.backend;
      agree = agree && ok;
      cmp.add_row({std::to_string(es.layer_index) + " " + es.layer_name,
                   core::to_string(es.backend), core::to_string(ea.backend),
                   ok ? "yes" : "NO"});
    }
    cmp.print("\nargmax agreement (simulated vs analytic):");
    const double speedup =
        ana_stats.plan_compute_us > 0
            ? static_cast<double>(sim_stats.plan_compute_us) /
                  static_cast<double>(ana_stats.plan_compute_us)
            : static_cast<double>(sim_stats.plan_compute_us);
    std::printf("\nplanning time: simulated %llu us, analytic %llu us "
                "(%.0fx faster); argmax agreement: %s\n",
                static_cast<unsigned long long>(sim_stats.plan_compute_us),
                static_cast<unsigned long long>(ana_stats.plan_compute_us),
                speedup, agree ? "FULL" : "BROKEN");
    if (check) {
      if (!agree) {
        std::printf("CHECK FAILED: analytic argmax disagrees with the "
                    "simulator\n");
        return 1;
      }
      if (speedup < 100.0) {
        std::printf("CHECK FAILED: analytic planning only %.0fx faster "
                    "(gate: >=100x)\n", speedup);
        return 1;
      }
      std::printf("CHECK PASSED: full agreement, %.0fx faster\n", speedup);
    }
  }

  const core::BackendPlan& plan = want_sim ? sim_plan : ana_plan;
  int wino = 0, direct = 0, g3 = 0, g6 = 0, fused = 0, quant = 0, sparse = 0;
  for (const auto& e : plan.entries) {
    switch (e.backend) {
      case core::Backend::Winograd: ++wino; break;
      case core::Backend::Direct: ++direct; break;
      case core::Backend::Gemm3: ++g3; break;
      case core::Backend::Naive:
      case core::Backend::Gemm6: ++g6; break;
      case core::Backend::FusedGemm6:
      case core::Backend::FusedWinograd: ++fused; break;
      case core::Backend::Gemm6Bf16:
      case core::Backend::Gemm6Int8: ++quant; break;
      case core::Backend::Gemm6Sparse:
      case core::Backend::Gemm6SparseBf16: ++sparse; break;
    }
  }
  std::printf("\nsummary: fused=%d quantized=%d sparse=%d winograd=%d "
              "direct=%d gemm3=%d gemm6=%d — no one-size-fits-all (paper "
              "§II-B/§VII-A)\n",
              fused, quant, sparse, wino, direct, g3, g6);
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
