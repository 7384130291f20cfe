// Image-classification scenario: VGG16 with algorithm comparison.
//
// Runs the same VGG16 inference through the optimized im2col+GEMM engine
// and through the Winograd engine (all VGG16 convolutions are 3x3/stride-1,
// so the whole backbone is Winograd-eligible — §VII-A), verifies the two
// predictions agree, and reports the speedup.
//
//   ./vgg16_classify [--input=64] [--machine=a64fx|rvv|sve] [--vlen=2048]

#include <algorithm>
#include <cstdio>
#include <string>

#include "common/cli.hpp"
#include "core/codesign.hpp"
#include "dnn/models.hpp"

using namespace vlacnn;

namespace {

int argmax_of(const dnn::Tensor& t) {
  int best = 0;
  for (std::size_t i = 1; i < t.size(); ++i)
    if (t[i] > t[static_cast<std::size_t>(best)]) best = static_cast<int>(i);
  return best;
}

struct Outcome {
  int top_class;
  float confidence;
  std::uint64_t cycles;
};

Outcome classify(const sim::MachineConfig& machine,
                 const core::EnginePolicy& policy, int input,
                 std::uint64_t seed) {
  auto net = dnn::build_vgg16(input, -1, seed);
  const core::RunResult r = core::run_simulated(*net, machine, policy);
  const dnn::Tensor& probs = net->layer(net->num_layers() - 1).output();
  const int cls = argmax_of(probs);
  return {cls, probs[static_cast<std::size_t>(cls)], r.cycles};
}

}  // namespace

int main(int argc, char** argv) try {
  CliArgs args(argc, argv);
  args.require_known({"input", "machine", "vlen"});
  const int input = static_cast<int>(args.get_int("input", 64));
  const std::string machine_name = args.get("machine", "a64fx");
  const auto vlen = static_cast<unsigned>(args.get_int("vlen", 0));

  sim::MachineConfig machine = sim::machine_by_name(machine_name);
  if (vlen != 0) machine = machine.with_vlen(vlen);

  std::printf("VGG16 at %dx%d on %s\n\n", input, input, machine.name.c_str());

  const Outcome gemm_run =
      classify(machine, core::EnginePolicy::opt6loop(), input, 1234);
  std::printf("im2col+GEMM: class %d (p=%.4f), %.1f Mcycles\n",
              gemm_run.top_class, static_cast<double>(gemm_run.confidence),
              static_cast<double>(gemm_run.cycles) / 1e6);

  const Outcome wino_run =
      classify(machine, core::EnginePolicy::winograd(), input, 1234);
  std::printf("Winograd:    class %d (p=%.4f), %.1f Mcycles\n",
              wino_run.top_class, static_cast<double>(wino_run.confidence),
              static_cast<double>(wino_run.cycles) / 1e6);

  if (gemm_run.top_class != wino_run.top_class) {
    std::printf("ERROR: algorithm choice changed the prediction!\n");
    return 1;
  }
  std::printf("\npredictions agree; Winograd speedup: %.2fx "
              "(paper §VII-A: 1.5x on A64FX)\n",
              static_cast<double>(gemm_run.cycles) /
                  static_cast<double>(wino_run.cycles));
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
