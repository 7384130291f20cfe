// Quickstart: the smallest end-to-end use of the library.
//
// Builds a single convolutional layer, runs it three ways — optimized
// im2col+GEMM natively, Winograd natively, and im2col+GEMM on a simulated
// RISC-V Vector machine — and prints what the simulator observed.
//
//   ./quickstart [--vlen=2048]

#include <cstdio>
#include <exception>

#include "common/cli.hpp"
#include "core/codesign.hpp"
#include "core/conv_engine.hpp"
#include "dnn/network.hpp"

using namespace vlacnn;

int main(int argc, char** argv) try {
  CliArgs args(argc, argv);
  args.require_known({"vlen"});
  const auto vlen = static_cast<unsigned>(args.get_int("vlen", 2048));

  // A small network: one 3x3 convolution over a 64x64 RGB image.
  dnn::Network net(/*c=*/3, /*h=*/64, /*w=*/64);
  net.add_conv(/*out_c=*/16, /*ksize=*/3, /*stride=*/1, /*pad=*/1,
               dnn::Activation::Leaky, /*batch_norm=*/true);
  std::printf("network:\n%s\n", net.summary().c_str());

  // 1) Run natively with the optimized 3-loop GEMM.
  const double t_gemm = core::run_native(net, vlen, core::EnginePolicy::opt3loop());
  std::printf("native im2col+GEMM: %.3f ms\n", t_gemm * 1e3);

  // 2) Run natively with Winograd (eligible: 3x3, stride 1).
  const double t_wino = core::run_native(net, vlen, core::EnginePolicy::winograd());
  std::printf("native Winograd:    %.3f ms\n", t_wino * 1e3);

  // 3) Run on a simulated RISC-V Vector machine and inspect the co-design
  //    metrics the paper's figures are made of.
  const sim::MachineConfig machine = sim::rvv_gem5().with_vlen(vlen);
  const core::RunResult r =
      core::run_simulated(net, machine, core::EnginePolicy::opt3loop());
  std::printf("\nsimulated on %s (VL=%u bits, %u lanes, L2=%llu KB):\n",
              r.machine.c_str(), r.vlen_bits, r.lanes,
              static_cast<unsigned long long>(r.l2_bytes >> 10));
  std::printf("  cycles:              %llu\n",
              static_cast<unsigned long long>(r.cycles));
  std::printf("  sustained:           %.2f GFLOP/s (peak %.1f)\n",
              r.gflops_sustained, machine.peak_gflops());
  std::printf("  avg vector length:   %.1f bits\n", r.avg_vl_bits);
  std::printf("  L2 miss rate:        %.1f%%\n", 100.0 * r.l2_miss_rate);
  std::printf("  vector instructions: %llu\n",
              static_cast<unsigned long long>(r.vector_instructions));
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
