// Native-speed micro-benchmarks (google-benchmark): host wall-clock cost of
// the functional kernels themselves — GEMM variants, im2col, Winograd
// transforms and full Winograd convolution. These measure the library's
// own efficiency (no simulator attached, except BM_SimGemmNarrowN, which
// prices the simulator's per-op cost), complementing the simulated
// paper-reproduction harnesses.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "dnn/im2col.hpp"
#include "gemm/gemm.hpp"
#include "sim/address_map.hpp"
#include "sim/machine_config.hpp"
#include "sim/sim_context.hpp"
#include "winograd/f6x3.hpp"
#include "winograd/winograd_conv.hpp"

namespace {

using namespace vlacnn;

std::vector<float> rand_vec(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = rng.uniform(-1.0f, 1.0f);
  return v;
}

std::string tile_label() {
  return "tile lanes " + std::to_string(vla::tile_lanes());
}

void BM_GemmRef(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto a = rand_vec(static_cast<std::size_t>(n) * n, 1);
  auto b = rand_vec(static_cast<std::size_t>(n) * n, 2);
  std::vector<float> c(static_cast<std::size_t>(n) * n, 0.0f);
  for (auto _ : state) {
    gemm::gemm_ref(n, n, n, 1.0f, a.data(), n, b.data(), n, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * static_cast<std::int64_t>(n) * n * n);
}
BENCHMARK(BM_GemmRef)->Arg(64)->Arg(128)->Arg(256);

template <gemm::GemmVariant V>
void BM_GemmVariant(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const unsigned vlen = static_cast<unsigned>(state.range(1));
  auto a = rand_vec(static_cast<std::size_t>(n) * n, 1);
  auto b = rand_vec(static_cast<std::size_t>(n) * n, 2);
  std::vector<float> c(static_cast<std::size_t>(n) * n, 0.0f);
  vla::VectorEngine eng(vlen);
  auto fn = gemm::make_gemm_fn(V);
  for (auto _ : state) {
    fn(eng, n, n, n, 1.0f, a.data(), n, b.data(), n, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * static_cast<std::int64_t>(n) * n * n);
}
BENCHMARK(BM_GemmVariant<gemm::GemmVariant::Opt3Loop>)
    ->Args({128, 512})
    ->Args({128, 2048})
    ->Args({128, 16384})
    ->Args({256, 2048});
BENCHMARK(BM_GemmVariant<gemm::GemmVariant::Opt6Loop>)
    ->Args({128, 512})
    ->Args({128, 2048})
    ->Args({256, 2048});

// tiny@96's hot GEMM shapes on a 512-bit engine, as (M, K, N):
//  * 1024 x 4608 x 9, layer 12 (3x3 over 512 channels at 3x3): every
//    vector-scalar FMA covers 9 of 16 lanes;
//  * 256 x 3456 x 288, layer 21 (3x3 over the 128 + 256 routed channels
//    at 6x6) batch-fused at batch 8, N = 8 x 36. The analytic A64FX
//    batch-8 plan runs it as weight-resident fused Gemm6, so the Opt6
//    row is the served kernel (here A is packed per call, there once).
// Items are logical FMA instructions (vfmacc.vf: one accumulator row x one
// strip per k-step), however the engine groups them, so items_per_second
// inverts to ns per simulated instruction; `flops` is the GFLOP/s. The label
// names the host width the engine's tile ops ran at (tile_lanes()).
void run_gemm_shape(benchmark::State& state, vla::VectorEngine& eng,
                    gemm::GemmVariant variant) {
  const auto m = static_cast<int>(state.range(0));
  const auto k = static_cast<int>(state.range(1));
  const auto n = static_cast<int>(state.range(2));
  auto a = rand_vec(static_cast<std::size_t>(m) * k, 1);
  auto b = rand_vec(static_cast<std::size_t>(k) * n, 2);
  std::vector<float> c(static_cast<std::size_t>(m) * n, 0.0f);
  // The operands are registered with the address map, as a network's
  // tensors are; the functional engine never reads the map.
  const sim::RegisteredRange a_reg(a.data(), a.size() * sizeof(float));
  const sim::RegisteredRange b_reg(b.data(), b.size() * sizeof(float));
  const sim::RegisteredRange c_reg(c.data(), c.size() * sizeof(float));
  auto fn = gemm::make_gemm_fn(variant);
  const auto strips =
      static_cast<std::int64_t>((n + eng.vlmax() - 1) / eng.vlmax());
  for (auto _ : state) {
    fn(eng, m, n, k, 1.0f, a.data(), k, b.data(), n, c.data(), n);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * m * k * strips);
  state.counters["flops"] = benchmark::Counter(
      2.0 * m * n * k * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
  state.SetLabel(tile_label());
}

template <gemm::GemmVariant V>
void BM_GemmNarrowN(benchmark::State& state) {
  vla::VectorEngine eng(512);
  run_gemm_shape(state, eng, V);
}

// The same shapes with an RVV gem5 512-bit SimContext attached: every
// instruction also drives the timing model, the address map and the cache
// hierarchy, so items_per_second inverts to host ns per simulated vector op
// — the number a simulator hot-path change should move.
template <gemm::GemmVariant V>
void BM_SimGemmNarrowN(benchmark::State& state) {
  sim::SimContext sctx(sim::rvv_gem5().with_vlen(512));
  vla::VectorEngine eng(sctx);
  run_gemm_shape(state, eng, V);
}

#define VLACNN_HOT_SHAPES(BM, V) \
  BENCHMARK(BM<V>)                \
      ->Args({1024, 4608, 9})     \
      ->Args({256, 3456, 288})    \
      ->Unit(benchmark::kMillisecond)
VLACNN_HOT_SHAPES(BM_GemmNarrowN, gemm::GemmVariant::Opt3Loop);
VLACNN_HOT_SHAPES(BM_GemmNarrowN, gemm::GemmVariant::Opt6Loop);
VLACNN_HOT_SHAPES(BM_SimGemmNarrowN, gemm::GemmVariant::Opt3Loop);
VLACNN_HOT_SHAPES(BM_SimGemmNarrowN, gemm::GemmVariant::Opt6Loop);
#undef VLACNN_HOT_SHAPES

void BM_Im2col(benchmark::State& state) {
  dnn::ConvDesc d;
  d.in_c = 64;
  d.in_h = d.in_w = static_cast<int>(state.range(0));
  d.out_c = 1;
  d.ksize = 3;
  d.stride = 1;
  d.pad = 1;
  auto in = rand_vec(static_cast<std::size_t>(d.in_c) * d.in_h * d.in_w, 3);
  std::vector<float> col(static_cast<std::size_t>(d.gemm_k()) * d.gemm_n());
  vla::VectorEngine eng(2048);
  for (auto _ : state) {
    dnn::im2col_vla(eng, d, in.data(), col.data());
    benchmark::DoNotOptimize(col.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(col.size()) * 4);
}
BENCHMARK(BM_Im2col)->Arg(32)->Arg(64);

void BM_WinogradInputTransformRef(benchmark::State& state) {
  auto d = rand_vec(64, 4);
  float out[64];
  for (auto _ : state) {
    winograd::input_transform_ref(d.data(), out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_WinogradInputTransformRef);

void BM_WinogradConvFull(benchmark::State& state) {
  dnn::ConvDesc d;
  d.in_c = static_cast<int>(state.range(0));
  d.in_h = d.in_w = 48;
  d.out_c = d.in_c;
  d.ksize = 3;
  d.stride = 1;
  d.pad = 1;
  auto in = rand_vec(static_cast<std::size_t>(d.in_c) * d.in_h * d.in_w, 5);
  auto w = rand_vec(static_cast<std::size_t>(d.weight_count()), 6);
  std::vector<float> out(static_cast<std::size_t>(d.out_c) * d.out_h() *
                         d.out_w());
  vla::VectorEngine eng(2048);
  winograd::WinogradConv wino;
  for (auto _ : state) {
    wino.run(eng, d, in.data(), w.data(), out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(d.flops()));
}
BENCHMARK(BM_WinogradConvFull)->Arg(16)->Arg(64);

// The fused-Winograd layers of offline-batch's plan (tiny@96, batch 8,
// select_per_layer on a64fx with the analytic cost model), one image each
// on the 512-bit engine that workload serves on, as (in_c, out_c, hw):
// layer 2 16 -> 32 at 48x48, layer 4 32 -> 64 at 24x24 and layer 6
// 64 -> 128 at 12x12. The layers' epilogue (BN, bias, leaky) is fused.
// `flops` is the GFLOP/s of the equivalent direct convolution; the label
// names the tile ops' host width.
void BM_WinogradServed(benchmark::State& state) {
  dnn::ConvDesc d;
  d.in_c = static_cast<int>(state.range(0));
  d.out_c = static_cast<int>(state.range(1));
  d.in_h = d.in_w = static_cast<int>(state.range(2));
  d.ksize = 3;
  d.stride = 1;
  d.pad = 1;
  auto in = rand_vec(static_cast<std::size_t>(d.in_c) * d.in_h * d.in_w, 5);
  auto w = rand_vec(static_cast<std::size_t>(d.weight_count()), 6);
  auto mean = rand_vec(static_cast<std::size_t>(d.out_c), 7);
  auto var = rand_vec(static_cast<std::size_t>(d.out_c), 8);
  auto scale = rand_vec(static_cast<std::size_t>(d.out_c), 9);
  auto bias = rand_vec(static_cast<std::size_t>(d.out_c), 10);
  for (auto& v : var) v = v * v + 0.5f;
  std::vector<float> out(static_cast<std::size_t>(d.out_c) * d.out_h() *
                         d.out_w());
  dnn::EpilogueDesc epi;
  epi.batch_norm = true;
  epi.bn_mean = mean.data();
  epi.bn_var = var.data();
  epi.bn_scale = scale.data();
  epi.bias = bias.data();
  epi.act = dnn::Activation::Leaky;
  vla::VectorEngine eng(512);
  winograd::WinogradConv wino;
  for (auto _ : state) {
    wino.run(eng, d, in.data(), w.data(), out.data(), &epi);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.counters["flops"] = benchmark::Counter(
      d.flops() * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
  state.SetLabel(tile_label());
}
BENCHMARK(BM_WinogradServed)
    ->Args({16, 32, 48})
    ->Args({32, 64, 24})
    ->Args({64, 128, 12})
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
