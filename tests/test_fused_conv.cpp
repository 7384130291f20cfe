// Fused-conv pipeline equivalence: the implicit-GEMM + epilogue-fused path
// must match the unfused fill + im2col + GEMM + post-pass pipeline
// bit-for-bit (Winograd within 2 ulp), across shapes, BN on/off, every
// activation, batch 1 and batch 4 multi-threaded — and must move fewer
// bytes doing it.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "core/conv_engine.hpp"
#include "dnn/models.hpp"
#include "dnn/im2col.hpp"
#include "dnn/kernels.hpp"
#include "dnn/layers.hpp"
#include "dnn/network.hpp"
#include "gemm/gemm_opt6.hpp"
#include "runtime/batch_scheduler.hpp"
#include "test_util.hpp"

namespace vlacnn {
namespace {

/// ULP distance between two floats (0 = bit-identical, accounting for -0).
std::uint32_t ulp_diff(float a, float b) {
  if (std::isnan(a) || std::isnan(b)) return 0xffffffffu;
  std::int32_t ia, ib;
  std::memcpy(&ia, &a, sizeof(ia));
  std::memcpy(&ib, &b, sizeof(ib));
  // Map to a monotonic integer line (two's-complement trick).
  if (ia < 0) ia = std::numeric_limits<std::int32_t>::min() - ia;
  if (ib < 0) ib = std::numeric_limits<std::int32_t>::min() - ib;
  const std::int64_t d = static_cast<std::int64_t>(ia) - ib;
  return static_cast<std::uint32_t>(d < 0 ? -d : d);
}

std::uint32_t max_ulp(const std::vector<float>& a, const std::vector<float>& b) {
  EXPECT_EQ(a.size(), b.size());
  std::uint32_t m = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    m = std::max(m, ulp_diff(a[i], b[i]));
  return m;
}

struct Shape {
  const char* tag;
  int in_c, hw, out_c, ksize, stride, pad;
};

constexpr Shape kShapes[] = {
    {"1x1/s1", 16, 12, 8, 1, 1, 0},
    {"3x3/s1 padded", 8, 16, 8, 3, 1, 1},
    {"3x3/s1 padded odd", 5, 9, 7, 3, 1, 1},  // edge strips + partial groups
    {"3x3/s2 strided", 8, 16, 8, 3, 2, 1},
    {"3x3/s1 unpadded", 8, 12, 4, 3, 1, 0},
};

dnn::ConvDesc make_desc(const Shape& s, bool bn, dnn::Activation act) {
  dnn::ConvDesc d;
  d.in_c = s.in_c;
  d.in_h = d.in_w = s.hw;
  d.out_c = s.out_c;
  d.ksize = s.ksize;
  d.stride = s.stride;
  d.pad = s.pad;
  d.batch_norm = bn;
  d.act = act;
  return d;
}

/// Runs one ConvLayer (fresh weights from `seed`) under `policy` and returns
/// the output values. Blocks are kept small so multiple k/n panels are
/// exercised even on the small test shapes.
std::vector<float> run_layer(const dnn::ConvDesc& d,
                             const core::EnginePolicy& policy,
                             std::uint64_t seed = 42, unsigned vlen = 512) {
  dnn::ConvLayer layer(d, seed);
  vla::VectorEngine eng(vlen);
  dnn::ExecContext ctx(eng);
  core::ConvolutionEngine engine(policy);
  engine.install(ctx);
  dnn::Tensor in(d.in_c, d.in_h, d.in_w);
  Rng rng(7);
  in.randomize(rng);
  layer.forward(ctx, {&in});
  return {layer.output().data(),
          layer.output().data() + layer.output().size()};
}

core::EnginePolicy small_blocks(core::EnginePolicy p) {
  p.opt6.blocks = {16, 64, 32};
  return p;
}

TEST(FusedConv, GemmFusedIsBitIdenticalAcrossShapesBnAndActivations) {
  using dnn::Activation;
  for (const Shape& s : kShapes) {
    for (bool bn : {false, true}) {
      for (Activation act : {Activation::Linear, Activation::Relu,
                             Activation::Leaky, Activation::Logistic}) {
        const dnn::ConvDesc d = make_desc(s, bn, act);
        const auto unfused =
            run_layer(d, small_blocks(core::EnginePolicy::opt6loop()));
        const auto fused = run_layer(d, small_blocks(core::EnginePolicy::fused()));
        EXPECT_EQ(max_ulp(unfused, fused), 0u)
            << s.tag << " bn=" << bn << " act=" << dnn::to_string(act);
      }
    }
  }
}

TEST(FusedConv, WinogradFusedMatchesWithin2Ulp) {
  using dnn::Activation;
  for (const Shape& s : kShapes) {
    if (s.ksize != 3 || s.pad != 1) continue;  // Winograd-eligible only
    for (bool bn : {false, true}) {
      for (Activation act : {Activation::Linear, Activation::Relu,
                             Activation::Leaky, Activation::Logistic}) {
        const dnn::ConvDesc d = make_desc(s, bn, act);
        core::EnginePolicy unfused_p = core::EnginePolicy::winograd();
        unfused_p.winograd_stride2 = true;
        core::EnginePolicy fused_p = unfused_p;
        fused_p.fuse_conv = true;
        const auto unfused = run_layer(d, small_blocks(unfused_p));
        const auto fused = run_layer(d, small_blocks(fused_p));
        EXPECT_LE(max_ulp(unfused, fused), 2u)
            << s.tag << " bn=" << bn << " act=" << dnn::to_string(act);
      }
    }
  }
}

TEST(FusedConv, ImplicitPackMatchesMaterializedIm2col) {
  // Below the layer: Gemm6::conv_fused with an empty epilogue against the
  // fill + im2col_ref + operator() pipeline must be bit-identical — this
  // pins the implicit B-pack gather to the im2col definition.
  for (const Shape& s : kShapes) {
    const dnn::ConvDesc d = make_desc(s, false, dnn::Activation::Linear);
    const int m = d.gemm_m(), n = d.gemm_n(), k = d.gemm_k();
    const auto input = test::random_vec(
        static_cast<std::size_t>(d.in_c) * d.in_h * d.in_w, 3);
    const auto weights =
        test::random_vec(static_cast<std::size_t>(d.weight_count()), 4);

    gemm::Opt6Config cfg;
    cfg.blocks = {16, 48, 24};  // force several panels on the small shapes
    vla::VectorEngine eng(512);

    std::vector<float> col(static_cast<std::size_t>(k) * n);
    dnn::im2col_ref(d, input.data(), col.data());
    std::vector<float> want(static_cast<std::size_t>(m) * n, 0.0f);
    gemm::Gemm6 ref(cfg);
    ref(eng, m, n, k, 1.0f, weights.data(), k, col.data(), n, want.data(), n);

    std::vector<float> got(static_cast<std::size_t>(m) * n, -1.0f);
    gemm::Gemm6 fused(cfg);
    dnn::EpilogueDesc epi;  // empty: raw convolution
    ASSERT_TRUE(fused.conv_fused(eng, d, weights.data(), input.data(),
                                 got.data(), &epi))
        << s.tag;
    EXPECT_EQ(max_ulp(want, got), 0u) << s.tag;
  }
}

TEST(FusedConv, ConvFusedDeclinesWhenPackingDisabled) {
  const dnn::ConvDesc d =
      make_desc(kShapes[1], false, dnn::Activation::Linear);
  gemm::Opt6Config cfg;
  cfg.pack_b = false;
  gemm::Gemm6 g(cfg);
  vla::VectorEngine eng(512);
  const auto input = test::random_vec(
      static_cast<std::size_t>(d.in_c) * d.in_h * d.in_w, 3);
  const auto weights =
      test::random_vec(static_cast<std::size_t>(d.weight_count()), 4);
  std::vector<float> out(static_cast<std::size_t>(d.gemm_m()) * d.gemm_n());
  dnn::EpilogueDesc epi;
  EXPECT_FALSE(g.conv_fused(eng, d, weights.data(), input.data(), out.data(),
                            &epi));
}

/// Three-conv net covering 3x3/s1+BN+leaky, 1x1/s1+relu, 3x3/s2+BN.
std::unique_ptr<dnn::Network> small_net(int hw = 16) {
  auto net = std::make_unique<dnn::Network>(3, hw, hw, 99);
  net->add_conv(8, 3, 1, 1, dnn::Activation::Leaky, true);
  net->add_conv(12, 1, 1, 0, dnn::Activation::Relu, false);
  net->add_conv(8, 3, 2, 1, dnn::Activation::Leaky, true);
  return net;
}

std::vector<float> run_batched(const core::EnginePolicy& policy, int batch,
                               int threads) {
  auto net = small_net();
  core::ConvolutionEngine engine(policy);
  runtime::SchedulerConfig cfg;
  cfg.threads = threads;
  runtime::BatchScheduler sched(engine, cfg);
  dnn::Tensor input(batch, 3, 16, 16);
  input.randomize_batch(1234, 0.0f, 1.0f);
  const dnn::Tensor& out = sched.run(*net, input);
  return {out.data(), out.data() + out.size()};
}

TEST(FusedConv, Batch4MultiThreadedMatchesUnfused) {
  // 4 workers: batch 4 is one item per chunk, batch 1 one chunk per layer.
  for (int batch : {4, 1}) {
    const auto unfused =
        run_batched(small_blocks(core::EnginePolicy::opt6loop()), batch, 4);
    const auto fused =
        run_batched(small_blocks(core::EnginePolicy::fused()), batch, 4);
    EXPECT_EQ(max_ulp(unfused, fused), 0u) << "batch=" << batch;
  }
}

/// Runs one ConvLayer with a fused residual (skip tensor added after the
/// activation, then `post_act` — the folded shortcut) under `policy`.
std::vector<float> run_residual_layer(const dnn::ConvDesc& d,
                                      const core::EnginePolicy& policy,
                                      dnn::Activation post_act,
                                      std::uint64_t seed = 42) {
  dnn::ConvLayer layer(d, seed);
  layer.fuse_residual(/*from=*/0, post_act);
  vla::VectorEngine eng(512);
  dnn::ExecContext ctx(eng);
  core::ConvolutionEngine engine(policy);
  engine.install(ctx);
  dnn::Tensor in(d.in_c, d.in_h, d.in_w);
  Rng rng(7);
  in.randomize(rng);
  dnn::Tensor skip(d.out_c, d.out_h(), d.out_w());
  Rng rng2(8);
  skip.randomize(rng2);
  layer.forward(ctx, {&in, &skip});
  return {layer.output().data(),
          layer.output().data() + layer.output().size()};
}

TEST(FusedConv, ResidualFusedGemmBitIdenticalToUnfused) {
  // The folded shortcut-add (ROADMAP fused follow-up (b)) on the GEMM
  // microkernel's tile registers vs the unfused conv + axpy + activate
  // post-pass sequence: bit-identical across shapes, activations and the
  // shortcut's own activation (Logistic post-act stays a scalar post-pass).
  using dnn::Activation;
  for (const Shape& s : kShapes) {
    for (Activation act : {Activation::Leaky, Activation::Logistic}) {
      for (Activation post :
           {Activation::Linear, Activation::Leaky, Activation::Logistic}) {
        const dnn::ConvDesc d = make_desc(s, true, act);
        const auto unfused = run_residual_layer(
            d, small_blocks(core::EnginePolicy::opt6loop()), post);
        const auto fused = run_residual_layer(
            d, small_blocks(core::EnginePolicy::fused()), post);
        EXPECT_EQ(max_ulp(unfused, fused), 0u)
            << s.tag << " act=" << dnn::to_string(act)
            << " post=" << dnn::to_string(post);
      }
    }
  }
}

TEST(FusedConv, ResidualFusedWinogradMatchesWithin2Ulp) {
  // Same contract on the Winograd output transform (interior scatter, edge
  // tiles, and the stride-2 subsample pass all add the skip tensor).
  using dnn::Activation;
  for (const Shape& s : kShapes) {
    if (s.ksize != 3 || s.pad != 1) continue;  // Winograd-eligible only
    for (Activation post : {Activation::Linear, Activation::Leaky}) {
      const dnn::ConvDesc d = make_desc(s, true, Activation::Leaky);
      core::EnginePolicy unfused_p = core::EnginePolicy::winograd();
      unfused_p.winograd_stride2 = true;
      core::EnginePolicy fused_p = unfused_p;
      fused_p.fuse_conv = true;
      const auto unfused =
          run_residual_layer(d, small_blocks(unfused_p), post);
      const auto fused = run_residual_layer(d, small_blocks(fused_p), post);
      EXPECT_LE(max_ulp(unfused, fused), 2u)
          << s.tag << " post=" << dnn::to_string(post);
    }
  }
}

TEST(FusedConv, NetworkFuseResidualsBitIdenticalAcrossBackends) {
  // Whole-model check on YOLOv3's residual blocks: folding the shortcuts
  // into their producing 3x3 convolutions (Network::fuse_residuals) must
  // not change a single bit of the output, whichever backend serves the
  // convs — unfused GEMM (post-pass add), fused implicit-GEMM, or fused
  // Winograd — batch 1 and batch 4 multi-threaded.
  struct Mode {
    int batch, threads;
  };
  // batch 1 on one worker, batch 1 on four workers (still one chunk per
  // layer), batch 4 item-sharded.
  constexpr Mode kModes[] = {{1, 1}, {1, 4}, {4, 4}};
  for (const auto& policy :
       {core::EnginePolicy::opt6loop(), core::EnginePolicy::fused(),
        core::EnginePolicy::fused(/*use_winograd=*/true)}) {
    for (const Mode mode : kModes) {
      const int batch = mode.batch, threads = mode.threads;
      auto run = [&](bool fold) {
        auto net = dnn::build_yolov3(48, 8);  // includes one residual block
        if (fold) {
          EXPECT_GT(net->fuse_residuals(), 0);
        }
        core::ConvolutionEngine engine(policy);
        runtime::SchedulerConfig cfg;
        cfg.threads = threads;
        runtime::BatchScheduler sched(engine, cfg);
        dnn::Tensor input(batch, net->in_c(), net->in_h(), net->in_w());
        input.randomize_batch(1234, 0.0f, 1.0f);
        const dnn::Tensor& out = sched.run(*net, input);
        return std::vector<float>(out.data(), out.data() + out.size());
      };
      const auto plain = run(false);
      const auto folded = run(true);
      EXPECT_EQ(max_ulp(plain, folded), 0u)
          << "batch=" << batch << " threads=" << threads;
    }
  }
}

TEST(FusedConv, FusedMovesFewerBytes) {
  dnn::ConvDesc d;
  d.in_c = 32;
  d.in_h = d.in_w = 32;
  d.out_c = 32;
  d.ksize = 3;
  d.stride = 1;
  d.pad = 1;
  d.batch_norm = true;
  d.act = dnn::Activation::Leaky;

  auto traffic = [&](const core::EnginePolicy& policy) {
    dnn::ConvLayer layer(d, 5);
    vla::VectorEngine eng(512);
    dnn::ExecContext ctx(eng);
    core::ConvolutionEngine engine(policy);
    engine.install(ctx);
    dnn::Tensor in(d.in_c, d.in_h, d.in_w);
    Rng rng(7);
    in.randomize(rng);
    layer.forward(ctx, {&in});
    return eng.mem_bytes_moved();
  };

  const std::uint64_t unfused = traffic(core::EnginePolicy::opt6loop());
  const std::uint64_t fused = traffic(core::EnginePolicy::fused());
  // The workspace round-trip, the fill pass, the first C read and the four
  // output-tensor post-passes are gone; at engine level (every load/store
  // counted, cache-less) that is a >15% cut. The DRAM-level cut measured by
  // `bench_paper --figure=fused` is far larger.
  EXPECT_LT(static_cast<double>(fused), 0.85 * static_cast<double>(unfused))
      << "fused=" << fused << " unfused=" << unfused;
}

}  // namespace
}  // namespace vlacnn
