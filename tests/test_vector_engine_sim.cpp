// Instrumented vector engine: the same kernel code must produce identical
// numerics with and without a simulator attached, while feeding cycle and
// cache statistics.

#include <gtest/gtest.h>

#include <vector>

#include "sim/sim_context.hpp"
#include "test_util.hpp"
#include "vla/vector_engine.hpp"

namespace vlacnn::vla {
namespace {

using test::random_vec;

TEST(EngineSim, NumericsIdenticalWithAndWithoutSim) {
  // Drives every header-inline hot op (tail setvl, load/store, broadcast,
  // the FMAs, the binops and *_scalar ops, scalar_mem) on a plain and an
  // instrumented engine: outputs and the functional traffic counters
  // (what vla.engine_mb_per_image reports) must not depend on the context.
  auto src = random_vec(1000, 1);
  auto src2 = random_vec(1000, 2, 0.5f, 2.0f);
  auto run = [&](VectorEngine& eng) {
    std::vector<float> out(4 * src.size(), 0.0f);
    for (std::size_t i = 0; i < src.size();) {
      const std::size_t vl = eng.setvl(src.size() - i);  // 1000 % 16: tail
      eng.vload(0, src.data() + i);
      eng.vload(5, src2.data() + i);
      eng.vmul_scalar(1, 0, 3.0f);
      eng.vfma_scalar(1, -1.0f, 0);
      eng.vbroadcast(2, 0.25f);
      eng.vfma(2, 0, 1);
      eng.vadd_scalar(3, 2, 1.0f);
      eng.vmax_scalar(3, 3, 0.5f);
      eng.vadd(4, 1, 3);
      eng.vadd(4, 4, 0);
      eng.vmul(4, 4, 2);
      eng.vmul(6, 4, 5);
      eng.vmin(7, 6, 5);
      eng.vmin(8, 6, 0);
      eng.vstore(1, out.data() + i);
      eng.vstore(6, out.data() + src.size() + i);
      eng.vstore(7, out.data() + 2 * src.size() + i);
      eng.vstore(8, out.data() + 3 * src.size() + i);
      eng.scalar_ops(3);
      eng.scalar_mem(src.data() + i, sizeof(float), false);
      eng.scalar_mem(out.data() + i, sizeof(float), true);
      i += vl;
    }
    return out;
  };
  VectorEngine plain(512);
  sim::SimContext ctx(sim::rvv_gem5());
  VectorEngine instrumented(ctx);
  EXPECT_EQ(run(plain), run(instrumented));
  EXPECT_GT(ctx.cycles(), 0u);
  EXPECT_GT(plain.mem_bytes_read(), 0u);
  EXPECT_EQ(plain.mem_bytes_read(), instrumented.mem_bytes_read());
  EXPECT_EQ(plain.mem_bytes_written(), instrumented.mem_bytes_written());
}

TEST(EngineSim, EngineTakesVlenFromMachine) {
  sim::SimContext ctx(sim::rvv_gem5().with_vlen(4096));
  VectorEngine eng(ctx);
  EXPECT_EQ(eng.vlen_bits(), 4096u);
  EXPECT_EQ(eng.vlmax(), 128u);
}

TEST(EngineSim, CyclesAccumulateMonotonically) {
  sim::SimContext ctx(sim::rvv_gem5());
  VectorEngine eng(ctx);
  auto buf = random_vec(256, 2);
  eng.setvl(16);
  eng.vload(0, buf.data());
  const auto c1 = ctx.cycles();
  eng.vload(1, buf.data() + 16);
  eng.vfma(0, 0, 1);
  const auto c2 = ctx.cycles();
  EXPECT_GT(c1, 0u);
  EXPECT_GT(c2, c1);
}

TEST(EngineSim, MemoryOpsReachTheCaches) {
  sim::SimContext ctx(sim::sve_gem5());
  VectorEngine eng(ctx);
  auto buf = random_vec(64, 3);
  eng.setvl(16);
  eng.vload(0, buf.data());
  EXPECT_GT(ctx.memory().l1_stats().accesses, 0u);
}

TEST(EngineSim, RepeatedLoadsHitCache) {
  sim::SimContext ctx(sim::sve_gem5());
  VectorEngine eng(ctx);
  auto buf = random_vec(16, 4);
  eng.setvl(16);
  eng.vload(0, buf.data());
  const auto misses_cold = ctx.memory().l1_stats().misses;
  for (int i = 0; i < 10; ++i) eng.vload(0, buf.data());
  EXPECT_EQ(ctx.memory().l1_stats().misses, misses_cold);
}

TEST(EngineSim, AvgVectorLengthReflectsTails) {
  // 100 full strips + tail of 1 element: avg VL just below VLMAX, the
  // Table III effect.
  sim::SimContext ctx(sim::rvv_gem5().with_vlen(512));
  VectorEngine eng(ctx);
  auto buf = random_vec(16 * 100 + 1, 5);
  for (std::size_t i = 0; i < buf.size();) {
    const std::size_t vl = eng.setvl(buf.size() - i);
    eng.vload(0, buf.data() + i);
    i += vl;
  }
  const double avg = ctx.timing().stats().avg_vector_length_elems();
  EXPECT_LT(avg, 16.0);
  EXPECT_GT(avg, 15.5);
}

TEST(EngineSim, GatherCostsMoreThanUnitLoad) {
  auto cycles_for = [](bool gather) {
    sim::SimContext ctx(sim::rvv_gem5().with_vlen(2048));
    VectorEngine eng(ctx);
    static std::vector<float> buf;
    buf = random_vec(4096, 6);
    std::vector<std::int32_t> idx(64);
    for (int i = 0; i < 64; ++i) idx[static_cast<std::size_t>(i)] = i * 64 % 4096;
    eng.setvl(64);
    for (int r = 0; r < 20; ++r) {
      if (gather)
        eng.vgather(0, buf.data(), idx.data());
      else
        eng.vload(0, buf.data());
    }
    return ctx.cycles();
  };
  EXPECT_GT(cycles_for(true), cycles_for(false));
}

TEST(EngineSim, ScalarOpsAdvanceClock) {
  sim::SimContext ctx(sim::rvv_gem5());
  VectorEngine eng(ctx);
  const auto c0 = ctx.cycles();
  eng.scalar_ops(1000);
  EXPECT_GE(ctx.cycles(), c0 + 1000);
}

TEST(EngineSim, PrefetchNoopStillDecodes) {
  sim::SimContext ctx(sim::sve_gem5());  // prefetch ignored on gem5 SVE
  VectorEngine eng(ctx);
  auto buf = random_vec(64, 7);
  const auto c0 = ctx.cycles();
  eng.prefetch(buf.data(), 256, 1);
  EXPECT_GT(ctx.cycles(), c0);  // decode slot charged
  // But the data is NOT resident afterwards.
  eng.setvl(16);
  eng.vload(0, buf.data());
  EXPECT_GT(ctx.memory().l1_stats().misses, 0u);
}

}  // namespace
}  // namespace vlacnn::vla
