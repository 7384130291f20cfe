// Machine presets vs the paper's Table I, and the config mutation helpers.

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "sim/machine_config.hpp"

namespace vlacnn::sim {
namespace {

TEST(MachineConfig, RvvPresetMatchesTableI) {
  const MachineConfig c = rvv_gem5();
  EXPECT_EQ(c.isa, Isa::RiscvVector);
  EXPECT_EQ(c.core, CoreKind::InOrder);
  EXPECT_DOUBLE_EQ(c.freq_ghz, 2.0);
  EXPECT_EQ(c.max_vlen_bits, 16384u);
  EXPECT_EQ(c.l1.size_bytes, 64u * 1024);
  EXPECT_EQ(c.l1.associativity, 4u);
  EXPECT_EQ(c.l2.size_bytes, 1024u * 1024);
  EXPECT_EQ(c.l2.associativity, 8u);
  EXPECT_EQ(c.l2.line_bytes, 64u);
  EXPECT_EQ(c.vector_cache_bytes, 2048u);  // 2 KB VectorCache buffer
  EXPECT_FALSE(c.vector_through_l1);
  EXPECT_FALSE(c.hw_prefetch);
  EXPECT_FALSE(c.sw_prefetch_effective);
  EXPECT_EQ(c.lanes, 8u);
}

TEST(MachineConfig, SvePresetMatchesTableI) {
  const MachineConfig c = sve_gem5();
  EXPECT_EQ(c.isa, Isa::ArmSve);
  EXPECT_EQ(c.max_vlen_bits, 2048u);
  EXPECT_TRUE(c.vector_through_l1);
  EXPECT_TRUE(c.lanes_proportional_to_vl);
  EXPECT_EQ(c.with_vlen(512).effective_lanes(), 4u);    // 512/128
  EXPECT_EQ(c.with_vlen(2048).effective_lanes(), 16u);  // 2048/128
}

TEST(MachineConfig, A64fxPresetMatchesTableI) {
  const MachineConfig c = a64fx();
  EXPECT_EQ(c.core, CoreKind::OutOfOrder);
  EXPECT_EQ(c.vlen_bits, 512u);
  EXPECT_EQ(c.l2.size_bytes, 8u * 1024 * 1024);
  EXPECT_EQ(c.l2.associativity, 16u);
  EXPECT_EQ(c.l1.line_bytes, 256u);
  EXPECT_TRUE(c.hw_prefetch);
  EXPECT_TRUE(c.sw_prefetch_effective);
  EXPECT_EQ(c.vector_pipes, 1u);
  EXPECT_EQ(c.issue_width, 4u);
  EXPECT_GT(c.tlb_entries, 0u);  // real silicon pays page walks
  // Paper §VI-C: single-core peak 62.5 GFLOP/s (16 fp32 FMA lanes @ 2 GHz).
  EXPECT_NEAR(c.peak_gflops(), 62.5, 3.0);
}

TEST(MachineConfig, WithVlenValidates) {
  const MachineConfig c = rvv_gem5();
  EXPECT_EQ(c.with_vlen(16384).vlen_bits, 16384u);
  EXPECT_THROW(c.with_vlen(32768), InvalidArgument);  // beyond MVL
  EXPECT_THROW(c.with_vlen(300), InvalidArgument);    // not pow2
  const MachineConfig s = sve_gem5();
  EXPECT_THROW(s.with_vlen(4096), InvalidArgument);   // SVE MVL is 2048
}

TEST(MachineConfig, WithL2SizeAdjustsLatencyModel) {
  // Paper methodology: resizing the L2 keeps the preset's latency (12
  // cycles on the gem5 presets, CACTI-extrapolated) — it never resets it
  // to another preset's value.
  const MachineConfig rvv = rvv_gem5().with_l2_size(256ull << 20);
  EXPECT_EQ(rvv.l2.size_bytes, 256ull << 20);
  EXPECT_EQ(rvv.l2.latency_cycles, 12u);
  // A64FX at its own 8 MiB L2 keeps its 40-cycle latency.
  const MachineConfig fx = a64fx().with_l2_size(8ull << 20);
  EXPECT_EQ(fx.l2.size_bytes, 8ull << 20);
  EXPECT_EQ(fx.l2.latency_cycles, 40u);
}

TEST(MachineConfig, ElementsPerVreg) {
  EXPECT_EQ(rvv_gem5().with_vlen(512).elements_per_vreg(), 16u);
  EXPECT_EQ(rvv_gem5().with_vlen(16384).elements_per_vreg(), 512u);
}

TEST(MachineConfig, WithLanesValidates) {
  EXPECT_EQ(rvv_gem5().with_lanes(2).effective_lanes(), 2u);
  EXPECT_THROW(rvv_gem5().with_lanes(3), InvalidArgument);
}

TEST(MachineConfig, MachineByNameMapsFlagNamesAndRejectsTypos) {
  EXPECT_EQ(machine_by_name("rvv").name, rvv_gem5().name);
  EXPECT_EQ(machine_by_name("sve").name, sve_gem5().name);
  EXPECT_EQ(machine_by_name("a64fx").name, a64fx().name);
  // A typo (or a preset's long name) must not fall back to a default.
  for (const char* bad : {"rvvv", "", "SVE", "a64fx ", "riscv-vector-gem5"}) {
    try {
      (void)machine_by_name(bad);
      ADD_FAILURE() << "accepted --machine=" << bad;
    } catch (const InvalidArgument& e) {
      const std::string what = e.what();
      for (const char* valid : {"rvv", "sve", "a64fx"})
        EXPECT_NE(what.find(valid), std::string::npos) << what;
    }
  }
}

}  // namespace
}  // namespace vlacnn::sim
