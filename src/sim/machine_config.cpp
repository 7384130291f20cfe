#include "sim/machine_config.hpp"

#include "common/error.hpp"

namespace vlacnn::sim {

namespace {
bool is_pow2(std::uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }
}  // namespace

MachineConfig MachineConfig::with_vlen(unsigned bits) const {
  VLACNN_REQUIRE(is_pow2(bits) && bits >= 128 && bits <= max_vlen_bits,
                 "vector length must be a power of two within [128, MVL]");
  MachineConfig c = *this;
  c.vlen_bits = bits;
  return c;
}

MachineConfig MachineConfig::with_l2_size(std::uint64_t bytes) const {
  VLACNN_REQUIRE(bytes >= 64 * 1024, "L2 must be at least 64 KiB");
  MachineConfig c = *this;
  c.l2.size_bytes = bytes;
  return c;
}

MachineConfig MachineConfig::with_lanes(unsigned n) const {
  VLACNN_REQUIRE(is_pow2(n) && n >= 1 && n <= 64, "lanes must be pow2 in [1,64]");
  MachineConfig c = *this;
  c.lanes = n;
  c.lanes_proportional_to_vl = false;
  return c;
}

MachineConfig rvv_gem5() {
  MachineConfig c;
  c.name = "riscv-vector-gem5";
  c.isa = Isa::RiscvVector;
  c.core = CoreKind::InOrder;
  c.max_vlen_bits = 16384;
  c.vlen_bits = 512;
  c.lanes = 8;
  c.lanes_proportional_to_vl = false;
  c.vector_pipes = 1;
  c.l1 = CacheConfig{64 * 1024, 4, 64, 4};
  c.l2 = CacheConfig{1 * 1024 * 1024, 8, 64, 12};
  c.vector_cache_bytes = 2 * 1024;  // paper §III-A: 2 KB VectorCache buffer
  c.vector_through_l1 = false;      // VPU is connected to the L2 cache
  c.hw_prefetch = false;
  c.sw_prefetch_effective = false;  // RVV has no prefetch instructions
  // Decoupled VPU: every vector instruction pays a dispatch/queue overhead
  // on the vector pipe that only long vectors amortize (the mechanism
  // behind Fig. 6's 2.5x headroom at fixed lane count).
  c.vector_dispatch_cycles = 8.0;
  return c;
}

MachineConfig sve_gem5() {
  MachineConfig c;
  c.name = "arm-sve-gem5";
  c.isa = Isa::ArmSve;
  c.core = CoreKind::InOrder;
  c.max_vlen_bits = 2048;
  c.vlen_bits = 512;
  c.lanes_proportional_to_vl = true;  // gem5's SVE model (paper §VI-D)
  c.vector_pipes = 1;
  c.l1 = CacheConfig{64 * 1024, 4, 64, 4};
  c.l2 = CacheConfig{1 * 1024 * 1024, 8, 64, 12};
  c.vector_cache_bytes = 0;
  c.vector_through_l1 = true;  // SVE vector data is accessed through L1
  c.hw_prefetch = false;
  c.sw_prefetch_effective = false;  // gem5 treats prefetch as no-ops
  // gem5's SVE pipeline re-dispatches each predicated micro-op; a smaller
  // per-instruction overhead than the decoupled RVV unit.
  c.vector_dispatch_cycles = 2.0;
  return c;
}

MachineConfig a64fx() {
  MachineConfig c;
  c.name = "a64fx";
  c.isa = Isa::ArmSve;
  c.core = CoreKind::OutOfOrder;
  c.max_vlen_bits = 512;  // fixed-silicon vector length
  c.vlen_bits = 512;
  c.lanes = 16;           // 512-bit datapath = 16 fp32 lanes
  c.lanes_proportional_to_vl = false;
  // One FMA pipe: 16 lanes x 2 flops x 2 GHz = 64 GFLOP/s, matching the
  // paper's quoted 62.5 GFLOP/s single-core peak (§VI-C). The second SIMD
  // unit serves loads/stores, which the memory port models separately.
  c.vector_pipes = 1;
  c.l1 = CacheConfig{64 * 1024, 4, 256, 5};
  c.l2 = CacheConfig{8 * 1024 * 1024, 16, 256, 40};
  c.vector_cache_bytes = 0;
  c.vector_through_l1 = true;
  c.hw_prefetch = true;
  c.sw_prefetch_effective = true;  // prefetch instructions take effect
  c.dram_latency_cycles = 220;
  c.dram_bytes_per_cycle = 32.0;
  c.startup_base_cycles = 4.0;
  c.startup_per_lane = 0.125;
  c.issue_width = 4;             // A64FX decodes up to 4 instructions/cycle
  c.inflight_window = 48;        // lean OoO: bounded latency hiding
  c.mem_level_parallelism = 8;   // non-blocking caches overlap misses
  c.tlb_entries = 64;            // L1 DTLB; gem5 SE runs translate for free
  c.tlb_miss_cycles = 25;
  return c;
}

MachineConfig machine_by_name(const std::string& name) {
  if (name == "rvv") return rvv_gem5();
  if (name == "sve") return sve_gem5();
  if (name == "a64fx") return a64fx();
  throw InvalidArgument("unknown machine \"" + name +
                        "\" (valid: rvv, sve, a64fx)");
}

}  // namespace vlacnn::sim
