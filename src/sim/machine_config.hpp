#pragma once

#include <cstdint>
#include <string>

namespace vlacnn::sim {

/// Geometry and timing of one cache level.
struct CacheConfig {
  std::uint64_t size_bytes = 0;
  unsigned associativity = 8;
  unsigned line_bytes = 64;
  unsigned latency_cycles = 4;

  [[nodiscard]] std::uint64_t num_sets() const {
    return size_bytes / (static_cast<std::uint64_t>(associativity) * line_bytes);
  }
};

/// Which vector ISA frontend the machine exposes. This also selects the
/// vector unit's memory path: the RISC-V Vector design under study attaches
/// the VPU to the L2 cache through a small VectorCache buffer, while
/// ARM-SVE vector accesses go through the L1 data cache (paper §III-A).
enum class Isa { RiscvVector, ArmSve };

enum class CoreKind { InOrder, OutOfOrder };

/// Full micro-architectural parameter set for one simulated machine.
/// Field defaults correspond to the paper's RISC-V Vector @ gem5 baseline
/// (Table I); use the presets below for the three studied platforms.
struct MachineConfig {
  std::string name = "riscv-vector-gem5";
  Isa isa = Isa::RiscvVector;
  CoreKind core = CoreKind::InOrder;
  double freq_ghz = 2.0;

  // ---- vector unit ----
  unsigned max_vlen_bits = 16384;  ///< architectural MVL
  unsigned vlen_bits = 512;        ///< configured hardware vector length
  unsigned lanes = 8;              ///< 32-bit elements retired per cycle/pipe
  bool lanes_proportional_to_vl = false;  ///< SVE @ gem5 behaviour
  unsigned vector_pipes = 1;       ///< parallel FMA pipes (A64FX has 2)

  // ---- memory hierarchy ----
  CacheConfig l1{64 * 1024, 4, 64, 4};
  CacheConfig l2{1 * 1024 * 1024, 8, 64, 12};
  unsigned vector_cache_bytes = 2 * 1024;  ///< RVV VPU<->L2 buffer; 0 = none
  bool vector_through_l1 = false;  ///< true for SVE, false for RVV
  bool hw_prefetch = false;        ///< stream prefetcher (A64FX)
  bool sw_prefetch_effective = false;  ///< prefetch intrinsics take effect
  unsigned dram_latency_cycles = 140;
  double dram_bytes_per_cycle = 16.0;

  // ---- pipeline timing knobs ----
  double startup_base_cycles = 6.0;   ///< fixed vector-instruction startup
  double startup_per_lane = 0.5;      ///< extra startup per lane (paper §V)
  double scalar_op_cycles = 1.0;      ///< cost of one scalar bookkeeping op
  double vector_dispatch_cycles = 0.0;  ///< per-instruction vector-pipe
                                        ///< overhead (decoupled VPU dispatch)
  unsigned issue_width = 1;           ///< instructions decoded per cycle
  unsigned inflight_window = 8;       ///< max overlapped vector instructions
  unsigned mem_level_parallelism = 1; ///< outstanding misses overlapped

  // ---- TLB (real silicon only; gem5 SE-mode translation is free) ----
  unsigned tlb_entries = 0;           ///< 0 disables TLB modelling
  unsigned tlb_miss_cycles = 25;      ///< page-walk penalty

  /// Elements of `elem_bits` held by one vector register at the configured VL.
  [[nodiscard]] unsigned elements_per_vreg(unsigned elem_bits = 32) const {
    return vlen_bits / elem_bits;
  }

  /// Effective lane count (SVE @ gem5 scales lanes with VL, paper §VI-D).
  [[nodiscard]] unsigned effective_lanes() const {
    if (lanes_proportional_to_vl) return vlen_bits / 128u;
    return lanes;
  }

  /// Peak FP32 FLOP/s of one core (2 flops per FMA lane per pipe).
  [[nodiscard]] double peak_gflops() const {
    return 2.0 * effective_lanes() * vector_pipes * freq_ghz;
  }

  /// Returns a copy with a different configured vector length.
  [[nodiscard]] MachineConfig with_vlen(unsigned bits) const;
  /// Returns a copy with a different L2 capacity. The preset's L2 latency is
  /// kept: the paper's co-design conclusions assume the latency "remains
  /// low" as capacity grows (12 cycles, extrapolated from AMD Zen2 with
  /// CACTI, §III-B).
  [[nodiscard]] MachineConfig with_l2_size(std::uint64_t bytes) const;
  /// Returns a copy with a different lane count.
  [[nodiscard]] MachineConfig with_lanes(unsigned n) const;
};

/// Paper Table I presets.
MachineConfig rvv_gem5();    ///< RISC-V Vector @ gem5 (in-order, VPU on L2)
MachineConfig sve_gem5();    ///< ARM-SVE @ gem5 (in-order, vector via L1)
MachineConfig a64fx();       ///< Fujitsu A64FX (OoO, HW prefetch, 512-bit)

/// The preset a `--machine=` flag names: "rvv" -> rvv_gem5(), "sve" ->
/// sve_gem5(), "a64fx" -> a64fx(). Throws InvalidArgument listing the valid
/// names on anything else, so a typo never runs a default machine.
MachineConfig machine_by_name(const std::string& name);

}  // namespace vlacnn::sim
