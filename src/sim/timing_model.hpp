#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "sim/machine_config.hpp"
#include "sim/memory_system.hpp"

namespace vlacnn::sim {

/// Classes of dynamic vector instructions, for accounting.
enum class VopClass {
  Arith,      // add/mul/min/max
  Fma,        // fused multiply-add (counts 2 flops/element)
  Load,
  Store,
  Gather,
  Permute,    // transpose/zip/table ops
  Broadcast,  // scalar -> vector
  SetVl,      // vsetvl
};

struct TimingStats {
  std::uint64_t cycles = 0;            // completion horizon
  std::uint64_t vector_instructions = 0;
  std::uint64_t scalar_ops = 0;
  std::uint64_t elements = 0;          // sum of per-instruction vector lengths
  std::uint64_t flops = 0;
  std::uint64_t vl_sample_count = 0;   // #instructions contributing elements
  std::uint64_t mem_stall_cycles = 0;  // exposed memory stall
  std::uint64_t issue_stall_cycles = 0;

  [[nodiscard]] double avg_vector_length_elems() const {
    return vl_sample_count == 0
               ? 0.0
               : static_cast<double>(elements) / static_cast<double>(vl_sample_count);
  }
  void reset() { *this = TimingStats{}; }
};

/// Scoreboard timing model of an in-order (optionally OoO-overlapping) core
/// with a configurable-width vector unit.
///
/// Model (paper §V knobs):
///  * each dynamic vector instruction occupies a vector pipe for
///    `ceil(E / lanes)` cycles and its result becomes available after an
///    additional startup latency `s0 + s1·lanes` — more lanes shorten
///    occupancy but raise startup, reproducing the paper's lane trade-off;
///  * issue is 1 instruction/cycle and stalls on (a) unavailable source
///    registers and (b) a bounded in-flight window (`inflight_window`),
///    which is small for the in-order gem5 MinorCPU and large for A64FX;
///  * memory costs come from MemorySystem: the serial part always stalls the
///    instruction; the overlappable miss part is divided by the machine's
///    memory-level parallelism and additionally floor-bounded by DRAM
///    bandwidth, so long vectors that miss in L2 become bandwidth-bound;
///  * scalar bookkeeping (loop control, address arithmetic) charges
///    `scalar_op_cycles` on the scalar pipe — this is the overhead long
///    vector lengths amortize.
class VectorTimingModel {
 public:
  static constexpr unsigned kNumVregs = 32;

  explicit VectorTimingModel(const MachineConfig& cfg);

  /// Records a non-memory vector instruction writing `dst` (0..31, or -1 for
  /// none) reading `srcs`.
  void vop(VopClass cls, int dst, std::initializer_list<int> srcs,
           std::uint64_t elements);

  /// Records a vector memory instruction with a pre-computed memory cost.
  void vmem(VopClass cls, int dst, std::initializer_list<int> srcs,
            std::uint64_t elements, const MemCost& cost);

  /// Records `count` scalar bookkeeping operations.
  void scalar(std::uint64_t count = 1);

  /// Records a scalar memory access (through L1).
  void scalar_mem(const MemCost& cost);

  /// scalar_mem() of a one-line L1 hit (MemorySystem::scalar_hit): it
  /// takes a share of an issue slot and cannot stall on memory.
  void scalar_hit() {
    stats_.mem_stall_cycles += hit_stall_;
    issue_cycle_ += hit_stall_;
    horizon_ = std::max(horizon_, issue_cycle_);
    ++stats_.scalar_ops;
  }

  /// Advances the clock to the completion horizon and returns it.
  std::uint64_t finish();

  [[nodiscard]] const TimingStats& stats() const { return stats_; }
  [[nodiscard]] std::uint64_t now() const { return issue_cycle_; }
  void reset();

 private:
  std::uint64_t issue(int dst, std::initializer_list<int> srcs,
                      std::uint64_t occupancy, std::uint64_t extra_latency,
                      std::uint64_t elements, VopClass cls);
  [[nodiscard]] std::uint64_t mem_exposed_cycles(const MemCost& cost) const;
  /// ceil(elements / lanes): cycles a vector op occupies its pipe.
  [[nodiscard]] std::uint64_t lane_cycles(std::uint64_t elements) const {
    const std::uint64_t e = elements + lanes_ - 1;
    return lanes_shift_ >= 0 ? e >> lanes_shift_ : e / lanes_;
  }

  MachineConfig cfg_;
  // Per-config constants, computed once in the constructor.
  unsigned lanes_;                 // max(1, effective lanes)
  int lanes_shift_;                // log2(lanes_) if a power of two, else -1
  unsigned issue_width_;           // max(1, issue_width)
  unsigned mlp_;                   // max(1, mem_level_parallelism)
  std::uint64_t dispatch_;         // rounded vector_dispatch_cycles
  std::uint64_t startup_;          // rounded s0 + s1 * effective lanes
  std::uint64_t hit_stall_;        // scalar_mem's stall for a one-line hit

  std::uint64_t issue_cycle_ = 0;
  std::array<std::uint64_t, kNumVregs> reg_ready_{};
  std::vector<std::uint64_t> pipe_free_;   // one per vector pipe
  std::uint64_t mem_port_free_ = 0;        // vector memory port
  double issue_frac_ = 0.0;                // sub-cycle issue accumulation
  std::vector<std::uint64_t> inflight_;    // completion ring buffer
  std::size_t inflight_pos_ = 0;
  std::uint64_t horizon_ = 0;
  TimingStats stats_;
};

}  // namespace vlacnn::sim
