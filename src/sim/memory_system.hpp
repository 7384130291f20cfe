#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "sim/cache.hpp"
#include "sim/fully_associative_lru.hpp"
#include "sim/machine_config.hpp"
#include "sim/prefetcher.hpp"

namespace vlacnn::sim {

/// Cycle cost of one (possibly multi-line) memory operation, split into a
/// serial part (entry-level latency + line transfer) and an overlappable
/// part (miss penalties, which non-blocking caches / OoO cores can overlap
/// up to the machine's memory-level parallelism).
struct MemCost {
  std::uint64_t serial_cycles = 0;
  std::uint64_t overlappable_cycles = 0;
  std::uint64_t translation_cycles = 0;  ///< TLB page-walk penalty
  std::uint64_t lines = 0;
  std::uint64_t dram_lines = 0;

  MemCost& operator+=(const MemCost& o) {
    serial_cycles += o.serial_cycles;
    overlappable_cycles += o.overlappable_cycles;
    translation_cycles += o.translation_cycles;
    lines += o.lines;
    dram_lines += o.dram_lines;
    return *this;
  }
};

/// Two-level data-cache hierarchy plus the vector unit's entry path.
///
/// Paper §III-A: on the RISC-V Vector design, the VPU reads/writes through a
/// small (2 KB) VectorCache buffer attached to the **L2** cache — vector data
/// never touches L1. On ARM-SVE (gem5 and A64FX), vector accesses go through
/// the **L1** data cache. Scalar accesses always use L1 on both.
class MemorySystem {
 public:
  explicit MemorySystem(const MachineConfig& cfg);

  /// Simulates a contiguous access of `bytes` at simulated address `addr`
  /// issued by the vector unit.
  MemCost vector_access(std::uint64_t addr, std::uint64_t bytes, bool write);

  /// Simulates `n` element accesses of `elem_bytes` at stride `stride_bytes`
  /// (strided / gather / scatter traffic: each element touches its own line).
  MemCost vector_access_strided(std::uint64_t base, std::int64_t stride_bytes,
                                std::uint64_t elem_bytes, std::uint64_t n,
                                bool write);

  /// Simulates a scalar load/store through L1.
  MemCost scalar_access(std::uint64_t addr, std::uint64_t bytes, bool write);

  /// The inline hit path of scalar_access: if the access is one line, the
  /// machine has no TLB and no prefetcher, and the line is in L1, records
  /// the hit exactly as scalar_access would and returns true (its cost is
  /// one line at L1 latency). Otherwise touches nothing and returns false.
  bool scalar_hit(std::uint64_t addr, std::uint64_t bytes, bool write) {
    return scalar_one_step_ &&
           bytes - 1 < cfg_.l1.line_bytes - (addr & (cfg_.l1.line_bytes - 1)) &&
           l1_.access_if_hit(addr, write);
  }

  /// Software prefetch of [addr, addr+bytes) into L1 (`level`==1) or L2.
  /// A no-op unless the machine honours prefetch instructions (paper §IV-A:
  /// RVV lacks them; gem5's SVE model treats them as no-ops; A64FX honours
  /// them).
  void software_prefetch(std::uint64_t addr, std::uint64_t bytes, int level);

  /// Invalidates all cache state and statistics.
  void reset();

  [[nodiscard]] const CacheStats& l1_stats() const { return l1_.stats(); }
  [[nodiscard]] const CacheStats& l2_stats() const { return l2_.stats(); }
  [[nodiscard]] const CacheStats* vector_cache_stats() const {
    return vcache_ ? &vcache_->stats() : nullptr;
  }
  [[nodiscard]] const PrefetcherStats* prefetcher_stats() const {
    return prefetcher_ ? &prefetcher_->stats() : nullptr;
  }
  [[nodiscard]] std::uint64_t dram_line_fills() const { return dram_lines_; }
  [[nodiscard]] std::uint64_t tlb_misses() const {
    return tlb_ ? tlb_->stats().misses : 0;
  }
  [[nodiscard]] const MachineConfig& config() const { return cfg_; }

  /// DRAM-fill attribution: fills whose line address falls inside any
  /// watched simulated-address window are additionally counted in
  /// watched_dram_line_fills(). The weight-residency benches watch the
  /// weight (and packed-weight) buffers — via sim::AddressMap translation —
  /// to measure per-item weight DRAM traffic in isolation. Watches are
  /// configuration, so reset() zeroes the counter but keeps the windows.
  void add_dram_watch(std::uint64_t sim_base, std::uint64_t bytes);
  [[nodiscard]] std::uint64_t watched_dram_line_fills() const {
    return watched_dram_lines_;
  }

 private:
  /// Returns the page-walk penalty (0 on a TLB hit). Callers skip it when
  /// TLB modelling is off (`tlb_entries == 0`).
  std::uint64_t tlb_lookup(std::uint64_t addr) {
    return tlb_->access(addr >> 12, false) == AccessResult::Hit
               ? 0
               : cfg_.tlb_miss_cycles;
  }
  /// Touches one line on the vector path; adds its below-entry cost (miss
  /// penalties, DRAM fills) to `cost`. Leaves `serial_cycles` and `lines`
  /// to the caller, which rebases them for the whole access.
  void touch_vector_line(std::uint64_t addr, bool write, MemCost& cost);
  /// An L2 lookup after an upstream miss, including the DRAM fill, added to
  /// `cost`. Returns true if the line came from DRAM.
  bool touch_l2_line(std::uint64_t addr, bool write, MemCost& cost);

  /// The vector cache's hit latency (cycles).
  static constexpr unsigned kVectorCacheLatency = 2;

  MachineConfig cfg_;
  CacheModel l1_;
  CacheModel l2_;
  unsigned l1_line_shift_;  // log2 line size (CacheModel checks pow2)
  unsigned l2_line_shift_;
  bool scalar_one_step_;    // no TLB and no prefetcher on the scalar path
  std::optional<FullyAssociativeLru> vcache_;     // RVV only; keys are lines
  std::optional<FullyAssociativeLru> tlb_;        // if tlb_entries; 4 KiB pages
  std::unique_ptr<StreamPrefetcher> prefetcher_;  // A64FX only
  std::uint64_t dram_lines_ = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> watches_;  // [base,end)
  std::uint64_t watched_dram_lines_ = 0;
};

}  // namespace vlacnn::sim
