#include "sim/memory_system.hpp"

#include <bit>

#include "common/error.hpp"

namespace vlacnn::sim {

MemorySystem::MemorySystem(const MachineConfig& cfg)
    : cfg_(cfg),
      l1_(cfg.l1),
      l2_(cfg.l2),
      l1_line_shift_(static_cast<unsigned>(std::countr_zero(cfg.l1.line_bytes))),
      l2_line_shift_(static_cast<unsigned>(std::countr_zero(cfg.l2.line_bytes))),
      scalar_one_step_(cfg.tlb_entries == 0 && !cfg.hw_prefetch) {
  if (cfg.isa == Isa::RiscvVector && cfg.vector_cache_bytes > 0) {
    // Small fully associative staging buffer between the VPU and L2, in
    // L2-sized lines.
    VLACNN_REQUIRE(cfg.vector_cache_bytes % cfg.l2.line_bytes == 0,
                   "vector cache size must be a multiple of the L2 line");
    vcache_.emplace(cfg.vector_cache_bytes / cfg.l2.line_bytes);
  }
  if (cfg.tlb_entries != 0) tlb_.emplace(cfg.tlb_entries);
  if (cfg.hw_prefetch)
    prefetcher_ = std::make_unique<StreamPrefetcher>(cfg.l2.line_bytes);
}

inline bool MemorySystem::touch_l2_line(std::uint64_t addr, bool write,
                                        MemCost& cost) {
  // `lines` stays as it is: this is the same line the upstream level
  // already counted, not additional traffic.
  cost.overlappable_cycles += cfg_.l2.latency_cycles;
  if (l2_.access(addr, write) == AccessResult::Hit) return false;
  cost.overlappable_cycles += cfg_.dram_latency_cycles;
  ++cost.dram_lines;
  ++dram_lines_;
  for (const auto& [base, end] : watches_) {
    if (addr >= base && addr < end) {
      ++watched_dram_lines_;
      break;
    }
  }
  return true;
}

void MemorySystem::add_dram_watch(std::uint64_t sim_base,
                                  std::uint64_t bytes) {
  if (bytes == 0) return;
  watches_.emplace_back(sim_base, sim_base + bytes);
}

// Inlined into the per-line loops of vector_access and
// vector_access_strided.
[[gnu::always_inline]] inline void MemorySystem::touch_vector_line(
    std::uint64_t addr, bool write, MemCost& cost) {
  if (vcache_) {
    // RVV path: VectorCache -> L2 -> DRAM. L1 is bypassed entirely.
    if (vcache_->access(addr >> l2_line_shift_, write) == AccessResult::Miss)
      touch_l2_line(addr, write, cost);
    return;
  }
  // SVE path: L1 -> L2 -> DRAM.
  if (prefetcher_) prefetcher_->observe(addr, l1_);
  if (l1_.access(addr, write) == AccessResult::Hit) return;
  // A64FX also trains its L2 prefetch engine on L2 misses.
  if (touch_l2_line(addr, write, cost) && prefetcher_)
    prefetcher_->observe(addr, l2_);
}

MemCost MemorySystem::vector_access(std::uint64_t addr, std::uint64_t bytes,
                                    bool write) {
  VLACNN_REQUIRE(bytes > 0, "zero-byte access");
  const unsigned shift = vcache_ ? l2_line_shift_ : l1_line_shift_;
  const std::uint64_t first = addr >> shift;
  const std::uint64_t last = (addr + bytes - 1) >> shift;
  MemCost total;
  for (std::uint64_t ln = first; ln <= last; ++ln)
    touch_vector_line(ln << shift, write, total);
  total.lines = last - first + 1;
  // Contiguous lines stream out of the entry-level cache at one line per
  // cycle after the first.
  const unsigned entry_lat =
      vcache_ ? kVectorCacheLatency : cfg_.l1.latency_cycles;
  total.serial_cycles = entry_lat + (total.lines - 1);
  // Address translation: one lookup per page touched.
  if (tlb_)
    for (std::uint64_t page = addr >> 12; page <= (addr + bytes - 1) >> 12;
         ++page)
      total.translation_cycles += tlb_lookup(page << 12);
  return total;
}

MemCost MemorySystem::vector_access_strided(std::uint64_t base,
                                            std::int64_t stride_bytes,
                                            std::uint64_t elem_bytes,
                                            std::uint64_t n, bool write) {
  // Gather/scatter and strided traffic: each element is an independent
  // line touch. Elements pipeline at one per cycle through the address
  // generator (the occupancy model charges that), so the serial portion is
  // one entry latency plus a cycle per extra line — what makes these
  // accesses expensive is the per-element line/TLB traffic and the
  // occupancy, not an unpipelined entry latency.
  MemCost total;
  std::uint64_t addr = base;
  for (std::uint64_t i = 0; i < n; ++i) {
    touch_vector_line(addr, write, total);
    if (tlb_) total.translation_cycles += tlb_lookup(addr);
    addr = static_cast<std::uint64_t>(static_cast<std::int64_t>(addr) + stride_bytes);
  }
  total.lines = n;
  const unsigned entry_lat =
      vcache_ ? kVectorCacheLatency : cfg_.l1.latency_cycles;
  total.serial_cycles = entry_lat + (n > 0 ? n - 1 : 0);
  (void)elem_bytes;
  return total;
}

MemCost MemorySystem::scalar_access(std::uint64_t addr, std::uint64_t bytes,
                                    bool write) {
  const std::uint64_t first = addr >> l1_line_shift_;
  const std::uint64_t last = (addr + bytes - 1) >> l1_line_shift_;
  MemCost total;
  for (std::uint64_t ln = first; ln <= last; ++ln) {
    const std::uint64_t a = ln << l1_line_shift_;
    ++total.lines;
    total.serial_cycles += cfg_.l1.latency_cycles;
    if (tlb_) total.translation_cycles += tlb_lookup(a);
    if (prefetcher_) prefetcher_->observe(a, l1_);
    if (l1_.access(a, write) == AccessResult::Miss)
      touch_l2_line(a, write, total);
  }
  return total;
}

void MemorySystem::software_prefetch(std::uint64_t addr, std::uint64_t bytes,
                                     int level) {
  if (!cfg_.sw_prefetch_effective) return;  // no-op on RVV and gem5-SVE
  VLACNN_REQUIRE(level == 1 || level == 2, "prefetch level must be 1 or 2");
  CacheModel& target = (level == 1) ? l1_ : l2_;
  const unsigned line = target.config().line_bytes;
  const std::uint64_t first = addr / line;
  const std::uint64_t last = bytes == 0 ? first : (addr + bytes - 1) / line;
  for (std::uint64_t ln = first; ln <= last; ++ln) {
    if (level == 1) {
      // Filling L1 implies the line is also resident below (inclusive-ish).
      l2_.prefetch_fill(ln * line);
    }
    target.prefetch_fill(ln * line);
  }
}

void MemorySystem::reset() {
  l1_.reset();
  l2_.reset();
  if (vcache_) vcache_->reset();
  if (tlb_) tlb_->reset();
  if (prefetcher_) prefetcher_->reset();
  dram_lines_ = 0;
  watched_dram_lines_ = 0;  // watch windows are configuration: kept
}

}  // namespace vlacnn::sim
