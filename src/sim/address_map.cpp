#include "sim/address_map.hpp"

#include <algorithm>
#include <bit>
#include <iterator>

#include "common/error.hpp"

namespace vlacnn::sim {

std::uint64_t AddressMap::register_range(const void* host, std::uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto base = reinterpret_cast<std::uint64_t>(host);
  // Round each allocation to a 4 KiB simulated page so neighbouring buffers
  // never share a cache line in the simulated space.
  const std::uint64_t sim_base = next_base_;
  next_base_ += (bytes + 4095) & ~std::uint64_t{4095};
  next_base_ += 4096;  // guard page
  by_host_base_[base] = Range{base, bytes, sim_base};
  bump_generation();
  return sim_base;
}

void AddressMap::unregister_range(const void* host) {
  std::lock_guard<std::mutex> lock(mu_);
  by_host_base_.erase(reinterpret_cast<std::uint64_t>(host));
  bump_generation();
}

std::uint64_t AddressMap::translate_locked(std::uint64_t addr) {
  std::lock_guard<std::mutex> lock(mu_);
  // The registered range with the greatest base <= addr answers if it
  // covers addr; `next` bounds the interval that answer holds for.
  const auto next = by_host_base_.upper_bound(addr);
  const std::uint64_t next_base =
      next == by_host_base_.end() ? UINT64_MAX : next->first;
  std::uint64_t lo = 0;
  if (next != by_host_base_.begin()) {
    const Range& r = std::prev(next)->second;
    if (addr >= r.host_base && addr < r.host_base + r.bytes) {
      const std::uint64_t hi = std::min(r.host_base + r.bytes, next_base);
      remember(r.host_base, hi, r.sim_base - r.host_base);
      return r.sim_base + (addr - r.host_base);
    }
    lo = r.host_base + r.bytes;
  }
  // Unregistered pointer: map its 64 B line deterministically by first-seen
  // order into the scratch region.
  const std::uint64_t line = addr >> 6;
  bool inserted = false;
  const std::uint64_t sim = scratch_.find_or_insert(line, next_scratch_, &inserted);
  if (inserted) next_scratch_ += 64;
  lo = std::max(lo, line << 6);
  const std::uint64_t hi = std::min((line << 6) + 64, next_base);
  remember(lo, hi, sim - (line << 6));
  return sim + (addr & 63);
}

void AddressMap::remember(std::uint64_t lo, std::uint64_t hi,
                          std::uint64_t delta) {
  TranslationMemo& m = memo_;
  const std::uint64_t gen = generation_.load(std::memory_order_relaxed);
  m.recent[1] = m.generation == gen ? m.recent[0] : TranslationMemo::Interval{};
  m.recent[0] = TranslationMemo::Interval{lo, hi - lo, delta};
  m.generation = gen;
}

std::uint64_t AddressMap::ScratchTable::find_or_insert(std::uint64_t line,
                                                       std::uint64_t next,
                                                       bool* inserted) {
  if (4 * (size_ + 1) > 3 * slots_.size()) grow();  // load <= 3/4
  const std::size_t mask = slots_.size() - 1;
  const std::uint64_t key = line + 1;
  std::size_t i = home(key);
  while (slots_[i].key != 0) {
    if (slots_[i].key == key) return slots_[i].sim;
    i = (i + 1) & mask;
  }
  slots_[i] = Slot{key, next};
  ++size_;
  *inserted = true;
  return next;
}

void AddressMap::ScratchTable::grow() {
  PageArray<Slot> old = std::move(slots_);
  slots_ = PageArray<Slot>(old.size() == 0 ? 1024 : 2 * old.size());
  shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots_.size()));
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t k = 0; k < old.size(); ++k) {
    const Slot& s = old[k];
    if (s.key == 0) continue;
    std::size_t i = home(s.key);
    while (slots_[i].key != 0) i = (i + 1) & mask;
    slots_[i] = s;
  }
}

void AddressMap::ScratchTable::clear() {
  slots_ = PageArray<Slot>();
  size_ = 0;
  shift_ = 64;
}

void AddressMap::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  by_host_base_.clear();
  scratch_.clear();
  next_base_ = 0x1000;
  next_scratch_ = 0x4000'0000'0000ULL;
  bump_generation();
}

std::size_t AddressMap::live_ranges() {
  std::lock_guard<std::mutex> lock(mu_);
  return by_host_base_.size();
}

}  // namespace vlacnn::sim
