#include "sim/fully_associative_lru.hpp"

#include <algorithm>
#include <bit>

#include "common/error.hpp"

namespace vlacnn::sim {

FullyAssociativeLru::FullyAssociativeLru(unsigned capacity)
    : capacity_(capacity) {
  VLACNN_REQUIRE(capacity >= 1 && capacity <= (1u << 24),
                 "fully associative capacity must be in [1, 2^24]");
  // At most half full (plus the one key an insert briefly adds), so every
  // probe run ends at an empty slot soon.
  const std::uint32_t slots = std::bit_ceil(2 * capacity_ + 1);
  mask_ = slots - 1;
  shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots));
  slots_.resize(slots);
  entries_.resize(capacity_);
  reset();
}

void FullyAssociativeLru::insert(std::uint32_t s, std::uint64_t key,
                                 bool dirty) {
  std::uint32_t e;
  if (size_ == capacity_) {
    // The least recently used entry takes the key and becomes the most
    // recently used one: the circle turns by one.
    e = entries_[head_].prev;
    ++stats_.evictions;
    if (entries_[e].dirty != 0) ++stats_.writebacks;
    const std::uint32_t victim_slot = entries_[e].slot;
    // Insert before erasing: the erase may shift the new key's slot, and
    // then records where it went.
    slots_[s] = Slot{key + 1, e};
    entries_[e].slot = s;
    erase_slot(victim_slot);
  } else {
    e = size_++;
    slots_[s] = Slot{key + 1, e};
    entries_[e].slot = s;
    if (e == 0)
      entries_[e].prev = entries_[e].next = e;
    else
      link_before_head(e);
  }
  entries_[e].dirty = static_cast<std::uint8_t>(dirty);
  head_ = e;
}

void FullyAssociativeLru::erase_slot(std::uint32_t s) {
  for (std::uint32_t j = (s + 1) & mask_; slots_[j].key != 0;
       j = (j + 1) & mask_) {
    // Slot j may move back to s unless its home lies cyclically in (s, j].
    const std::uint32_t h = home(slots_[j].key);
    if (((j - h) & mask_) >= ((j - s) & mask_)) {
      slots_[s] = slots_[j];
      entries_[slots_[s].entry].slot = s;
      s = j;
    }
  }
  slots_[s].key = 0;
}

void FullyAssociativeLru::reset() {
  std::fill(slots_.begin(), slots_.end(), Slot{0, 0});
  size_ = 0;
  head_ = 0;
  stats_.reset();
}

}  // namespace vlacnn::sim
