#pragma once

#include <cstdint>
#include <vector>

#include "sim/cache.hpp"

namespace vlacnn::sim {

/// Fully associative store of up to `capacity` keys with exact LRU
/// replacement in O(1) per access, for the two small fully associative
/// structures of the memory system: the RVV vector cache (keys are line
/// numbers) and the A64FX TLB (keys are page numbers).
///
/// A key finds its entry through an open-addressing map (linear probing,
/// at most half full, backward-shift deletion). The entries form a
/// circular recency list kept in index arrays; `head_` is the most
/// recently used entry and the one before it the least recently used, so
/// a miss in a full store reuses that entry for the new key and makes it
/// the head without relinking anything. Entries are only evicted or
/// dropped by reset(), so the stats are those of a one-set CacheModel of
/// `capacity` ways: accesses, misses, evictions and writebacks of dirty
/// victims.
class FullyAssociativeLru {
 public:
  explicit FullyAssociativeLru(unsigned capacity);

  /// Looks up `key` (below 2^64 - 1). A hit makes it the most recently
  /// used entry; a miss inserts it there, evicting the least recently used
  /// entry when full. `is_write` marks the entry dirty.
  AccessResult access(std::uint64_t key, bool is_write) {
    ++stats_.accesses;
    const std::uint32_t s = find_slot(key);
    if (slots_[s].key == key + 1) {
      const std::uint32_t e = slots_[s].entry;
      entries_[e].dirty |= static_cast<std::uint8_t>(is_write);
      if (e != head_) {
        unlink(e);
        link_before_head(e);
        head_ = e;
      }
      return AccessResult::Hit;
    }
    ++stats_.misses;
    insert(s, key, is_write);
    return AccessResult::Miss;
  }

  /// Drops every entry and clears the statistics.
  void reset();

  [[nodiscard]] const CacheStats& stats() const { return stats_; }

 private:
  struct Slot {
    std::uint64_t key;    // entry key + 1; 0 = empty slot
    std::uint32_t entry;  // index into entries_
  };
  struct Entry {
    std::uint32_t prev;  // next more recently used entry (head_: the LRU)
    std::uint32_t next;  // next less recently used entry (the LRU: head_)
    std::uint32_t slot;  // the map slot that names this entry
    std::uint8_t dirty;
  };

  /// Home slot of a slot key (entry key + 1): the top bits of its
  /// Fibonacci hash.
  [[nodiscard]] std::uint32_t home(std::uint64_t slot_key) const {
    return static_cast<std::uint32_t>((slot_key * 0x9E3779B97F4A7C15ULL) >>
                                      shift_);
  }
  /// The slot holding `key`, or the empty slot where it would go.
  [[nodiscard]] std::uint32_t find_slot(std::uint64_t key) const {
    std::uint32_t s = home(key + 1);
    while (slots_[s].key != 0 && slots_[s].key != key + 1) s = (s + 1) & mask_;
    return s;
  }
  void unlink(std::uint32_t e) {
    entries_[entries_[e].prev].next = entries_[e].next;
    entries_[entries_[e].next].prev = entries_[e].prev;
  }
  /// Links `e` between the least and the most recently used entries.
  void link_before_head(std::uint32_t e) {
    const std::uint32_t tail = entries_[head_].prev;
    entries_[e].prev = tail;
    entries_[e].next = head_;
    entries_[tail].next = e;
    entries_[head_].prev = e;
  }
  /// Inserts the absent `key`, whose empty slot is `s`, as the most
  /// recently used entry.
  void insert(std::uint32_t s, std::uint64_t key, bool dirty);
  /// Empties slot `s`, shifting later slots of its probe run back.
  void erase_slot(std::uint32_t s);

  std::uint32_t capacity_;
  std::uint32_t mask_;  // slots_.size() - 1
  unsigned shift_;      // 64 - log2(slots_.size())
  std::vector<Slot> slots_;
  std::vector<Entry> entries_;
  std::uint32_t size_ = 0;
  std::uint32_t head_ = 0;  // most recently used entry, if size_ > 0
  CacheStats stats_;
};

}  // namespace vlacnn::sim
