#pragma once

#include <cstdint>

#include "sim/machine_config.hpp"
#include "sim/page_array.hpp"

namespace vlacnn::sim {

/// Outcome of a single cache-line access.
enum class AccessResult { Hit, Miss };

struct CacheStats {
  std::uint64_t accesses = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t writebacks = 0;
  std::uint64_t prefetch_fills = 0;

  [[nodiscard]] double miss_rate() const {
    return accesses == 0 ? 0.0 : static_cast<double>(misses) / static_cast<double>(accesses);
  }
  void reset() { *this = CacheStats{}; }
};

/// Set-associative, write-back, write-allocate cache with true-LRU
/// replacement. Simulates tag state only — data always lives in host memory
/// (the functional VLA engine reads/writes host buffers directly).
///
/// Tags, LRU stamps and dirty bits are separate arrays (row-major by set),
/// so the hit path scans one contiguous run of tags. A way's tag is its
/// line number + 1, so the sentinel 0 marks an invalid way and a zeroed
/// array is an empty cache. The arrays are PageArrays: the host backs only
/// the sets a run touches (a 256 MB L2 has 4M lines). A stamp or dirty byte
/// is read only after its way was filled.
class CacheModel {
 public:
  explicit CacheModel(const CacheConfig& cfg);

  /// Looks up (and on miss, fills) the line containing `addr`.
  /// `is_write` marks the line dirty; evicted dirty lines count writebacks.
  AccessResult access(std::uint64_t addr, bool is_write) {
    ++stats_.accesses;
    const std::uint64_t tag = tag_of(addr);
    const std::size_t base = set_base(tag);
    const int way = find_way(base, tag);
    if (way >= 0) {
      const std::size_t i = base + static_cast<unsigned>(way);
      stamps_[i] = ++stamp_;
      dirty_[i] |= static_cast<std::uint8_t>(is_write);
      return AccessResult::Hit;
    }
    ++stats_.misses;
    fill(base, tag, is_write);
    return AccessResult::Miss;
  }

  /// Inserts the line without counting a demand access (prefetch fill).
  /// Returns true if the line was newly inserted (i.e. it was absent).
  bool prefetch_fill(std::uint64_t addr);

  /// True if the line containing `addr` is currently resident.
  [[nodiscard]] bool contains(std::uint64_t addr) const {
    const std::uint64_t tag = tag_of(addr);
    return find_way(set_base(tag), tag) >= 0;
  }

  /// Invalidates all lines and clears statistics.
  void reset();

  [[nodiscard]] const CacheStats& stats() const { return stats_; }
  [[nodiscard]] const CacheConfig& config() const { return cfg_; }

 private:
  static constexpr std::uint64_t kInvalidTag = 0;

  /// Line number + 1 (line numbers stay below 2^63, so this never wraps).
  [[nodiscard]] std::uint64_t tag_of(std::uint64_t addr) const {
    return (addr >> line_shift_) + 1;
  }
  /// Index of way 0 of the set holding `tag`.
  [[nodiscard]] std::size_t set_base(std::uint64_t tag) const {
    return static_cast<std::size_t>((tag - 1) & set_mask_) * assoc_;
  }
  /// Returns the way holding `tag` in the set starting at `base`, or -1.
  [[nodiscard]] int find_way(std::size_t base, std::uint64_t tag) const {
    const std::uint64_t* tags = tags_.data() + base;
    for (unsigned w = 0; w < assoc_; ++w)
      if (tags[w] == tag) return static_cast<int>(w);
    return -1;
  }
  /// Evicts the victim of the set at `base` (first invalid way, else the
  /// smallest LRU stamp) and installs `tag` there.
  void fill(std::size_t base, std::uint64_t tag, bool dirty);

  CacheConfig cfg_;
  unsigned assoc_;
  unsigned line_shift_;
  std::uint64_t set_mask_;
  std::size_t lines_;                // num_sets * assoc
  PageArray<std::uint64_t> tags_;    // kInvalidTag = invalid way
  PageArray<std::uint64_t> stamps_;  // larger = more recently used
  PageArray<std::uint8_t> dirty_;
  std::size_t valid_lines_ = 0;  // lines are only invalidated by reset()
  std::uint64_t stamp_ = 0;
  CacheStats stats_;
};

}  // namespace vlacnn::sim
