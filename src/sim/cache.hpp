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
/// Each set is `assoc` tags followed by `assoc` LRU stamps in one array, so
/// a lookup touches one host cache line (or two adjacent ones) however
/// large the simulated cache. A way's tag is its line number + 1, so the
/// sentinel 0 marks an invalid way and a zeroed array is an empty cache. A
/// stamp is (access counter << 1) | dirty bit: the counters are distinct,
/// so the smallest stamp is the least recently used way. The array is a
/// PageArray: the host backs only the sets a run touches (a 256 MB L2 has
/// 4M lines). A stamp is read only after its way was filled.
class CacheModel {
 public:
  explicit CacheModel(const CacheConfig& cfg);

  /// Looks up (and on miss, fills) the line containing `addr`.
  /// `is_write` marks the line dirty; evicted dirty lines count writebacks.
  AccessResult access(std::uint64_t addr, bool is_write) {
    if (access_if_hit(addr, is_write)) return AccessResult::Hit;
    ++stats_.accesses;
    ++stats_.misses;
    const std::uint64_t tag = tag_of(addr);
    fill(set_base(tag), tag, is_write);
    return AccessResult::Miss;
  }

  /// The hit path of access(): if the line containing `addr` is resident,
  /// records the hit exactly as access() would and returns true; otherwise
  /// touches nothing and returns false.
  bool access_if_hit(std::uint64_t addr, bool is_write) {
    const std::uint64_t tag = tag_of(addr);
    const std::size_t base = set_base(tag);
    const int way = find_way(base, tag);
    if (way < 0) return false;
    ++stats_.accesses;
    std::uint64_t& stamp = ways_[base + assoc_ + static_cast<unsigned>(way)];
    stamp = (++stamp_ << 1) | (stamp & 1) |
            static_cast<std::uint64_t>(is_write);
    return true;
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
  /// Index of the first tag of the set holding `tag`.
  [[nodiscard]] std::size_t set_base(std::uint64_t tag) const {
    return static_cast<std::size_t>((tag - 1) & set_mask_) * (2 * assoc_);
  }
  /// Returns the way holding `tag` in the set starting at `base`, or -1.
  /// Scans every way without an early exit: a set holds a tag at most
  /// once, and which way hits is data the branch predictor cannot learn.
  [[nodiscard]] int find_way(std::size_t base, std::uint64_t tag) const {
    const std::uint64_t* tags = ways_.data() + base;
    int way = -1;
    for (unsigned w = 0; w < assoc_; ++w)
      way = tags[w] == tag ? static_cast<int>(w) : way;
    return way;
  }
  /// Evicts the victim of the set at `base` (first invalid way, else the
  /// smallest LRU stamp) and installs `tag` there.
  void fill(std::size_t base, std::uint64_t tag, bool dirty);

  CacheConfig cfg_;
  unsigned assoc_;
  unsigned line_shift_;
  std::uint64_t set_mask_;
  std::size_t lines_;              // num_sets * assoc
  PageArray<std::uint64_t> ways_;  // per set: assoc tags, then assoc stamps
  std::size_t valid_lines_ = 0;  // lines are only invalidated by reset()
  std::uint64_t stamp_ = 0;
  CacheStats stats_;
};

}  // namespace vlacnn::sim
