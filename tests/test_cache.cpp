// Set-associative cache model: geometry, LRU replacement, write-back
// accounting, prefetch fills, capacity/conflict behaviour, and a
// differential check of random streams against the original model.

#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sim/cache.hpp"
#include "sim/fully_associative_lru.hpp"

namespace vlacnn::sim {
namespace {

CacheConfig small_cache() {
  // 4 sets x 2 ways x 64 B lines = 512 B.
  return CacheConfig{512, 2, 64, 4};
}

TEST(Cache, ColdMissThenHit) {
  CacheModel c(small_cache());
  EXPECT_EQ(c.access(0x1000, false), AccessResult::Miss);
  EXPECT_EQ(c.access(0x1000, false), AccessResult::Hit);
  EXPECT_EQ(c.access(0x1020, false), AccessResult::Hit);  // same line
  EXPECT_EQ(c.stats().accesses, 3u);
  EXPECT_EQ(c.stats().misses, 1u);
}

TEST(Cache, LruEvictsOldestWay) {
  CacheModel c(small_cache());
  // Three lines mapping to the same set (set stride = 4 sets * 64 B = 256 B).
  c.access(0x0000, false);
  c.access(0x0100, false);
  c.access(0x0000, false);  // touch A again; B is now LRU
  EXPECT_EQ(c.access(0x0200, false), AccessResult::Miss);  // evicts B
  EXPECT_EQ(c.access(0x0000, false), AccessResult::Hit);   // A survives
  EXPECT_EQ(c.access(0x0100, false), AccessResult::Miss);  // B was evicted
}

TEST(Cache, WritebackOnlyForDirtyLines) {
  CacheModel c(small_cache());
  c.access(0x0000, true);   // dirty
  c.access(0x0100, false);  // clean
  c.access(0x0200, false);  // evicts dirty 0x0000 (LRU)
  c.access(0x0300, false);  // evicts clean 0x0100
  EXPECT_EQ(c.stats().evictions, 2u);
  EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, CapacityHoldsExactlyItsSize) {
  CacheConfig cfg{64 * 1024, 8, 64, 4};
  CacheModel c(cfg);
  const int lines = static_cast<int>(cfg.size_bytes / cfg.line_bytes);
  for (int i = 0; i < lines; ++i) c.access(static_cast<std::uint64_t>(i) * 64, false);
  EXPECT_EQ(c.stats().misses, static_cast<std::uint64_t>(lines));
  // Second sweep over the same footprint: fully resident.
  for (int i = 0; i < lines; ++i) c.access(static_cast<std::uint64_t>(i) * 64, false);
  EXPECT_EQ(c.stats().misses, static_cast<std::uint64_t>(lines));
  EXPECT_DOUBLE_EQ(c.stats().miss_rate(), 0.5);
}

TEST(Cache, StreamLargerThanCapacityAlwaysMisses) {
  CacheConfig cfg{4096, 4, 64, 4};
  CacheModel c(cfg);
  const int lines = 4 * static_cast<int>(cfg.size_bytes / cfg.line_bytes);
  for (int rep = 0; rep < 2; ++rep)
    for (int i = 0; i < lines; ++i)
      c.access(static_cast<std::uint64_t>(i) * 64, false);
  // Cyclic sweep of 4x capacity under LRU: every access misses.
  EXPECT_EQ(c.stats().misses, c.stats().accesses);
}

TEST(Cache, PrefetchFillMakesDemandHit) {
  CacheModel c(small_cache());
  EXPECT_TRUE(c.prefetch_fill(0x4000));
  EXPECT_FALSE(c.prefetch_fill(0x4000));  // already resident
  EXPECT_EQ(c.access(0x4000, false), AccessResult::Hit);
  EXPECT_EQ(c.stats().prefetch_fills, 1u);
  EXPECT_EQ(c.stats().misses, 0u);
}

TEST(Cache, ContainsReflectsResidency) {
  CacheModel c(small_cache());
  EXPECT_FALSE(c.contains(0x2000));
  c.access(0x2000, false);
  EXPECT_TRUE(c.contains(0x2000));
  EXPECT_TRUE(c.contains(0x203F));   // same line
  EXPECT_FALSE(c.contains(0x2040));  // next line
}

TEST(Cache, ResetClearsStateAndStats) {
  CacheModel c(small_cache());
  c.access(0x0, true);
  c.reset();
  EXPECT_EQ(c.stats().accesses, 0u);
  EXPECT_FALSE(c.contains(0x0));
}

TEST(Cache, RejectsBadGeometry) {
  EXPECT_THROW(CacheModel(CacheConfig{500, 2, 64, 4}), InvalidArgument);
  EXPECT_THROW(CacheModel(CacheConfig{512, 2, 63, 4}), InvalidArgument);
  EXPECT_THROW(CacheModel(CacheConfig{512, 0, 64, 4}), InvalidArgument);
  // 1-byte lines: a line number could reach the invalid-way sentinel.
  EXPECT_THROW(CacheModel(CacheConfig{512, 2, 1, 4}), InvalidArgument);
}

TEST(Cache, PaperGeometriesConstruct) {
  // Table I: 64 kB 4-way L1; L2 from 1 MB 8-way up to 256 MB; A64FX 8 MB
  // 16-way with 256 B lines.
  CacheModel l1(CacheConfig{64 * 1024, 4, 64, 4});
  CacheModel l2(CacheConfig{1024 * 1024, 8, 64, 12});
  CacheModel big(CacheConfig{256ull * 1024 * 1024, 8, 64, 12});
  CacheModel a64(CacheConfig{8 * 1024 * 1024, 16, 256, 40});
  EXPECT_EQ(l1.config().num_sets(), 256u);
  EXPECT_EQ(a64.config().num_sets(), 2048u);
}

/// The array-of-structs, two-scan cache model the flat CacheModel replaced,
/// kept verbatim as the differential oracle: same geometry, same victim
/// rule (first invalid way, else the smallest LRU stamp), same stats order.
class OracleCache {
 public:
  explicit OracleCache(const CacheConfig& cfg)
      : cfg_(cfg),
        num_sets_(cfg.num_sets()),
        line_shift_(static_cast<unsigned>(std::countr_zero(
            static_cast<std::uint64_t>(cfg.line_bytes)))),
        lines_(num_sets_ * cfg.associativity) {}

  AccessResult access(std::uint64_t addr, bool is_write) {
    ++stats_.accesses;
    const std::uint64_t set = set_index(addr);
    const std::uint64_t tag = tag_of(addr);
    Line* base = &lines_[set * cfg_.associativity];
    int way = find_way(set, tag);
    if (way >= 0) {
      base[way].lru_stamp = ++stamp_;
      base[way].dirty = base[way].dirty || is_write;
      return AccessResult::Hit;
    }
    ++stats_.misses;
    way = victim_way(set);
    if (base[way].valid) {
      ++stats_.evictions;
      if (base[way].dirty) ++stats_.writebacks;
    }
    base[way] = Line{tag, true, is_write, ++stamp_};
    return AccessResult::Miss;
  }

  bool prefetch_fill(std::uint64_t addr) {
    const std::uint64_t set = set_index(addr);
    const std::uint64_t tag = tag_of(addr);
    Line* base = &lines_[set * cfg_.associativity];
    if (find_way(set, tag) >= 0) return false;
    const int way = victim_way(set);
    if (base[way].valid) {
      ++stats_.evictions;
      if (base[way].dirty) ++stats_.writebacks;
    }
    base[way] = Line{tag, true, false, ++stamp_};
    ++stats_.prefetch_fills;
    return true;
  }

  bool contains(std::uint64_t addr) const {
    return find_way(set_index(addr), tag_of(addr)) >= 0;
  }

  void reset() {
    for (auto& l : lines_) l = Line{};
    stamp_ = 0;
    stats_.reset();
  }

  const CacheStats& stats() const { return stats_; }

 private:
  struct Line {
    std::uint64_t tag = 0;
    bool valid = false;
    bool dirty = false;
    std::uint64_t lru_stamp = 0;
  };

  std::uint64_t set_index(std::uint64_t addr) const {
    return (addr >> line_shift_) & (num_sets_ - 1);
  }
  std::uint64_t tag_of(std::uint64_t addr) const { return addr >> line_shift_; }
  int find_way(std::uint64_t set, std::uint64_t tag) const {
    const Line* base = &lines_[set * cfg_.associativity];
    for (unsigned w = 0; w < cfg_.associativity; ++w)
      if (base[w].valid && base[w].tag == tag) return static_cast<int>(w);
    return -1;
  }
  int victim_way(std::uint64_t set) const {
    const Line* base = &lines_[set * cfg_.associativity];
    int victim = 0;
    std::uint64_t oldest = UINT64_MAX;
    for (unsigned w = 0; w < cfg_.associativity; ++w) {
      if (!base[w].valid) return static_cast<int>(w);
      if (base[w].lru_stamp < oldest) {
        oldest = base[w].lru_stamp;
        victim = static_cast<int>(w);
      }
    }
    return victim;
  }

  CacheConfig cfg_;
  std::uint64_t num_sets_;
  unsigned line_shift_;
  std::vector<Line> lines_;
  std::uint64_t stamp_ = 0;
  CacheStats stats_;
};

void expect_same_stats(const CacheStats& got, const CacheStats& want,
                       std::size_t step) {
  EXPECT_EQ(got.accesses, want.accesses) << "step " << step;
  EXPECT_EQ(got.misses, want.misses) << "step " << step;
  EXPECT_EQ(got.evictions, want.evictions) << "step " << step;
  EXPECT_EQ(got.writebacks, want.writebacks) << "step " << step;
  EXPECT_EQ(got.prefetch_fills, want.prefetch_fills) << "step " << step;
}

/// Drives one random stream of demand reads/writes, prefetch fills,
/// residency probes and (rarely) resets through CacheModel and the oracle,
/// comparing every result and, periodically, every stats field. Addresses
/// come from a footprint of about 3x the cache's lines so that hits,
/// conflict misses and dirty evictions all occur.
void run_differential(const CacheConfig& cfg, std::uint64_t seed) {
  CacheModel model(cfg);
  OracleCache oracle(cfg);
  Rng rng(seed);
  const std::uint64_t footprint = 3 * (cfg.size_bytes / cfg.line_bytes) + 7;
  for (std::size_t step = 0; step < 60000; ++step) {
    const std::uint64_t addr =
        0x10000 + rng.next_below(footprint) * cfg.line_bytes +
        rng.next_below(cfg.line_bytes);
    const std::uint64_t op = rng.next_below(100);
    if (op < 60) {
      const bool write = rng.next_below(3) == 0;
      ASSERT_EQ(model.access(addr, write), oracle.access(addr, write))
          << "access at step " << step;
    } else if (op < 80) {
      ASSERT_EQ(model.prefetch_fill(addr), oracle.prefetch_fill(addr))
          << "prefetch_fill at step " << step;
    } else if (op < 99 || rng.next_below(50) != 0) {
      ASSERT_EQ(model.contains(addr), oracle.contains(addr))
          << "contains at step " << step;
    } else {
      model.reset();
      oracle.reset();
    }
    if (step % 997 == 0) expect_same_stats(model.stats(), oracle.stats(), step);
  }
  expect_same_stats(model.stats(), oracle.stats(), 60000);
}

TEST(CacheDifferential, DirectMappedMatchesOracle) {
  run_differential(CacheConfig{4096, 1, 64, 4}, 11);
}

TEST(CacheDifferential, FourWayMatchesOracle) {
  run_differential(CacheConfig{16 * 1024, 4, 64, 4}, 12);
}

TEST(CacheDifferential, EightWayMatchesOracle) {
  run_differential(CacheConfig{32 * 1024, 8, 128, 12}, 13);
}

TEST(CacheDifferential, VectorCacheGeometryMatchesOracle) {
  // The RVV vector cache: 2 KB, 64 B lines, fully associative (32 ways in
  // one set).
  run_differential(CacheConfig{2048, 32, 64, 2}, 14);
}

/// Drives FullyAssociativeLru (keyed by line number) and a one-set oracle
/// of `entries` ways through the same stream: random lines from a
/// footprint of about 3x the capacity, interleaved with a sequential sweep
/// (the vector cache's streaming misses), writes when `writes` is set, and
/// rare resets. Compares every hit/miss and, periodically, every stat.
void run_lru_differential(unsigned entries, unsigned line_bytes, bool writes,
                          std::uint64_t seed) {
  FullyAssociativeLru lru(entries);
  OracleCache oracle(CacheConfig{std::uint64_t{entries} * line_bytes, entries,
                                 line_bytes, 1});
  Rng rng(seed);
  const std::uint64_t footprint = 3 * entries + 7;
  std::uint64_t sweep = 0;
  for (std::size_t step = 0; step < 60000; ++step) {
    if (rng.next_below(1000) == 0) {
      lru.reset();
      oracle.reset();
      continue;
    }
    const std::uint64_t line = rng.next_below(10) < 7
                                   ? rng.next_below(footprint)
                                   : footprint + sweep++;
    const std::uint64_t addr =
        0x10000 + line * line_bytes + rng.next_below(line_bytes);
    const bool write = writes && rng.next_below(3) == 0;
    ASSERT_EQ(lru.access(addr / line_bytes, write), oracle.access(addr, write))
        << "access at step " << step;
    if (step % 997 == 0) expect_same_stats(lru.stats(), oracle.stats(), step);
  }
  expect_same_stats(lru.stats(), oracle.stats(), 60000);
}

TEST(CacheDifferential, FullyAssociativeLruMatchesOracleAt32Entries) {
  // The RVV vector cache: 32 lines of 64 B, dirty writebacks on eviction.
  run_lru_differential(32, 64, true, 15);
}

TEST(CacheDifferential, FullyAssociativeLruMatchesOracleAt64Entries) {
  // The A64FX TLB: 64 pages of 4 KiB, lookups only.
  run_lru_differential(64, 4096, false, 16);
}

TEST(CacheDifferential, FullyAssociativeLruMatchesOracleAt1Entry) {
  run_lru_differential(1, 64, true, 17);
}

}  // namespace
}  // namespace vlacnn::sim
