#include "sim/cache.hpp"

#include <algorithm>
#include <bit>

#include "common/error.hpp"

namespace vlacnn::sim {

namespace {
bool is_pow2(std::uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }
}  // namespace

CacheModel::CacheModel(const CacheConfig& cfg)
    : cfg_(cfg), assoc_(cfg.associativity) {
  VLACNN_REQUIRE(is_pow2(cfg.line_bytes), "cache line size must be pow2");
  // A line of >= 2 bytes keeps line numbers below 2^63, so tag_of() never
  // wraps to kInvalidTag.
  VLACNN_REQUIRE(cfg.line_bytes >= 2, "cache line must be at least 2 bytes");
  VLACNN_REQUIRE(cfg.associativity >= 1, "associativity must be >= 1");
  VLACNN_REQUIRE(cfg.size_bytes % (static_cast<std::uint64_t>(cfg.associativity) *
                                   cfg.line_bytes) == 0,
                 "cache size must be a multiple of assoc*line");
  const std::uint64_t num_sets = cfg.num_sets();
  VLACNN_REQUIRE(is_pow2(num_sets), "number of sets must be pow2");
  set_mask_ = num_sets - 1;
  line_shift_ = static_cast<unsigned>(std::countr_zero(
      static_cast<std::uint64_t>(cfg.line_bytes)));
  lines_ = num_sets * cfg.associativity;
  reset();
}

void CacheModel::fill(std::size_t base, std::uint64_t tag, bool dirty) {
  // Victim: the first invalid way; once the whole cache is valid (lines are
  // never invalidated short of reset()), the least recently used way.
  std::uint64_t* tags = ways_.data() + base;
  std::uint64_t* stamps = tags + assoc_;
  unsigned w = assoc_;
  if (valid_lines_ < lines_)
    w = static_cast<unsigned>(std::find(tags, tags + assoc_, kInvalidTag) -
                              tags);
  if (w == assoc_) {
    w = static_cast<unsigned>(std::min_element(stamps, stamps + assoc_) -
                              stamps);
    ++stats_.evictions;
    if ((stamps[w] & 1) != 0) ++stats_.writebacks;
  } else {
    ++valid_lines_;
  }
  tags[w] = tag;
  stamps[w] = (++stamp_ << 1) | static_cast<std::uint64_t>(dirty);
}

bool CacheModel::prefetch_fill(std::uint64_t addr) {
  const std::uint64_t tag = tag_of(addr);
  const std::size_t base = set_base(tag);
  if (find_way(base, tag) >= 0) return false;
  fill(base, tag, false);
  ++stats_.prefetch_fills;
  return true;
}

void CacheModel::reset() {
  // Fresh zeroed pages rather than a fill: the pages a run touched go back
  // to the host instead of being rewritten.
  ways_ = PageArray<std::uint64_t>(2 * lines_);
  valid_lines_ = 0;
  stamp_ = 0;
  stats_.reset();
}

}  // namespace vlacnn::sim
