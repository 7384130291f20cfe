// Differential tests of VectorEngine's tile ops against the per-instruction
// loops the kernels issued before them (the oracles below, kept verbatim):
// vfma_vf_tile against the GEMM micro-kernels' k-loop, vfma_vv_tile against
// Winograd's tuple-multiply loop. Same register lanes bit for bit, at both
// host widths where the host has AVX2, same traffic counters and, with a
// simulator attached, the same timing, cache and DRAM statistics.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sim/sim_context.hpp"
#include "vla/vector_engine.hpp"

namespace vlacnn::vla {
namespace {

// ---- the oracle: one engine call per instruction ----

float load_a(VectorEngine& eng, const std::uint8_t* p, ScalarFormat f) {
  if (f == ScalarFormat::F32) {
    float v;
    std::memcpy(&v, p, sizeof(v));
    return v;
  }
  eng.scalar_ops(1);  // the widen
  if (f == ScalarFormat::Bf16) {
    std::uint16_t h;
    std::memcpy(&h, p, sizeof(h));
    return f32_from_bf16(h);
  }
  return static_cast<float>(*reinterpret_cast<const std::int8_t*>(p));
}

template <class PerK>
void reference_tile(VectorEngine& eng, const FmaTile& t, PerK&& per_k) {
  const std::size_t eb = scalar_format_bytes(t.a_fmt);
  const auto* a_tile = static_cast<const std::uint8_t*>(t.a);
  for (int k = 0; k < t.kc; ++k) {
    per_k(k);
    eng.vload(t.vb, t.b + static_cast<std::ptrdiff_t>(k) * t.b_step);
    eng.scalar_ops(2);
    for (int u = 0; u < t.rows; ++u) {
      const std::uint8_t* a_ptr =
          a_tile + k * eb + static_cast<std::size_t>(u) * t.a_row_bytes;
      eng.scalar_mem(a_ptr, eb, false);
      float av = load_a(eng, a_ptr, t.a_fmt);
      if (t.alpha != 1.0f) {
        av *= t.alpha;
        eng.scalar_ops(1);
      }
      eng.vfma_scalar(t.first + u, av, t.vb);
    }
  }
}

// ---- random operands, specials included ----

/// x, or one time in `every` a special value.
float special_or(Rng& rng, float x, std::uint64_t every) {
  static const float kSpecials[] = {
      0.0f,
      -0.0f,
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      std::numeric_limits<float>::quiet_NaN(),
      std::numeric_limits<float>::denorm_min(),
      -3.0e-39f,
      std::numeric_limits<float>::min() / 2,
  };
  if (rng.next_below(every) != 0) return x;
  return kSpecials[rng.next_below(std::size(kSpecials))];
}

std::vector<float> random_floats(Rng& rng, std::size_t n,
                                 std::uint64_t every) {
  std::vector<float> v(n);
  for (auto& x : v) x = special_or(rng, rng.uniform(-2.0f, 2.0f), every);
  return v;
}

std::vector<std::uint8_t> random_a(Rng& rng, ScalarFormat f, std::size_t n,
                                   std::uint64_t every) {
  std::vector<std::uint8_t> bytes(n * scalar_format_bytes(f));
  for (std::size_t i = 0; i < n; ++i) {
    const float x = special_or(rng, rng.uniform(-2.0f, 2.0f), every);
    std::uint32_t bits;
    std::memcpy(&bits, &x, sizeof(bits));
    if (f == ScalarFormat::F32) {
      std::memcpy(&bytes[i * 4], &x, 4);
    } else if (f == ScalarFormat::Bf16) {
      const auto h = static_cast<std::uint16_t>(bits >> 16);
      std::memcpy(&bytes[i * 2], &h, 2);
    } else {
      bytes[i] = static_cast<std::uint8_t>(rng.next_below(256));
    }
  }
  return bytes;
}

/// One drawn tile: operands, the starting register file and the FmaTile.
struct Case {
  unsigned vlen = 512;
  std::size_t gvl_req = 1;
  FmaTile tile;
  std::vector<float> b;
  std::vector<std::uint8_t> a;
  std::vector<float> regs;  // kNumVregs x vlmax lanes
  std::string name;
};

/// Specials are one operand in 8, or in every other case one in 2, so that
/// runs of signed zeros (whose sum's sign depends on each addend) occur.
Case draw(Rng& rng, unsigned vlen) {
  static const ScalarFormat kFormats[] = {ScalarFormat::F32, ScalarFormat::Bf16,
                                          ScalarFormat::Int8};
  Case c;
  c.vlen = vlen;
  const std::size_t vlmax = vlen / 32;
  const std::size_t gvls[] = {1, 3, 4, 9, vlmax};
  c.gvl_req = gvls[rng.next_below(std::size(gvls))];
  const std::uint64_t every = rng.next_below(2) == 0 ? 8 : 2;
  const std::size_t gvl = std::min(c.gvl_req, vlmax);
  FmaTile& t = c.tile;
  t.rows = 1 + static_cast<int>(rng.next_below(30));
  t.kc = 1 + static_cast<int>(rng.next_below(70));
  t.first = static_cast<int>(rng.next_below(31 - t.rows));
  t.vb = t.first + t.rows + static_cast<int>(rng.next_below(32 - t.first - t.rows));
  t.a_fmt = kFormats[rng.next_below(3)];
  const float alphas[] = {1.0f, 1.0f, 0.75f, -1.5f, 3.0e-39f};
  t.alpha = alphas[rng.next_below(std::size(alphas))];
  const std::size_t eb = scalar_format_bytes(t.a_fmt);
  const std::size_t a_cols = t.kc + rng.next_below(5);
  t.a_row_bytes = a_cols * eb;
  c.a = random_a(rng, t.a_fmt, static_cast<std::size_t>(t.rows) * a_cols,
                 every);
  t.b_step = static_cast<std::ptrdiff_t>(gvl + rng.next_below(6));
  c.b = random_floats(rng, static_cast<std::size_t>(t.kc) * t.b_step, every);
  c.regs = random_floats(rng, VectorEngine::kNumVregs * vlmax, every);
  std::ostringstream os;
  os << "vlen=" << vlen << " gvl=" << gvl << " rows=" << t.rows
     << " kc=" << t.kc << " first=" << t.first << " vb=" << t.vb
     << " fmt=" << static_cast<int>(t.a_fmt) << " alpha=" << t.alpha
     << " specials=1/" << every;
  c.name = os.str();
  return c;
}

/// Runs `c` on a fresh engine (through the oracle or the tile op), twice,
/// so the second pass starts from warm simulator state.
template <class Run>
void run_case(VectorEngine& eng, Case& c, Run&& run) {
  FmaTile t = c.tile;
  t.a = c.a.data();
  t.b = c.b.data();
  for (Vreg v = 0; v < static_cast<Vreg>(VectorEngine::kNumVregs); ++v)
    for (std::size_t l = 0; l < eng.vlmax(); ++l)
      eng.set_lane(v, l, c.regs[v * eng.vlmax() + l]);
  eng.setvl(c.gvl_req);
  run(eng, t);
  run(eng, t);
}

/// A lane's bits, with every NaN mapped to one value: which operand's NaN
/// an x86 add or multiply returns follows the register order the compiler
/// picks, which the C++ source does not fix, so only NaN-ness is compared.
std::uint32_t bits_of(float x) {
  if (std::isnan(x)) return 0x7fc00000u;
  std::uint32_t b;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

void expect_same_engine(const VectorEngine& ref, const VectorEngine& got,
                        const std::string& name) {
  for (Vreg v = 0; v < static_cast<Vreg>(VectorEngine::kNumVregs); ++v)
    for (std::size_t l = 0; l < ref.vlmax(); ++l)
      ASSERT_EQ(bits_of(ref.lane(v, l)), bits_of(got.lane(v, l)))
          << name << " v" << v << " lane " << l;
  EXPECT_EQ(ref.mem_bytes_read(), got.mem_bytes_read()) << name;
  EXPECT_EQ(ref.mem_bytes_written(), got.mem_bytes_written()) << name;
}

void expect_same_cache(const sim::CacheStats& a, const sim::CacheStats& b,
                       const std::string& name) {
  EXPECT_EQ(a.accesses, b.accesses) << name;
  EXPECT_EQ(a.misses, b.misses) << name;
  EXPECT_EQ(a.evictions, b.evictions) << name;
  EXPECT_EQ(a.writebacks, b.writebacks) << name;
  EXPECT_EQ(a.prefetch_fills, b.prefetch_fills) << name;
}

void expect_same_sim(sim::SimContext& ref, sim::SimContext& got,
                     const std::string& name) {
  EXPECT_EQ(ref.cycles(), got.cycles()) << name;
  const sim::TimingStats& a = ref.timing().stats();
  const sim::TimingStats& b = got.timing().stats();
  EXPECT_EQ(a.cycles, b.cycles) << name;
  EXPECT_EQ(a.vector_instructions, b.vector_instructions) << name;
  EXPECT_EQ(a.scalar_ops, b.scalar_ops) << name;
  EXPECT_EQ(a.elements, b.elements) << name;
  EXPECT_EQ(a.flops, b.flops) << name;
  EXPECT_EQ(a.vl_sample_count, b.vl_sample_count) << name;
  EXPECT_EQ(a.mem_stall_cycles, b.mem_stall_cycles) << name;
  EXPECT_EQ(a.issue_stall_cycles, b.issue_stall_cycles) << name;
  expect_same_cache(ref.memory().l1_stats(), got.memory().l1_stats(),
                    name + " L1");
  expect_same_cache(ref.memory().l2_stats(), got.memory().l2_stats(),
                    name + " L2");
  EXPECT_EQ(ref.memory().dram_line_fills(), got.memory().dram_line_fills())
      << name;
}

/// The 400 seeded cases through the tile arithmetic at `lanes` host lanes.
void expect_matches_oracle(int lanes) {
  Rng rng(20261019);
  const unsigned vlens[] = {128, 512, 2048, 16384};
  const auto no_hook = [](int) {};
  for (int i = 0; i < 400; ++i) {
    Case c = draw(rng, vlens[rng.next_below(std::size(vlens))]);
    VectorEngine ref(c.vlen), got(c.vlen);
    run_case(ref, c, [&](VectorEngine& e, const FmaTile& t) {
      reference_tile(e, t, no_hook);
    });
    run_case(got, c, [lanes](VectorEngine& e, const FmaTile& t) {
      detail::fma_tile_functional(e, t, lanes);
    });
    expect_same_engine(ref, got, c.name + " lanes=" + std::to_string(lanes));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(FmaTile, MatchesPerInstructionLoopBitwise) {
  expect_matches_oracle(4);
  if (HasFatalFailure()) return;
  if (tile_lanes() < 8)
    GTEST_SKIP() << "host has no AVX2: the 8-lane tile body was not run "
                    "(the 4-lane body matched)";
  expect_matches_oracle(8);
}

TEST(FmaTile, ReplaysTheSameSimulatedEventStream) {
  // Both runs translate the same host buffers, so they see the same
  // simulated addresses; the per-k hook issues opt6's prefetches.
  Rng rng(7);
  const unsigned vlens[] = {128, 512, 2048, 16384};
  const sim::MachineConfig machines[] = {sim::rvv_gem5(), sim::sve_gem5(),
                                         sim::a64fx()};
  for (const sim::MachineConfig& m : machines) {
    for (int i = 0; i < 40; ++i) {
      unsigned vlen = vlens[rng.next_below(std::size(vlens))];
      vlen = std::min(vlen, m.max_vlen_bits);  // SVE and A64FX stop at 2048
      Case c = draw(rng, vlen);
      const sim::RegisteredRange a_reg(c.a.data(), c.a.size());
      const sim::RegisteredRange b_reg(c.b.data(), c.b.size() * sizeof(float));
      sim::SimContext ref_ctx(m.with_vlen(vlen)), got_ctx(m.with_vlen(vlen));
      VectorEngine ref(ref_ctx), got(got_ctx);
      const auto with_prefetch = [](VectorEngine& e, const FmaTile& t) {
        return [&e, t](int k) {
          if ((k & 15) == 0) {
            e.prefetch(t.b + k * t.b_step, 64, 1);
            e.prefetch(static_cast<const std::uint8_t*>(t.a) +
                           k * scalar_format_bytes(t.a_fmt),
                       64, 1);
          }
        };
      };
      run_case(ref, c, [&](VectorEngine& e, const FmaTile& t) {
        reference_tile(e, t, with_prefetch(e, t));
      });
      run_case(got, c, [&](VectorEngine& e, const FmaTile& t) {
        e.vfma_vf_tile(t, with_prefetch(e, t));
      });
      const std::string name = m.name + " " + c.name;
      expect_same_engine(ref, got, name);
      expect_same_sim(ref_ctx, got_ctx, name);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(FmaTile, EmptyKLoopDoesNothing) {
  sim::SimContext ctx(sim::rvv_gem5());
  VectorEngine eng(ctx);
  eng.setvl(eng.vlmax());
  eng.vbroadcast(0, 2.0f);
  eng.vbroadcast(30, 3.0f);
  const auto before = ctx.timing().stats().vector_instructions;
  const float b = 5.0f, a = 7.0f;
  eng.vfma_vf_tile({.first = 0, .rows = 1, .vb = 30, .kc = 0, .b = &b,
                    .b_step = 0, .a = &a, .a_row_bytes = 4});
  EXPECT_EQ(eng.lane(0, 0), 2.0f);
  EXPECT_EQ(eng.lane(30, 0), 3.0f);
  EXPECT_EQ(eng.mem_bytes_read(), 0u);
  EXPECT_EQ(ctx.timing().stats().vector_instructions, before);
}

TEST(FmaTile, RejectsBadRegisters) {
  VectorEngine eng(512);
  eng.setvl(4);
  const float b[4] = {}, a = 1.0f;
  const FmaTile ok{.first = 0, .rows = 2, .vb = 30, .kc = 1, .b = b,
                   .b_step = 4, .a = &a, .a_row_bytes = 0};
  EXPECT_NO_THROW(eng.vfma_vf_tile(ok));
  FmaTile overlap = ok;
  overlap.vb = 1;
  EXPECT_THROW(eng.vfma_vf_tile(overlap), InvalidArgument);
  FmaTile past_end = ok;
  past_end.first = 31;
  EXPECT_THROW(eng.vfma_vf_tile(past_end), InvalidArgument);
}


// ---- vfma_vv_tile: Winograd's tuple multiply ----

/// The tuple-multiply loop WinogradConv::tuple_multiply issued per block.
void reference_vv_tile(VectorEngine& eng, const VvTile& t) {
  for (int ic = 0; ic < t.kc; ++ic) {
    eng.vload(t.vu, t.u + static_cast<std::ptrdiff_t>(ic) * t.u_step);
    eng.scalar_ops(2);
    for (int tt = 0; tt < t.tiles; ++tt) {
      eng.vload(t.vbase + tt,
                t.v + static_cast<std::ptrdiff_t>(ic) * t.v_step +
                    static_cast<std::ptrdiff_t>(tt) * t.v_tile_step);
      eng.vfma(t.first + tt, t.vu, t.vbase + tt);
    }
  }
}

struct VvCase {
  unsigned vlen = 512;
  std::size_t gvl_req = 1;
  VvTile tile;
  std::vector<float> u, v;
  std::vector<float> regs;  // kNumVregs x vlmax lanes
  std::string name;
};

/// Accumulators, V registers and the U register in a random order with
/// random gaps; V rows either k-major (as Winograd lays them out) or
/// tile-major.
VvCase draw_vv(Rng& rng, unsigned vlen) {
  VvCase c;
  c.vlen = vlen;
  const std::size_t vlmax = vlen / 32;
  const std::size_t gvls[] = {1, 3, 4, 9, 16, vlmax};
  c.gvl_req = gvls[rng.next_below(std::size(gvls))];
  const std::uint64_t every = rng.next_below(2) == 0 ? 8 : 2;
  const std::size_t gvl = std::min(c.gvl_req, vlmax);
  VvTile& t = c.tile;
  t.tiles = 1 + static_cast<int>(rng.next_below(8));
  t.kc = 1 + static_cast<int>(rng.next_below(70));
  const int sizes[3] = {t.tiles, t.tiles, 1};
  int order[3] = {0, 1, 2};
  for (int j = 2; j > 0; --j)
    std::swap(order[j], order[rng.next_below(j + 1)]);
  int spare = static_cast<int>(VectorEngine::kNumVregs) - (2 * t.tiles + 1);
  int pos = 0;
  Vreg base[3];
  for (const int j : order) {
    const int gap = static_cast<int>(rng.next_below(spare + 1));
    spare -= gap;
    base[j] = pos + gap;
    pos = base[j] + sizes[j];
  }
  t.first = base[0];
  t.vbase = base[1];
  t.vu = base[2];
  const bool k_major = rng.next_below(2) == 0;
  const auto row = static_cast<std::ptrdiff_t>(gvl + rng.next_below(6));
  t.u_step = static_cast<std::ptrdiff_t>(gvl + rng.next_below(6));
  if (k_major) {
    t.v_tile_step = row;
    t.v_step = t.tiles * row + static_cast<std::ptrdiff_t>(rng.next_below(6));
  } else {
    t.v_step = row;
    t.v_tile_step = t.kc * row + static_cast<std::ptrdiff_t>(rng.next_below(6));
  }
  c.u = random_floats(rng, static_cast<std::size_t>(t.kc * t.u_step), every);
  c.v = random_floats(rng,
                      static_cast<std::size_t>((t.kc - 1) * t.v_step +
                                               (t.tiles - 1) * t.v_tile_step) +
                          gvl,
                      every);
  c.regs = random_floats(rng, VectorEngine::kNumVregs * vlmax, every);
  std::ostringstream os;
  os << "vlen=" << vlen << " gvl=" << gvl << " tiles=" << t.tiles
     << " kc=" << t.kc << " first=" << t.first << " vu=" << t.vu
     << " vbase=" << t.vbase << (k_major ? " k-major" : " tile-major")
     << " specials=1/" << every;
  c.name = os.str();
  return c;
}

template <class Run>
void run_vv_case(VectorEngine& eng, VvCase& c, Run&& run) {
  VvTile t = c.tile;
  t.u = c.u.data();
  t.v = c.v.data();
  for (Vreg v = 0; v < static_cast<Vreg>(VectorEngine::kNumVregs); ++v)
    for (std::size_t l = 0; l < eng.vlmax(); ++l)
      eng.set_lane(v, l, c.regs[v * eng.vlmax() + l]);
  eng.setvl(c.gvl_req);
  run(eng, t);
  run(eng, t);
}

unsigned draw_vlen(Rng& rng) { return 128u << rng.next_below(8); }

void expect_vv_matches_oracle(int lanes) {
  Rng rng(20261020);
  for (int i = 0; i < 400; ++i) {
    VvCase c = draw_vv(rng, draw_vlen(rng));
    VectorEngine ref(c.vlen), got(c.vlen);
    run_vv_case(ref, c, reference_vv_tile);
    run_vv_case(got, c, [lanes](VectorEngine& e, const VvTile& t) {
      detail::vv_tile_functional(e, t, lanes);
    });
    expect_same_engine(ref, got, c.name + " lanes=" + std::to_string(lanes));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(VvTile, MatchesPerInstructionLoopBitwise) {
  expect_vv_matches_oracle(4);
  if (HasFatalFailure()) return;
  if (tile_lanes() < 8)
    GTEST_SKIP() << "host has no AVX2: the 8-lane tile body was not run "
                    "(the 4-lane body matched)";
  expect_vv_matches_oracle(8);
}

TEST(VvTile, ReplaysTheSameSimulatedEventStream) {
  Rng rng(11);
  const sim::MachineConfig machines[] = {sim::rvv_gem5(), sim::sve_gem5(),
                                         sim::a64fx()};
  for (const sim::MachineConfig& m : machines) {
    for (int i = 0; i < 40; ++i) {
      const unsigned vlen = std::min(draw_vlen(rng), m.max_vlen_bits);
      VvCase c = draw_vv(rng, vlen);
      const sim::RegisteredRange u_reg(c.u.data(), c.u.size() * sizeof(float));
      const sim::RegisteredRange v_reg(c.v.data(), c.v.size() * sizeof(float));
      sim::SimContext ref_ctx(m.with_vlen(vlen)), got_ctx(m.with_vlen(vlen));
      VectorEngine ref(ref_ctx), got(got_ctx);
      run_vv_case(ref, c, reference_vv_tile);
      run_vv_case(got, c,
                  [](VectorEngine& e, const VvTile& t) { e.vfma_vv_tile(t); });
      const std::string name = m.name + " " + c.name;
      expect_same_engine(ref, got, name);
      expect_same_sim(ref_ctx, got_ctx, name);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(VvTile, EmptyKLoopDoesNothing) {
  sim::SimContext ctx(sim::sve_gem5());
  VectorEngine eng(ctx);
  eng.setvl(eng.vlmax());
  eng.vbroadcast(0, 2.0f);
  eng.vbroadcast(8, 3.0f);
  eng.vbroadcast(9, 4.0f);
  const auto before = ctx.timing().stats().vector_instructions;
  const float u = 5.0f, v = 7.0f;
  eng.vfma_vv_tile({.first = 0, .tiles = 1, .vu = 8, .vbase = 9, .kc = 0,
                    .u = &u, .v = &v});
  EXPECT_EQ(eng.lane(0, 0), 2.0f);
  EXPECT_EQ(eng.lane(8, 0), 3.0f);
  EXPECT_EQ(eng.lane(9, 0), 4.0f);
  EXPECT_EQ(eng.mem_bytes_read(), 0u);
  EXPECT_EQ(ctx.timing().stats().vector_instructions, before);
}

TEST(VvTile, RejectsBadRegistersAndWidths) {
  VectorEngine eng(512);
  eng.setvl(4);
  const float u[4] = {}, v[16] = {};
  const VvTile ok{.first = 0, .tiles = 4, .vu = 8, .vbase = 9, .kc = 1,
                  .u = u, .u_step = 4, .v = v, .v_step = 16,
                  .v_tile_step = 4};
  EXPECT_NO_THROW(eng.vfma_vv_tile(ok));
  VvTile bad = ok;
  bad.vu = 3;  // an accumulator
  EXPECT_THROW(eng.vfma_vv_tile(bad), InvalidArgument);
  bad = ok;
  bad.vu = 10;  // a V register
  EXPECT_THROW(eng.vfma_vv_tile(bad), InvalidArgument);
  bad = ok;
  bad.vbase = 2;  // V rows over the accumulators
  EXPECT_THROW(eng.vfma_vv_tile(bad), InvalidArgument);
  bad = ok;
  bad.vbase = 29;  // past v31
  EXPECT_THROW(eng.vfma_vv_tile(bad), InvalidArgument);
  bad = ok;
  bad.tiles = 9;
  EXPECT_THROW(eng.vfma_vv_tile(bad), InvalidArgument);
  EXPECT_THROW(detail::vv_tile_functional(eng, ok, 2), InvalidArgument);
  EXPECT_THROW(detail::vv_tile_functional(eng, ok, 16), InvalidArgument);
}
}  // namespace
}  // namespace vlacnn::vla
