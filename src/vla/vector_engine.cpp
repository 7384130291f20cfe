#include "vla/vector_engine.hpp"

#include <utility>

// x86-64 GCC builds an AVX2 copy of the tile ops' arithmetic next to the
// baseline one and picks between them once per process (tile_lanes()).
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define VLACNN_AVX2_TILES 1
#else
#define VLACNN_AVX2_TILES 0
#endif

namespace vlacnn::vla {

namespace {
bool is_pow2(unsigned v) { return v != 0 && (v & (v - 1)) == 0; }
}  // namespace

VectorEngine::VectorEngine(unsigned vlen_bits)
    : vlen_bits_(vlen_bits), gvl_(vlen_bits / 32) {
  VLACNN_REQUIRE(is_pow2(vlen_bits) && vlen_bits >= 128 && vlen_bits <= 65536,
                 "vector length must be a power of two in [128, 65536] bits");
  regfile_.resize(static_cast<std::size_t>(kNumVregs) * vlmax());
  regfile_.fill(0.0f);
}

VectorEngine::VectorEngine(sim::SimContext& ctx)
    : VectorEngine(ctx.config().vlen_bits) {
  ctx_ = &ctx;
}

void VectorEngine::note_vmem(sim::VopClass cls, int dst,
                             std::initializer_list<int> srcs,
                             std::size_t elements, const void* addr,
                             std::size_t bytes, bool write) {
  if (ctx_ == nullptr) return;
  const std::uint64_t sim_addr = sim::AddressMap::instance().translate(addr);
  const sim::MemCost cost = ctx_->memory().vector_access(sim_addr, bytes, write);
  ctx_->timing().vmem(cls, dst, srcs, elements, cost);
}

// ---------------- memory ----------------

void VectorEngine::vload_strided(Vreg vd, const float* base,
                                 std::ptrdiff_t stride_elems) {
  check_vreg(vd);
  float* d = reg(vd);
  for (std::size_t l = 0; l < gvl_; ++l)
    d[l] = base[static_cast<std::ptrdiff_t>(l) * stride_elems];
  count_mem(gvl_ * sizeof(float), false);
  if (ctx_ == nullptr) return;
  const std::uint64_t sim_addr = sim::AddressMap::instance().translate(base);
  const sim::MemCost cost = ctx_->memory().vector_access_strided(
      sim_addr, stride_elems * static_cast<std::ptrdiff_t>(sizeof(float)), 4,
      gvl_, false);
  ctx_->timing().vmem(sim::VopClass::Load, vd, {}, gvl_, cost);
}

void VectorEngine::vgather(Vreg vd, const float* base,
                           const std::int32_t* indices) {
  check_vreg(vd);
  float* d = reg(vd);
  for (std::size_t l = 0; l < gvl_; ++l) d[l] = base[indices[l]];
  count_mem(gvl_ * sizeof(float), false);
  if (ctx_ != nullptr) {
    sim::MemCost total;
    for (std::size_t l = 0; l < gvl_; ++l) {
      const std::uint64_t a =
          sim::AddressMap::instance().translate(base + indices[l]);
      total += ctx_->memory().vector_access(a, sizeof(float), false);
    }
    // Element accesses pipeline; rebase the serial part (cf.
    // MemorySystem::vector_access_strided).
    total.serial_cycles = 4 + (total.lines > 0 ? total.lines - 1 : 0);
    ctx_->timing().vmem(sim::VopClass::Gather, vd, {}, gvl_, total);
  }
}

namespace {
/// Splits a lane-index vector into maximal runs of consecutive addresses —
/// the access pattern of a structured tuple load/store (one small
/// unit-stride transfer per channel sub-block).
template <typename Fn>
void for_each_run(const std::int32_t* indices, std::size_t n, Fn&& fn) {
  std::size_t start = 0;
  for (std::size_t l = 1; l <= n; ++l) {
    if (l == n || indices[l] != indices[l - 1] + 1) {
      fn(indices[start], l - start);
      start = l;
    }
  }
}
}  // namespace

void VectorEngine::vgather_local(Vreg vd, const float* base,
                                 const std::int32_t* indices) {
  check_vreg(vd);
  float* d = reg(vd);
  for (std::size_t l = 0; l < gvl_; ++l) d[l] = base[indices[l]];
  count_mem(gvl_ * sizeof(float), false);
  if (ctx_ != nullptr) {
    sim::MemCost total;
    for_each_run(indices, gvl_, [&](std::int32_t first, std::size_t count) {
      const std::uint64_t a =
          sim::AddressMap::instance().translate(base + first);
      total += ctx_->memory().vector_access(a, count * sizeof(float), false);
    });
    total.serial_cycles = 4 + (total.lines > 0 ? total.lines - 1 : 0);
    ctx_->timing().vmem(sim::VopClass::Load, vd, {}, gvl_, total);
    ctx_->timing().vop(sim::VopClass::Permute, vd, {vd}, gvl_);
  }
}

void VectorEngine::vscatter_local(Vreg vs, float* base,
                                  const std::int32_t* indices) {
  check_vreg(vs);
  const float* s = reg(vs);
  for (std::size_t l = 0; l < gvl_; ++l) base[indices[l]] = s[l];
  count_mem(gvl_ * sizeof(float), true);
  if (ctx_ != nullptr) {
    ctx_->timing().vop(sim::VopClass::Permute, vs, {vs}, gvl_);
    sim::MemCost total;
    for_each_run(indices, gvl_, [&](std::int32_t first, std::size_t count) {
      const std::uint64_t a =
          sim::AddressMap::instance().translate(base + first);
      total += ctx_->memory().vector_access(a, count * sizeof(float), true);
    });
    total.serial_cycles = 4 + (total.lines > 0 ? total.lines - 1 : 0);
    ctx_->timing().vmem(sim::VopClass::Store, -1, {vs}, gvl_, total);
  }
}

void VectorEngine::prefetch(const void* addr, std::size_t bytes, int level) {
  if (ctx_ == nullptr) return;
  // The instruction itself occupies an issue slot even when it is a no-op
  // (paper §IV-A: gem5 treats SVE prefetches as no-ops but still decodes
  // them; RVV builds simply have no such instruction emitted).
  ctx_->timing().scalar(1);
  const std::uint64_t sim_addr = sim::AddressMap::instance().translate(addr);
  ctx_->memory().software_prefetch(sim_addr, bytes, level);
}

// ---------------- permutes ----------------

void VectorEngine::vpermute(Vreg vd, Vreg vs, const std::int32_t* idx) {
  check_vreg(vd);
  check_vreg(vs);
  VLACNN_REQUIRE(vd != vs, "vpermute requires distinct registers");
  float* d = reg(vd);
  const float* s = reg(vs);
  for (std::size_t l = 0; l < gvl_; ++l) {
    VLACNN_REQUIRE(idx[l] >= 0 && static_cast<std::size_t>(idx[l]) < vlmax(),
                   "permute index out of register bounds");
    d[l] = s[idx[l]];
  }
  if (ctx_ != nullptr)
    ctx_->timing().vop(sim::VopClass::Permute, vd, {vs}, gvl_);
}

// ---------------- tile ops ----------------

namespace {
template <ScalarFormat F>
float widen(const std::uint8_t* p) {
  if constexpr (F == ScalarFormat::F32) {
    float v;
    std::memcpy(&v, p, sizeof(v));
    return v;
  } else if constexpr (F == ScalarFormat::Bf16) {
    std::uint16_t h;
    std::memcpy(&h, p, sizeof(h));
    return f32_from_bf16(h);
  } else {
    return static_cast<float>(*reinterpret_cast<const std::int8_t*>(p));
  }
}

namespace lanes4 {
using vec = float __attribute__((vector_size(16)));
#include "vla/tile_arith.inc"
}  // namespace lanes4
}  // namespace

// The 8-lane body: compiled for AVX2 by this pragma alone, never by a
// per-file flag, so nothing outside namespace lanes8 (header inline
// functions included) can contain an AVX instruction.
#if VLACNN_AVX2_TILES
#pragma GCC push_options
#pragma GCC target("avx2")
namespace {
namespace lanes8 {
using vec = float __attribute__((vector_size(32)));
#include "vla/tile_arith.inc"
}  // namespace lanes8
}  // namespace
#pragma GCC pop_options
#endif

namespace {
struct TileBodies {
  void (*fma)(float*, std::size_t, const FmaTile&, std::size_t, const float*);
  void (*vv)(float*, std::size_t, const VvTile&, std::size_t, const float*,
             const float*);
};

}  // namespace

int tile_lanes() {
#if VLACNN_AVX2_TILES
  static const int lanes = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") ? 8 : 4;
  }();
  return lanes;
#else
  return 4;
#endif
}

namespace {
const TileBodies& tile_bodies(int lanes) {
  VLACNN_REQUIRE(lanes == 4 || lanes == tile_lanes(),
                 "tile width must be 4 or the host's widest");
  static constexpr TileBodies k4{lanes4::fma_tile, lanes4::vv_tile};
#if VLACNN_AVX2_TILES
  static constexpr TileBodies k8{lanes8::fma_tile, lanes8::vv_tile};
  if (lanes == 8) return k8;
#endif
  return k4;
}
}  // namespace

namespace detail {
void fma_tile_functional(VectorEngine& eng, const FmaTile& t, int lanes) {
  eng.fma_tile_arith(t, lanes);
}
void vv_tile_functional(VectorEngine& eng, const VvTile& t, int lanes) {
  eng.vv_tile_arith(t, lanes);
}
}  // namespace detail

void VectorEngine::check_tile(const FmaTile& t) const {
  VLACNN_REQUIRE(t.rows >= 1 && t.kc >= 0, "bad FMA tile shape");
  check_vreg(t.first);
  check_vreg(t.first + t.rows - 1);
  check_vreg(t.vb);
  VLACNN_REQUIRE(t.vb < t.first || t.vb >= t.first + t.rows,
                 "FMA tile B register overlaps its accumulators");
}

void VectorEngine::check_tile(const VvTile& t) const {
  VLACNN_REQUIRE(t.tiles >= 1 && t.tiles <= 8 && t.kc >= 0,
                 "bad tuple tile shape");
  check_vreg(t.first);
  check_vreg(t.first + t.tiles - 1);
  check_vreg(t.vu);
  check_vreg(t.vbase);
  check_vreg(t.vbase + t.tiles - 1);
  const auto in = [&](Vreg r, Vreg lo) { return r >= lo && r < lo + t.tiles; };
  VLACNN_REQUIRE(!in(t.vu, t.first) && !in(t.vu, t.vbase),
                 "tuple tile U register overlaps its accumulators or V rows");
  VLACNN_REQUIRE(t.vbase + t.tiles <= t.first || t.first + t.tiles <= t.vbase,
                 "tuple tile V registers overlap its accumulators");
}

bool VectorEngine::fma_tile_arith(const FmaTile& t, int lanes) {
  check_tile(t);
  if (t.kc == 0) return false;
  const std::size_t gvl = gvl_;
  const auto w = static_cast<std::size_t>(lanes);
  const std::size_t tail = gvl % w;
  if (tail != 0) {
    // The last gvl % W lanes of every B row, zero-padded, so they too run
    // W-wide instead of lane by lane.
    tail_.assign(static_cast<std::size_t>(t.kc) * w, 0.0f);
    const float* src = t.b + (gvl - tail);
    for (int k = 0; k < t.kc; ++k)
      std::memcpy(tail_.data() + static_cast<std::size_t>(k) * w,
                  src + static_cast<std::ptrdiff_t>(k) * t.b_step,
                  tail * sizeof(float));
  }
  tile_bodies(lanes).fma(reg(t.first), vlmax(), t, gvl, tail_.data());
  std::memcpy(reg(t.vb), t.b + static_cast<std::ptrdiff_t>(t.kc - 1) * t.b_step,
              gvl * sizeof(float));
  const std::size_t eb = scalar_format_bytes(t.a_fmt);
  count_mem(static_cast<std::size_t>(t.kc) *
                (gvl * sizeof(float) + static_cast<std::size_t>(t.rows) * eb),
            false);
  return true;
}

bool VectorEngine::vv_tile_arith(const VvTile& t, int lanes) {
  check_tile(t);
  if (t.kc == 0) return false;
  const std::size_t gvl = gvl_;
  const auto w = static_cast<std::size_t>(lanes);
  const std::size_t tail = gvl % w;
  const auto tiles = static_cast<std::size_t>(t.tiles);
  const auto u_row = [&](int k) {
    return t.u + static_cast<std::ptrdiff_t>(k) * t.u_step;
  };
  const auto v_row = [&](int k, std::size_t i) {
    return t.v + static_cast<std::ptrdiff_t>(k) * t.v_step +
           static_cast<std::ptrdiff_t>(i) * t.v_tile_step;
  };
  float* tu = nullptr;
  float* tv = nullptr;
  if (tail != 0) {
    // The last gvl % W lanes of every U and V row, zero-padded.
    const std::size_t off = gvl - tail;
    tail_.assign(static_cast<std::size_t>(t.kc) * w * (1 + tiles), 0.0f);
    tu = tail_.data();
    tv = tu + static_cast<std::size_t>(t.kc) * w;
    for (int k = 0; k < t.kc; ++k) {
      const auto kk = static_cast<std::size_t>(k);
      std::memcpy(tu + kk * w, u_row(k) + off, tail * sizeof(float));
      for (std::size_t i = 0; i < tiles; ++i)
        std::memcpy(tv + (kk * tiles + i) * w, v_row(k, i) + off,
                    tail * sizeof(float));
    }
  }
  tile_bodies(lanes).vv(reg(t.first), vlmax(), t, gvl, tu, tv);
  std::memcpy(reg(t.vu), u_row(t.kc - 1), gvl * sizeof(float));
  for (std::size_t i = 0; i < tiles; ++i)
    std::memcpy(reg(t.vbase + static_cast<Vreg>(i)), v_row(t.kc - 1, i),
                gvl * sizeof(float));
  count_mem(static_cast<std::size_t>(t.kc) * gvl * sizeof(float) * (1 + tiles),
            false);
  return true;
}

void VectorEngine::replay_fma_step(const FmaTile& t, int k) {
  const float* brow = t.b + static_cast<std::ptrdiff_t>(k) * t.b_step;
  note_vmem(sim::VopClass::Load, t.vb, {}, gvl_, brow, gvl_ * sizeof(float),
            false);
  sim::VectorTimingModel& timing = ctx_->timing();
  timing.scalar(2);
  const std::size_t eb = scalar_format_bytes(t.a_fmt);
  const auto* a = static_cast<const std::uint8_t*>(t.a) +
                  static_cast<std::size_t>(k) * eb;
  for (int u = 0; u < t.rows; ++u) {
    note_scalar_mem(a + static_cast<std::size_t>(u) * t.a_row_bytes, eb, false);
    if (t.a_fmt != ScalarFormat::F32) timing.scalar(1);
    if (t.alpha != 1.0f) timing.scalar(1);
    timing.vop(sim::VopClass::Fma, t.first + u, {t.first + u, t.vb}, gvl_);
  }
}

void VectorEngine::replay_vv_step(const VvTile& t, int k) {
  const std::size_t bytes = gvl_ * sizeof(float);
  note_vmem(sim::VopClass::Load, t.vu, {}, gvl_,
            t.u + static_cast<std::ptrdiff_t>(k) * t.u_step, bytes, false);
  sim::VectorTimingModel& timing = ctx_->timing();
  timing.scalar(2);
  const float* vrow = t.v + static_cast<std::ptrdiff_t>(k) * t.v_step;
  for (int i = 0; i < t.tiles; ++i) {
    note_vmem(sim::VopClass::Load, t.vbase + i, {}, gvl_,
              vrow + static_cast<std::ptrdiff_t>(i) * t.v_tile_step, bytes,
              false);
    timing.vop(sim::VopClass::Fma, t.first + i,
               {t.first + i, t.vu, t.vbase + i}, gvl_);
  }
}

// ---------------- scalar accounting / test access ----------------

void VectorEngine::note_scalar_mem(const void* addr, std::size_t bytes,
                                   bool write) {
  // One call per scalar access: the common L1 hit stays inline.
  const std::uint64_t sim_addr = sim::AddressMap::instance().translate(addr);
  sim::MemorySystem& mem = ctx_->memory();
  if (mem.scalar_hit(sim_addr, bytes, write))
    ctx_->timing().scalar_hit();
  else
    ctx_->timing().scalar_mem(mem.scalar_access(sim_addr, bytes, write));
}

float VectorEngine::lane(Vreg v, std::size_t i) const {
  check_vreg(v);
  VLACNN_REQUIRE(i < vlmax(), "lane out of range");
  return reg(v)[i];
}

void VectorEngine::set_lane(Vreg v, std::size_t i, float x) {
  check_vreg(v);
  VLACNN_REQUIRE(i < vlmax(), "lane out of range");
  reg(v)[i] = x;
}

}  // namespace vlacnn::vla
