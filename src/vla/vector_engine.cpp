#include "vla/vector_engine.hpp"

namespace vlacnn::vla {

namespace {
bool is_pow2(unsigned v) { return v != 0 && (v & (v - 1)) == 0; }
}  // namespace

VectorEngine::VectorEngine(unsigned vlen_bits)
    : vlen_bits_(vlen_bits), gvl_(vlen_bits / 32) {
  VLACNN_REQUIRE(is_pow2(vlen_bits) && vlen_bits >= 128 && vlen_bits <= 65536,
                 "vector length must be a power of two in [128, 65536] bits");
  regfile_.assign(static_cast<std::size_t>(kNumVregs) * vlmax(), 0.0f);
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

// ---------------- GEMM micro-tile ----------------

namespace {
/// Four fp32 lanes: GCC vector extensions, so baseline SSE2 on x86-64
/// (one xmm register) with no intrinsics and no extra compile flags.
using v4 = float __attribute__((vector_size(16)));

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

/// NR rows x (4 * NV) lanes of a tile, accumulated in registers over the
/// whole k-loop: NR * NV accumulators, NV B vectors and one splat. Only the
/// first `lanes` lanes of the accumulator rows are read and written; B must
/// hold 4 * NV readable floats per row.
template <ScalarFormat F, bool kScaled, int NR, int NV>
void fma_block(float* const* acc_rows, std::size_t lanes,
               const std::uint8_t* const* a_rows, const float* b,
               std::ptrdiff_t b_step, int kc, float alpha) {
  constexpr std::size_t eb = scalar_format_bytes(F);
  // Lane counts are copied through a temporary, so acc itself never has
  // its address taken and stays in registers.
  const auto lanes_of = [&](int v) {
    return std::min<std::size_t>(4, lanes - 4 * static_cast<std::size_t>(v));
  };
  v4 acc[NR][NV];
  for (int r = 0; r < NR; ++r)
    for (int v = 0; v < NV; ++v) {
      v4 x = {};
      std::memcpy(&x, acc_rows[r] + 4 * v, lanes_of(v) * sizeof(float));
      acc[r][v] = x;
    }
  for (int k = 0; k < kc; ++k) {
    const float* brow = b + static_cast<std::ptrdiff_t>(k) * b_step;
    v4 bv[NV];
    for (int v = 0; v < NV; ++v) std::memcpy(&bv[v], brow + 4 * v, sizeof(v4));
    for (int r = 0; r < NR; ++r) {
      float a = widen<F>(a_rows[r] + static_cast<std::size_t>(k) * eb);
      if constexpr (kScaled) a *= alpha;
      // {a,a,a,a}, not v4{} + a, which would turn -0.0 into +0.0.
      const v4 s = {a, a, a, a};
      for (int v = 0; v < NV; ++v) acc[r][v] = acc[r][v] + s * bv[v];
    }
  }
  for (int r = 0; r < NR; ++r)
    for (int v = 0; v < NV; ++v) {
      const v4 x = acc[r][v];
      std::memcpy(acc_rows[r] + 4 * v, &x, lanes_of(v) * sizeof(float));
    }
}

template <ScalarFormat F, bool kScaled, int NV>
void fma_block_rows(int nr, float* const* acc_rows, std::size_t lanes,
                    const std::uint8_t* const* a_rows, const float* b,
                    std::ptrdiff_t b_step, int kc, float alpha) {
  switch (nr) {
    case 1:
      return fma_block<F, kScaled, 1, NV>(acc_rows, lanes, a_rows, b, b_step,
                                          kc, alpha);
    case 2:
      return fma_block<F, kScaled, 2, NV>(acc_rows, lanes, a_rows, b, b_step,
                                          kc, alpha);
    case 3:
      return fma_block<F, kScaled, 3, NV>(acc_rows, lanes, a_rows, b, b_step,
                                          kc, alpha);
    default:
      return fma_block<F, kScaled, 4, NV>(acc_rows, lanes, a_rows, b, b_step,
                                          kc, alpha);
  }
}

/// The tile in 4-row blocks, each over 8-lane chunks, then a 4-lane chunk,
/// then the last 1..3 lanes against `tail_b` (B's tail lanes, zero-padded
/// to 4 per row).
template <ScalarFormat F, bool kScaled>
void fma_tile_blocks(float* acc0, std::size_t acc_stride, const FmaTile& t,
                     std::size_t gvl, const float* tail_b) {
  const auto* a0 = static_cast<const std::uint8_t*>(t.a);
  const std::size_t tail = gvl % 4;
  for (int u0 = 0; u0 < t.rows; u0 += 4) {
    const int nr = std::min(4, t.rows - u0);
    float* acc[4];
    const std::uint8_t* a_rows[4];
    for (int r = 0; r < nr; ++r) {
      acc[r] = acc0 + static_cast<std::size_t>(u0 + r) * acc_stride;
      a_rows[r] = a0 + static_cast<std::size_t>(u0 + r) * t.a_row_bytes;
    }
    std::size_t l = 0;
    const auto shift = [&](std::size_t by) {
      for (int r = 0; r < nr; ++r) acc[r] += by;
      l += by;
    };
    for (; l + 8 <= gvl; shift(8))
      fma_block_rows<F, kScaled, 2>(nr, acc, 8, a_rows, t.b + l, t.b_step,
                                    t.kc, t.alpha);
    if (l + 4 <= gvl) {
      fma_block_rows<F, kScaled, 1>(nr, acc, 4, a_rows, t.b + l, t.b_step,
                                    t.kc, t.alpha);
      shift(4);
    }
    if (tail != 0)
      fma_block_rows<F, kScaled, 1>(nr, acc, tail, a_rows, tail_b, 4, t.kc,
                                    t.alpha);
  }
}

template <ScalarFormat F>
void fma_tile_format(float* acc0, std::size_t acc_stride, const FmaTile& t,
                     std::size_t gvl, const float* tail_b) {
  if (t.alpha != 1.0f)
    fma_tile_blocks<F, true>(acc0, acc_stride, t, gvl, tail_b);
  else
    fma_tile_blocks<F, false>(acc0, acc_stride, t, gvl, tail_b);
}
}  // namespace

void VectorEngine::check_tile(const FmaTile& t) const {
  VLACNN_REQUIRE(t.rows >= 1 && t.kc >= 0, "bad FMA tile shape");
  check_vreg(t.first);
  check_vreg(t.first + t.rows - 1);
  check_vreg(t.vb);
  VLACNN_REQUIRE(t.vb < t.first || t.vb >= t.first + t.rows,
                 "FMA tile B register overlaps its accumulators");
}

void VectorEngine::fma_tile_arith(const FmaTile& t) {
  const std::size_t gvl = gvl_;
  const std::size_t tail = gvl % 4;
  if (tail != 0) {
    // The last 1..3 lanes of every B row, zero-padded, so they too run
    // four-wide instead of lane by lane.
    tail_b_.assign(static_cast<std::size_t>(t.kc) * 4, 0.0f);
    const float* src = t.b + (gvl - tail);
    for (int k = 0; k < t.kc; ++k)
      std::memcpy(tail_b_.data() + static_cast<std::size_t>(k) * 4,
                  src + static_cast<std::ptrdiff_t>(k) * t.b_step,
                  tail * sizeof(float));
  }
  float* acc0 = reg(t.first);
  switch (t.a_fmt) {
    case ScalarFormat::F32:
      fma_tile_format<ScalarFormat::F32>(acc0, vlmax(), t, gvl, tail_b_.data());
      break;
    case ScalarFormat::Bf16:
      fma_tile_format<ScalarFormat::Bf16>(acc0, vlmax(), t, gvl, tail_b_.data());
      break;
    case ScalarFormat::Int8:
      fma_tile_format<ScalarFormat::Int8>(acc0, vlmax(), t, gvl, tail_b_.data());
      break;
  }
  std::memcpy(reg(t.vb), t.b + static_cast<std::ptrdiff_t>(t.kc - 1) * t.b_step,
              gvl * sizeof(float));
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
