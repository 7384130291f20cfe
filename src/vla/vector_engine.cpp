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
