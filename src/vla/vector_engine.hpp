#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "common/error.hpp"
#include "sim/sim_context.hpp"

namespace vlacnn::vla {

/// Architectural vector register number (v0..v31).
using Vreg = int;

/// Storage format of the scalar (A) operand stream of
/// VectorEngine::vfma_vf_tile; each element is widened to fp32 on load.
enum class ScalarFormat { F32, Bf16, Int8 };

[[nodiscard]] constexpr std::size_t scalar_format_bytes(ScalarFormat f) {
  return f == ScalarFormat::F32 ? 4 : f == ScalarFormat::Bf16 ? 2 : 1;
}

/// bf16 -> fp32 widening: a pure bit shift, always exact.
[[nodiscard]] inline float f32_from_bf16(std::uint16_t h) {
  const std::uint32_t bits = static_cast<std::uint32_t>(h) << 16;
  float x;
  std::memcpy(&x, &bits, sizeof(x));
  return x;
}

/// One GEMM micro-tile for VectorEngine::vfma_vf_tile: row u's k-th A
/// element sits at `a + u * a_row_bytes + k * scalar_format_bytes(a_fmt)`,
/// B row k at `b + k * b_step`.
struct FmaTile {
  Vreg first = 0;  ///< accumulators v[first] .. v[first + rows - 1]
  int rows = 0;
  Vreg vb = 0;     ///< receives each B row in turn
  int kc = 0;
  const float* b = nullptr;
  std::ptrdiff_t b_step = 0;  ///< floats between B rows
  const void* a = nullptr;
  std::size_t a_row_bytes = 0;
  ScalarFormat a_fmt = ScalarFormat::F32;
  /// alpha != 1: each widened A value is pre-multiplied (rounded) by alpha
  /// and the multiply billed as one scalar op.
  float alpha = 1.0f;
};

/// One block of Winograd's tuple multiply for VectorEngine::vfma_vv_tile:
/// U row k sits at `u + k * u_step`, V row (k, i) of tile i at
/// `v + k * v_step + i * v_tile_step` (all steps in floats).
struct VvTile {
  Vreg first = 0;  ///< accumulators v[first] .. v[first + tiles - 1]
  int tiles = 0;   ///< 1..8
  Vreg vu = 0;     ///< receives each U row
  Vreg vbase = 0;  ///< v[vbase + i] receives each V row of tile i
  int kc = 0;
  const float* u = nullptr;
  std::ptrdiff_t u_step = 0;
  const float* v = nullptr;
  std::ptrdiff_t v_step = 0;
  std::ptrdiff_t v_tile_step = 0;
};

/// Host vector width, in fp32 lanes, of the tile ops' arithmetic: 8 where
/// an x86-64 GCC build runs on a host with AVX2, else 4. Chosen once per
/// process from CPUID; the simulated numbers never depend on it.
[[nodiscard]] int tile_lanes();

class VectorEngine;

namespace detail {
/// The functional part of vfma_vf_tile / vfma_vv_tile (register checks,
/// arithmetic, end state, traffic counters; no simulator events) at an
/// explicit width: 4, or tile_lanes(). The ops always run at tile_lanes();
/// this entry lets the differential tests run both bodies.
void fma_tile_functional(VectorEngine& eng, const FmaTile& t, int lanes);
void vv_tile_functional(VectorEngine& eng, const VvTile& t, int lanes);
}  // namespace detail

/// Vector-length-agnostic vector engine: the substitute for RVV / SVE
/// hardware intrinsics.
///
/// Kernels are written against this class exactly as they would be written
/// with EPI builtins (RVV) or ACLE (SVE): the author allocates architectural
/// registers v0..v31 explicitly, strip-mines every loop with `setvl`, and
/// uses contiguous / strided / gather memory operations and vector-scalar
/// FMAs. The same kernels run for both ISAs — the machine config picks the
/// memory path and timing, not the op set — and no kernel uses predicates.
///
/// The engine executes every operation functionally on host memory. When a
/// `sim::SimContext` is attached, each operation additionally feeds the
/// scoreboard timing model and the cache hierarchy, so the same kernel code
/// yields both numerics and simulated cycles.
///
/// It has 22 ops. The hot ones (setvl, unit-stride load/store, broadcast,
/// the FMAs, the element-wise arithmetic and the scalar accounting) are
/// defined inline: with no context attached they compile to a register
/// check and a plain lane loop inside the calling kernel. Their
/// instrumentation (the timing model, note_vmem, note_scalar_mem) is out of
/// line and runs only when `ctx_ != nullptr`. Strided loads, gathers and
/// permutes are out of line.
///
/// Two tile ops each stand for many instructions: `vfma_vf_tile`, the whole
/// k-loop of a GEMM micro-tile (a `vfmacc.vf` per accumulator row per
/// k-step), and `vfma_vv_tile`, the input-channel loop of Winograd's tuple
/// multiply (a `vfmacc.vv` per tile per channel). Their arithmetic runs
/// once, in host registers, from one body for both the functional and the
/// simulated engine; with a context attached each op then replays, per
/// k-step, exactly the events the per-instruction loop would issue, in the
/// same order (see the ops' comments). That body is compiled at 4 host
/// lanes and, on x86-64 GCC, also at 8 lanes for AVX2 (tile_lanes() picks
/// one per process); both give the same bits.
class VectorEngine {
 public:
  static constexpr unsigned kNumVregs = 32;

  /// Functional-only engine with the given hardware vector length.
  explicit VectorEngine(unsigned vlen_bits);
  /// Instrumented engine; vector length comes from the machine config.
  explicit VectorEngine(sim::SimContext& ctx);

  [[nodiscard]] unsigned vlen_bits() const { return vlen_bits_; }
  /// VLMAX for 32-bit elements (svcntw() in SVE terms).
  [[nodiscard]] std::size_t vlmax() const { return vlen_bits_ / 32; }
  [[nodiscard]] sim::SimContext* context() const { return ctx_; }

  // ---------------- strip mining ----------------

  /// `vsetvl`: returns the granted vector length min(requested, VLMAX) and
  /// makes it the implicit element count of subsequent ops.
  std::size_t setvl(std::size_t requested) {
    gvl_ = std::min(requested, vlmax());
    if (ctx_ != nullptr) ctx_->timing().vop(sim::VopClass::SetVl, -1, {}, 0);
    return gvl_;
  }
  [[nodiscard]] std::size_t gvl() const { return gvl_; }

  // ---------------- memory operations ----------------

  /// Unit-stride load of gvl() elements.
  void vload(Vreg vd, const float* src) {
    check_vreg(vd);
    const std::size_t bytes = gvl_ * sizeof(float);
    std::memcpy(reg(vd), src, bytes);
    count_mem(bytes, false);
    if (ctx_ != nullptr)
      note_vmem(sim::VopClass::Load, vd, {}, gvl_, src, bytes, false);
  }
  /// Unit-stride store of gvl() elements.
  void vstore(Vreg vs, float* dst) {
    check_vreg(vs);
    const std::size_t bytes = gvl_ * sizeof(float);
    std::memcpy(dst, reg(vs), bytes);
    count_mem(bytes, true);
    if (ctx_ != nullptr)
      note_vmem(sim::VopClass::Store, -1, {vs}, gvl_, dst, bytes, true);
  }
  /// Strided load (stride in elements); gvl() elements.
  void vload_strided(Vreg vd, const float* base, std::ptrdiff_t stride_elems);
  /// Gather with per-element indices (in elements from base).
  void vgather(Vreg vd, const float* base, const std::int32_t* indices);

  /// Structured gather/scatter over a small cache-resident region — the
  /// cost model of SVE tuple loads + register transposes (ld4/st4 + trn/zip,
  /// the intrinsics the paper's Winograd uses, §IV-B/§VII). Functionally an
  /// indexed gather / scatter; billed as one unit-stride access over
  /// the touched footprint plus an in-register permute, instead of
  /// per-element address generation.
  void vgather_local(Vreg vd, const float* base, const std::int32_t* indices);
  void vscatter_local(Vreg vs, float* base, const std::int32_t* indices);

  /// Software prefetch hint (level 1 = L1, 2 = L2). Honoured only on
  /// machines with `sw_prefetch_effective` (paper §IV-A).
  void prefetch(const void* addr, std::size_t bytes, int level);

  // ---------------- arithmetic ----------------

  void vbroadcast(Vreg vd, float x) {
    check_vreg(vd);
    std::fill_n(reg(vd), gvl_, x);
    if (ctx_ != nullptr)
      ctx_->timing().vop(sim::VopClass::Broadcast, vd, {}, gvl_);
  }

#define VLACNN_DEFINE_BINOP(NAME, EXPR)                            \
  void NAME(Vreg vd, Vreg va, Vreg vb) {                           \
    check_vreg(vd);                                                \
    check_vreg(va);                                                \
    check_vreg(vb);                                                \
    float* d = reg(vd);                                            \
    const float* a = reg(va);                                      \
    const float* b = reg(vb);                                      \
    const std::size_t n = gvl_;                                    \
    for (std::size_t l = 0; l < n; ++l) d[l] = (EXPR);             \
    if (ctx_ != nullptr)                                           \
      ctx_->timing().vop(sim::VopClass::Arith, vd, {va, vb}, n);   \
  }

  /// vd[i] = a[i] + b[i], etc. All use gvl() elements.
  VLACNN_DEFINE_BINOP(vadd, a[l] + b[l])
  VLACNN_DEFINE_BINOP(vmul, a[l] * b[l])
  VLACNN_DEFINE_BINOP(vmin, std::min(a[l], b[l]))
#undef VLACNN_DEFINE_BINOP

  /// vacc[i] += va[i] * vb[i]   (vfmacc.vv)
  void vfma(Vreg vacc, Vreg va, Vreg vb) {
    check_vreg(vacc);
    check_vreg(va);
    check_vreg(vb);
    float* acc = reg(vacc);
    const float* a = reg(va);
    const float* b = reg(vb);
    const std::size_t n = gvl_;
    for (std::size_t l = 0; l < n; ++l) acc[l] += a[l] * b[l];
    if (ctx_ != nullptr)
      ctx_->timing().vop(sim::VopClass::Fma, vacc, {vacc, va, vb}, n);
  }
  /// vacc[i] += a * vb[i]       (vfmacc.vf — vector-scalar FMA; the compiler
  /// pattern the paper relies on to avoid explicit broadcasts)
  void vfma_scalar(Vreg vacc, float a, Vreg vb) {
    check_vreg(vacc);
    check_vreg(vb);
    float* acc = reg(vacc);
    const float* b = reg(vb);
    const std::size_t n = gvl_;
    for (std::size_t l = 0; l < n; ++l) acc[l] += a * b[l];
    if (ctx_ != nullptr)
      ctx_->timing().vop(sim::VopClass::Fma, vacc, {vacc, vb}, n);
  }

  /// The k-loop of a GEMM micro-tile, gvl() lanes wide:
  ///
  ///   for k < t.kc:  v[t.vb] = B row k
  ///                  for u < t.rows:  v[t.first + u] += A(u, k) * v[t.vb]
  ///
  /// where A(u, k) is widened exactly (bf16: bit shift; int8: integer
  /// value) and, when alpha != 1, pre-multiplied by alpha. Every lane gets
  /// `acc + a * b` with k ascending and two roundings, as vfma_scalar does.
  ///
  /// End state: registers v[first .. first+rows-1] and v[vb] hold what the
  /// loop leaves (v[vb] = B row kc-1) and mem_bytes_read() has grown by
  /// kc * (gvl * 4 + rows * element bytes). kc == 0 does nothing.
  ///
  /// With a context attached, each k-step then replays, in order:
  ///   1. per_k(k) (called only with a context; for instrumentation-only
  ///      ops such as prefetch);
  ///   2. the B load (a unit-stride Load of gvl elements into v[vb]);
  ///   3. scalar_ops(2), the k-loop bookkeeping;
  ///   4. per row u: the scalar A load, scalar_ops(1) for the bf16 / int8
  ///      widen, scalar_ops(1) for alpha != 1, and the Fma writing
  ///      v[first+u] from {v[first+u], v[vb]}.
  template <class PerK>
  void vfma_vf_tile(const FmaTile& t, PerK&& per_k) {
    if (!fma_tile_arith(t, tile_lanes()) || ctx_ == nullptr) return;
    for (int k = 0; k < t.kc; ++k) {
      per_k(k);
      replay_fma_step(t, k);
    }
  }
  void vfma_vf_tile(const FmaTile& t) {
    vfma_vf_tile(t, [](int) {});
  }

  /// The input-channel loop of a Winograd tuple-multiply block, gvl()
  /// lanes wide:
  ///
  ///   for k < t.kc:  v[t.vu] = U row k
  ///                  for i < t.tiles:  v[t.vbase + i] = V row (k, i)
  ///                                    v[t.first + i] +=
  ///                                        v[t.vu] * v[t.vbase + i]
  ///
  /// Every lane gets `acc + u * v` with k ascending and two roundings, as
  /// vfma does. v[vu] and the V registers must not overlap the
  /// accumulators or each other.
  ///
  /// End state: the accumulators hold the sums, v[vu] = U row kc-1,
  /// v[vbase+i] = V row (kc-1, i), and mem_bytes_read() has grown by
  /// kc * gvl * 4 * (1 + tiles). kc == 0 does nothing.
  ///
  /// With a context attached, each k-step then replays, in order: the U
  /// load (a unit-stride Load of gvl elements into v[vu]), scalar_ops(2),
  /// and per tile i the V load into v[vbase+i] and the Fma writing
  /// v[first+i] from {v[first+i], v[vu], v[vbase+i]}.
  void vfma_vv_tile(const VvTile& t) {
    if (!vv_tile_arith(t, tile_lanes()) || ctx_ == nullptr) return;
    for (int k = 0; k < t.kc; ++k) replay_vv_step(t, k);
  }

#define VLACNN_DEFINE_SCALAR_OP(NAME, EXPR)                        \
  void NAME(Vreg vd, Vreg va, float b) {                           \
    check_vreg(vd);                                                \
    check_vreg(va);                                                \
    float* d = reg(vd);                                            \
    const float* a = reg(va);                                      \
    const std::size_t n = gvl_;                                    \
    for (std::size_t l = 0; l < n; ++l) d[l] = (EXPR);             \
    if (ctx_ != nullptr)                                           \
      ctx_->timing().vop(sim::VopClass::Arith, vd, {va}, n);       \
  }

  /// vd[i] = a[i] + b, etc. All use gvl() elements.
  VLACNN_DEFINE_SCALAR_OP(vadd_scalar, a[l] + b)
  VLACNN_DEFINE_SCALAR_OP(vmul_scalar, a[l] * b)
  VLACNN_DEFINE_SCALAR_OP(vmax_scalar, std::max(a[l], b))
#undef VLACNN_DEFINE_SCALAR_OP

  // ---------------- permutes (Winograd transposes) ----------------

  /// vd[i] = vs[idx[i]] for gvl() elements (tbl / vrgather).
  void vpermute(Vreg vd, Vreg vs, const std::int32_t* idx);

  // ---------------- scalar-side accounting ----------------

  /// Charges `n` scalar bookkeeping operations (loop control, address
  /// arithmetic) to the scalar pipe. No functional effect.
  void scalar_ops(std::uint64_t n) {
    if (ctx_ != nullptr) ctx_->timing().scalar(n);
  }
  /// Charges a scalar load/store of `bytes` at `addr`.
  void scalar_mem(const void* addr, std::size_t bytes, bool write) {
    count_mem(bytes, write);
    if (ctx_ != nullptr) note_scalar_mem(addr, bytes, write);
  }

  // ---------------- traffic accounting ----------------

  /// Cumulative bytes read / written through this engine's memory operations
  /// (vector and scalar). Maintained functionally — unlike the simulator's
  /// cache statistics these are available on uninstrumented runs, which is
  /// what lets the fused-conv benchmarks and tests compare the memory
  /// traffic of two algorithm pipelines at host speed.
  [[nodiscard]] std::uint64_t mem_bytes_read() const { return bytes_read_; }
  [[nodiscard]] std::uint64_t mem_bytes_written() const { return bytes_written_; }
  [[nodiscard]] std::uint64_t mem_bytes_moved() const {
    return bytes_read_ + bytes_written_;
  }
  void reset_mem_counters() { bytes_read_ = bytes_written_ = 0; }

  // ---------------- test access ----------------

  [[nodiscard]] float lane(Vreg v, std::size_t i) const;
  void set_lane(Vreg v, std::size_t i, float x);

 private:
  float* reg(Vreg v) {
    return regfile_.data() + static_cast<std::size_t>(v) * vlmax();
  }
  const float* reg(Vreg v) const {
    return regfile_.data() + static_cast<std::size_t>(v) * vlmax();
  }
  void check_vreg(Vreg v) const {
    VLACNN_REQUIRE(v >= 0 && v < static_cast<int>(kNumVregs),
                   "vector register out of range");
  }

  void check_tile(const FmaTile& t) const;
  void check_tile(const VvTile& t) const;
  /// A tile op's functional part at `lanes` host lanes: checks, arithmetic,
  /// end state and traffic counters. False (and nothing done) when kc == 0.
  bool fma_tile_arith(const FmaTile& t, int lanes);
  bool vv_tile_arith(const VvTile& t, int lanes);
  friend void detail::fma_tile_functional(VectorEngine&, const FmaTile&, int);
  friend void detail::vv_tile_functional(VectorEngine&, const VvTile&, int);
  /// A tile op's simulator events for k-step k.
  void replay_fma_step(const FmaTile& t, int k);
  void replay_vv_step(const VvTile& t, int k);

  // Instrumentation hooks: called only with a context attached.
  void note_vmem(sim::VopClass cls, int dst, std::initializer_list<int> srcs,
                 std::size_t elements, const void* addr, std::size_t bytes,
                 bool write);
  void note_scalar_mem(const void* addr, std::size_t bytes, bool write);

  /// Counts `bytes` toward the functional traffic totals.
  void count_mem(std::size_t bytes, bool write) {
    if (write)
      bytes_written_ += bytes;
    else
      bytes_read_ += bytes;
  }

  sim::SimContext* ctx_ = nullptr;
  unsigned vlen_bits_;
  std::size_t gvl_;
  std::uint64_t bytes_read_ = 0;
  std::uint64_t bytes_written_ = 0;
  // kNumVregs * vlmax(); aligned so a 512-bit register is one host cache
  // line and no host vector load splits a line.
  AlignedBuffer<float> regfile_;
  std::vector<float> tail_;  // the tile ops' zero-padded operand lane tails
};

}  // namespace vlacnn::vla
