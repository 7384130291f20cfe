#include "gemm/gemm_opt6.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "dnn/im2col.hpp"

namespace vlacnn::gemm {

namespace {
constexpr int kMaxAccRegs = 30;
constexpr vla::Vreg kVB = 30;
constexpr vla::Vreg kVTmp = 31;

/// Strip-mined unit-stride copy of `n` floats through kVTmp — the one
/// vector-copy idiom (and its scalar bookkeeping charge) shared by the
/// A-pack, the batched dense B-pack and the batched C scatter.
void vcopy_run(vla::VectorEngine& eng, const float* src, float* dst, int n) {
  eng.scalar_ops(2);
  for (int i = 0; i < n;) {
    const auto vl =
        static_cast<int>(eng.setvl(static_cast<std::size_t>(n - i)));
    eng.vload(kVTmp, src + i);
    eng.vstore(kVTmp, dst + i);
    eng.scalar_ops(2);
    i += vl;
  }
}
}  // namespace

Gemm6::Gemm6(const Opt6Config& cfg) : cfg_(cfg) {
  VLACNN_REQUIRE(cfg.blocks.block_m >= 1 && cfg.blocks.block_n >= 1 &&
                     cfg.blocks.block_k >= 1,
                 "block sizes must be positive");
  VLACNN_REQUIRE(cfg.unroll_factor >= 1 && cfg.unroll_factor <= kMaxAccRegs,
                 "6-loop unroll must fit the register file");
  pack_a_buf_.resize(static_cast<std::size_t>(cfg.blocks.block_m) *
                     cfg.blocks.block_k);
  pack_b_buf_.resize(static_cast<std::size_t>(cfg.blocks.block_k) *
                     cfg.blocks.block_n);
  pa_reg_ = sim::RegisteredRange(pack_a_buf_.data(),
                                 pack_a_buf_.size() * sizeof(float));
  pb_reg_ = sim::RegisteredRange(pack_b_buf_.data(),
                                 pack_b_buf_.size() * sizeof(float));
}

void Gemm6::pack_b_panel_implicit(vla::VectorEngine& eng,
                                  const dnn::ConvDesc& d, const float* input,
                                  int k0, int kc, int j0, int nc) {
  // Same micro-panel layout as pack_b_panel, but the source rows are im2col
  // rows gathered straight from the input image: the full K×N workspace (and
  // its write + re-read traffic) never exists.
  const int panel_w = static_cast<int>(eng.vlmax());
  for (int jp = 0, strip = 0; jp < nc; jp += panel_w, ++strip) {
    const int w = std::min(panel_w, nc - jp);
    float* strip_base = pack_b_buf_.data() +
                        static_cast<std::size_t>(strip) * kc * panel_w;
    eng.scalar_ops(2);
    for (int k = 0; k < kc; ++k)
      dnn::im2col_pack_segment(eng, d, input, k0 + k, j0 + jp, w,
                               strip_base + static_cast<std::size_t>(k) * panel_w);
  }
}

void Gemm6::pack_b_panel_batched(vla::VectorEngine& eng, const BatchB& bb,
                                 const dnn::ConvDesc* conv, int k0, int kc,
                                 int j0, int nc) {
  // Same micro-panel layout as pack_b_panel, but the logical B matrix is
  // the column-axis concatenation of every batch item's (implicit or dense)
  // B. Strips may straddle item boundaries, so each row segment is gathered
  // per item piece; the packed bytes are exactly what per-item packing
  // would produce, which is what keeps the micro-kernel numerics
  // bit-identical to the per-item path.
  const int panel_w = static_cast<int>(eng.vlmax());
  for (int jp = 0, strip = 0; jp < nc; jp += panel_w, ++strip) {
    const int w = std::min(panel_w, nc - jp);
    float* strip_base =
        pack_b_buf_.data() + static_cast<std::size_t>(strip) * kc * panel_w;
    eng.scalar_ops(2);
    for (int k = 0; k < kc; ++k) {
      float* dst = strip_base + static_cast<std::size_t>(k) * panel_w;
      int col = j0 + jp;
      int left = w;
      int off = 0;
      while (left > 0) {
        const int item = col / bb.n_item;
        const int local = col % bb.n_item;
        const int take = std::min(left, bb.n_item - local);
        const float* in_item =
            bb.input + static_cast<std::size_t>(item) * bb.item_stride;
        if (conv != nullptr) {
          dnn::im2col_pack_segment(eng, *conv, in_item, k0 + k, local, take,
                                   dst + off);
        } else {
          // Dense 1x1/s1 item: row k0+k of its B is a contiguous input run.
          vcopy_run(eng,
                    in_item + static_cast<std::size_t>(k0 + k) * bb.n_item +
                        local,
                    dst + off, take);
        }
        col += take;
        off += take;
        left -= take;
      }
    }
  }
}

void Gemm6::pack_b_panel(vla::VectorEngine& eng, const float* B, int ldb,
                         int k0, int kc, int j0, int nc) {
  // BLIS-style micro-panel layout: the panel is split into strips of NR =
  // VLMAX columns; within a strip, the kc rows are stored contiguously so
  // that the micro-kernel's k-walk is perfectly sequential (this is what
  // lets the A64FX stream prefetcher hide the panel traffic — and why the
  // packing buys nothing on the L2-connected RVV vector unit).
  const int panel_w = static_cast<int>(eng.vlmax());
  for (int jp = 0, strip = 0; jp < nc; jp += panel_w, ++strip) {
    const int w = std::min(panel_w, nc - jp);
    float* strip_base = pack_b_buf_.data() +
                        static_cast<std::size_t>(strip) * kc * panel_w;
    eng.scalar_ops(2);
    for (int k = 0; k < kc; ++k) {
      const float* src = B + static_cast<std::size_t>(k0 + k) * ldb + j0 + jp;
      eng.setvl(static_cast<std::size_t>(w));
      eng.vload(kVTmp, src);
      eng.vstore(kVTmp, strip_base + static_cast<std::size_t>(k) * panel_w);
      eng.scalar_ops(2);
    }
  }
}

void Gemm6::pack_a_panel(vla::VectorEngine& eng, const float* A, int lda,
                         int i0, int mc, int k0, int kc) {
  // Row-major mc x kc panel so the micro-kernel's scalar A loads walk
  // contiguous memory.
  for (int i = 0; i < mc; ++i)
    vcopy_run(eng, A + static_cast<std::size_t>(i0 + i) * lda + k0,
              pack_a_buf_.data() + static_cast<std::size_t>(i) * kc, kc);
}

namespace {
/// The engine's widen-on-load format for an A image stored as F.
vla::ScalarFormat scalar_format(PackFormat f) {
  switch (f) {
    case PackFormat::Bf16:
    case PackFormat::SparseBf16:
      return vla::ScalarFormat::Bf16;
    case PackFormat::Int8PerChannel:
      // Integer-domain accumulation: the FMA sees the raw quantized value;
      // the per-channel scale is applied once per output element by the
      // epilogue (dequant pre-multiply), not per FMA.
      return vla::ScalarFormat::Int8;
    default:
      return vla::ScalarFormat::F32;
  }
}

/// Row 0 of strip column j of a B panel. b_stride == -1 flags the packed
/// micro-panel layout (see pack_b_panel), whose rows are panel_w floats
/// apart; else B is row-major, with rows b_stride apart.
const float* b_strip(const float* b_panel, int b_stride, int kc, int panel_w,
                     int j) {
  if (b_stride >= 0) return b_panel + j;
  return b_panel + (static_cast<std::size_t>(j) / panel_w) * kc * panel_w;
}
}  // namespace

void Gemm6::tile_open(vla::VectorEngine& eng, int rows, int gvl, float* C,
                      int ldc, int ci, int cj, bool beta0, const void* a_pf,
                      std::size_t a_pf_bytes, const float* b_pf) {
  const auto c_off = [&](int u) {
    return static_cast<std::size_t>(ci + u) * ldc + cj;
  };
  if (cfg_.prefetch) {
    // Paper Fig. 3 lines 11-13: C tile into L1, packed panels into L2.
    for (int u = 0; u < rows; ++u)
      eng.prefetch(C + c_off(u), static_cast<std::size_t>(gvl) * sizeof(float),
                   1);
    eng.prefetch(a_pf, a_pf_bytes, 2);
    eng.prefetch(b_pf, static_cast<std::size_t>(gvl) * sizeof(float), 2);
  }

  for (int u = 0; u < rows; ++u) {
    if (beta0) {
      // First k-panel of a fused conv: the accumulator starts at zero
      // instead of loading the (would-be zero-filled) C tile — this is
      // what eliminates both the fill_cpu pass and the first C read.
      eng.vbroadcast(u, 0.0f);
    } else {
      eng.vload(u, C + c_off(u));
    }
  }
}

void Gemm6::tile_close(vla::VectorEngine& eng, int rows, float* C, int ldc,
                       int ci, int cj, const dnn::EpilogueDesc* epi) {
  // beta0 stores and the one-pass epilogue run for EVERY tile — a fully
  // pruned sparse row block still owns its output rows.
  for (int u = 0; u < rows; ++u) {
    const std::size_t c_off = static_cast<std::size_t>(ci + u) * ldc + cj;
    // Last k-panel of a fused conv: BN/bias/activation happen here, on
    // the accumulator registers, instead of as separate passes that
    // re-stream the output tensor (kVB is dead after the k-loop).
    if (epi != nullptr) {
      dnn::apply_channel_epilogue(
          eng, *epi, epi_params_[static_cast<std::size_t>(ci + u)], u, kVB);
      if (epi->residual != nullptr) {
        // Fused shortcut: the skip tensor shares C's layout, so the
        // addend for this tile slice sits at the same offset (kVTmp is
        // dead outside the packing stages).
        eng.vload(kVB, epi->residual + c_off);
        eng.vadd(u, u, kVB);
        dnn::apply_activation_reg(eng, epi->residual_act, u, kVTmp);
      }
    }
    eng.vstore(u, C + c_off);
  }
}

void Gemm6::micro_kernel(vla::VectorEngine& eng, PackFormat fmt, int mc,
                         int nc, int kc, float alpha, const APanel& a,
                         const float* b_panel, int b_stride, float* C,
                         int ldc, int i0, int j0, bool beta0,
                         const dnn::EpilogueDesc* epi) {
  const int unroll = cfg_.unroll_factor;
  const int panel_w = static_cast<int>(eng.vlmax());
  const std::ptrdiff_t b_step = b_stride >= 0 ? b_stride : panel_w;
  // A-panel addressing in bytes: a resident reduced-precision image stores
  // 2-byte (bf16) or 1-byte (int8) elements in the identical panel
  // geometry, which is precisely where the weight-stream DRAM saving comes
  // from — the k-walk touches half / a quarter of the cache lines.
  const std::size_t a_elem = pack_elem_bytes(fmt);
  const std::size_t a_row = static_cast<std::size_t>(a.stride) * a_elem;
  for (int j = 0; j < nc;) {
    const auto gvl =
        static_cast<int>(eng.setvl(static_cast<std::size_t>(nc - j)));
    eng.scalar_ops(2);
    const float* b0 = b_strip(b_panel, b_stride, kc, panel_w, j);
    for (int i = 0; i < mc; i += unroll) {
      const int rows = std::min(unroll, mc - i);
      eng.scalar_ops(3);
      const std::uint8_t* a_tile = static_cast<const std::uint8_t*>(a.data) +
                                   static_cast<std::size_t>(i) * a_row;
      tile_open(eng, rows, gvl, C, ldc, i0 + i, j0 + j, beta0, a_tile,
                static_cast<std::size_t>(rows) * a_row, b_panel + j);
      eng.vfma_vf_tile({0, rows, kVB, kc, b0, b_step, a_tile, a_row,
                        scalar_format(fmt), alpha},
                       [&](int k) {
                         if (cfg_.prefetch && (k & 15) == 0) {
                           // Fig. 3 lines 16-17: stream the next packed
                           // lines into L1.
                           eng.prefetch(b0 + k * b_step, 64, 1);
                           eng.prefetch(a_tile + k * a_elem, 64, 1);
                         }
                       });
      tile_close(eng, rows, C, ldc, i0 + i, j0 + j, epi);
    }
    j += gvl;
  }
}

void Gemm6::micro_kernel_sparse(vla::VectorEngine& eng, PackFormat fmt,
                                int mc, int nc, int kc, const APanel& a,
                                const float* b_panel, int b_stride, float* C,
                                int ldc, int i0, int j0, bool beta0,
                                const dnn::EpilogueDesc* epi) {
  const PackedWeights& img = *a.sparse;
  const int panel_w = static_cast<int>(eng.vlmax());
  const std::ptrdiff_t b_step = b_stride >= 0 ? b_stride : panel_w;
  const std::size_t a_elem = pack_elem_bytes(fmt);
  const int nchunks = (kc + kSparseBlockK - 1) / kSparseBlockK;
  // Rows advance in the sparse granule (kSparseBlockM) rather than the
  // configured unroll: each output element's k-walk is strictly ascending
  // either way, so the grouping does not change any accumulation order —
  // only which rows share a bitmap word. run_blocked guarantees i0 is
  // granule-aligned (block_m % kSparseBlockM == 0).
  for (int j = 0; j < nc;) {
    const auto gvl =
        static_cast<int>(eng.setvl(static_cast<std::size_t>(nc - j)));
    eng.scalar_ops(2);
    const float* b0 = b_strip(b_panel, b_stride, kc, panel_w, j);
    for (int i = 0; i < mc; i += kSparseBlockM) {
      const int rows = std::min(kSparseBlockM, mc - i);
      eng.scalar_ops(3);
      // One bitmap + offset read per (strip, row block); both words live in
      // the image's index structure, so the weight-DRAM watch sees them.
      const std::size_t seg = img.sparse_segment(i0 + i, a.k1);
      const std::uint64_t* bits_w = img.sparse_bitmap_word(seg);
      const std::uint64_t* offs_w = img.sparse_offset_word(seg);
      eng.scalar_mem(bits_w, sizeof(std::uint64_t), false);
      eng.scalar_mem(offs_w, sizeof(std::uint64_t), false);
      eng.scalar_ops(2);
      const std::uint64_t bits = *bits_w;
      const auto* vals =
          static_cast<const std::uint8_t*>(img.sparse_values(seg));
      tile_open(eng, rows, gvl, C, ldc, i0 + i, j0 + j, beta0, vals,
                static_cast<std::size_t>(rows) * kSparseBlockK * a_elem,
                b_panel + j);
      // THE skip: a cleared bit drops the whole 4x16 block — its A loads
      // AND its 16-iteration FMA run — and the compacted stream means the
      // kept blocks it jumps between are still contiguous in memory.
      for (int cb = 0; cb < nchunks; ++cb) {
        eng.scalar_ops(1);  // the bit test
        if ((bits & (1ull << cb)) == 0) continue;
        const int cw = std::min(kSparseBlockK, kc - cb * kSparseBlockK);
        if (cfg_.prefetch) eng.prefetch(vals, 64, 1);
        eng.vfma_vf_tile({0, rows, kVB, cw, b0 + cb * kSparseBlockK * b_step,
                          b_step, vals, cw * a_elem, scalar_format(fmt)});
        vals += static_cast<std::size_t>(rows) * cw * a_elem;
      }
      tile_close(eng, rows, C, ldc, i0 + i, j0 + j, epi);
    }
    j += gvl;
  }
}

void Gemm6::operator()(vla::VectorEngine& eng, int M, int N, int K,
                       float alpha, const float* A, int lda, const float* B,
                       int ldb, float* C, int ldc) {
  run_blocked(eng, M, N, K, alpha, A, lda, B, ldb, nullptr, nullptr, C, ldc,
              /*beta0=*/false, /*epi=*/nullptr, /*bb=*/nullptr,
              /*a_is_weights=*/false, PackFormat::F32);
}

void Gemm6::gemm_weights(vla::VectorEngine& eng, int M, int N, int K,
                         float alpha, const float* A, int lda, const float* B,
                         int ldb, float* C, int ldc) {
  // Always fp32: without beta0 the C matrix may carry fp32-domain partial
  // sums, which an int8 (quantized-domain) accumulation cannot join.
  run_blocked(eng, M, N, K, alpha, A, lda, B, ldb, nullptr, nullptr, C, ldc,
              /*beta0=*/false, /*epi=*/nullptr, /*bb=*/nullptr,
              /*a_is_weights=*/true, PackFormat::F32);
}

bool Gemm6::conv_fused(vla::VectorEngine& eng, const dnn::ConvDesc& d,
                       const float* weights, const float* input,
                       float* output, const dnn::EpilogueDesc* epi,
                       PackFormat weight_format) {
  const int m = d.gemm_m(), n = d.gemm_n(), k = d.gemm_k();
  if (d.ksize == 1 && d.stride == 1 && d.pad == 0) {
    // 1x1/s1: the input already IS the dense B matrix (Darknet skips im2col
    // here too); beta=0 and the epilogue still fuse.
    run_blocked(eng, m, n, k, 1.0f, weights, k, input, n, nullptr, nullptr,
                output, n, /*beta0=*/true, epi, /*bb=*/nullptr,
                /*a_is_weights=*/true, weight_format);
    return true;
  }
  if (!cfg_.pack_b) return false;  // the implicit gather IS the pack stage
  run_blocked(eng, m, n, k, 1.0f, weights, k, nullptr, 0, &d, input, output,
              n, /*beta0=*/true, epi, /*bb=*/nullptr,
              /*a_is_weights=*/true, weight_format);
  return true;
}

bool Gemm6::conv_fused_batch(vla::VectorEngine& eng, const dnn::ConvDesc& d,
                             const float* weights, const float* input,
                             std::size_t in_item_stride, float* output,
                             std::size_t out_item_stride, int batch,
                             const dnn::EpilogueDesc* epi,
                             PackFormat weight_format) {
  if (batch < 2) return false;  // no cross-item reuse to win
  if (!cfg_.pack_b) return false;  // the batched gather IS a pack stage
  VLACNN_REQUIRE(epi == nullptr || epi->residual == nullptr,
                 "batch-fused conv cannot fuse a residual (per-item offsets)");
  const int m = d.gemm_m(), n = d.gemm_n(), k = d.gemm_k();
  const std::int64_t n_total64 = static_cast<std::int64_t>(n) * batch;
  const std::int64_t c_elems64 = static_cast<std::int64_t>(m) * n_total64;
  // Staging guard: the batched C must stay a sane fraction of memory. The
  // weight-bound layers this path exists for have tiny outputs; a huge N'
  // means the layer was activation-bound and mis-routed — decline it.
  if (c_elems64 > (64ll << 20)) return false;
  const int n_total = static_cast<int>(n_total64);
  const auto c_elems = static_cast<std::size_t>(c_elems64);
  if (batch_c_buf_.size() < c_elems) {
    bc_reg_ = {};
    batch_c_buf_.resize(c_elems);
    bc_reg_ = sim::RegisteredRange(batch_c_buf_.data(),
                                   batch_c_buf_.size() * sizeof(float));
  }
  const bool dense = d.ksize == 1 && d.stride == 1 && d.pad == 0;
  const BatchB bb{input, in_item_stride, n, dense};
  run_blocked(eng, m, n_total, k, 1.0f, weights, k, nullptr, 0,
              dense ? nullptr : &d, nullptr, batch_c_buf_.data(), n_total,
              /*beta0=*/true, epi, &bb, /*a_is_weights=*/true, weight_format);
  // Scatter each item's column block of the staged C back to its output
  // slice. This extra round trip over the (small) output is what the
  // batch× reuse of the (large) resident weight stream pays for.
  for (int b = 0; b < batch; ++b) {
    const float* src_base =
        batch_c_buf_.data() + static_cast<std::size_t>(b) * n;
    float* dst_base = output + static_cast<std::size_t>(b) * out_item_stride;
    for (int i = 0; i < m; ++i)
      vcopy_run(eng, src_base + static_cast<std::size_t>(i) * n_total,
                dst_base + static_cast<std::size_t>(i) * n, n);
  }
  return true;
}

void Gemm6::run_blocked(vla::VectorEngine& eng, int M, int N, int K,
                        float alpha, const float* A, int lda, const float* B,
                        int ldb, const dnn::ConvDesc* conv,
                        const float* conv_input, float* C, int ldc,
                        bool beta0, const dnn::EpilogueDesc* epi,
                        const BatchB* bb, bool a_is_weights,
                        PackFormat a_fmt) {
  const BlockSizes& bs = cfg_.blocks;
  // Pack-once weight residency: if A has a resident image in the shared
  // cache (packed during ConvolutionEngine::prepare() with this blocking
  // config), consume its panels directly and skip pack_a_panel below — the
  // image is immutable, so every context may read it concurrently. The
  // shared_ptr keeps the image alive across this call even if the cache
  // evicts it meanwhile. Consulted only when the entry point vouched that A
  // IS a weight matrix (a_is_weights — the conv paths and gemm_weights;
  // never operator(), whose A may be an activation matrix, as in the FC
  // layers' GEMM) and, via maybe_resident(), only when anything is resident
  // at all — generic calls never take the shared mutex or pollute the
  // hit/miss stats. lda == K is required for the cached layout to
  // correspond to this call's A.
  //
  // A reduced-precision request (a_fmt != F32) is residency-or-nothing:
  // quantizing on the hot path would both cost a full M×K sweep per call
  // and make the quantized values depend on the calling context, so a miss
  // simply downgrades the call to the fp32 path (which may itself be
  // resident).
  const bool cache_ok = a_is_weights && weight_cache_ != nullptr &&
                        cfg_.pack_a && A != nullptr && lda == K;
  std::shared_ptr<const PackedWeights> resident;
  // A sparse image's row blocks live on a global kSparseBlockM grid, so
  // every M panel must start 4-row aligned; an exotic unroll that breaks
  // that simply treats the sparse request as a miss (dense sibling below).
  const bool sparse_req = pack_format_sparse(a_fmt);
  if (cache_ok && a_fmt != PackFormat::F32 &&
      weight_cache_->maybe_resident() &&
      (!sparse_req || bs.block_m % kSparseBlockM == 0))
    resident = weight_cache_->find(A, M, K, bs.block_k, a_fmt,
                                   sparse_req ? sparsity_pm_ : 1000);
  if (!resident) a_fmt = PackFormat::F32;
  if (cache_ok && !resident && weight_cache_->maybe_resident())
    resident = weight_cache_->find(A, M, K, bs.block_k);
  // An int8 image accumulates in the quantized domain; fold its per-channel
  // dequantization scale into the epilogue so the restore to the fp32
  // domain shares the one existing per-channel pass (a local copy — the
  // caller's descriptor must stay untouched for the fp32 fallback path of
  // the next call).
  dnn::EpilogueDesc epi_q;
  if (resident && resident->format() == PackFormat::Int8PerChannel) {
    if (epi != nullptr) epi_q = *epi;
    epi_q.dequant_scale = resident->scales();
    epi = &epi_q;
  }
  // Fused epilogue: derive every channel's constants (and charge the
  // per-channel parameter reads the unfused passes would make) once per
  // call — the 1/sqrt is host work, and recharging per panel would
  // overstate the fused pipeline's traffic. The buffer is written here and
  // read-only inside micro_kernel.
  if (epi != nullptr) {
    epi_params_.resize(static_cast<std::size_t>(M));
    for (int ch = 0; ch < M; ++ch) {
      epi_params_[static_cast<std::size_t>(ch)] = epi->channel_params(ch);
      if (epi->batch_norm) {
        eng.scalar_mem(epi->bn_mean + ch, sizeof(float), false);
        eng.scalar_mem(epi->bn_var + ch, sizeof(float), false);
        eng.scalar_mem(epi->bn_scale + ch, sizeof(float), false);
        eng.scalar_ops(3);
      }
      if (epi->bias != nullptr)
        eng.scalar_mem(epi->bias + ch, sizeof(float), false);
      if (epi->dequant_scale != nullptr) {
        eng.scalar_mem(epi->dequant_scale + ch, sizeof(float), false);
        eng.scalar_ops(1);
      }
    }
  }
  const PackFormat kernel_fmt = resident ? resident->format() : PackFormat::F32;
  // alpha != 1 comes only through the fp32 entry points (operator(),
  // gemm_weights); the conv paths that consume reduced-precision and
  // sparse images always pass alpha = 1.
  VLACNN_ASSERT(alpha == 1.0f || kernel_fmt == PackFormat::F32,
                "alpha != 1 on a non-fp32 A image");
  for (int j1 = 0; j1 < N; j1 += bs.block_n) {
    const int nc = std::min(bs.block_n, N - j1);
    for (int k1 = 0; k1 < K; k1 += bs.block_k) {
      const int kc = std::min(bs.block_k, K - k1);
      // beta=0 applies to the first k-panel only (later panels accumulate),
      // the epilogue to the last (the tile value is final there).
      const bool panel_beta0 = beta0 && k1 == 0;
      const dnn::EpilogueDesc* panel_epi = (k1 + kc == K) ? epi : nullptr;
      const float* b_panel;
      int b_stride;
      // Packing B pays off through reuse across M rows. A pure GEMV
      // (M == 1, the FC layers' row-vector product) reads each B element
      // exactly once, so packing would only add a K*N write + re-read of
      // pure traffic; stream B directly there. Any larger M honors the
      // configured pack_b — the BLIS ablations toggle it deliberately, so
      // no heuristic may silently override it. (Implicit conv packing has
      // no materialized B to stream from and always packs.)
      const bool pack_b =
          bb != nullptr || conv != nullptr || (cfg_.pack_b && M > 1);
      if (pack_b) {
        // Micro-panel layout needs kc x round_up(nc, VLMAX) floats.
        const std::size_t panel_w = eng.vlmax();
        const std::size_t strips = (static_cast<std::size_t>(nc) + panel_w - 1) / panel_w;
        const std::size_t needed = strips * panel_w * static_cast<std::size_t>(kc);
        if (pack_b_buf_.size() < needed) {
          pb_reg_ = {};
          pack_b_buf_.resize(needed);
          pb_reg_ = sim::RegisteredRange(pack_b_buf_.data(),
                                         pack_b_buf_.size() * sizeof(float));
        }
        if (bb != nullptr)
          pack_b_panel_batched(eng, *bb, conv, k1, kc, j1, nc);
        else if (conv != nullptr)
          pack_b_panel_implicit(eng, *conv, conv_input, k1, kc, j1, nc);
        else
          pack_b_panel(eng, B, ldb, k1, kc, j1, nc);
        b_panel = pack_b_buf_.data();
        b_stride = -1;  // packed micro-panel layout
      } else {
        b_panel = B + static_cast<std::size_t>(k1) * ldb + j1;
        b_stride = ldb;
      }
      for (int i1 = 0; i1 < M; i1 += bs.block_m) {
        const int mc = std::min(bs.block_m, M - i1);
        APanel ap;
        if (resident && resident->sparse()) {
          ap.sparse = resident.get();
          ap.k1 = k1;
        } else if (resident) {
          ap = {resident->panel_raw(i1, k1, kc), kc};
        } else if (cfg_.pack_a) {
          pack_a_panel(eng, A, lda, i1, mc, k1, kc);
          ap = {pack_a_buf_.data(), kc};
        } else {
          ap = {A + static_cast<std::size_t>(i1) * lda + k1, lda};
        }
        if (ap.sparse != nullptr)
          micro_kernel_sparse(eng, kernel_fmt, mc, nc, kc, ap, b_panel,
                              b_stride, C, ldc, i1, j1, panel_beta0,
                              panel_epi);
        else
          micro_kernel(eng, kernel_fmt, mc, nc, kc, alpha, ap, b_panel,
                       b_stride, C, ldc, i1, j1, panel_beta0, panel_epi);
      }
    }
  }
}

}  // namespace vlacnn::gemm
