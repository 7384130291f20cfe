#include "winograd/winograd_conv.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "common/error.hpp"
#include "winograd/f6x3.hpp"

namespace vlacnn::winograd {

namespace {
// Register allocation of the transform kernels: packed tile rows live in
// v0..v15 (v[half*8+row]), stage outputs in v16..v31, lane-compaction
// scratch in v30 is only used after outputs 16..29 are final.
constexpr vla::Vreg kStageOutBase = 16;
constexpr vla::Vreg kCompact = 30;
constexpr vla::Vreg kURow = 8;     // tuple multiply: U operand
constexpr vla::Vreg kVRowBase = 9; // tuple multiply: V operands (9..16)
}  // namespace

WinogradConv::WinogradConv(WeightCache* shared_cache) {
  if (shared_cache != nullptr) {
    cache_ = shared_cache;
  } else {
    owned_cache_ = std::make_unique<WeightCache>();
    cache_ = owned_cache_.get();
  }
}

void WinogradConv::StageScratch::ensure(std::size_t vecw) {
  if (pack.size() < 16 * vecw) {
    pack_reg = {};
    pack.resize(16 * vecw);
    pack.fill(0.0f);
    pack_reg = sim::RegisteredRange(pack.data(), pack.size() * sizeof(float));
  }
  if (spill.size() < 16 * vecw) {
    spill_reg = {};
    spill.resize(16 * vecw);
    spill.fill(0.0f);
    spill_reg =
        sim::RegisteredRange(spill.data(), spill.size() * sizeof(float));
  }
  if (epi.size() < 4 * vecw) {
    epi_reg = {};
    epi.resize(4 * vecw);
    epi.fill(0.0f);
    epi_reg = sim::RegisteredRange(epi.data(), epi.size() * sizeof(float));
  }
}

bool WinogradConv::supports(const dnn::ConvDesc& d) {
  return d.ksize == 3 && d.pad == 1 && (d.stride == 1 || d.stride == 2);
}

WinogradConv::Plan WinogradConv::make_plan(const dnn::ConvDesc& d) const {
  Plan p;
  VLACNN_ASSERT(d.stride == 1, "plans are built for the stride-1 kernel");
  p.tiles_x = (d.out_w() + kOutTile - 1) / kOutTile;
  p.tiles_y = (d.out_h() + kOutTile - 1) / kOutTile;
  p.tiles = p.tiles_x * p.tiles_y;
  return p;
}

WinogradConv::IndexTables WinogradConv::make_tables(const dnn::ConvDesc& d,
                                                    const Plan& plan) const {
  IndexTables t;
  const int g = plan.group;
  const auto vecw = static_cast<int>(plan.vecw);
  const int in_ch_stride = d.in_h * d.in_w;
  const int out_ch_stride = d.out_h() * d.out_w();
  const int tile_stride = plan.tiles * kTileElems;

  // Image gather for interior input tiles: lane (k,j) -> channel k, col j.
  t.in_pack_idx.resize(static_cast<std::size_t>(vecw));
  for (int k = 0; k < g; ++k)
    for (int j = 0; j < 4; ++j)
      t.in_pack_idx[static_cast<std::size_t>(k * 4 + j)] = k * in_ch_stride + j;

  // V scatter / M gather: lane (k,j) of packed row (h,i) -> element
  // e = i*8 + h*4 + j of channel k's tile t.
  t.chan_idx.resize(static_cast<std::size_t>(16) * vecw);
  for (int h = 0; h < 2; ++h)
    for (int i = 0; i < 8; ++i)
      for (int k = 0; k < g; ++k)
        for (int j = 0; j < 4; ++j)
          t.chan_idx[(static_cast<std::size_t>(h * 8 + i)) * vecw + k * 4 + j] =
              k * tile_stride + i * 8 + h * 4 + j;

  // Transpose gather (between the two transform passes): packed transposed
  // row (h,j), lane (k,j') <- scratch row ((j/4)*8 + 4h+j'), lane (k, j%4).
  t.transpose_idx.resize(static_cast<std::size_t>(16) * vecw);
  for (int h = 0; h < 2; ++h)
    for (int j = 0; j < 8; ++j)
      for (int k = 0; k < g; ++k)
        for (int jp = 0; jp < 4; ++jp)
          t.transpose_idx[(static_cast<std::size_t>(h * 8 + j)) * vecw + k * 4 +
                          jp] =
              ((j / 4) * 8 + (4 * h + jp)) * vecw + k * 4 + (j % 4);

  // Output scatter, cols 0..3 (half 1) and the compacted cols 4..5.
  t.out_scatter1.resize(static_cast<std::size_t>(vecw));
  for (int k = 0; k < g; ++k)
    for (int j = 0; j < 4; ++j)
      t.out_scatter1[static_cast<std::size_t>(k * 4 + j)] =
          k * out_ch_stride + j;
  t.out_compact.resize(static_cast<std::size_t>(2) * g);
  t.out_scatter2.resize(static_cast<std::size_t>(2) * g);
  for (int l = 0; l < 2 * g; ++l) {
    t.out_compact[static_cast<std::size_t>(l)] = (l / 2) * 4 + (l % 2);
    t.out_scatter2[static_cast<std::size_t>(l)] =
        (l / 2) * out_ch_stride + 4 + (l % 2);
  }
  return t;
}

void WinogradConv::stage_pass(vla::VectorEngine& eng, const double (*t)[8],
                              int rows_out, std::size_t vecw) {
  eng.setvl(vecw);
  for (int half = 0; half < 2; ++half) {
    const int in_base = half * 8;
    const int out_base = kStageOutBase + half * 8;
    for (int r = 0; r < rows_out; ++r) {
      bool first = true;
      for (int k = 0; k < 8; ++k) {
        const auto c = static_cast<float>(t[r][k]);
        if (c == 0.0f) continue;  // exploit transform-matrix sparsity
        if (first) {
          eng.vmul_scalar(out_base + r, in_base + k, c);
          first = false;
        } else {
          eng.vfma_scalar(out_base + r, c, in_base + k);
        }
      }
      eng.scalar_ops(1);
    }
  }
}

void WinogradConv::transform_input(vla::VectorEngine& eng,
                                   const dnn::ConvDesc& d, const Plan& plan,
                                   const IndexTables& tbl, const float* input) {
  StageScratch& sc = scratch_;
  const int ch_stride = d.in_h * d.in_w;
  const auto vecw = plan.vecw;
  for (int ic0 = 0; ic0 < d.in_c; ic0 += plan.group) {
    const int gr = std::min(plan.group, d.in_c - ic0);
    const std::size_t active = static_cast<std::size_t>(4) * gr;
    for (int ty = 0; ty < plan.tiles_y; ++ty) {
      for (int tx = 0; tx < plan.tiles_x; ++tx) {
        const int tile = ty * plan.tiles_x + tx;
        const int y0 = ty * kOutTile - d.pad;
        const int x0 = tx * kOutTile - d.pad;
        const bool interior = y0 >= 0 && x0 >= 0 && y0 + kTile <= d.in_h &&
                              x0 + kTile <= d.in_w;
        eng.setvl(active);
        eng.scalar_ops(4);  // tile/group loop bookkeeping
        if (interior) {
          // Structured tuple load: one 4-float run per channel (SVE ld4 +
          // interleave), not a per-element gather.
          for (int h = 0; h < 2; ++h)
            for (int i = 0; i < 8; ++i)
              eng.vgather_local(h * 8 + i,
                                input + static_cast<std::size_t>(ic0) * ch_stride +
                                    static_cast<std::size_t>(y0 + i) * d.in_w +
                                    x0 + 4 * h,
                                tbl.in_pack_idx.data());
        } else {
          // Edge tile: scalar zero-padded packing (Fig. 4's fallback path).
          for (int k = 0; k < gr; ++k) {
            const float* chan =
                input + static_cast<std::size_t>(ic0 + k) * ch_stride;
            for (int i = 0; i < 8; ++i) {
              const int y = y0 + i;
              for (int c = 0; c < 8; ++c) {
                const int x = x0 + c;
                const float v = (y >= 0 && y < d.in_h && x >= 0 && x < d.in_w)
                                    ? chan[static_cast<std::size_t>(y) * d.in_w + x]
                                    : 0.0f;
                sc.pack[((static_cast<std::size_t>(c) / 4) * 8 + i) * vecw +
                        static_cast<std::size_t>(k) * 4 + (c % 4)] = v;
              }
            }
            eng.scalar_ops(kTileElems);
            // Charge the (clipped) tile footprint read through the scalar path.
            const std::size_t off =
                static_cast<std::size_t>(std::max(y0, 0)) * d.in_w;
            const std::size_t avail =
                static_cast<std::size_t>(ch_stride) - std::min<std::size_t>(
                    off, static_cast<std::size_t>(ch_stride));
            eng.scalar_mem(chan + off,
                           std::min<std::size_t>(kTileElems * sizeof(float),
                                                 std::max<std::size_t>(avail, 1) *
                                                     sizeof(float)),
                           false);
          }
          for (int s = 0; s < 16; ++s)
            eng.vload(s, sc.pack.data() + static_cast<std::size_t>(s) * vecw);
        }

        stage_pass(eng, reinterpret_cast<const double(*)[8]>(kBT.data()), 8,
                   active);
        for (int s = 0; s < 16; ++s)
          eng.vstore(kStageOutBase + s,
                     sc.spill.data() + static_cast<std::size_t>(s) * vecw);
        for (int s = 0; s < 16; ++s)
          eng.vgather_local(s, sc.spill.data(),
                            tbl.transpose_idx.data() + static_cast<std::size_t>(s) * vecw);
        stage_pass(eng, reinterpret_cast<const double(*)[8]>(kBT.data()), 8,
                   active);

        float* v_base = v_buf_.data() +
                        (static_cast<std::size_t>(ic0) * plan.tiles + tile) *
                            kTileElems;
        for (int s = 0; s < 16; ++s)
          eng.vscatter_local(kStageOutBase + s, v_base,
                             tbl.chan_idx.data() + static_cast<std::size_t>(s) * vecw);
      }
    }
  }
}

void WinogradConv::tuple_multiply(vla::VectorEngine& eng,
                                  const dnn::ConvDesc& d, const Plan& plan,
                                  const float* u) {
  // Vectorize across the 64 tuple elements (16 blocks x 4 elements, paper
  // §IV-B). The batched GEMM is cache-blocked over tiles so the V panel of
  // a tile block stays resident across the whole output-channel loop
  // (NNPACK's tuple GEMM blocking): otherwise V would re-stream from memory
  // per output channel, which is exactly the traffic Winograd exists to
  // avoid.
  const std::size_t vec_e = std::min<std::size_t>(eng.vlmax(), kTileElems);
  // Eight accumulator chains hide the load-to-FMA latency (v0..v7 accs,
  // v8 = U, v9..v16 = V operands); one engine op runs the in_c loop.
  constexpr int kTileUnroll = 8;
  // V panel for one block: in_c * kTileBlock * 64 floats; 16 tiles keep it
  // within a few hundred KB for the paper's layer widths.
  constexpr int kTileBlock = 16;

  for (int tb0 = 0; tb0 < plan.tiles; tb0 += kTileBlock) {
    const int tb_end = std::min(tb0 + kTileBlock, plan.tiles);
    for (std::size_t e0 = 0; e0 < kTileElems; e0 += vec_e) {
      for (int oc = 0; oc < d.out_c; ++oc) {
        const float* u_oc =
            u + static_cast<std::size_t>(oc) * d.in_c * kTileElems;
        float* m_oc = m_buf_.data() +
                      static_cast<std::size_t>(oc) * plan.tiles * kTileElems;
        for (int t0 = tb0; t0 < tb_end; t0 += kTileUnroll) {
          const int tn = std::min(kTileUnroll, tb_end - t0);
          eng.setvl(std::min(vec_e, kTileElems - e0));
          for (int tt = 0; tt < tn; ++tt) eng.vbroadcast(tt, 0.0f);
          eng.vfma_vv_tile(
              {.first = 0, .tiles = tn, .vu = kURow, .vbase = kVRowBase,
               .kc = d.in_c, .u = u_oc + e0, .u_step = kTileElems,
               .v = v_buf_.data() +
                    static_cast<std::size_t>(t0) * kTileElems + e0,
               .v_step = static_cast<std::ptrdiff_t>(plan.tiles) * kTileElems,
               .v_tile_step = kTileElems});
          for (int tt = 0; tt < tn; ++tt)
            eng.vstore(tt, m_oc + (static_cast<std::size_t>(t0) + tt) *
                                       kTileElems +
                               e0);
          eng.scalar_ops(3);
        }
      }
    }
  }
}

void WinogradConv::transform_output(vla::VectorEngine& eng,
                                    const dnn::ConvDesc& d, const Plan& plan,
                                    const IndexTables& tbl, float* output,
                                    const dnn::EpilogueDesc* epi) {
  StageScratch& sc = scratch_;
  const int out_h = d.out_h(), out_w = d.out_w();
  const int ch_stride = out_h * out_w;
  const auto vecw = plan.vecw;
  // Fused epilogue registers: per-lane parameter vectors in v0..v3 (free
  // after the second stage pass consumes its inputs), leaky scratch in v4,
  // residual gather in v5.
  constexpr vla::Vreg kNegMean = 0, kInvStd = 1, kScale = 2, kBias = 3,
                      kEpiTmp = 4, kResTmp = 5;
  const float* residual = epi != nullptr ? epi->residual : nullptr;
  for (int oc0 = 0; oc0 < d.out_c; oc0 += plan.group) {
    const int gr = std::min(plan.group, d.out_c - oc0);
    const std::size_t active = static_cast<std::size_t>(4) * gr;
    if (epi != nullptr) {
      // Lane l of an output register holds channel oc0 + l/4: expand the
      // per-channel constants into per-lane vectors once per channel group.
      // The arithmetic per lane matches the unfused kernels op-for-op
      // (x + (-mean)) * inv_std * scale + bias, so fused outputs stay
      // bit-identical.
      float* pp = sc.epi.data();
      for (std::size_t l = 0; l < vecw; ++l) {
        const int ch = oc0 + std::min(static_cast<int>(l) / 4, gr - 1);
        const dnn::EpilogueDesc::ChannelParams p = epi->channel_params(ch);
        pp[l] = p.neg_mean;
        pp[vecw + l] = p.inv_std;
        pp[2 * vecw + l] = p.scale;
        pp[3 * vecw + l] = p.bias;
      }
      eng.scalar_ops(static_cast<std::uint64_t>(gr) * 4);
      if (epi->batch_norm) {
        eng.scalar_mem(epi->bn_mean + oc0, static_cast<std::size_t>(gr) * sizeof(float), false);
        eng.scalar_mem(epi->bn_var + oc0, static_cast<std::size_t>(gr) * sizeof(float), false);
        eng.scalar_mem(epi->bn_scale + oc0, static_cast<std::size_t>(gr) * sizeof(float), false);
      }
      if (epi->bias != nullptr)
        eng.scalar_mem(epi->bias + oc0, static_cast<std::size_t>(gr) * sizeof(float), false);
      eng.scalar_mem(pp, 4 * vecw * sizeof(float), true);
    }
    for (int ty = 0; ty < plan.tiles_y; ++ty) {
      for (int tx = 0; tx < plan.tiles_x; ++tx) {
        const int tile = ty * plan.tiles_x + tx;
        eng.setvl(active);
        eng.scalar_ops(4);
        const float* m_base =
            m_buf_.data() +
            (static_cast<std::size_t>(oc0) * plan.tiles + tile) * kTileElems;
        for (int s = 0; s < 16; ++s)
          eng.vgather_local(s, m_base,
                            tbl.chan_idx.data() + static_cast<std::size_t>(s) * vecw);

        stage_pass(eng, reinterpret_cast<const double(*)[8]>(kAT.data()), 6,
                   active);
        for (int half = 0; half < 2; ++half)
          for (int r = 0; r < 6; ++r)
            eng.vstore(kStageOutBase + half * 8 + r,
                       sc.spill.data() +
                           (static_cast<std::size_t>(half) * 8 + r) * vecw);
        for (int s = 0; s < 16; ++s)
          eng.vgather_local(s, sc.spill.data(),
                            tbl.transpose_idx.data() + static_cast<std::size_t>(s) * vecw);
        stage_pass(eng, reinterpret_cast<const double(*)[8]>(kAT.data()), 6,
                   active);

        if (epi != nullptr) {
          // Apply BN/bias/activation on the final tile registers before the
          // scatter — the epilogue passes of ConvLayer::forward_item never
          // run, so the output tensor is streamed exactly once.
          eng.vload(kNegMean, sc.epi.data());
          eng.vload(kInvStd, sc.epi.data() + vecw);
          eng.vload(kScale, sc.epi.data() + 2 * vecw);
          eng.vload(kBias, sc.epi.data() + 3 * vecw);
          for (int half = 0; half < 2; ++half) {
            for (int r = 0; r < 6; ++r) {
              const vla::Vreg o = kStageOutBase + half * 8 + r;
              if (epi->batch_norm) {
                eng.vadd(o, o, kNegMean);
                eng.vmul(o, o, kInvStd);
                eng.vmul(o, o, kScale);
              }
              if (epi->bias != nullptr) eng.vadd(o, o, kBias);
              switch (epi->act) {
                case dnn::Activation::Linear:
                case dnn::Activation::Logistic:  // post-pass in the layer
                  break;
                case dnn::Activation::Relu:
                  eng.vmax_scalar(o, o, 0.0f);
                  break;
                case dnn::Activation::Leaky:  // max(x,0) + 0.1*min(x,0)
                  eng.vbroadcast(kEpiTmp, 0.0f);
                  eng.vmin(kEpiTmp, o, kEpiTmp);
                  eng.vmax_scalar(o, o, 0.0f);
                  eng.vfma_scalar(o, 0.1f, kEpiTmp);
                  break;
              }
            }
          }
          eng.scalar_ops(2);
        }

        const bool interior =
            ty * kOutTile + kOutTile <= out_h && tx * kOutTile + kOutTile <= out_w;
        if (interior) {
          for (int r = 0; r < 6; ++r) {
            const std::size_t off =
                static_cast<std::size_t>(oc0) * ch_stride +
                static_cast<std::size_t>(ty * kOutTile + r) * out_w +
                tx * kOutTile;
            float* base = output + off;
            if (residual != nullptr) {
              // Fused shortcut: the skip tensor shares the output layout, so
              // the addend lanes sit at the scatter indices — gather, add,
              // shortcut-activate, then scatter as usual.
              eng.vgather_local(kResTmp, residual + off,
                                tbl.out_scatter1.data());
              eng.vadd(kStageOutBase + r, kStageOutBase + r, kResTmp);
              dnn::apply_activation_reg(eng, epi->residual_act,
                                        kStageOutBase + r, kResTmp);
            }
            eng.vscatter_local(kStageOutBase + r, base, tbl.out_scatter1.data());
            eng.setvl(static_cast<std::size_t>(2) * gr);
            eng.vpermute(kCompact, kStageOutBase + 8 + r, tbl.out_compact.data());
            if (residual != nullptr) {
              eng.vgather_local(kResTmp, residual + off,
                                tbl.out_scatter2.data());
              eng.vadd(kCompact, kCompact, kResTmp);
              dnn::apply_activation_reg(eng, epi->residual_act, kCompact,
                                        kResTmp);
            }
            eng.vscatter_local(kCompact, base, tbl.out_scatter2.data());
            eng.setvl(active);
          }
        } else {
          // Edge output tile: stage registers -> pack buffer -> clipped
          // scalar unpack.
          for (int half = 0; half < 2; ++half)
            for (int r = 0; r < 6; ++r)
              eng.vstore(kStageOutBase + half * 8 + r,
                         sc.pack.data() +
                             (static_cast<std::size_t>(half) * 8 + r) * vecw);
          for (int k = 0; k < gr; ++k) {
            const std::size_t ch_off =
                static_cast<std::size_t>(oc0 + k) * ch_stride;
            float* chan = output + ch_off;
            const float* res_chan =
                residual != nullptr ? residual + ch_off : nullptr;
            for (int r = 0; r < 6; ++r) {
              const int y = ty * kOutTile + r;
              if (y >= out_h) break;
              for (int c = 0; c < 6; ++c) {
                const int x = tx * kOutTile + c;
                if (x >= out_w) break;
                float v =
                    sc.pack[((static_cast<std::size_t>(c) / 4) * 8 + r) * vecw +
                            static_cast<std::size_t>(k) * 4 + (c % 4)];
                if (res_chan != nullptr) {
                  // Scalar fused shortcut; activate_scalar matches the
                  // vector op sequence bit-for-bit (see activate_array).
                  v += res_chan[static_cast<std::size_t>(y) * out_w + x];
                  v = dnn::activate_scalar(v, epi->residual_act);
                }
                chan[static_cast<std::size_t>(y) * out_w + x] = v;
              }
            }
            eng.scalar_ops(36);
            if (res_chan != nullptr) {
              eng.scalar_ops(36);
              eng.scalar_mem(res_chan, 36 * sizeof(float), false);
            }
          }
          eng.scalar_mem(output, 36 * sizeof(float), true);
        }
      }
    }
  }
}

void WinogradConv::run(vla::VectorEngine& eng, const dnn::ConvDesc& d,
                       const float* input, const float* weights,
                       float* output, const dnn::EpilogueDesc* epi) {
  VLACNN_REQUIRE(supports(d), "unsupported conv shape for Winograd");

  if (d.stride == 2) {
    // Dense stride-1 Winograd followed by 2x subsampling. The redundant
    // work is why the paper finds Winograd 1.4x slower than im2col+GEMM on
    // stride-2 layers (§VII-A). The epilogue fuses into the subsampling
    // pass (per-channel constants on the strided-load register), not into
    // the dense stage — only kept pixels pay for it.
    dnn::ConvDesc s1 = d;
    s1.stride = 1;
    const std::size_t dense =
        static_cast<std::size_t>(d.out_c) * s1.out_h() * s1.out_w();
    if (s1_out_.size() < dense) {
      s1_reg_ = {};
      s1_out_.resize(dense);
      s1_reg_ = sim::RegisteredRange(s1_out_.data(), dense * sizeof(float));
    }
    run(eng, s1, input, weights, s1_out_.data(), nullptr);
    const int ow = d.out_w(), oh = d.out_h(), s1w = s1.out_w();
    for (int oc = 0; oc < d.out_c; ++oc) {
      dnn::EpilogueDesc::ChannelParams p;
      if (epi != nullptr) {
        p = epi->channel_params(oc);
        if (epi->batch_norm) {
          eng.scalar_mem(epi->bn_mean + oc, sizeof(float), false);
          eng.scalar_mem(epi->bn_var + oc, sizeof(float), false);
          eng.scalar_mem(epi->bn_scale + oc, sizeof(float), false);
        }
        if (epi->bias != nullptr)
          eng.scalar_mem(epi->bias + oc, sizeof(float), false);
        eng.scalar_ops(3);
      }
      for (int y = 0; y < oh; ++y) {
        const float* src = s1_out_.data() +
                           (static_cast<std::size_t>(oc) * s1.out_h() + 2 * y) *
                               s1w;
        const std::size_t dst_off =
            (static_cast<std::size_t>(oc) * oh + y) * ow;
        float* dst = output + dst_off;
        for (int x = 0; x < ow;) {
          const auto vl =
              static_cast<int>(eng.setvl(static_cast<std::size_t>(ow - x)));
          eng.vload_strided(0, src + 2 * static_cast<std::size_t>(x), 2);
          if (epi != nullptr) {
            dnn::apply_channel_epilogue(eng, *epi, p, 0, 1);
            if (epi->residual != nullptr) {
              // Fused shortcut on the kept pixels: the skip tensor shares
              // the (subsampled) output layout, so the addend is a plain
              // unit-stride load at the destination offset.
              eng.vload(1, epi->residual + dst_off + x);
              eng.vadd(0, 0, 1);
              dnn::apply_activation_reg(eng, epi->residual_act, 0, 1);
            }
          }
          eng.vstore(0, dst + x);
          eng.scalar_ops(2);
          x += vl;
        }
      }
    }
    return;
  }

  Plan plan = make_plan(d);
  plan.group = static_cast<int>(std::clamp<std::size_t>(eng.vlmax() / 4, 1, 16));
  plan.group = std::min(plan.group, std::max(d.in_c, d.out_c));
  plan.vecw = static_cast<std::size_t>(4) * plan.group;

  const std::size_t v_n =
      static_cast<std::size_t>(d.in_c) * plan.tiles * kTileElems;
  const std::size_t m_n =
      static_cast<std::size_t>(d.out_c) * plan.tiles * kTileElems;
  if (v_buf_.size() < v_n) {
    v_reg_ = {};
    v_buf_.resize(v_n);
    v_reg_ = sim::RegisteredRange(v_buf_.data(), v_n * sizeof(float));
  }
  if (m_buf_.size() < m_n) {
    m_reg_ = {};
    m_buf_.resize(m_n);
    m_reg_ = sim::RegisteredRange(m_buf_.data(), m_n * sizeof(float));
  }
  scratch_.ensure(plan.vecw);

  const IndexTables tbl = make_tables(d, plan);
  const float* u = cache_->get(d, weights);
  transform_input(eng, d, plan, tbl, input);
  tuple_multiply(eng, d, plan, u);
  transform_output(eng, d, plan, tbl, output, epi);
}

}  // namespace vlacnn::winograd
