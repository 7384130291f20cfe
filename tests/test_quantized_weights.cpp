// Reduced-precision weight residency: bf16/int8 packed images and the
// quantized Gemm6 backends consuming them. Pins the PR's contracts — the
// bf16 round trip is exact for representable values (the widen is a bit
// shift), int8 per-channel scales recover every weight to within half a
// quantization step across adversarial dynamic ranges, format-tagged cache
// entries coexist under one budget with per-format accounting, quantized
// conv outputs stay inside the pinned accuracy gates (and batch-fused ==
// per-item bitwise), execution silently falls back to fp32 when the
// quantized image is not resident, concurrent readers of format-tagged
// entries are race-free, and the selector admits quantized candidates only
// under an explicit accuracy budget.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include "core/conv_engine.hpp"
#include "core/selector.hpp"
#include "dnn/models.hpp"
#include "gemm/packed_weight_cache.hpp"
#include "sim/machine_config.hpp"
#include "vla/vector_engine.hpp"
#include "test_util.hpp"

namespace vlacnn::gemm {
namespace {

std::uint32_t ulp_diff(float a, float b) {
  std::int32_t ia, ib;
  std::memcpy(&ia, &a, sizeof(ia));
  std::memcpy(&ib, &b, sizeof(ib));
  if (ia < 0) ia = std::numeric_limits<std::int32_t>::min() - ia;
  if (ib < 0) ib = std::numeric_limits<std::int32_t>::min() - ib;
  const std::int64_t d = static_cast<std::int64_t>(ia) - ib;
  return static_cast<std::uint32_t>(d < 0 ? -d : d);
}

/// Element (row, col) of a packed image, without assuming the element type:
/// the BLIS panel layout puts column `col` of row `row` at offset
/// (col - k1) inside panel(row, k1, kc) of its k-block.
const void* image_elem(const PackedWeights& img, int row, int col) {
  const int k1 = (col / img.block_k()) * img.block_k();
  const int kc = std::min(img.block_k(), img.k() - k1);
  return static_cast<const std::uint8_t*>(img.panel_raw(row, k1, kc)) +
         static_cast<std::size_t>(col - k1) * img.elem_bytes();
}

TEST(QuantizedWeights, Bf16RoundTripExactForRepresentable) {
  // Round-to-nearest-even unit pins: ties go to the even mantissa.
  EXPECT_EQ(bf16_from_f32(1.0f), 0x3F80u);
  EXPECT_EQ(bf16_from_f32(-2.0f), 0xC000u);
  float tie_even, tie_odd;
  std::uint32_t bits = 0x3F808000u;  // halfway between 0x3F80 and 0x3F81
  std::memcpy(&tie_even, &bits, sizeof(bits));
  bits = 0x3F818000u;                // halfway between 0x3F81 and 0x3F82
  std::memcpy(&tie_odd, &bits, sizeof(bits));
  EXPECT_EQ(bf16_from_f32(tie_even), 0x3F80u);  // down to even
  EXPECT_EQ(bf16_from_f32(tie_odd), 0x3F82u);   // up to even

  // The conversion is idempotent (every bf16-representable value survives
  // another round trip bit-exactly), and a Bf16 image of pre-rounded
  // weights reproduces them exactly through the packed panels.
  const int m = 7, k = 13, block_k = 5;
  std::vector<float> w = test::random_vec(
      static_cast<std::size_t>(m) * k, 11, -8.0f, 8.0f);
  for (auto& x : w) x = vla::f32_from_bf16(bf16_from_f32(x));
  for (float x : w) EXPECT_EQ(vla::f32_from_bf16(bf16_from_f32(x)), x);

  const PackedWeights img(w.data(), m, k, block_k, PackFormat::Bf16);
  EXPECT_EQ(img.format(), PackFormat::Bf16);
  EXPECT_EQ(img.data_bytes(), static_cast<std::size_t>(m) * k * 2);
  EXPECT_EQ(img.scales(), nullptr);
  for (int i = 0; i < m; ++i) {
    for (int c = 0; c < k; ++c) {
      std::uint16_t h;
      std::memcpy(&h, image_elem(img, i, c), sizeof(h));
      EXPECT_EQ(vla::f32_from_bf16(h), w[static_cast<std::size_t>(i) * k + c])
          << "row=" << i << " col=" << c;
    }
  }
}

TEST(QuantizedWeights, Int8ScaleRecoveryAdversarialRanges) {
  // One row per adversarial regime; every dequantized weight must land
  // within half a quantization step (s/2) of its source, whatever the
  // channel's dynamic range.
  const int k = 16, block_k = 6;
  std::vector<std::vector<float>> rows = {
      test::random_vec(k, 21, -1e-30f, 1e-30f),  // denormal-adjacent scale
      test::random_vec(k, 22, -1e30f, 1e30f),    // huge magnitudes
      std::vector<float>(k, 0.0f),               // all-zero channel
      std::vector<float>(k, 0.5f),               // constant channel
      test::random_vec(k, 23, -1e-4f, 1e-4f),    // uniform tiny
  };
  // Wide intra-channel dynamic range: tiny values must quantize to 0
  // without breaking the bound.
  std::vector<float> wide = test::random_vec(k, 24, -1e-4f, 1e-4f);
  wide[3] = 1000.0f;
  wide[9] = -731.0f;
  rows.push_back(wide);

  const int m = static_cast<int>(rows.size());
  std::vector<float> w(static_cast<std::size_t>(m) * k);
  for (int i = 0; i < m; ++i)
    std::memcpy(w.data() + static_cast<std::size_t>(i) * k, rows[i].data(),
                sizeof(float) * k);

  // Scale contract: amax/127, except 1.0 for an all-zero channel.
  for (int i = 0; i < m; ++i) {
    float amax = 0.0f;
    for (float x : rows[static_cast<std::size_t>(i)])
      amax = std::max(amax, std::fabs(x));
    const float s = int8_channel_scale(rows[static_cast<std::size_t>(i)].data(), k);
    if (amax == 0.0f)
      EXPECT_EQ(s, 1.0f) << "row=" << i;
    else
      EXPECT_FLOAT_EQ(s, amax / 127.0f) << "row=" << i;
  }

  const PackedWeights img(w.data(), m, k, block_k,
                          PackFormat::Int8PerChannel);
  ASSERT_NE(img.scales(), nullptr);
  EXPECT_EQ(img.scales_bytes(), static_cast<std::size_t>(m) * sizeof(float));
  EXPECT_EQ(img.data_bytes(), static_cast<std::size_t>(m) * k);
  for (int i = 0; i < m; ++i) {
    const float s = img.scales()[i];
    for (int c = 0; c < k; ++c) {
      const std::int8_t q =
          *static_cast<const std::int8_t*>(image_elem(img, i, c));
      EXPECT_GE(q, -127);  // symmetric: -128 never produced
      const float src = w[static_cast<std::size_t>(i) * k + c];
      // s/2 rounding bound, padded for the fp rounding of q*s itself.
      EXPECT_LE(std::fabs(src - static_cast<float>(q) * s),
                0.5f * s * (1.0f + 1e-4f))
          << "row=" << i << " col=" << c << " q=" << static_cast<int>(q);
    }
  }
}

TEST(QuantizedWeights, FormatTaggedEntriesCoexistWithPerFormatAccounting) {
  const int m = 8, k = 16, block_k = 8;
  const auto w = test::random_vec(static_cast<std::size_t>(m) * k, 31);
  const std::size_t f32_bytes = static_cast<std::size_t>(m) * k * 4;
  const std::size_t bf16_bytes = static_cast<std::size_t>(m) * k * 2;
  const std::size_t int8_bytes =
      static_cast<std::size_t>(m) * k + static_cast<std::size_t>(m) * 4;

  PackedWeightCache cache;
  ASSERT_NE(cache.prepare(w.data(), m, k, block_k), nullptr);
  ASSERT_NE(cache.prepare(w.data(), m, k, block_k, PackFormat::Bf16), nullptr);
  ASSERT_NE(cache.prepare(w.data(), m, k, block_k, PackFormat::Int8PerChannel),
            nullptr);

  // All three images of the SAME weights are resident side by side: the
  // format participates in the key.
  EXPECT_NE(cache.find(w.data(), m, k, block_k), nullptr);
  EXPECT_NE(cache.find(w.data(), m, k, block_k, PackFormat::Bf16), nullptr);
  EXPECT_NE(cache.find(w.data(), m, k, block_k, PackFormat::Int8PerChannel),
            nullptr);

  auto s = cache.stats();
  EXPECT_EQ(s.entries, 3u);
  EXPECT_EQ(s.packs, 3u);
  using F = PackFormat;
  EXPECT_EQ(s.resident_bytes_by_format[static_cast<int>(F::F32)], f32_bytes);
  EXPECT_EQ(s.resident_bytes_by_format[static_cast<int>(F::Bf16)], bf16_bytes);
  EXPECT_EQ(s.resident_bytes_by_format[static_cast<int>(F::Int8PerChannel)],
            int8_bytes);
  EXPECT_EQ(s.resident_bytes, f32_bytes + bf16_bytes + int8_bytes);

  cache.clear();
  s = cache.stats();
  EXPECT_EQ(s.resident_bytes, 0u);
  for (std::size_t f = 0; f < kNumPackFormats; ++f)
    EXPECT_EQ(s.resident_bytes_by_format[f], 0u);
}

/// Weight-bound VGG-block-5-flavored shape shared by the execution tests.
dnn::ConvDesc quant_conv_desc() {
  dnn::ConvDesc d;
  d.in_c = 64;
  d.in_h = d.in_w = 8;
  d.out_c = 128;
  d.ksize = 3;
  d.stride = 1;
  d.pad = 1;
  d.batch_norm = true;
  d.act = dnn::Activation::Leaky;
  return d;
}

/// Forward of one conv layer under `plan` (functional vlen-512 engine),
/// batch-fused over `batch` when `batched`, per item otherwise.
std::vector<float> run_quant(const core::BackendPlan& plan, int batch,
                             bool batched) {
  const dnn::ConvDesc d = quant_conv_desc();
  vla::VectorEngine eng(512);
  dnn::ExecContext ctx(eng);
  dnn::ConvLayer layer(d, 99);
  core::ConvolutionEngine engine(plan);
  engine.install(ctx);
  engine.prepare(d, layer.weights());

  dnn::Tensor input(batch, d.in_c, d.in_h, d.in_w);
  input.randomize_batch(777, -1.0f, 1.0f);
  const std::vector<const dnn::Tensor*> ins{&input};
  layer.prepare_batch(ins);
  bool fused = false;
  if (batched) fused = layer.forward_batch(ctx, ins, 0, batch);
  if (!fused)
    for (int b = 0; b < batch; ++b) layer.forward_item(ctx, ins, b);
  const dnn::Tensor& out = layer.output();
  return {out.data(), out.data() + out.size()};
}

core::BackendPlan resident_fused_plan(PackFormat fmt) {
  core::EnginePolicy policy = core::EnginePolicy::fused();
  policy.weight_resident = true;
  return core::BackendPlan::uniform(policy).with_precision(fmt);
}

TEST(QuantizedWeights, QuantizedConvMatchesFp32WithinPinnedGates) {
  const dnn::ConvDesc d = quant_conv_desc();
  const auto ref = run_quant(resident_fused_plan(PackFormat::F32), 1, false);
  float max_abs_ref = 0.0f;
  for (float x : ref) max_abs_ref = std::max(max_abs_ref, std::fabs(x));
  ASSERT_GT(max_abs_ref, 0.0f);
  // ULP distance only means anything at working magnitude: a near-zero
  // (cancellation-dominated) output sits astronomically many ULPs from an
  // equally tiny reference. Same floor the bench/selector gates use.
  const float ulp_floor = max_abs_ref / 1024.0f;

  struct Case {
    PackFormat fmt;
    float rel_tol;
  };
  for (const Case c : {Case{PackFormat::Bf16, core::kBf16OutputRelTol},
                       Case{PackFormat::Int8PerChannel,
                            core::kInt8OutputRelTol}}) {
    const auto out = run_quant(resident_fused_plan(c.fmt), 1, false);
    ASSERT_EQ(out.size(), ref.size());
    float max_abs_err = 0.0f;
    std::uint32_t max_ulp = 0;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      max_abs_err = std::max(max_abs_err, std::fabs(ref[i] - out[i]));
      if (std::fabs(ref[i]) >= ulp_floor)
        max_ulp = std::max(max_ulp, ulp_diff(ref[i], out[i]));
    }
    EXPECT_LE(max_abs_err, c.rel_tol * max_abs_ref) << to_string(c.fmt);
    if (c.fmt == PackFormat::Bf16) {
      EXPECT_LE(max_ulp, core::kBf16OutputMaxUlp);
    }
    // int8: the classification proxy — per-position channel argmax survives
    // wherever the reference decides by more than the quantization error
    // bound. (A near-tie inside that bound can legitimately flip; the
    // selector's strict top-1 gate simply rejects such layers rather than
    // asserting they cannot exist.)
    if (c.fmt == PackFormat::Int8PerChannel) {
      const float margin = 2.0f * c.rel_tol * max_abs_ref;
      const std::size_t hw = ref.size() / static_cast<std::size_t>(d.out_c);
      for (std::size_t j = 0; j < hw; ++j) {
        std::size_t ra = 0, qa = 0;
        for (std::size_t ch = 1; ch < static_cast<std::size_t>(d.out_c); ++ch) {
          if (ref[ch * hw + j] > ref[ra * hw + j]) ra = ch;
          if (out[ch * hw + j] > out[qa * hw + j]) qa = ch;
        }
        if (ra != qa) {
          EXPECT_LE(ref[ra * hw + j] - ref[qa * hw + j], margin)
              << "top-1 flipped across a decisive margin at position " << j;
        }
      }
    }
  }
}

TEST(QuantizedWeights, QuantizedBatchFusedBitIdenticalToPerItem) {
  // The residency bit-identity contract carries over to the quantized
  // backends: batch-fused execution of a resident quantized image produces
  // the same bits as the per-item path over the same image.
  for (PackFormat fmt : {PackFormat::Bf16, PackFormat::Int8PerChannel}) {
    const core::BackendPlan plan = resident_fused_plan(fmt);
    const auto fused = run_quant(plan, 4, true);
    const auto items = run_quant(plan, 4, false);
    ASSERT_EQ(fused.size(), items.size());
    EXPECT_EQ(std::memcmp(fused.data(), items.data(),
                          fused.size() * sizeof(float)),
              0)
        << to_string(fmt);
  }
}

TEST(QuantizedWeights, QuantizedFallsBackToF32WhenNotResident) {
  // Residency-or-nothing: with a zero cache budget the quantized image is
  // never retained, and a quantized route silently runs the fp32 packing
  // path — bit-identical to the plain fused plan. Nothing quantizes on the
  // hot path.
  core::EnginePolicy policy = core::EnginePolicy::fused();
  const auto ref = run_quant(core::BackendPlan::uniform(policy), 1, false);
  for (PackFormat fmt : {PackFormat::Bf16, PackFormat::Int8PerChannel}) {
    core::BackendPlan starved = resident_fused_plan(fmt);
    starved.packed_weight_budget = 0;
    const auto out = run_quant(starved, 1, false);
    ASSERT_EQ(out.size(), ref.size());
    EXPECT_EQ(std::memcmp(out.data(), ref.data(), ref.size() * sizeof(float)),
              0)
        << to_string(fmt);
  }
}

TEST(QuantizedWeights, ConcurrentReadersOfFormatTaggedEntries) {
  // The mixed-precision serving pattern: one cache holds all three images
  // of a layer's weights; worker threads find() and read whichever format
  // their plan routes to while prepare() refreshes run concurrently.
  const int m = 32, k = 64, block_k = 16;
  const auto w = test::random_vec(static_cast<std::size_t>(m) * k, 41);
  const PackFormat formats[] = {PackFormat::F32, PackFormat::Bf16,
                                PackFormat::Int8PerChannel};
  constexpr std::size_t kNumFormats = std::size(formats);
  PackedWeightCache cache;
  for (PackFormat f : formats)
    ASSERT_NE(cache.prepare(w.data(), m, k, block_k, f), nullptr);

  constexpr int kThreads = 4;
  std::vector<std::uint64_t> sums(kThreads * kNumFormats, 0);
  std::vector<std::thread> readers;
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      for (int rep = 0; rep < 50; ++rep) {
        for (std::size_t fi = 0; fi < kNumFormats; ++fi) {
          auto img = cache.find(w.data(), m, k, block_k, formats[fi]);
          ASSERT_NE(img, nullptr);
          const auto* bytes = static_cast<const std::uint8_t*>(img->raw());
          std::uint64_t s = 0;
          for (std::size_t i = 0; i < img->data_bytes(); ++i) s += bytes[i];
          sums[static_cast<std::size_t>(t) * kNumFormats + fi] = s;
          cache.prepare(w.data(), m, k, block_k, formats[fi]);
        }
      }
    });
  }
  for (auto& th : readers) th.join();
  for (int t = 1; t < kThreads; ++t)
    for (std::size_t fi = 0; fi < kNumFormats; ++fi)
      EXPECT_EQ(sums[fi],
                sums[static_cast<std::size_t>(t) * kNumFormats + fi]);
  EXPECT_EQ(cache.stats().packs, kNumFormats);
}

TEST(QuantizedWeights, SelectorAdmitsQuantizedOnlyUnderBudget) {
  // One weight-bound conv (M=128 >= N=64): the default budget must keep
  // selection fp32-only (the historical behavior), while relaxed() lists
  // quantized candidates — and any quantized winner is weight-resident.
  auto build = [] {
    auto net = std::make_unique<dnn::Network>(64, 8, 8, 3);
    net->add_conv(128, 3, 1, 1, dnn::Activation::Leaky, true);
    return net;
  };
  {
    auto net = build();
    const core::BackendPlan plan =
        core::select_per_layer(*net, sim::sve_gem5());
    for (const auto& e : plan.entries)
      for (const auto& cand : e.candidates)
        EXPECT_FALSE(core::backend_quantized(cand.first))
            << core::to_string(cand.first);
  }
  {
    auto net = build();
    const core::BackendPlan plan = core::select_per_layer(
        *net, sim::sve_gem5(), 7, 4, core::AccuracyBudget::relaxed());
    ASSERT_FALSE(plan.entries.empty());
    bool any_quantized_candidate = false;
    for (const auto& e : plan.entries) {
      for (const auto& cand : e.candidates)
        if (core::backend_quantized(cand.first)) any_quantized_candidate = true;
      if (core::backend_quantized(e.backend)) {
        EXPECT_TRUE(e.weight_resident);
      }
    }
    // At least one format passes the pinned gates on this shape and must be
    // listed (bf16's gates are loose enough by construction; int8 may
    // additionally be rejected by its strict top-1 gate).
    EXPECT_TRUE(any_quantized_candidate);
  }
}

}  // namespace
}  // namespace vlacnn::gemm
