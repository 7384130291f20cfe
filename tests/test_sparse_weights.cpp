// Structured-sparsity weight residency: block-pruned packed images and the
// skip-aware sparse Gemm6 backends consuming them. Pins the PR's
// contracts — the magnitude prune is deterministic and keeps exactly the
// budgeted block count, the sparse image layout round-trips every kept
// block (and only the kept blocks) through bitmap + offset + compacted
// values, sparse conv outputs are BIT-IDENTICAL to the dense kernel over
// apply_block_mask-pruned weights (fp32 and bf16 alike, batch-fused ==
// per-item), execution falls back to the dense fp32 sibling when the
// sparse image is not resident (residency-or-nothing), mixed-format cache
// entries of one layer keep per-format byte accounting honest across a
// budget shrink, concurrent readers of sparse images are race-free, the
// selector admits sparse candidates only under an explicit accuracy
// budget, and its shape memo never hands a dense cycle table to a sparse
// variant of the same shape.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/conv_engine.hpp"
#include "core/selector.hpp"
#include "dnn/models.hpp"
#include "gemm/packed_weight_cache.hpp"
#include "runtime/batch_scheduler.hpp"
#include "sim/machine_config.hpp"
#include "vla/vector_engine.hpp"
#include "test_util.hpp"

namespace vlacnn::gemm {
namespace {

/// True when linear slot `idx` of `g` covers matrix data (not a padding
/// chunk of a short last panel).
bool flat_index_valid(const SparseGrid& g, std::size_t idx) {
  const int cb = static_cast<int>(idx % static_cast<std::size_t>(g.chunk_cap));
  const int pk = static_cast<int>(
      idx / (static_cast<std::size_t>(g.num_rb) * g.chunk_cap));
  return cb < g.chunks(pk);
}

TEST(SparseWeights, PruneMaskDeterministicWithBudgetedBlockCount) {
  // Remainder-heavy geometry: short last panel (k=40 over block_k=32 puts
  // only one 8-wide chunk in panel 1 against a chunk_cap of 2) and a short
  // last row block (m=10 -> 2-row trailing block).
  const int m = 10, k = 40, block_k = 32;
  const SparseGrid g(m, k, block_k);
  EXPECT_EQ(g.num_pk, 2);
  EXPECT_EQ(g.num_rb, 3);
  EXPECT_EQ(g.chunk_cap, 2);
  EXPECT_EQ(g.chunks(0), 2);
  EXPECT_EQ(g.chunks(1), 1);  // kc=8: one short chunk, one padding slot
  EXPECT_EQ(g.valid_blocks(), 9u);
  EXPECT_EQ(g.size(), 12u);
  EXPECT_EQ(g.segments(), 6u);

  const auto w =
      test::random_vec(static_cast<std::size_t>(m) * k, 51, -2.0f, 2.0f);
  for (int density_pm : {1, 250, 500, 750, 1000}) {
    const auto mask = prune_block_mask(w.data(), m, k, block_k, density_pm);
    ASSERT_EQ(mask.size(), g.size());
    std::size_t kept = 0;
    for (std::uint8_t b : mask) kept += b;
    // ceil(density * valid): the admission estimate and the pack agree on
    // this count by construction.
    EXPECT_EQ(kept, (g.valid_blocks() * static_cast<std::size_t>(density_pm) +
                     999) /
                        1000)
        << "density_pm=" << density_pm;
    // Padding slots never survive.
    EXPECT_EQ(mask[g.index(1, 0, 1)], 0u);
    EXPECT_EQ(mask[g.index(1, 1, 1)], 0u);
    EXPECT_EQ(mask[g.index(1, 2, 1)], 0u);
    // Deterministic: same weights, same mask.
    EXPECT_EQ(prune_block_mask(w.data(), m, k, block_k, density_pm), mask);
  }
  // Full density keeps every valid block — apply_block_mask is then the
  // identity on the weights.
  const auto full = prune_block_mask(w.data(), m, k, block_k, 1000);
  auto w2 = w;
  apply_block_mask(w2.data(), m, k, block_k, full);
  EXPECT_EQ(std::memcmp(w2.data(), w.data(), w.size() * sizeof(float)), 0);

  // Tie-break pin: identical block magnitudes resolve to the lower linear
  // index, so a constant matrix keeps a prefix of the block order.
  std::vector<float> flat(static_cast<std::size_t>(m) * k, 1.0f);
  const auto tie = prune_block_mask(flat.data(), m, k, block_k, 500);
  std::size_t last_kept = 0, first_dropped = g.size();
  for (std::size_t i = 0; i < tie.size(); ++i) {
    if (tie[i] != 0u) last_kept = i;
  }
  for (std::size_t i = 0; i < tie.size(); ++i) {
    if (tie[i] == 0u && flat_index_valid(g, i)) {
      first_dropped = i;
      break;
    }
  }
  EXPECT_LT(last_kept, first_dropped);
}

TEST(SparseWeights, SparseImageLayoutRoundTripsKeptBlocks) {
  const int m = 12, k = 40, block_k = 32;
  const SparseGrid g(m, k, block_k);
  const auto w =
      test::random_vec(static_cast<std::size_t>(m) * k, 61, -3.0f, 3.0f);
  const int density_pm = 500;
  const auto mask = prune_block_mask(w.data(), m, k, block_k, density_pm);
  auto pruned = w;
  apply_block_mask(pruned.data(), m, k, block_k, mask);

  for (PackFormat fmt : {PackFormat::SparseF32, PackFormat::SparseBf16}) {
    const PackedWeights img(w.data(), m, k, block_k, fmt, density_pm);
    EXPECT_TRUE(img.sparse());
    EXPECT_EQ(img.format(), fmt);
    EXPECT_EQ(img.density_pm(), density_pm);
    ASSERT_NE(img.sparse_meta(), nullptr);
    EXPECT_EQ(img.sparse_meta_bytes(), 2 * g.segments() * sizeof(std::uint64_t));
    // The static admission estimate prices full-size tiles, so it bounds
    // the actual image (trailing blocks are smaller) without undercounting.
    EXPECT_LE(img.bytes(),
              PackedWeightCache::image_bytes(m, k, block_k, fmt, density_pm));

    // Reconstruct the dense matrix from bitmap + offsets + value stream and
    // compare against the pruned reference: every kept block round-trips,
    // everything else is zero.
    std::vector<float> rebuilt(static_cast<std::size_t>(m) * k, 0.0f);
    std::size_t streamed_elems = 0;
    for (int pk = 0; pk < g.num_pk; ++pk) {
      for (int rb = 0; rb < g.num_rb; ++rb) {
        const std::size_t seg =
            img.sparse_segment(rb * kSparseBlockM, pk * block_k);
        ASSERT_EQ(seg, static_cast<std::size_t>(pk) * g.num_rb +
                           static_cast<std::size_t>(rb));
        const std::uint64_t bitmap = *img.sparse_bitmap_word(seg);
        const auto* vals =
            static_cast<const std::uint8_t*>(img.sparse_values(seg));
        const int rows = g.rows(rb);
        for (int cb = 0; cb < g.chunks(pk); ++cb) {
          if ((bitmap & (std::uint64_t{1} << cb)) == 0u) {
            EXPECT_EQ(mask[g.index(pk, rb, cb)], 0u);
            continue;
          }
          EXPECT_EQ(mask[g.index(pk, rb, cb)], 1u);
          const int cols = g.cols(pk, cb);
          for (int r = 0; r < rows; ++r) {
            for (int c = 0; c < cols; ++c) {
              const std::uint8_t* e =
                  vals + (static_cast<std::size_t>(r) * cols + c) *
                             img.elem_bytes();
              float v;
              if (fmt == PackFormat::SparseF32) {
                std::memcpy(&v, e, sizeof(v));
              } else {
                std::uint16_t h;
                std::memcpy(&h, e, sizeof(h));
                v = vla::f32_from_bf16(h);
              }
              rebuilt[static_cast<std::size_t>(rb * kSparseBlockM + r) * k +
                      pk * block_k + cb * kSparseBlockK + c] = v;
            }
          }
          vals += static_cast<std::size_t>(rows) * cols * img.elem_bytes();
          streamed_elems += static_cast<std::size_t>(rows) * cols;
        }
        // Bitmap bits above the panel's chunk count are never set.
        for (int cb = g.chunks(pk); cb < 64; ++cb)
          EXPECT_EQ(bitmap & (std::uint64_t{1} << cb), 0u);
      }
    }
    EXPECT_EQ(img.data_bytes(), streamed_elems * img.elem_bytes());
    for (std::size_t i = 0; i < rebuilt.size(); ++i) {
      const float want = fmt == PackFormat::SparseF32
                             ? pruned[i]
                             : vla::f32_from_bf16(bf16_from_f32(pruned[i]));
      EXPECT_EQ(rebuilt[i], want) << "elem " << i << " " << to_string(fmt);
    }
  }
}

/// Weight-bound VGG-block-5-flavored shape shared by the execution tests
/// (same shape the quantized suite pins).
dnn::ConvDesc sparse_conv_desc() {
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
/// `mutate_weights` runs before prepare() — the dense-over-pruned-weights
/// reference mutates the layer's weights in place.
std::vector<float> run_sparse(
    const core::BackendPlan& plan, int batch, bool batched,
    const std::function<void(float*, const dnn::ConvDesc&)>& mutate_weights =
        nullptr) {
  const dnn::ConvDesc d = sparse_conv_desc();
  vla::VectorEngine eng(512);
  dnn::ExecContext ctx(eng);
  dnn::ConvLayer layer(d, 99);
  if (mutate_weights) mutate_weights(layer.mutable_weights(), d);
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

/// Zeroes the blocks a `density` prune would drop, on the plan's block_k
/// grid — the dense reference the sparse kernel must match bit-for-bit.
std::function<void(float*, const dnn::ConvDesc&)> prune_mutator(
    const core::BackendPlan& plan, int density_pm) {
  const int block_k = plan.opt6.blocks.block_k;
  return [block_k, density_pm](float* w, const dnn::ConvDesc& d) {
    const auto mask = prune_block_mask(w, d.gemm_m(), d.gemm_k(), block_k,
                                       density_pm);
    apply_block_mask(w, d.gemm_m(), d.gemm_k(), block_k, mask);
  };
}

TEST(SparseWeights, SparseConvBitIdenticalToDenseOverPrunedWeights) {
  // The PR's core contract: skipping a zeroed block is arithmetically
  // invisible (each skipped FMA would add ±0 to a finite accumulator) and
  // the per-element k-accumulation order is ascending in both kernels, so
  // the sparse image must reproduce the dense kernel over block-pruned
  // weights BITWISE — fp32 against the fp32-resident dense path, bf16
  // against the bf16-resident dense path.
  struct Case {
    PackFormat dense_fmt;
    const char* tag;
  };
  for (const Case c : {Case{PackFormat::F32, "sparse-f32"},
                       Case{PackFormat::Bf16, "sparse-bf16"}}) {
    const core::BackendPlan sparse_plan =
        resident_fused_plan(c.dense_fmt).with_sparsity(0.5);
    ASSERT_EQ(sparse_plan.sparsity_pm, 500) << c.tag;
    const auto sparse_out = run_sparse(sparse_plan, 1, false);
    const auto dense_over_pruned =
        run_sparse(resident_fused_plan(c.dense_fmt), 1, false,
                   prune_mutator(sparse_plan, sparse_plan.sparsity_pm));
    ASSERT_EQ(sparse_out.size(), dense_over_pruned.size()) << c.tag;
    EXPECT_EQ(std::memcmp(sparse_out.data(), dense_over_pruned.data(),
                          sparse_out.size() * sizeof(float)),
              0)
        << c.tag;
  }
}

TEST(SparseWeights, Sparse50StaysInsidePinnedAccuracyGate) {
  // Empirical backstop for kSparseOutputRelTol: uniform-random weights are
  // the incompressible worst case for a magnitude prune, and even there a
  // 0.5-density image stays inside the pinned ceiling the selector's
  // functional gate enforces.
  const auto ref = run_sparse(resident_fused_plan(PackFormat::F32), 1, false);
  float max_abs_ref = 0.0f;
  for (float x : ref) max_abs_ref = std::max(max_abs_ref, std::fabs(x));
  ASSERT_GT(max_abs_ref, 0.0f);
  const auto out = run_sparse(
      resident_fused_plan(PackFormat::F32).with_sparsity(0.5), 1, false);
  ASSERT_EQ(out.size(), ref.size());
  float max_abs_err = 0.0f;
  for (std::size_t i = 0; i < ref.size(); ++i)
    max_abs_err = std::max(max_abs_err, std::fabs(ref[i] - out[i]));
  EXPECT_LE(max_abs_err, core::kSparseOutputRelTol * max_abs_ref);
  // And the prune genuinely changed the output — the gate is not vacuous.
  EXPECT_GT(max_abs_err, 0.0f);
}

TEST(SparseWeights, SparseBatchFusedBitIdenticalToPerItem) {
  // The residency bit-identity contract carries over to the sparse
  // backends: batch-fused execution over a resident sparse image produces
  // the same bits as the per-item path over the same image.
  for (PackFormat fmt : {PackFormat::F32, PackFormat::Bf16}) {
    const core::BackendPlan plan = resident_fused_plan(fmt).with_sparsity(0.5);
    const auto fused = run_sparse(plan, 4, true);
    const auto items = run_sparse(plan, 4, false);
    ASSERT_EQ(fused.size(), items.size());
    EXPECT_EQ(std::memcmp(fused.data(), items.data(),
                          fused.size() * sizeof(float)),
              0)
        << to_string(fmt);
  }
}

TEST(SparseWeights, SparseFallsBackToDenseSiblingWhenNotResident) {
  // Residency-or-nothing: with a zero cache budget the sparse image is
  // never retained and the route runs the dense fp32 packing path over the
  // UNPRUNED weights — bit-identical to the plain fused plan. Nothing
  // prunes on the hot path.
  const auto ref =
      run_sparse(core::BackendPlan::uniform(core::EnginePolicy::fused()), 1,
                 false);
  core::BackendPlan starved =
      resident_fused_plan(PackFormat::F32).with_sparsity(0.5);
  starved.packed_weight_budget = 0;
  const auto out = run_sparse(starved, 1, false);
  ASSERT_EQ(out.size(), ref.size());
  EXPECT_EQ(std::memcmp(out.data(), ref.data(), ref.size() * sizeof(float)),
            0);
}

TEST(SparseWeights, BudgetShrinkEvictsSparseImageAndDenseSiblingTakesOver) {
  // The serving-time eviction story end to end: a resident sparse plan
  // serves pruned outputs; shrinking the engine's packed-weight budget to
  // zero evicts the image, and the very same engine then serves the dense
  // fp32 sibling's (unpruned) outputs — bit-identical to a plain fused run.
  const dnn::ConvDesc d = sparse_conv_desc();
  vla::VectorEngine eng(512);
  dnn::ExecContext ctx(eng);
  dnn::ConvLayer layer(d, 99);
  core::ConvolutionEngine engine(
      resident_fused_plan(PackFormat::F32).with_sparsity(0.5));
  engine.install(ctx);
  engine.prepare(d, layer.weights());
  EXPECT_EQ(engine.packed_weights().stats().entries, 1u);

  dnn::Tensor input(1, d.in_c, d.in_h, d.in_w);
  input.randomize_batch(777, -1.0f, 1.0f);
  const std::vector<const dnn::Tensor*> ins{&input};
  layer.prepare_batch(ins);
  layer.forward_item(ctx, ins, 0);
  const std::vector<float> sparse_out(layer.output().data(),
                                      layer.output().data() +
                                          layer.output().size());

  engine.packed_weights().set_budget(0);
  EXPECT_EQ(engine.packed_weights().stats().entries, 0u);
  EXPECT_GE(engine.packed_weights().stats().evictions, 1u);
  layer.forward_item(ctx, ins, 0);
  const std::vector<float> evicted_out(layer.output().data(),
                                       layer.output().data() +
                                           layer.output().size());

  const auto dense_ref =
      run_sparse(core::BackendPlan::uniform(core::EnginePolicy::fused()), 1,
                 false);
  ASSERT_EQ(evicted_out.size(), dense_ref.size());
  EXPECT_EQ(std::memcmp(evicted_out.data(), dense_ref.data(),
                        dense_ref.size() * sizeof(float)),
            0);
  // And the pre-eviction output really was the pruned one.
  EXPECT_NE(std::memcmp(sparse_out.data(), dense_ref.data(),
                        dense_ref.size() * sizeof(float)),
            0);
}

TEST(SparseWeights, MixedFormatEvictionAccountingUnderBudgetShrink) {
  // One layer's weights resident in three formats at once (the fp32 image,
  // the int8 image and a 50%-density sparse image), per-format bytes
  // summing to the total; a budget shrink LRU-evicts across formats and
  // the accounting follows the survivors exactly.
  const int m = 32, k = 64, block_k = 16;
  const auto w = test::random_vec(static_cast<std::size_t>(m) * k, 71);

  PackedWeightCache cache;
  const auto f32 = cache.prepare(w.data(), m, k, block_k);
  const auto i8 =
      cache.prepare(w.data(), m, k, block_k, PackFormat::Int8PerChannel);
  const auto sp =
      cache.prepare(w.data(), m, k, block_k, PackFormat::SparseF32, 500);
  ASSERT_NE(f32, nullptr);
  ASSERT_NE(i8, nullptr);
  ASSERT_NE(sp, nullptr);
  EXPECT_LT(sp->bytes(), f32->bytes());  // the point of the format

  auto s = cache.stats();
  EXPECT_EQ(s.entries, 3u);
  using F = PackFormat;
  EXPECT_EQ(s.resident_bytes_by_format[static_cast<int>(F::F32)],
            f32->bytes());
  EXPECT_EQ(s.resident_bytes_by_format[static_cast<int>(F::Int8PerChannel)],
            i8->bytes());
  EXPECT_EQ(s.resident_bytes_by_format[static_cast<int>(F::SparseF32)],
            sp->bytes());
  EXPECT_EQ(s.resident_bytes, f32->bytes() + i8->bytes() + sp->bytes());

  // Touch order: f32 (oldest) .. then refresh int8 and sparse so the LRU
  // order across formats is f32 < int8 < sparse.
  ASSERT_NE(cache.find(w.data(), m, k, block_k, PackFormat::Int8PerChannel),
            nullptr);
  ASSERT_NE(cache.find(w.data(), m, k, block_k, PackFormat::SparseF32, 500),
            nullptr);

  // Shrink to exactly the two newest images: the fp32 image (LRU) goes.
  cache.set_budget(i8->bytes() + sp->bytes());
  s = cache.stats();
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.resident_bytes_by_format[static_cast<int>(F::F32)], 0u);
  EXPECT_EQ(s.resident_bytes, i8->bytes() + sp->bytes());
  EXPECT_EQ(cache.find(w.data(), m, k, block_k), nullptr);
  EXPECT_NE(cache.find(w.data(), m, k, block_k, PackFormat::SparseF32, 500),
            nullptr);

  // Shrink again to the sparse image alone (it was touched after int8).
  cache.set_budget(sp->bytes());
  s = cache.stats();
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.evictions, 2u);
  EXPECT_EQ(s.resident_bytes_by_format[static_cast<int>(F::Int8PerChannel)],
            0u);
  EXPECT_EQ(s.resident_bytes_by_format[static_cast<int>(F::SparseF32)],
            sp->bytes());
  EXPECT_EQ(s.resident_bytes, sp->bytes());
}

TEST(SparseWeights, DistinctDensitiesAreDistinctCacheEntries) {
  // The density is part of the cache key: a 25% image and a 50% image of
  // the same weights coexist, and a find() at the wrong density misses.
  const int m = 16, k = 64, block_k = 32;
  const auto w = test::random_vec(static_cast<std::size_t>(m) * k, 81);
  PackedWeightCache cache;
  ASSERT_NE(cache.prepare(w.data(), m, k, block_k, PackFormat::SparseF32, 250),
            nullptr);
  ASSERT_NE(cache.prepare(w.data(), m, k, block_k, PackFormat::SparseF32, 500),
            nullptr);
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_NE(cache.find(w.data(), m, k, block_k, PackFormat::SparseF32, 250),
            nullptr);
  EXPECT_NE(cache.find(w.data(), m, k, block_k, PackFormat::SparseF32, 500),
            nullptr);
  EXPECT_EQ(cache.find(w.data(), m, k, block_k, PackFormat::SparseF32, 750),
            nullptr);
}

TEST(SparseWeights, ConcurrentReadersOfSparseImages) {
  // TSan target: worker threads find() sparse images and sweep both the
  // compacted value stream and the bitmap/offset metadata while prepare()
  // refreshes run concurrently — the read-only residency contract.
  const int m = 32, k = 64, block_k = 16;
  const auto w = test::random_vec(static_cast<std::size_t>(m) * k, 91);
  const PackFormat formats[] = {PackFormat::SparseF32, PackFormat::SparseBf16};
  constexpr std::size_t kNumFormats = std::size(formats);
  PackedWeightCache cache;
  for (PackFormat f : formats)
    ASSERT_NE(cache.prepare(w.data(), m, k, block_k, f, 500), nullptr);

  constexpr int kThreads = 4;
  std::vector<std::uint64_t> sums(kThreads * kNumFormats, 0);
  std::vector<std::thread> readers;
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      for (int rep = 0; rep < 50; ++rep) {
        for (std::size_t fi = 0; fi < kNumFormats; ++fi) {
          auto img = cache.find(w.data(), m, k, block_k, formats[fi], 500);
          ASSERT_NE(img, nullptr);
          std::uint64_t s = 0;
          const auto* bytes = static_cast<const std::uint8_t*>(img->raw());
          for (std::size_t i = 0; i < img->data_bytes(); ++i) s += bytes[i];
          const auto* meta =
              static_cast<const std::uint8_t*>(img->sparse_meta());
          for (std::size_t i = 0; i < img->sparse_meta_bytes(); ++i)
            s += meta[i];
          sums[static_cast<std::size_t>(t) * kNumFormats + fi] = s;
          cache.prepare(w.data(), m, k, block_k, formats[fi], 500);
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

TEST(SparseWeights, SelectorAdmitsSparseOnlyUnderBudget) {
  // One weight-bound conv: the default budget must keep selection free of
  // sparse candidates, while AccuracyBudget::sparse(0.5) lists them — and
  // any sparse winner is weight-resident with the density installed
  // plan-wide.
  auto build = [] {
    auto net = std::make_unique<dnn::Network>(64, 8, 8, 3);
    net->add_conv(128, 3, 1, 1, dnn::Activation::Leaky, true);
    return net;
  };
  {
    auto net = build();
    const core::BackendPlan plan =
        core::select_per_layer(*net, sim::sve_gem5());
    EXPECT_EQ(plan.sparsity_pm, 1000);
    for (const auto& e : plan.entries)
      for (const auto& cand : e.candidates)
        EXPECT_FALSE(core::backend_sparse(cand.first))
            << core::to_string(cand.first);
  }
  {
    auto net = build();
    const core::BackendPlan plan = core::select_per_layer(
        *net, sim::sve_gem5(), 7, 4, core::AccuracyBudget::sparse(0.5f));
    ASSERT_FALSE(plan.entries.empty());
    EXPECT_EQ(plan.sparsity_pm, 500);
    bool any_sparse_candidate = false;
    for (const auto& e : plan.entries) {
      for (const auto& cand : e.candidates)
        if (core::backend_sparse(cand.first)) any_sparse_candidate = true;
      if (core::backend_sparse(e.backend)) {
        EXPECT_TRUE(e.weight_resident);
      }
    }
    // Uniform-random weights sit inside the pinned worst-case ceiling
    // (Sparse50StaysInsidePinnedAccuracyGate pins this empirically), so the
    // fp32 sparse candidate must be listed.
    EXPECT_TRUE(any_sparse_candidate);
  }
}

TEST(SparseWeights, SelectorMemoKeyIncludesFormatSignature) {
  // Memo-key regression (the per-shape-only bug): the sim cost of a shape
  // is format-specific. Two IDENTICAL layers in one net share a memo entry;
  // that entry must carry the sparse candidate when the budget admits one,
  // and the dense candidates' cycles must be unchanged relative to a
  // dense-only selection of the same net — i.e. enabling sparse changes the
  // memo key, not the dense pricing.
  auto build = [] {
    auto net = std::make_unique<dnn::Network>(64, 8, 8, 3);
    // Two identical-shape weight-bound convs (64ch 3x3 s1 at 8x8, M = N =
    // 64 so conv_weight_bound holds): the second is served by the memo.
    net->add_conv(64, 3, 1, 1, dnn::Activation::Leaky, true);
    net->add_conv(64, 3, 1, 1, dnn::Activation::Leaky, true);
    return net;
  };
  auto dense_net = build();
  const core::BackendPlan dense_plan =
      core::select_per_layer(*dense_net, sim::sve_gem5());
  auto sparse_net = build();
  const core::BackendPlan sparse_plan = core::select_per_layer(
      *sparse_net, sim::sve_gem5(), 7, 4, core::AccuracyBudget::sparse(0.5f));
  ASSERT_EQ(dense_plan.entries.size(), 2u);
  ASSERT_EQ(sparse_plan.entries.size(), 2u);

  auto cycles_of = [](const core::PlanEntry& e,
                      core::Backend b) -> std::uint64_t {
    for (const auto& cand : e.candidates)
      if (cand.first == b) return cand.second;
    return 0;
  };
  for (std::size_t i = 0; i < 2; ++i) {
    const auto& de = dense_plan.entries[i];
    const auto& se = sparse_plan.entries[i];
    // Dense GEMM pricing is budget-invariant: the same shape simulates to
    // the same cycle count whether or not sparse candidates are in the set.
    // (Winograd candidates are excluded: their scratch allocations shift
    // heap addresses between runs and the address-mapped cache sim is
    // sensitive to layout, a known ~0.1% jitter orthogonal to the memo.)
    for (const auto& cand : de.candidates) {
      if (!core::backend_gemm6_family(cand.first)) continue;
      EXPECT_EQ(cycles_of(se, cand.first), cand.second)
          << "layer " << i << " " << core::to_string(cand.first);
    }
    // The sparse candidate exists only under the sparse budget, and its
    // cost is distinct from (here: below, it moves fewer bytes and runs
    // fewer MACs) the dense fused cost — a shape-only memo would have
    // cloned the dense table and listed no sparse entry at all.
    EXPECT_EQ(cycles_of(de, core::Backend::Gemm6Sparse), 0u) << "layer " << i;
    const std::uint64_t sparse_cycles =
        cycles_of(se, core::Backend::Gemm6Sparse);
    ASSERT_GT(sparse_cycles, 0u) << "layer " << i;
    EXPECT_LT(sparse_cycles, cycles_of(se, core::Backend::FusedGemm6))
        << "layer " << i;
  }
  // Both same-shape layers share one memo entry, so their candidate tables
  // are identical — including the sparse row.
  ASSERT_EQ(sparse_plan.entries[0].candidates.size(),
            sparse_plan.entries[1].candidates.size());
  for (std::size_t c = 0; c < sparse_plan.entries[0].candidates.size(); ++c) {
    EXPECT_EQ(sparse_plan.entries[0].candidates[c].first,
              sparse_plan.entries[1].candidates[c].first);
    EXPECT_EQ(sparse_plan.entries[0].candidates[c].second,
              sparse_plan.entries[1].candidates[c].second);
  }
}

/// Scheduler run under an explicit BackendPlan (the work-graph suite's
/// helper takes an EnginePolicy; sparse plans only exist as BackendPlans).
dnn::Tensor sched_input(const dnn::Network& net, int batch) {
  dnn::Tensor in(batch, net.in_c(), net.in_h(), net.in_w());
  in.randomize_batch(4321, 0.0f, 1.0f);
  return in;
}

std::vector<float> run_sched_plan(dnn::Network& net,
                                  const core::BackendPlan& plan, int batch,
                                  int threads) {
  core::ConvolutionEngine engine(plan);
  runtime::SchedulerConfig cfg;
  cfg.threads = threads;
  runtime::BatchScheduler sched(engine, cfg);
  runtime::BatchResult r =
      sched.wait(sched.submit(net, sched_input(net, batch)));
  return {r.output.data(), r.output.data() + r.output.size()};
}

TEST(SparseWeights, WorkGraphSparseBitIdenticalToSerialAcrossBatchesWorkers) {
  // Work-graph x sparse: sparse layers are weight-resident by construction,
  // so the scheduler batch-fuses them into barrier tasks; the graph
  // executor must stay bitwise equal to a sequential Network::forward across
  // batch sizes and worker counts — including the fused-residual yolo net
  // whose shortcut layer aliases its producer's output.
  struct ModelCase {
    const char* tag;
    std::unique_ptr<dnn::Network> (*build)();
  };
  const ModelCase models[] = {
      {"vgg", [] { return dnn::build_vgg16(32, 4); }},
      {"yolo-res",
       [] {
         auto net = dnn::build_yolov3(32, 8);
         net->fuse_residuals();
         return net;
       }},
  };
  const core::BackendPlan plan =
      resident_fused_plan(PackFormat::F32).with_sparsity(0.5);
  for (const auto& m : models) {
    auto net = m.build();
    // Inputs are drawn per item stream, so batch b is the first b items of
    // batch 8 and one sequential forward references every batch size.
    const auto ref = test::sequential_forward(*net, plan, sched_input(*net, 8));
    for (int batch : {1, 2, 4, 8}) {
      for (int threads : {1, 2, 4}) {
        const std::string tag = std::string(m.tag) +
                                " batch=" + std::to_string(batch) +
                                " threads=" + std::to_string(threads);
        const auto graph = run_sched_plan(*net, plan, batch, threads);
        ASSERT_EQ(graph.size() * 8, ref.size() * batch) << tag;
        EXPECT_EQ(std::memcmp(graph.data(), ref.data(),
                              graph.size() * sizeof(float)),
                  0)
            << tag;
      }
    }
  }
}

}  // namespace
}  // namespace vlacnn::gemm
