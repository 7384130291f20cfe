// The paper's evaluation as one table-driven harness: Figs. 6-10, Tables
// II-IV and the §IV-B, §VI and §VII-A experiments behind its text, plus two
// beyond-paper traffic figures (the fused conv pipeline and weight-resident
// batch-fused execution).
//
//   bench_paper [--figure=<id>] [--input=N] [--vgg-input=N] [--quick]
//               [--seed=S]
//
// With no --figure every figure runs; any other flag exits 1. A figure is
// data: its (network, machine, policy) points, its columns and baseline
// rule, and the paper's claims with the paper's values. Points are keyed by
// the resulting machine configuration, so a point several figures share is
// simulated once. Each figure's caption states the scale it ran at. Each
// claim prints PASS or DEVIATION; a deviation recorded in EXPERIMENTS.md is
// tolerated, any other one makes the exit status 1.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/codesign.hpp"
#include "core/roofline.hpp"
#include "core/selector.hpp"
#include "dnn/layers.hpp"
#include "dnn/models.hpp"
#include "sim/address_map.hpp"
#include "sim/sim_context.hpp"
#include "winograd/variants.hpp"

using namespace vlacnn;

namespace {

using core::EnginePolicy;
using core::RunResult;
using sim::MachineConfig;
using Labels = std::vector<std::string>;

/// The harness's flags: network input resolutions (paper: YOLOv3 608x608,
/// VGG16 224x224), trimmed sweeps for smoke runs, and the network seed.
struct BenchOptions {
  int input_hw = 96;
  int vgg_input_hw = 64;
  bool quick = false;
  std::uint64_t seed = 1234;
};

enum class Net { Yolo20, Yolo4Conv, Yolo, Tiny, Vgg16 };

/// One simulated configuration: the network (kind, input resolution, layer
/// count of Net::Yolo, weight seed), the machine and the policy.
struct Point {
  Net net;
  int hw, layers;
  std::uint64_t seed;
  MachineConfig machine;
  EnginePolicy policy;
};

/// Simulates `p` once per process; later calls return the cached run. The
/// machine is keyed by its preset name plus every field with_*() sets.
const RunResult& run(const Point& p) {
  static std::map<std::string, RunResult> cache;
  const MachineConfig& m = p.machine;
  const EnginePolicy& q = p.policy;
  const auto cat = [](auto... v) { return ((std::to_string(v) + "/") + ...); };
  auto [it, fresh] = cache.try_emplace(
      m.name + "/" + q.opt6.blocks.to_string() + "/" +
      cat(static_cast<int>(p.net), p.hw, p.layers, p.seed, m.vlen_bits,
          m.lanes, m.lanes_proportional_to_vl, m.l2.size_bytes,
          m.l2.latency_cycles, static_cast<int>(q.gemm_variant),
          q.opt3.unroll_factor, q.opt6.unroll_factor, q.opt6.pack_a,
          q.opt6.pack_b, q.opt6.prefetch, q.winograd_stride1,
          q.winograd_stride2, q.vectorize_aux, q.fuse_conv, q.weight_resident));
  if (!fresh) return it->second;
  const std::unique_ptr<dnn::Network> net =
      p.net == Net::Yolo20      ? dnn::build_yolov3_prefix_20(p.hw, p.seed)
      : p.net == Net::Yolo4Conv ? dnn::build_yolov3_first4conv(p.hw, p.seed)
      : p.net == Net::Yolo      ? dnn::build_yolov3(p.hw, p.layers, p.seed)
      : p.net == Net::Tiny      ? dnn::build_yolov3_tiny(p.hw, -1, p.seed)
                                : dnn::build_vgg16(p.hw, -1, p.seed);
  return it->second = core::run_simulated(*net, p.machine, p.policy);
}

/// A printed row and the numbers claims read: for a point row x = {baseline
/// metric / point metric (0 without baseline), L2 miss %, avg VL / VL}.
struct Result {
  Labels cells = {};
  std::vector<double> x = {};
  const RunResult* run = nullptr;
};
using Results = std::vector<Result>;
using Values = std::function<std::vector<double>(const Results&)>;

/// A point row, rendered by the figure's columns, or a `custom` row set.
struct Row {
  Labels text = {};  // label and paper cells
  std::optional<Point> point = {}, base = {};  // base: for Base::Given
  std::function<Results()> custom = {};
};

constexpr double kAny = 1e300;

/// A claim of the paper, verbatim, with the paper's value. It passes when
/// every value lies in [lo, hi] and, for trend 1 / -1, the values rise /
/// fall strictly; no values means its points were not run. `recorded`
/// names the EXPERIMENTS.md entry of a known deviation.
struct Claim {
  std::string text, paper;
  Values values;
  double lo = 0, hi = kAny;
  std::string recorded = {};
  int trend = 0;
};

/// A point row's baseline: none, the figure's first point, the first point
/// with the same first cell (a VL or machine group), or the row's own.
enum class Base { None, First, PerGroup, Given };
using Metric = std::uint64_t (*)(const RunResult&);
std::uint64_t total_cycles(const RunResult& r) { return r.cycles; }
/// Point-row columns; kText + i prints the row's text[i].
enum Col { kCycles, kBaseCycles, kSpeedup, kNorm, kRel, kMiss, kAvgVl, kText };

struct Figure {
  std::string id, title, ref, caption;
  std::vector<std::pair<std::string, int>> cols;  // header, Col
  Base base = Base::None;
  Metric metric = total_cycles;
  std::vector<Row> rows = {};
  std::vector<Claim> claims = {};
};

double ratio(std::uint64_t num, std::uint64_t den) {
  return static_cast<double>(num) / static_cast<double>(den);
}
std::string x2(double v) { return Table::fmt(v, 2) + "x"; }

std::string cell(int col, const Row& row, const RunResult& r,
                 const RunResult* b, Metric m) {
  switch (col) {
    case kCycles: return Table::fmt(m(r) / 1e6, 1);
    case kBaseCycles: return Table::fmt(m(*b) / 1e6, 1);
    case kSpeedup: return x2(ratio(m(*b), m(r)));
    case kNorm: return Table::fmt(ratio(m(*b), m(r)), 2);
    case kRel: return x2(ratio(m(r), m(*b)));
    case kMiss: return Table::fmt(100.0 * r.l2_miss_rate, 1);
    case kAvgVl: return Table::fmt(r.avg_vl_bits, 1);
    default: return row.text[col - kText];
  }
}

/// x[i] of the given rows (negative: from the end; none: every row), as
/// 1 / x[i] when `inverse`.
Values at(std::vector<int> rows = {}, std::size_t i = 0, bool inverse = false) {
  return [=](const Results& rs) {
    std::vector<double> v;
    for (std::size_t r = 0; r < rs.size() && rows.empty(); ++r)
      v.push_back(rs[r].x[i]);
    for (int r : rows) v.push_back(rs[r < 0 ? rs.size() + r : r].x[i]);
    for (double& d : v) d = inverse ? 1 / d : d;
    return v;
  };
}
Values inv(std::vector<int> rows) { return at(std::move(rows), 0, true); }

/// Per pair, cycles of row a over cycles of row b (b's speedup over a),
/// rows named by their leading cells; nothing if a row was not run.
Values gains(std::vector<std::pair<Labels, Labels>> pairs) {
  return [=](const Results& rs) {
    std::vector<double> v;
    for (const auto& [a, b] : pairs) {
      const RunResult* run[2] = {};
      for (const Result& r : rs)
        for (int i = 0; i < 2; ++i)
          if (const Labels& l = i ? b : a;
              std::equal(l.begin(), l.end(), r.cells.begin()))
            run[i] = r.run;
      if (!run[0] || !run[1]) return std::vector<double>{};
      v.push_back(ratio(run[0]->cycles, run[1]->cycles));
    }
    return v;
  };
}

EnginePolicy opt6_tuned(const MachineConfig& m) {
  gemm::Opt6Config o6;
  o6.blocks = gemm::tune_block_sizes(m);
  return EnginePolicy::opt6loop(o6);
}
std::string vl(unsigned bits) { return std::to_string(bits) + "-bit"; }
std::vector<unsigned> vlens(unsigned max_vl) {
  std::vector<unsigned> v;
  for (unsigned bits = 512; bits <= max_vl; bits *= 2) v.push_back(bits);
  return v;
}

// ------------------------------------------------- beyond-paper figures

/// x[i] of every row whose x `keep` accepts, as 1 / x[i] when `inverse`.
Values where(std::function<bool(const std::vector<double>&)> keep,
             std::size_t i, bool inverse = false) {
  return [=](const Results& rs) {
    std::vector<double> v;
    for (const Result& r : rs)
      if (keep(r.x)) v.push_back(inverse ? 1 / r.x[i] : r.x[i]);
    return v;
  };
}

std::string mb(double bytes, int decimals) {
  return Table::fmt(bytes / (1024.0 * 1024.0), decimals);
}
std::string pct(double base, double v) {
  return base > 0 ? Table::fmt(100.0 * (base - v) / base, 1) + "%" : "-";
}

/// A layer of the traffic figures: conv `desc`, or an FC layer fc_in ->
/// fc_out when fc_out > 0, with weights drawn from `seed`.
struct LayerCase {
  std::string name;
  dnn::ConvDesc desc = {};
  int fc_in = 0, fc_out = 0;
  std::uint64_t seed = 1;
};

std::unique_ptr<dnn::Layer> build(const LayerCase& c) {
  if (c.fc_out > 0)
    return std::make_unique<dnn::ConnectedLayer>(
        c.fc_in, c.fc_out, dnn::Activation::Relu, c.seed);
  return std::make_unique<dnn::ConvLayer>(c.desc, c.seed);
}

/// The batch-`n` input of every weight-stream run of `c`.
dnn::Tensor batch_input(const LayerCase& c, int n) {
  dnn::Tensor in = c.fc_out > 0 ? dnn::Tensor(n, c.fc_in, 1, 1)
                                : dnn::Tensor(n, c.desc.in_c, c.desc.in_h,
                                              c.desc.in_w);
  in.randomize_batch(7, -1.0f, 1.0f);
  return in;
}

/// DRAM bytes (simulated line fills) and engine bytes (every load and store
/// the kernels issue, cache-blind) of one fresh single-item run of conv `c`.
std::pair<double, double> conv_traffic(const LayerCase& c,
                                       const EnginePolicy& policy,
                                       const MachineConfig& m) {
  dnn::ConvLayer layer(c.desc, c.seed);
  sim::SimContext sctx(m);
  vla::VectorEngine eng(sctx);
  dnn::ExecContext ctx(eng);
  core::ConvolutionEngine engine(policy);
  engine.install(ctx);
  dnn::Tensor in(c.desc.in_c, c.desc.in_h, c.desc.in_w);
  Rng rng(7);
  in.randomize(rng);
  layer.forward(ctx, {&in});
  return {static_cast<double>(sctx.memory().dram_line_fills()) *
              m.l2.line_bytes,
          static_cast<double>(eng.mem_bytes_moved())};
}

/// One fresh simulated run of `c` at `batch` items under the weight-resident
/// `plan`, batch-fused when the layer supports it. `dram_per_item`: DRAM
/// line fills whose address falls in the raw weights or in the layer's
/// resident image (an int8 image's scales and a sparse image's bitmap and
/// offsets included: the kernels read them on every panel), per item.
/// `packed`: the image's bytes (0 without one).
struct WeightTraffic {
  double dram_per_item = 0, packed = 0;
};
WeightTraffic weight_traffic(const LayerCase& c, core::BackendPlan plan,
                             const MachineConfig& m, int batch) {
  const std::unique_ptr<dnn::Layer> layer = build(c);
  const bool fc = c.fc_out > 0;
  const float* weights =
      fc ? static_cast<const dnn::ConnectedLayer&>(*layer).weights()
         : static_cast<const dnn::ConvLayer&>(*layer).weights();
  const dnn::Tensor in = batch_input(c, batch);
  sim::SimContext sctx(m);
  vla::VectorEngine eng(sctx);
  dnn::ExecContext ctx(eng);
  core::ConvolutionEngine engine(std::move(plan));
  engine.install(ctx);
  const auto watch = [&](const void* p, std::uint64_t bytes) {
    sctx.memory().add_dram_watch(sim::AddressMap::instance().translate(p),
                                 bytes);
  };
  WeightTraffic t;
  if (!fc) {
    engine.prepare(c.desc, weights);
    // The image in the format the plan routes the layer to, else the fp32
    // image (a reduced-format plan whose image was not retained).
    const gemm::PackFormat fmt =
        core::backend_pack_format(engine.plan().backend_for(c.desc));
    const int block_k = engine.plan().opt6.blocks.block_k;
    auto img = engine.packed_weights().find(
        weights, c.desc.gemm_m(), c.desc.gemm_k(), block_k, fmt,
        gemm::pack_format_sparse(fmt) ? engine.plan().sparsity_pm : 1000);
    if (img == nullptr && fmt != gemm::PackFormat::F32)
      img = engine.packed_weights().find(weights, c.desc.gemm_m(),
                                         c.desc.gemm_k(), block_k);
    if (img != nullptr) {
      t.packed = static_cast<double>(img->bytes());
      watch(img->raw(), img->data_bytes());
      if (img->scales() != nullptr) watch(img->scales(), img->scales_bytes());
      if (img->sparse_meta() != nullptr)
        watch(img->sparse_meta(), img->sparse_meta_bytes());
    }
  }
  const std::uint64_t elems =
      fc ? static_cast<std::uint64_t>(c.fc_in) * c.fc_out
         : static_cast<std::uint64_t>(c.desc.weight_count());
  watch(weights, elems * sizeof(float));
  const std::vector<const dnn::Tensor*> ins{&in};
  layer->prepare_batch(ins);
  if (batch == 1 || !layer->forward_batch(ctx, ins, 0, batch))
    for (int b = 0; b < batch; ++b) layer->forward_item(ctx, ins, b);
  t.dram_per_item = static_cast<double>(
                        sctx.memory().watched_dram_line_fills()) *
                    m.l2.line_bytes / batch;
  return t;
}

/// A resident weight format of the reuse figure; `density_pm` is the kept
/// share of 4x16 weight blocks of a sparse format, in 1/1000.
struct Format {
  const char* name;
  gemm::PackFormat pack;
  int density_pm;
};
constexpr Format kFormats[] = {
    {"f32", gemm::PackFormat::F32, 1000},
    {"bf16", gemm::PackFormat::Bf16, 1000},
    {"int8", gemm::PackFormat::Int8PerChannel, 1000},
    {"sparse50", gemm::PackFormat::SparseF32, 500},
    {"sparse25", gemm::PackFormat::SparseF32, 250}};

/// The fused weight-resident plan that routes conv `c` through `f` images.
/// FC layers stay fp32: their GEMM accumulates onto fp32 partial sums, which
/// a reduced-format image cannot join.
core::BackendPlan resident_plan(const LayerCase& c, const Format& f) {
  EnginePolicy policy = EnginePolicy::fused();
  policy.weight_resident = true;
  const core::BackendPlan plan = core::BackendPlan::uniform(policy);
  if (c.fc_out > 0 || f.pack == gemm::PackFormat::F32) return plan;
  if (gemm::pack_format_sparse(f.pack))
    return plan.with_sparsity(f.density_pm / 1000.0);
  return plan.with_precision(f.pack);
}

/// The functional output of `c` at `batch` items under `f`, batch-fused or
/// per item; false if the batch-fused path declined. `prune_pm` != 0 first
/// zeroes the weight blocks a magnitude prune at that density drops: the
/// dense reference a sparse image must match bit for bit.
bool outputs(const LayerCase& c, int batch, const Format& f, bool batched,
             std::vector<float>* out, int prune_pm = 0) {
  const std::unique_ptr<dnn::Layer> layer = build(c);
  vla::VectorEngine eng(512);
  dnn::ExecContext ctx(eng);
  core::ConvolutionEngine engine(resident_plan(c, f));
  engine.install(ctx);
  if (c.fc_out == 0) {
    auto& conv = static_cast<dnn::ConvLayer&>(*layer);
    if (prune_pm != 0) {
      const int m = c.desc.gemm_m(), k = c.desc.gemm_k();
      const int block_k = engine.plan().opt6.blocks.block_k;
      gemm::apply_block_mask(
          conv.mutable_weights(), m, k, block_k,
          gemm::prune_block_mask(conv.mutable_weights(), m, k, block_k,
                                 prune_pm));
    }
    engine.prepare(c.desc, conv.weights());
  }
  const dnn::Tensor in = batch_input(c, batch);
  const std::vector<const dnn::Tensor*> ins{&in};
  layer->prepare_batch(ins);
  if (batched) {
    if (!layer->forward_batch(ctx, ins, 0, batch)) return false;
  } else {
    for (int b = 0; b < batch; ++b) layer->forward_item(ctx, ins, b);
  }
  out->assign(layer->output().data(),
              layer->output().data() + layer->output().size());
  return true;
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Batch-fused vs per-item outputs of `c` under `f`, bitwise: the
/// strip-grouping contract holds for every format.
bool batch_bit_identical(const LayerCase& c, int batch, const Format& f) {
  std::vector<float> batched, per_item;
  return outputs(c, batch, f, true, &batched) &&
         outputs(c, batch, f, false, &per_item) && same_bits(batched, per_item);
}

/// The fp32 path over a sparse `f` image vs the dense fp32 path over the
/// same weights pruned by the same mask, bitwise: skipping a zeroed block is
/// arithmetically invisible.
bool sparse_matches_pruned_dense(const LayerCase& c, const Format& f) {
  std::vector<float> sparse, pruned;
  return outputs(c, 1, f, false, &sparse) &&
         outputs(c, 1, kFormats[0], false, &pruned, f.density_pm) &&
         same_bits(sparse, pruned);
}

double ulp_distance(float a, float b) {
  const auto ordered = [](float x) {
    std::int32_t i;
    std::memcpy(&i, &x, sizeof(i));
    return i < 0 ? -2147483648.0 - i : static_cast<double>(i);
  };
  return std::fabs(ordered(a) - ordered(b));
}

/// Batch-1 output of `c` under `f` vs under f32. The ULP distance is taken over outputs at
/// working magnitude only (>= max |ref| / 1024): a near-zero output can sit
/// huge lexicographic distances from an equally tiny reference while being
/// numerically fine, and the absolute error governs those. The selector's
/// accuracy check uses the same definition.
struct Accuracy {
  double max_ulp = 0, max_abs_err = 0, max_abs_ref = 0;
};
Accuracy accuracy(const LayerCase& c, const Format& f) {
  std::vector<float> ref, got;
  outputs(c, 1, kFormats[0], false, &ref);
  outputs(c, 1, f, false, &got);
  Accuracy a;
  for (float r : ref)
    a.max_abs_ref = std::max(a.max_abs_ref, static_cast<double>(std::fabs(r)));
  for (std::size_t i = 0; i < ref.size(); ++i) {
    a.max_abs_err = std::max(a.max_abs_err,
                             static_cast<double>(std::fabs(ref[i] - got[i])));
    if (std::fabs(ref[i]) >= a.max_abs_ref / 1024.0)
      a.max_ulp = std::max(a.max_ulp, ulp_distance(ref[i], got[i]));
  }
  return a;
}

std::vector<Figure> figures(const BenchOptions& o) {
  const auto pt = [&o](Net net, int hw, const MachineConfig& m,
                       const EnginePolicy& p, int layers = -1) {
    return Point{net, hw, layers, o.seed, m, p};
  };
  const auto rvv = [](unsigned bits) {
    return sim::rvv_gem5().with_vlen(bits);
  };
  const EnginePolicy opt3 = EnginePolicy::opt3loop();
  const EnginePolicy naive = EnginePolicy::naive();
  const EnginePolicy wino = EnginePolicy::winograd();
  std::vector<std::uint64_t> l2s = {1 << 20, 8 << 20, 64 << 20, 256 << 20};
  if (o.quick) l2s.resize(2);
  const std::string top = std::to_string(l2s.back() >> 20) + "MB";
  const auto square = [](int n) {
    return std::to_string(n) + "x" + std::to_string(n);
  };
  const std::string yolo_scale =
      "YOLOv3 input: " + square(o.input_hw) + " (paper: 608x608)";
  std::vector<Figure> f;
  const auto add = [&](Labels text, Point p, std::optional<Point> base = {}) {
    f.back().rows.push_back({std::move(text), std::move(p), std::move(base)});
  };
  // The VL x L2 sweeps of Figs. 7-10.
  const auto sweep = [&](Net net, int hw, const MachineConfig& m,
                         std::vector<unsigned> vls, const EnginePolicy& p) {
    for (unsigned bits : vls)
      for (std::uint64_t l2 : l2s)
        add({vl(bits), std::to_string(l2 >> 20) + "MB"},
            pt(net, hw, m.with_vlen(bits).with_l2_size(l2), p));
  };
  const std::vector<std::pair<std::string, int>> sweep_cols = {
      {"vector length", kText}, {"L2 size", kText + 1}, {"cycles (M)", kCycles},
      {"speedup vs 512b/1MB", kSpeedup}, {"L2 miss rate %", kMiss}};
  const auto vl_gain = gains({{{"512-bit", "1MB"}, {"2048-bit", "1MB"}}});

  const std::string long_vl = "fig6-table3-long-vl";
  f.push_back({"fig6", "Fig. 6 — vector-length scaling (RVV @ gem5, 1 MB L2)",
               "Fig. 6", yolo_scale,
               {{"vector length", kText}, {"cycles (M)", kCycles},
                {"speedup vs 512-bit", kSpeedup}, {"L2 miss rate %", kMiss}},
               Base::First});
  for (unsigned bits : vlens(o.quick ? 4096 : 16384))
    add({vl(bits)}, pt(Net::Yolo20, o.input_hw, rvv(bits), opt3));
  const std::vector<Row> vl_rows = f.back().rows;  // shared with Table III
  f.back().claims = {
      {"monotone speedup", "monotone to 16384-bit", at(), 0, kAny, long_vl, 1},
      {"~2-3x at the longest VL", "2.5x at 16384-bit", at({-1}), 2, 3,
       long_vl},
      {"flattening beyond 8192-bit", "saturating: 8192->16384-bit 1-1.1x",
       gains({{{"8192-bit"}, {"16384-bit"}}}), 1, 1.1, long_vl}};

  f.push_back({"fig7",
               "Fig. 7 — L2 size scaling per vector length (RVV @ gem5)",
               "Fig. 7", yolo_scale, sweep_cols, Base::PerGroup});
  f.back().cols[3].first = "speedup vs 1MB";
  const auto fig7_vls =
      o.quick ? std::vector<unsigned>{512, 4096} : vlens(16384);
  sweep(Net::Yolo20, o.input_hw, sim::rvv_gem5(), fig7_vls, opt3);
  std::vector<int> largest_l2;  // each VL's last row
  for (std::size_t i = 1; i <= fig7_vls.size(); ++i)
    largest_l2.push_back(static_cast<int>(i * l2s.size()) - 1);
  f.back().claims = {
      {"gains from larger L2 grow with VL", "1.5x short VLs, 1.7-1.9x long VLs",
       at(largest_l2), 0, kAny, "", 1},
      {"the longest VLs converge at the largest cache",
       "~5% gap 8192 vs 16384 @ 256MB: 0.9-1.1x",
       gains({{{"8192-bit", "256MB"}, {"16384-bit", "256MB"}}}), 0.9, 1.1}};

  const EnginePolicy sve_gemm = opt6_tuned(sim::sve_gem5());
  f.push_back({"fig8", "Fig. 8 — VL x L2 sweep, im2col+GEMM (ARM-SVE @ gem5)",
               "Fig. 8", yolo_scale, sweep_cols, Base::First});
  sweep(Net::Yolo20, o.input_hw, sim::sve_gem5(), vlens(2048), sve_gemm);
  f.back().claims = {{"both longer vectors and larger caches help",
                      "1.34x from VL @ 1MB, 1.6x from L2 @ 2048-bit",
                      gains({{{"512-bit", "1MB"}, {"2048-bit", "1MB"}},
                             {{"2048-bit", "1MB"}, {"2048-bit", top}}}),
                      1}};

  const std::string vl_gain_rec = "fig9-fig10-vl-gain";
  f.push_back({"fig9",
               "Fig. 9 — VL x L2 sweep, Winograd-enabled YOLOv3 "
               "(ARM-SVE @ gem5)",
               "Fig. 9", yolo_scale, sweep_cols, Base::First});
  sweep(Net::Yolo20, o.input_hw, sim::sve_gem5(), vlens(2048), wino);
  const auto vs_gemm = [=](const Results& rs) {  // Fig. 9's, then Fig. 8's
    auto v = gains({{{"2048-bit", "1MB"}, {"2048-bit", top}}})(rs);
    const auto fig8 = [&](std::uint64_t l2) {
      const auto m = sim::sve_gem5().with_vlen(2048).with_l2_size(l2);
      return run(pt(Net::Yolo20, o.input_hw, m, sve_gemm)).cycles;
    };
    v.push_back(ratio(fig8(l2s.front()), fig8(l2s.back())));
    return v;
  };
  f.back().claims = {
      {"VL gain ~1.4x", "1.4x (512->2048-bit @ 1MB): 1.12-1.68x", vl_gain,
       1.12, 1.68, vl_gain_rec},
      {"cache gain present but smaller than GEMM's",
       "1.75x to 256MB; ours, then Fig. 8's, @ 2048-bit", vs_gemm, 1, kAny,
       "", 1}};

  const std::string vgg_scale =
      "VGG16 input: " + square(o.vgg_input_hw) + " (paper: 224x224)";
  f.push_back({"fig10",
               "Fig. 10 — VL x L2 sweep, Winograd VGG16 (ARM-SVE @ gem5)",
               "Fig. 10", vgg_scale, sweep_cols, Base::First});
  sweep(Net::Vgg16, o.vgg_input_hw, sim::sve_gem5(), vlens(2048), wino);
  std::vector<std::pair<Labels, Labels>> beyond_64mb;
  for (unsigned bits : vlens(2048))
    beyond_64mb.push_back({{vl(bits), "64MB"}, {vl(bits), "256MB"}});
  f.back().claims = {
      {"1.4x from 512 -> 2048-bit", "1.4x: 1.12-1.68x", vl_gain, 1.12, 1.68,
       vl_gain_rec},
      {"cache gains flatten at moderate sizes",
       "no benefit beyond 64MB: under 1.05x", gains(beyond_64mb), 0, 1.05}};

  f.push_back({"table2", "Table II — 6-loop block sizes vs 3-loop (RVV @ gem5)",
               "Table II",
               yolo_scale + "; normalized performance = 3-loop / 6-loop "
                            "cycle ratio (1.0 means parity; <1 means the "
                            "6-loop is slower):",
               {{"block sizes (MxNxK)", kText}, {"6-loop Mcycles", kCycles},
                {"3-loop Mcycles", kBaseCycles},
                {"normalized perf (ours)", kNorm},
                {"normalized perf (paper)", kText + 1}},
               Base::Given, core::conv_cycles});
  const std::pair<gemm::BlockSizes, const char*> candidates[] = {
      {{128, 1024, 256}, "0.90"}, {{16, 1024, 128}, "0.95"},
      {{16, 512, 128}, "0.98"},   {{16, 512, 256}, "0.96"},
      {{32, 512, 128}, "0.97"},   {{64, 1024, 128}, "0.95"}};
  for (const auto& [blocks, paper] : candidates) {
    gemm::Opt6Config cfg;
    cfg.blocks = blocks;
    add({blocks.to_string(), paper},
        pt(Net::Yolo4Conv, o.input_hw, sim::rvv_gem5(),
           EnginePolicy::opt6loop(cfg)),
        pt(Net::Yolo4Conv, o.input_hw, sim::rvv_gem5(), opt3));
  }
  f.back().claims = {{"6-loop should not exceed ~1.0x on RVV",
                      "0.90-0.98 (best: 16x512x128 at 0.98)", at(), 0, 1}};

  f.push_back({"table3",
               "Table III — average vector length & L2 miss rate (RVV @ gem5)",
               "Table III", yolo_scale,
               {{"vector length", kText}, {"avg VL bits (ours)", kAvgVl},
                {"avg VL bits (paper)", kText + 1},
                {"L2 miss rate % (ours)", kMiss},
                {"L2 miss rate % (paper)", kText + 2}},
               Base::None, total_cycles, vl_rows});
  const char* paper_vl[][2] = {{"512.0", "32"},  {"1022.9", "36"},
                               {"2041.9", "39"}, {"4063.7", "42"},
                               {"8111.9", "61"}, {"15902.2", "79"}};
  for (std::size_t i = 0; i < vl_rows.size(); ++i)
    f.back().rows[i].text = {vl_rows[i].text[0], paper_vl[i][0],
                             paper_vl[i][1]};
  f.back().claims = {
      {"avg VL tracks the hardware VL closely",
       "avg / hardware VL 0.97-1: at least 0.9", at({}, 2), 0.9, 1,
       "table3-avg-vl"},
      {"miss rate grows monotonically with VL", "32 36 39 42 61 79 %",
       at({}, 1), 0, kAny, long_vl, 1}};

  // x = {AI, % of peak, rank by % of peak (1 = strongest)}.
  const int n_scale = o.quick ? 512 : 64;
  const auto roofline = [n_scale] {
    const char* paper[] = {"46", "72", "50", "77", "70", "81", "75",
                           "82", "83", "78", "75", "91", "83", "75"};
    Results rs;
    for (const auto& e : core::run_roofline(
             sim::a64fx(), opt6_tuned(sim::a64fx()), 608, n_scale))
      rs.push_back({{e.label, Table::fmt_int(e.m), Table::fmt_int(e.n),
                     Table::fmt_int(e.k), Table::fmt(e.arithmetic_intensity, 1),
                     Table::fmt(e.pct_of_peak, 0), paper[rs.size()]},
                    {e.arithmetic_intensity, e.pct_of_peak, 1}});
    for (Result& r : rs)
      for (const Result& other : rs) r.x[2] += other.x[1] > r.x[1];
    return rs;
  };
  const auto by_ai = [](Results rs) {  // mean % of peak, lower/higher-AI half
    std::sort(rs.begin(), rs.end(),
              [](auto& a, auto& b) { return a.x[0] < b.x[0]; });
    std::vector<double> half(2);
    for (std::size_t i = 0; i < rs.size(); ++i)
      half[2 * i >= rs.size()] += rs[i].x[1] / (rs.size() / 2);
    return half;
  };
  const std::string spread = "table4-roofline-spread";
  f.push_back(
      {"table4", "Table IV — per-layer roofline on A64FX", "Table IV",
       "YOLOv3 layer shapes at 608x608 with N divided by " +
           std::to_string(n_scale) +
           "; AI (of the 608x608 shapes) = 2MNK / 4(MN+KN+MK); peak = 62.5 "
           "GFLOP/s per core:",
       {{"layer", 0}, {"M", 0}, {"N", 0}, {"K", 0}, {"AI (ours)", 0},
        {"% peak (ours)", 0}, {"% peak (paper)", 0}},
       Base::None, total_cycles, {{.custom = roofline}},
       {{"%-of-peak increases with AI",
         "46 % at AI 7.3 .. 91 %; lower- then higher-AI half", by_ai, 0, kAny,
         "", 1},
        {"L1 (AI 7.3) is the weakest", "rank 14 of 14 (46 %)", at({0}, 2), 14,
         14, spread},
        {"L61/L62 among the strongest", "ranks 1, 2 (91, 83 %): top 4",
         at({11, 12}, 2), 1, 4, spread}}});

  f.push_back({"lanes", "§VI-B(c) — vector-lane scaling (RVV @ gem5, 1 MB L2)",
               "Section VI-B(c), unplotted experiment", yolo_scale,
               {{"vector length", kText}, {"lanes", kText + 1},
                {"cycles (M)", kCycles}, {"speedup vs 2 lanes", kSpeedup}},
               Base::PerGroup});
  for (unsigned bits : o.quick ? std::vector<unsigned>{512, 8192}
                               : std::vector<unsigned>{512, 2048, 8192})
    for (unsigned n : {2u, 4u, 8u})
      add({vl(bits), std::to_string(n)},
          pt(Net::Yolo20, o.input_hw, rvv(bits).with_lanes(n), opt3));
  f.back().claims = {
      {"lane scaling helps long vectors more than short ones",
       "2 -> 8 lanes: 512-bit, then 8192-bit", at({2, -1}), 0, kAny, "", 1},
      {"2 -> 8 lanes gives ~1.25x at 8192-bit", "~1.25x: 1-1.5x", at({-1}),
       1, 1.5, "lanes-gain"},
      {"at 512-bit the benefit saturates beyond 4 lanes",
       "4 -> 8 lanes: under 1.05x",
       gains({{{"512-bit", "4"}, {"512-bit", "8"}}}), 0, 1.05, "lanes-gain"}};

  f.push_back({"unroll", "Ablation — 3-loop unroll factor (RVV @ gem5)",
               "Section VI-A (register-utilization tuning)", yolo_scale,
               {{"unroll factor", kText}, {"conv cycles (M)", kCycles},
                {"relative to unroll=16", kRel}, {"note", kText + 1}},
               Base::Given, core::conv_cycles});
  const auto unrolled = [&](int u) {
    return pt(Net::Yolo4Conv, o.input_hw, rvv(2048), EnginePolicy::opt3loop(u));
  };
  std::vector<int> upto16, beyond16;
  for (int u : {1, 2, 4, 8, 16, 24, 32}) {
    if (o.quick && (u == 2 || u == 24)) continue;
    (u <= 16 ? upto16 : beyond16).push_back(f.back().rows.size());
    add({std::to_string(u), u == 16   ? "paper's chosen factor"
                            : u == 32 ? "spills accumulators (paper: ~15% loss)"
                                      : ""},
        unrolled(u), unrolled(16));
  }
  f.back().claims = {
      {"cost falls until ~16", "falls up to 16", inv(upto16), 0, kAny, "", -1},
      {"flattens: no significant gain beyond 16 registers", "at least 0.95x",
       inv(beyond16), 0.95},
      {"rises again at 32 due to spilling", "~15% loss: 1.12-1.18x",
       inv({-1}), 1.12, 1.18, "unroll-spill-cost"}};

  f.push_back({"blis", "Ablation — BLIS feature toggles per machine",
               "Sections VI-A and VI-C (mechanism breakdown)", yolo_scale,
               {{"machine", kText}, {"variant", kText + 1},
                {"conv cycles (M)", kCycles}, {"vs all-features", kRel}},
               Base::PerGroup, core::conv_cycles});
  const std::tuple<const char*, bool, bool, bool> variants[] = {
      {"all features", true, true, true}, {"no prefetch", true, true, false},
      {"no A packing", false, true, true}, {"no B packing", true, false, true},
      {"blocking only", false, false, false}};
  std::vector<int> removed[2];  // rows lacking a feature: RVV, A64FX
  for (const auto& m : {sim::rvv_gem5(), sim::a64fx()})
    for (const auto& [name, pack_a, pack_b, prefetch] : variants) {
      if (o.quick && std::string(name).rfind("no ", 0) == 0) continue;
      if (!(pack_a && pack_b && prefetch))
        removed[m.name == "a64fx"].push_back(f.back().rows.size());
      EnginePolicy p = opt6_tuned(m);
      p.opt6.pack_a = pack_a;
      p.opt6.pack_b = pack_b;
      p.opt6.prefetch = prefetch;
      add({m.name, name}, pt(Net::Yolo4Conv, o.input_hw, m, p));
    }
  f.back().claims = {
      {"removing features hurts A64FX clearly",
       "each feature contributes: at least 1.05x", inv(removed[1]), 1.05,
       kAny, "blis-a64fx-packing"},
      {"but moves RVV little", "0.9-1.1x", inv(removed[0]), 0.9, 1.1}};

  // x = {multiplication reduction, max |err| at magnitude 1 and 8 (1e-6),
  // reduction gained over the previous variant}.
  const int seeds = o.quick ? 3 : 10;
  const auto tiles = [seeds] {
    Results rs;
    for (const auto* v : {&winograd::f2x3(), &winograd::f4x3(),
                          &winograd::f6x3_variant()}) {
      double err[2] = {};
      for (std::uint64_t s = 1; s <= static_cast<std::uint64_t>(seeds); ++s)
        for (int i = 0; i < 2; ++i)
          err[i] = std::max(err[i], winograd::variant_max_error(
                                        *v, 48, 48, s, i ? 8.0f : 1.0f));
      const std::string tile = std::to_string(v->in_tile);
      const double red = v->arithmetic_reduction();
      rs.push_back({{v->name, tile + "x" + tile, x2(red),
                     Table::fmt(err[0] * 1e6, 1) + "e-6",
                     Table::fmt(err[1] * 1e6, 1) + "e-6"},
                    {red, err[0] * 1e6, err[1] * 1e6,
                     red - (rs.empty() ? 1.0 : rs.back().x[0])}});
    }
    return rs;
  };
  f.push_back(
      {"tilesize", "Tile-size study — accuracy vs arithmetic reduction",
       "Section IV-B (design rationale for 8x8 tiles)",
       "48x48 images, " + std::to_string(seeds) + " seeds per variant",
       {{"variant", 0}, {"tile", 0}, {"mult. reduction", 0},
        {"max |err| (mag 1)", 0}, {"max |err| (mag 8)", 0}},
       Base::None, total_cycles, {{.custom = tiles}},
       {{"error grows with tile size", "accuracy drops: max |err| (mag 1)",
         at({}, 1), 0, kAny, "", 1},
        {"the multiplication reduction saturates",
         "2.25 4 5.06x: gain per step falls", at({1, 2}, 3), 0, kAny, "",
         -1}}});

  // The naive baseline is extremely slow to simulate; use a smaller input.
  const int tiny_hw = o.quick ? 64 : 128, layers = o.quick ? 6 : 12;
  const std::string yolo = "YOLOv3 (" + std::to_string(layers) + " layers)";
  f.push_back({"speedups", "§VI-A/§VI-C — optimization speedup summary",
               "Sections VI-A and VI-C (scalar results)",
               "YOLOv3-tiny and the naive-baseline points at " +
                   square(tiny_hw) + ", the other YOLOv3 points at " +
                   square(o.input_hw) + " (paper: 608x608 / 416x416)",
               {{"comparison", kText}, {"machine", kText + 1},
                {"workload", kText + 2}, {"speedup (ours)", kSpeedup},
                {"speedup (paper)", kText + 3}},
               Base::Given, core::conv_cycles});
  add({"opt 3-loop vs naive", "RVV @ gem5", "YOLOv3-tiny", "14x"},
      pt(Net::Tiny, tiny_hw, sim::rvv_gem5(), opt3),
      pt(Net::Tiny, tiny_hw, sim::rvv_gem5(), naive));
  const std::pair<MachineConfig, const char*> machines[] = {
      {sim::rvv_gem5(), "~1.0x (Table II)"},
      {sim::sve_gem5(), "1.15x"},
      {sim::a64fx(), "2x"}};
  for (const auto& [m, paper] : machines)
    add({"opt 6-loop vs opt 3-loop", m.name, yolo, paper},
        pt(Net::Yolo, o.input_hw, m, opt6_tuned(m), layers),
        pt(Net::Yolo, o.input_hw, m, opt3, layers));
  // Isolated GEMM kernel (YOLOv3 L10 shape, N reduced): the paper's 2x
  // refers to the GEMM kernel itself; whole-network numbers above are
  // diluted by im2col and the auxiliary kernels.
  f.back().rows.push_back({.custom = [] {
    const int m = 256, n = 1444, k = 1152;
    const auto cycles = [&](gemm::GemmVariant v) {
      AlignedBuffer<float> a(static_cast<std::size_t>(m) * k);
      AlignedBuffer<float> b(static_cast<std::size_t>(k) * n);
      AlignedBuffer<float> c(static_cast<std::size_t>(m) * n, 0.0f);
      Rng rng(3);
      for (auto& x : a) x = rng.uniform(-1.0f, 1.0f);
      for (auto& x : b) x = rng.uniform(-1.0f, 1.0f);
      sim::RegisteredRange ra(a.data(), a.size() * 4),
          rb(b.data(), b.size() * 4), rc(c.data(), c.size() * 4);
      sim::SimContext sctx(sim::a64fx());
      vla::VectorEngine eng(sctx);
      gemm::make_gemm_fn(v, {}, opt6_tuned(sim::a64fx()).opt6)(
          eng, m, n, k, 1.0f, a.data(), k, b.data(), n, c.data(), n);
      return sctx.cycles();
    };
    const double s = ratio(cycles(gemm::GemmVariant::Opt3Loop),
                           cycles(gemm::GemmVariant::Opt6Loop));
    return Results{{{"opt 6-loop vs opt 3-loop", "a64fx",
                     "GEMM kernel (L10 shape)", x2(s), "2x"},
                    {s}}};
  }});
  add({"opt 6-loop vs naive", "a64fx", yolo, "32x"},
      pt(Net::Yolo, tiny_hw, sim::a64fx(), opt6_tuned(sim::a64fx()), layers),
      pt(Net::Yolo, tiny_hw, sim::a64fx(), naive, layers));
  f.back().claims = {
      {"vectorized+optimized beats naive by an order of magnitude",
       "14x (3-loop), 32x (6-loop): at least 10x", at({0, 5}), 10, kAny,
       "speedups-vs-naive"},
      {"the 6-loop only pays off on A64FX: not on RVV, SVE",
       "~1.0x, 1.15x: at most 1.05x", at({1, 2}), 0, 1.05},
      {"the 6-loop only pays off on A64FX: network, kernel",
       "2x: at least 1.05x", at({3, 4}), 1.05, kAny, "a64fx-6loop"}};

  // Winograd falls back to the A64FX-tuned GEMM; on YOLOv3 stride 2 runs
  // Winograd too, to measure its slowdown.
  const EnginePolicy gemm = opt6_tuned(sim::a64fx());
  EnginePolicy wino6 = wino;
  wino6.opt6 = gemm.opt6;
  f.push_back({"wino_vs_gemm",
               "§VII-A — Winograd vs optimized im2col+GEMM (A64FX)",
               "Section VII-A", vgg_scale + ", " + yolo_scale,
               {{"workload", kText}, {"metric", kText + 1},
                {"speedup (ours)", kSpeedup}, {"speedup (paper)", kText + 2}},
               Base::Given});
  const auto vgg = [&](const MachineConfig& m, const EnginePolicy& p) {
    return pt(Net::Vgg16, o.vgg_input_hw, m, p);
  };
  add({"VGG16", "whole network", "1.5x"}, vgg(sim::a64fx(), wino6),
      vgg(sim::a64fx(), gemm));
  // YOLOv3 prefix: the whole network plus the per-stride 3x3 conv split.
  const int n = o.quick ? 12 : 24;
  EnginePolicy wino_s2 = wino6;
  wino_s2.winograd_stride2 = true;
  const Point split[2] = {pt(Net::Yolo, o.input_hw, sim::a64fx(), gemm, n),
                          pt(Net::Yolo, o.input_hw, sim::a64fx(), wino_s2, n)};
  const std::string yolo_n = "YOLOv3 (" + std::to_string(n) + " layers)";
  f.back().rows.push_back({.custom = [split, yolo_n] {
    std::uint64_t c[2][3] = {};  // [gemm, winograd][whole, 3x3/s1, 3x3/s2]
    for (int i = 0; i < 2; ++i)
      for (const auto& rec : run(split[i]).layers) {
        c[i][0] += rec.cycles;
        if (rec.name.rfind("conv ", 0) != 0) continue;
        if (rec.name.ends_with(" 3x3/1")) c[i][1] += rec.cycles;
        if (rec.name.ends_with(" 3x3/2")) c[i][2] += rec.cycles;
      }
    const Labels text[3] = {
        {yolo_n, "whole network", "1.35x (full model)"},
        {"YOLOv3 3x3/s1 layers", "conv layers only", "2.4x"},
        {"YOLOv3 3x3/s2 layers", "conv layers only", "0.71x (1.4x slower)"}};
    Results rs;
    for (int j = 0; j < 3; ++j) {
      const double s = ratio(c[0][j], c[1][j]);
      rs.push_back({{text[j][0], text[j][1], x2(s), text[j][2]}, {s}});
    }
    return rs;
  }});
  const std::pair<unsigned, const char*> sve_paper[] = {
      {512, "1.4x"}, {1024, "1.5x"}, {2048, "1.3x"}};
  for (const auto& [bits, paper] : sve_paper)
    add({"VGG16, SVE@gem5 " + vl(bits), "whole network", paper},
        vgg(sim::sve_gem5().with_vlen(bits), wino6),
        vgg(sim::sve_gem5().with_vlen(bits), gemm));
  f.back().claims = {
      {"Winograd wins on every stride-1 3x3 workload",
       "1.5x VGG16, 2.4x 3x3/s1 layers", at({0, 2}), 1},
      {"loses on stride-2", "0.71x", at({3}), 0, 1},
      {"the win holds across vector lengths", "1.4x 1.5x 1.3x (SVE, 1MB)",
       at({4, 5, 6}), 1, kAny, "wino-sve-vl"}};

  // Beyond the paper: where the simulated DRAM traffic of a conv layer
  // goes. x = {weight-bound, fused DRAM cut, b4 / b1 weight DRAM per item};
  // NaN where the layer's point is not run.
  //
  // 128x128, not the 64x64 of the cycle figures: below it VGG's last conv
  // block collapses to a 4x4 extent whose im2col workspace fits L2 outright.
  // Those layers become pure weight streaming (M*K dominates K*N), which no
  // fusion can cut, and the per-layer cut would bottom out for a reason
  // unrelated to the pipeline under test.
  const int fused_hw = o.quick ? 32 : 128;
  const auto fused_rows = [hw = fused_hw, quick = o.quick, seed = o.seed] {
    const MachineConfig m = sim::sve_gem5();
    gemm::Opt6Config o6;
    o6.blocks = gemm::tune_block_sizes(m);
    const EnginePolicy unfused = EnginePolicy::opt6loop(o6);
    const EnginePolicy fused = EnginePolicy::fused(/*use_winograd=*/false, o6);
    EnginePolicy resident = fused;
    resident.weight_resident = true;
    std::vector<LayerCase> convs;
    {  // the network's weights (FC layers included) are freed before the runs
      const std::unique_ptr<dnn::Network> net = dnn::build_vgg16(hw, -1, seed);
      for (std::size_t i = 0; i < net->num_layers(); ++i)
        if (const auto* c =
                dynamic_cast<const dnn::ConvLayer*>(&net->layer(i)))
          convs.push_back({"vgg L" + std::to_string(i) + " " + c->name(),
                           c->desc(), 0, 0, 1000 + i});
    }
    // --quick runs the first 6 layers, and the last 2 weight-bound ones
    // for the weight-resident columns.
    const std::size_t swept = quick ? std::min<std::size_t>(6, convs.size())
                                    : convs.size();
    std::vector<std::size_t> bound;
    for (std::size_t i = 0; i < convs.size(); ++i)
      if (core::conv_weight_bound(convs[i].desc)) bound.push_back(i);
    if (quick && bound.size() > 2) bound.erase(bound.begin(), bound.end() - 2);
    Results rs;
    for (std::size_t i = 0; i < convs.size(); ++i) {
      const LayerCase& c = convs[i];
      const bool resident_run =
          std::find(bound.begin(), bound.end(), i) != bound.end();
      if (i >= swept && !resident_run) continue;
      Result r{{c.name},
               {core::conv_weight_bound(c.desc) ? 1.0 : 0.0, NAN, NAN}};
      if (i < swept) {
        const auto [dram_u, eng_u] = conv_traffic(c, unfused, m);
        const auto [dram_f, eng_f] = conv_traffic(c, fused, m);
        r.x[1] = (dram_u - dram_f) / dram_u;
        r.cells.insert(r.cells.end(),
                       {mb(dram_u, 2), mb(dram_f, 2), pct(dram_u, dram_f),
                        mb(eng_u, 2), mb(eng_f, 2), pct(eng_u, eng_f)});
      } else {
        r.cells.insert(r.cells.end(), 6, "-");
      }
      if (resident_run) {
        const auto per_item = [&](int batch) {
          return weight_traffic(c, core::BackendPlan::uniform(resident), m,
                                batch)
              .dram_per_item;
        };
        const double b1 = per_item(1), b4 = per_item(4);
        r.x[2] = b4 / b1;
        r.cells.insert(r.cells.end(), {mb(b1, 2), mb(b4, 2)});
      } else {
        r.cells.insert(r.cells.end(), 2, "-");
      }
      rs.push_back(std::move(r));
    }
    return rs;
  };
  f.push_back(
      {"fused", "Beyond the paper — fused vs unfused conv pipeline",
       "the im2col+GEMM pipeline's DRAM traffic (implicit-GEMM packing, "
       "in-kernel epilogue, weight residency)",
       "VGG16 conv layers at " + square(fused_hw) +
           " on arm-sve-gem5 (1 MB L2), opt6 with tuned blocks. DRAM: "
           "simulated line fills; eng: every kernel load and store; wt "
           "DRAM: weight-stream fills per item, weight-resident, at batch 1 "
           "and 4 on the weight-bound layers:",
       {{"layer", 0}, {"DRAM MB unfused", 0}, {"DRAM MB fused", 0},
        {"DRAM saved", 0}, {"eng MB unfused", 0}, {"eng MB fused", 0},
        {"eng saved", 0}, {"wt DRAM MB/item b1", 0}, {"b4", 0}},
       Base::None, total_cycles, {{.custom = fused_rows}},
       {{"the fused pipeline should cut DRAM bytes per conv layer by >= 30% "
         "on the VGG-style shapes",
         "beyond the paper: >= 30% per non-weight-bound layer",
         where([](const auto& x) { return x[0] == 0 && !std::isnan(x[1]); },
               1),
         0.30, kAny, "fused-dram-cut"},
        {"per-item weight DRAM bytes at batch 4 should drop >= 2x vs batch 1 "
         "on these layers",
         "beyond the paper: b4 <= 0.5x b1 per weight-bound layer",
         where([](const auto& x) { return !std::isnan(x[2]); }, 2), 0,
         0.5}}});

  // Beyond the paper: weight-resident batch-fused execution of the
  // weight-bound layer set (VGG block 5 at the fused figure's 128x128, the
  // FC tail at 64x64; --quick shrinks channels and keeps M >= N) in each
  // resident format. x = {format index, batch, DRAM over batch 1's,
  // f32-resident DRAM over this row's, DRAM over f32's at batch 1, max ULP,
  // max abs err / max |ref|, batch-fused bit-identical, sparse
  // bit-identical to pruned dense}.
  const auto reuse_rows = [quick = o.quick] {
    LayerCase vgg5{quick ? "vgg5-conv 256 3x3 (quick)" : "vgg5-conv 512 3x3"};
    vgg5.desc.in_c = vgg5.desc.out_c = quick ? 256 : 512;
    vgg5.desc.in_h = vgg5.desc.in_w = quick ? 4 : 8;
    vgg5.desc.ksize = 3;
    vgg5.desc.stride = 1;
    vgg5.desc.pad = 1;
    vgg5.desc.batch_norm = false;
    vgg5.desc.act = dnn::Activation::Relu;
    vgg5.seed = 1001;
    LayerCase head = vgg5;  // the 1x1 flavour: the dense batched B path
    head.name = quick ? "head-conv 256 1x1 (quick)" : "head-conv 512 1x1";
    head.desc.ksize = 1;
    head.desc.pad = 0;
    head.seed = 1002;
    const LayerCase fc{quick ? "vgg-fc 512x1024 (quick)" : "vgg-fc 2048x4096",
                       {}, quick ? 512 : 2048, quick ? 1024 : 4096, 1003};
    const MachineConfig m = sim::sve_gem5();
    std::map<std::pair<std::string, int>, double> f32;  // (layer, batch)
    Results rs;
    for (std::size_t i = 0; i < std::size(kFormats); ++i) {
      const Format& fmt = kFormats[i];
      for (const LayerCase& c : {vgg5, head, fc}) {
        if (i > 0 && c.fc_out > 0) continue;  // FC is measured once, in f32
        const Accuracy acc = i > 0 ? accuracy(c, fmt) : Accuracy{};
        const bool pruned_bits = !gemm::pack_format_sparse(fmt.pack) ||
                                 sparse_matches_pruned_dense(c, fmt);
        double b1 = 0;
        for (int batch : {1, 2, 4, 8}) {
          const bool bits = batch == 1 || batch_bit_identical(c, batch, fmt);
          const WeightTraffic t =
              weight_traffic(c, resident_plan(c, fmt), m, batch);
          const double dram = t.dram_per_item;
          if (batch == 1) b1 = dram;
          if (i == 0) f32[{c.name, batch}] = dram;
          const double vs_f32 = f32[{c.name, batch}] / dram;
          const bool show = i > 0 && (batch == 1 || batch == 4);
          rs.push_back(
              {{c.name, fmt.name, std::to_string(batch), mb(dram, 3),
                x2(dram / b1), show ? x2(vs_f32) : "-",
                t.packed > 0 ? mb(t.packed, 3) : "-",
                i > 0 && batch == 1 ? Table::fmt(acc.max_ulp, 0) : "-",
                i > 0 && batch == 1 ? Table::fmt(acc.max_abs_err, 4) : "-",
                batch == 1 ? "-" : bits ? "yes" : "NO"},
               {static_cast<double>(i), static_cast<double>(batch), dram / b1,
                vs_f32, dram / f32[{c.name, 1}], acc.max_ulp,
                acc.max_abs_err / acc.max_abs_ref, bits ? 1.0 : 0.0,
                pruned_bits ? 1.0 : 0.0}});
        }
      }
    }
    return rs;
  };
  // Rows of format `fmt` (-1: every format) at `batch` (0: every batch
  // above 1).
  const auto rows_of = [](int fmt, int batch) {
    return [=](const std::vector<double>& x) {
      return (fmt < 0 || x[0] == fmt) && (batch ? x[1] == batch : x[1] > 1);
    };
  };
  f.push_back(
      {"reuse",
       "Beyond the paper — weight-resident batch-fused execution per format",
       "per-item weight DRAM traffic vs batch on weight-bound layers, in "
       "reduced-precision and block-sparse resident formats",
       "Weight-bound layers (shapes as named) on arm-sve-gem5 (1 MB L2). wt "
       "DRAM: simulated fills of the weights and the resident image, per "
       "item; vs f32: the f32 rows' DRAM over this row's; max ULP / abs err: "
       "batch-1 output vs f32 (sparse accuracy is reported, not gated):",
       {{"layer", 0}, {"fmt", 0}, {"batch", 0}, {"wt DRAM MB/item", 0},
        {"vs b1", 0}, {"vs f32", 0}, {"packed MB", 0}, {"max ULP", 0},
        {"max abs err", 0}, {"bit-identical", 0}},
       Base::None, total_cycles, {{.custom = reuse_rows}}});
  f.back().claims = {
      {"batch 4 must sit at <= 0.5x batch 1", "beyond the paper: <= 0.5x",
       where(rows_of(-1, 4), 2), 0, 0.5},
      {"batch-fused outputs are bit-identical to the per-item path",
       "beyond the paper: every layer, format and batch 2, 4, 8",
       where(rows_of(-1, 0), 7), 1, 1},
      {"bf16 halves the resident stream vs fp32",
       "beyond the paper: >= 1.8x at batch 4", where(rows_of(1, 4), 3), 1.8},
      {"bf16 stays inside the pinned accuracy gate",
       "beyond the paper: max ULP <= " +
           std::to_string(core::kBf16OutputMaxUlp),
       where(rows_of(1, 1), 5), 0,
       static_cast<double>(core::kBf16OutputMaxUlp)},
      {"int8 quarters the resident stream vs fp32",
       "beyond the paper: >= 3.5x at batch 4", where(rows_of(2, 4), 3), 3.5},
      {"int8 at batch 4 reaches <= 0.3x the fp32 batch-1 stream",
       "beyond the paper: <= 0.3x", where(rows_of(2, 4), 4), 0, 0.3},
      {"int8 stays inside the pinned accuracy gate",
       "beyond the paper: max abs err <= " +
           Table::fmt(core::kInt8OutputRelTol, 4) + "x max |ref|",
       where(rows_of(2, 1), 6), 0,
       static_cast<double>(core::kInt8OutputRelTol)}};
  for (int i : {3, 4}) {
    const double density = kFormats[i].density_pm / 1000.0;
    f.back().claims.push_back(
        {std::string(kFormats[i].name) +
             " shrinks the resident stream ~density-fold",
         "beyond the paper: <= density + 0.05 of fp32 at batch 4",
         where(rows_of(i, 4), 3, true), 0, density + 0.05});
  }
  f.back().claims.push_back(
      {"the fp32 sparse path stays bit-identical to "
       "dense-over-pruned-weights",
       "beyond the paper: sparse50, sparse25",
       where([](const auto& x) { return x[0] >= 3 && x[1] == 1; }, 8), 1, 1});
  return f;
}

/// Runs a figure's rows, prints its table and evaluates its claims; `tally`
/// counts {PASS, recorded DEVIATION, unrecorded DEVIATION, n/a}.
void run_figure(const Figure& f, int (&tally)[4]) {
  std::printf("== %s ==\nreproduces: %s\n\n", f.title.c_str(), f.ref.c_str());
  std::fflush(stdout);
  Results results;
  std::map<std::string, Point> firsts;  // Base::First / Base::PerGroup
  for (const Row& row : f.rows) {
    if (row.custom) {
      for (Result& r : row.custom()) results.push_back(std::move(r));
      continue;
    }
    std::optional<Point> base = row.base;
    if (f.base == Base::First || f.base == Base::PerGroup)
      base = firsts.try_emplace(f.base == Base::First ? "" : row.text[0],
                                *row.point).first->second;
    const RunResult* b = base ? &run(*base) : nullptr;  // baseline first
    const RunResult& r = run(*row.point);
    Result res{{}, {b ? ratio(f.metric(*b), f.metric(r)) : 0,
                    100.0 * r.l2_miss_rate, r.avg_vl_bits / r.vlen_bits},
               &r};
    for (const auto& col : f.cols)
      res.cells.push_back(cell(col.second, row, r, b, f.metric));
    results.push_back(std::move(res));
  }
  Labels headers;
  for (const auto& col : f.cols) headers.push_back(col.first);
  Table table(headers);
  for (const Result& r : results) table.add_row(r.cells);
  table.print(f.caption);

  Table claims({"claim", "paper", "ours", "verdict"});
  for (const Claim& c : f.claims) {
    const std::vector<double> v = c.values(results);
    bool pass = true;
    std::string ours;
    for (std::size_t i = 0; i < v.size(); ++i) {
      pass = pass && v[i] >= c.lo && v[i] <= c.hi &&
             (i == 0 || c.trend * (v[i] - v[i - 1]) > 0 || c.trend == 0);
      char buf[32];
      std::snprintf(buf, sizeof buf, "%s%.3g", i ? " " : "", v[i]);
      ours += buf;
    }
    const int k = v.empty() ? 3 : pass ? 0 : c.recorded.empty() ? 2 : 1;
    ++tally[k];
    const std::string verdicts[] = {
        "PASS", "DEVIATION (recorded: EXPERIMENTS.md#" + c.recorded + ")",
        "DEVIATION", "n/a (points not run)"};
    claims.add_row({c.text, c.paper, v.empty() ? "-" : ours, verdicts[k]});
  }
  std::printf("\n");
  claims.print("Claims:");
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliArgs args(argc, argv);
    args.require_known({"figure", "input", "vgg-input", "quick", "seed"});
    const BenchOptions opt{
        static_cast<int>(args.get_int("input", 96)),
        static_cast<int>(args.get_int("vgg-input", 64)),
        args.get_bool("quick", false),
        static_cast<std::uint64_t>(args.get_int("seed", 1234))};
    const std::string only = args.get("figure", "");
    const std::vector<Figure> figs = figures(opt);
    std::string ids;
    for (const Figure& f : figs) ids += " " + f.id;
    if (args.has("figure") &&
        (ids + " ").find(" " + only + " ") == std::string::npos) {
      std::fprintf(stderr, "unknown --figure=%s; valid ids:%s\n", only.c_str(),
                   ids.c_str());
      return 1;
    }
    int tally[4] = {};
    for (const Figure& f : figs)
      if (!args.has("figure") || f.id == only) run_figure(f, tally);
    std::printf("claims: %d PASS, %d recorded DEVIATION, %d unrecorded "
                "DEVIATION, %d n/a\n",
                tally[0], tally[1], tally[2], tally[3]);
    return tally[2] == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_paper: %s\n", e.what());
    return 1;
  }
}
