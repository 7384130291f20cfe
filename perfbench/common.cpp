#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/percentile.hpp"
#include "common/rng.hpp"
#include "core/codesign.hpp"
#include "core/cost_model.hpp"
#include "core/selector.hpp"
#include "dnn/layers.hpp"
#include "dnn/models.hpp"
#include "gemm/blocking.hpp"
#include "perfbench.hpp"
#include "sim/sim_context.hpp"

namespace perfbench {

using namespace vlacnn;

double median(const std::vector<double>& v) { return percentile(v, 0.5); }

double min_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

Tail tail_of(const std::vector<double>& v) {
  Tail t;
  t.n = v.size();
  if (v.empty()) return t;
  const double p = 1.0 - 10.0 / static_cast<double>(v.size());
  t.pct = p > 0.5 ? 100.0 * p : 50.0;
  t.value = percentile(v, t.pct / 100.0);
  return t;
}

void print_series(const char* name, const std::vector<double>& v,
                  double scale) {
  std::printf("%s:", name);
  for (double x : v) std::printf(" %.1f", x * scale);
  std::printf("\n");
}

double peak_rss_mb() {
  double self_kb = 0.0;
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) self_kb = std::stod(line.substr(6));
  rusage children{};
  getrusage(RUSAGE_CHILDREN, &children);
  return std::max(self_kb, static_cast<double>(children.ru_maxrss)) / 1024.0;
}

std::vector<SimConfig> paper_configs() {
  return {
      {"rvv512-l2_1m-gemm",
       sim::rvv_gem5().with_vlen(512).with_l2_size(1ull << 20),
       core::EnginePolicy::opt6loop()},
      {"rvv16k-l2_256m-gemm",
       sim::rvv_gem5().with_vlen(16384).with_l2_size(256ull << 20),
       core::EnginePolicy::opt6loop()},
      {"sve2048-l2_1m-winograd",
       sim::sve_gem5().with_vlen(2048).with_l2_size(1ull << 20),
       core::EnginePolicy::winograd()},
  };
}

dnn::Tensor copy_tensor(const dnn::Tensor& t) {
  dnn::Tensor c(t.n(), t.c(), t.h(), t.w());
  std::memcpy(c.data(), t.data(), t.size() * sizeof(float));
  return c;
}

namespace {

/// The input tensors a layer consumes, resolved the way Network::forward
/// resolves them.
std::vector<const dnn::Tensor*> layer_inputs(dnn::Network& net, std::size_t i,
                                             const dnn::Tensor& input) {
  std::vector<const dnn::Tensor*> ins;
  for (int idx : net.layer(i).input_indices())
    ins.push_back(idx < 0 ? &input
                          : &net.layer(static_cast<std::size_t>(idx)).output());
  return ins;
}

Module module_of(dnn::ExecContext& ctx, const dnn::Layer& layer) {
  const auto* conv = dynamic_cast<const dnn::ConvLayer*>(&layer);
  if (conv == nullptr) return Module::Dnn;
  const std::string label =
      ctx.conv_label ? ctx.conv_label(conv->desc()) : "im2col+gemm";
  return label.find("winograd") != std::string::npos ? Module::Winograd
                                                     : Module::Gemm;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

dnn::Tensor sim_input(const dnn::Network& net, std::uint64_t input_seed) {
  dnn::Tensor input(net.in_c(), net.in_h(), net.in_w());
  Rng rng(input_seed);
  input.randomize(rng, 0.0f, 1.0f);
  return input;
}

std::vector<SimStats> simulate_all(dnn::Network& net,
                                   const std::vector<SimConfig>& configs,
                                   std::uint64_t input_seed,
                                   std::vector<dnn::Tensor>* outputs) {
  std::vector<SimStats> all;
  for (const SimConfig& c : configs) {
    const auto t0 = Clock::now();
    const core::RunResult r =
        core::run_simulated(net, c.machine, c.policy, input_seed);
    SimStats s;
    s.host_s = seconds_between(t0, Clock::now());
    s.cycles = r.cycles;
    s.vinst = r.vector_instructions;
    s.avg_vl = r.avg_vl_elems;
    s.l2_miss_rate = r.l2_miss_rate;
    s.dram_lines = r.dram_lines;
    all.push_back(s);
    if (outputs != nullptr)
      outputs->push_back(copy_tensor(net.layer(net.num_layers() - 1).output()));
  }
  return all;
}

dnn::Tensor reference_forward(dnn::Network& net, const core::BackendPlan& plan,
                              unsigned vlen_bits, const dnn::Tensor& input,
                              double* prepare_s) {
  vla::VectorEngine eng(vlen_bits);
  dnn::ExecContext ctx(eng);
  core::ConvolutionEngine engine(plan);
  engine.install(ctx);
  const auto t0 = Clock::now();
  engine.prepare(net);
  if (prepare_s != nullptr) *prepare_s += seconds_between(t0, Clock::now());
  return copy_tensor(net.forward(ctx, input));
}

bool bitwise_equal(const dnn::Tensor& a, const dnn::Tensor& b) {
  return a.n() == b.n() && a.c() == b.c() && a.h() == b.h() &&
         a.w() == b.w() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

const char* module_name(Module m) {
  switch (m) {
    case Module::Gemm: return "gemm";
    case Module::Winograd: return "winograd";
    case Module::Dnn: return "dnn";
  }
  return "?";
}

void Tracer::write(const std::string& path,
                   const std::string& provenance) const {
  std::ofstream f(path);
  f << "{\"provenance\": " << provenance << ",\n\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "\"ph\": \"X\", \"pid\": 1, \"tid\": %llu, \"ts\": %.3f, "
                  "\"dur\": %.3f",
                  static_cast<unsigned long long>(s.op), s.start_us,
                  s.end_us - s.start_us);
    f << "{\"name\": \"" << json_escape(s.name) << "\", \"cat\": \""
      << s.module << "\", " << buf << ", \"args\": {\"id\": " << s.id
      << ", \"parent\": " << s.parent << ", \"op\": " << s.op;
    for (const auto& [k, v] : s.args) {
      std::snprintf(buf, sizeof buf, "%.17g", v);
      f << ", \"" << k << "\": " << buf;
    }
    f << "}}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  f << "]}\n";
}

ModuleTotals traced_sim_replay(dnn::Network& net, const SimConfig& config,
                               std::uint64_t input_seed, Tracer& tracer,
                               std::uint64_t parent, std::uint64_t op,
                               dnn::Tensor& out) {
  ModuleTotals t;
  const auto t0 = Clock::now();
  const double start_us = tracer.now_us();
  // Same construction order as core::run_simulated, so the simulated
  // address layout of the replay matches an untraced op's.
  core::ConvolutionEngine engine(config.policy);
  t.plan_s = seconds_between(t0, Clock::now());
  sim::SimContext sctx(config.machine);
  vla::VectorEngine eng(sctx);
  dnn::ExecContext ctx(eng);
  engine.install(ctx);
  const dnn::Tensor input = sim_input(net, input_seed);
  const auto tp = Clock::now();
  engine.prepare(net);
  t.prepare_s = seconds_between(tp, Clock::now());
  const std::uint64_t span_id = tracer.add(
      {config.name, "sim", 0, parent, op, start_us, 0.0, {}});
  tracer.add({"core.prepare", "core", 0, span_id, op, tracer.us_at(tp),
              tracer.now_us(), {{"plan_ms", t.plan_s * 1e3}}});

  const std::uint64_t cycles_at_start = sctx.timing().finish();
  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    dnn::Layer& layer = net.layer(i);
    const auto ins = layer_inputs(net, i, input);
    const sim::TimingStats ts0 = sctx.timing().stats();
    const sim::CacheStats l20 = sctx.memory().l2_stats();
    const std::uint64_t dram0 = sctx.memory().dram_line_fills();
    const std::uint64_t before = sctx.timing().finish();
    const auto l0 = Clock::now();
    layer.forward(ctx, ins);
    const auto l1 = Clock::now();
    const std::uint64_t cycles = sctx.timing().finish() - before;
    const sim::TimingStats& ts1 = sctx.timing().stats();
    const sim::CacheStats& l21 = sctx.memory().l2_stats();
    const Module m = module_of(ctx, layer);
    const double host_s = seconds_between(l0, l1);
    t.cycles[static_cast<int>(m)] += cycles;
    t.host_s[static_cast<int>(m)] += host_s;
    t.layers_s += host_s;
    tracer.add({std::to_string(i) + ":" + layer.name(), module_name(m), 0,
                span_id, op, tracer.us_at(l0), tracer.us_at(l1),
                {{"cycles", static_cast<double>(cycles)},
                 {"vinst", static_cast<double>(ts1.vector_instructions -
                                               ts0.vector_instructions)},
                 {"mem_stall_cycles", static_cast<double>(
                                          ts1.mem_stall_cycles -
                                          ts0.mem_stall_cycles)},
                 {"l2_accesses",
                  static_cast<double>(l21.accesses - l20.accesses)},
                 {"l2_misses", static_cast<double>(l21.misses - l20.misses)},
                 {"dram_lines",
                  static_cast<double>(sctx.memory().dram_line_fills() -
                                      dram0)}}});
  }
  t.total_cycles = sctx.cycles() - cycles_at_start;
  t.mem_stall_cycles = sctx.timing().stats().mem_stall_cycles;
  out = copy_tensor(net.layer(net.num_layers() - 1).output());
  t.total_s = seconds_between(t0, Clock::now());
  tracer.span(span_id).end_us = tracer.now_us();
  tracer.span(span_id).args = {
      {"cycles", static_cast<double>(t.total_cycles)}};
  return t;
}

ModuleTotals traced_functional_replay(dnn::Network& net,
                                      const core::BackendPlan& plan,
                                      unsigned vlen_bits,
                                      const dnn::Tensor& input, Tracer& tracer,
                                      std::uint64_t parent, std::uint64_t op,
                                      dnn::Tensor& out) {
  ModuleTotals t;
  const auto t0 = Clock::now();
  const double start_us = tracer.now_us();
  vla::VectorEngine eng(vlen_bits);
  dnn::ExecContext ctx(eng);
  auto tp = Clock::now();
  core::ConvolutionEngine engine(plan);
  engine.install(ctx);
  t.plan_s = seconds_between(tp, Clock::now());
  tp = Clock::now();
  engine.prepare(net);
  t.prepare_s = seconds_between(tp, Clock::now());
  const std::uint64_t span_id = tracer.add(
      {"functional-pass", "vla", 0, parent, op, start_us, 0.0, {}});
  tracer.add({"core.prepare", "core", 0, span_id, op, tracer.us_at(tp),
              tracer.now_us(), {{"plan_ms", t.plan_s * 1e3}}});

  const std::uint64_t bytes_at_start = eng.mem_bytes_moved();
  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    dnn::Layer& layer = net.layer(i);
    const auto ins = layer_inputs(net, i, input);
    const std::uint64_t b0 = eng.mem_bytes_moved();
    const auto l0 = Clock::now();
    layer.forward(ctx, ins);
    const auto l1 = Clock::now();
    const Module m = module_of(ctx, layer);
    const double host_s = seconds_between(l0, l1);
    t.host_s[static_cast<int>(m)] += host_s;
    t.layers_s += host_s;
    tracer.add({std::to_string(i) + ":" + layer.name(), module_name(m), 0,
                span_id, op, tracer.us_at(l0), tracer.us_at(l1),
                {{"engine_bytes",
                  static_cast<double>(eng.mem_bytes_moved() - b0)}}});
  }
  t.engine_bytes = static_cast<double>(eng.mem_bytes_moved() - bytes_at_start);
  out = copy_tensor(net.layer(net.num_layers() - 1).output());
  t.total_s = seconds_between(t0, Clock::now());
  tracer.span(span_id).end_us = tracer.now_us();
  return t;
}

// ------------------------------------------------------------- set-ups

core::BackendPlan analytic_plan(dnn::Network& net, int batch) {
  const sim::MachineConfig machine = sim::a64fx();
  core::BackendPlan tuned;
  tuned.opt6.blocks = gemm::tune_block_sizes(machine);
  const core::CostModel cm(machine, tuned.opt6);
  return core::select_per_layer(net, machine, 7, batch, {},
                                core::CostSource::Analytic, &cm);
}

HostSetup set_up_host(int input_hw, int plan_batch,
                      const MakeInputs& make_inputs) {
  HostSetup s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    s.sched.reset();
    s.engine.reset();
    s.net.reset();
    const auto t0 = Clock::now();
    s.net = dnn::build_yolov3_tiny(input_hw);
    const auto tp = Clock::now();
    s.plan = analytic_plan(*s.net, plan_batch);
    s.plan_s.push_back(seconds_between(tp, Clock::now()));
    s.engine = std::make_unique<core::ConvolutionEngine>(s.plan);
    const auto tq = Clock::now();
    s.engine->prepare(*s.net);
    double prep = seconds_between(tq, Clock::now());
    runtime::SchedulerConfig cfg;
    cfg.threads = kWorkers;
    cfg.vlen_bits = kHostVlenBits;
    s.sched = std::make_unique<runtime::BatchScheduler>(*s.engine, cfg);
    make_inputs(*s.net, s.plan, &prep);
    s.prepare_s.push_back(prep);
    s.setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  return s;
}

// ------------------------------------------------------------ metric sets

void add_setup_metrics(Result& r, const std::vector<double>& setup_s,
                       const std::vector<double>& plan_s,
                       const std::vector<double>& prepare_s) {
  r.add_e2e("setup_s", min_of(setup_s), "s");
  r.add_layer("core.plan_ms", min_of(plan_s) * 1e3, "ms");
  r.add_layer("core.prepare_ms", min_of(prepare_s) * 1e3, "ms");
  std::printf("setup: fastest of %zu, %.3f s\n", setup_s.size(),
              min_of(setup_s));
  print_series("setup_ms", setup_s, 1e3);
}

void add_sim_layer_metrics(Result& r, const std::vector<SimConfig>& configs,
                           const std::vector<SimStats>& untraced,
                           const std::vector<ModuleTotals>& traced) {
  for (std::size_t k = 0; k < configs.size(); ++k) {
    const std::string& c = configs[k].name;
    const SimStats& s = untraced[k];
    const ModuleTotals& t = traced[k];
    r.add_layer("sim.l2_miss_rate." + c, s.l2_miss_rate, "frac");
    r.add_layer("sim.dram_mlines." + c, s.dram_lines / 1e6, "Mlines");
    r.add_layer("sim.mem_stall_mcycles." + c, t.mem_stall_cycles / 1e6,
                "Mcycles");
    r.add_layer("sim.host_ns_per_vinst." + c,
                s.host_s * 1e9 / static_cast<double>(s.vinst), "ns");
    r.add_layer("vla.vinst_m." + c, s.vinst / 1e6, "M");
    r.add_layer("vla.avg_vl_elems." + c, s.avg_vl, "elems");
    for (int m = 0; m < kModules; ++m)
      r.add_layer(std::string(module_name(static_cast<Module>(m))) +
                      ".mcycles." + c,
                  t.cycles[m] / 1e6, "Mcycles");
    for (int m = 0; m < kModules; ++m)
      r.add_layer(std::string(module_name(static_cast<Module>(m))) +
                      ".host_ms." + c,
                  t.host_s[m] * 1e3, "ms");
  }
}

void add_functional_layer_metrics(Result& r, const ModuleTotals& t,
                                  int images) {
  r.add_layer("vla.engine_mb_per_image", t.engine_bytes / 1e6 / images, "MB");
  for (int m = 0; m < kModules; ++m)
    r.add_layer(std::string(module_name(static_cast<Module>(m))) +
                    ".host_ms_per_image",
                t.host_s[m] * 1e3 / images, "ms");
}

void add_trace_check_metrics(Result& r, double traced_total_s,
                             double traced_covered_s, double untraced_s) {
  const double coverage = traced_covered_s / untraced_s;
  r.add_layer("trace.overhead_frac", traced_total_s / untraced_s - 1.0,
              "frac");
  r.add_layer("trace.coverage_frac", coverage, "frac");
  r.add_layer("trace.residual_ms", (untraced_s - traced_covered_s) * 1e3,
              "ms");
  if (coverage < 0.9)
    std::fprintf(stderr,
                 "warning: traced layer spans cover %.1f%% of the untraced "
                 "op (< 90%%)\n",
                 100.0 * coverage);
}

void functional_trace(Run& run, dnn::Network& net,
                      const core::BackendPlan& plan, unsigned vlen_bits,
                      const dnn::Tensor& input, const dnn::Tensor& ref,
                      int pairs, double engine_bytes_per_pass) {
  std::vector<double> untraced, traced, covered, host[kModules];
  ModuleTotals t;
  for (int i = 0; i < 2 * pairs; ++i) {
    // Alternate which of the pair runs first, so neither side always gets
    // the warmer (or colder) slot.
    if ((i + i / 2) % 2 == 0) {
      const auto u0 = Clock::now();
      (void)reference_forward(net, plan, vlen_bits, input);
      untraced.push_back(seconds_between(u0, Clock::now()));
      continue;
    }
    dnn::Tensor out;
    t = traced_functional_replay(net, plan, vlen_bits, input, run.tracer, 0,
                                 kReplayOpBase + traced.size(), out);
    if (!bitwise_equal(out, ref))
      run.result.problem("traced replay differs from the sequential reference");
    traced.push_back(t.total_s);
    covered.push_back(t.covered_s());
    for (int m = 0; m < kModules; ++m) host[m].push_back(t.host_s[m]);
  }
  for (int m = 0; m < kModules; ++m) t.host_s[m] = median(host[m]);
  if (engine_bytes_per_pass >= 0.0) t.engine_bytes = engine_bytes_per_pass;
  add_functional_layer_metrics(run.result, t, input.n());
  add_trace_check_metrics(run.result, median(traced), median(covered),
                          median(untraced));
}

void add_idle_runtime_metrics(Result& r) {
  r.add_layer("runtime.batch_ms", 0.0, "ms");
  r.add_layer("runtime.compute_ms.p50", 0.0, "ms");
  r.add_layer("runtime.occupancy", 0.0, "frac");
  r.add_layer("runtime.overlap_task_starts", 0.0, "count");
}

void add_idle_serve_metrics(Result& r) {
  for (const char* n :
       {"serve.queue_ms.p50", "serve.queue_ms.tail", "serve.dispatch_ms.p50",
        "serve.gen_lag_ms.p50", "serve.gen_lag_ms.max"})
    r.add_layer(n, 0.0, "ms");
  r.add_layer("serve.submit_us.p50", 0.0, "us");
  r.add_layer("serve.batch_items_mean", 0.0, "items");
  for (const char* n : {"serve.sent", "serve.ok", "serve.failed"})
    r.add_layer(n, 0.0, "count");
}

}  // namespace perfbench
