#pragma once

// Shared pieces of the outside-in benchmark: the result record every
// workload fills, the paper's three simulated machine configurations, the
// span recorder of traced runs, and the layer-by-layer replays that give
// the per-module breakdown. Everything here drives the library through its
// public entry points only; nothing is instrumented inside the program.

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/conv_engine.hpp"
#include "dnn/network.hpp"
#include "runtime/batch_scheduler.hpp"
#include "sim/machine_config.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string git_sha = "none";
  std::string source_sha = "none";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run measured and checked. `e2e` and `layer` are printed as the
/// end-to-end and per-layer metric sets; `problems` lists every failed
/// check (a non-empty list makes the run incorrect).
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  std::vector<Metric> e2e;
  std::vector<Metric> layer;

  void add_e2e(std::string name, double v, std::string unit) {
    e2e.push_back({std::move(name), v, std::move(unit)});
  }
  void add_layer(std::string name, double v, std::string unit) {
    layer.push_back({std::move(name), v, std::move(unit)});
  }
  void problem(std::string what) { problems.push_back(std::move(what)); }
};

// ------------------------------------------------------------------ stats

double median(const std::vector<double>& v);
double min_of(const std::vector<double>& v);

/// The tail of a latency sample: the highest percentile with at least ten
/// samples beyond it, floored at the median for samples too small to have
/// one.
struct Tail {
  double value = 0.0;
  double pct = 50.0;
  std::size_t n = 0;
};
Tail tail_of(const std::vector<double>& v);

/// Prints `name: v0 v1 ...` (each value times `scale`) on one line, so a
/// run's op-to-op spread is visible next to its medians.
void print_series(const char* name, const std::vector<double>& v,
                  double scale);

/// Peak resident set size (VmHWM) of this process or of the largest child
/// it waited for, in MiB.
double peak_rss_mb();

/// Set-ups per run; the fastest is reported as `setup_s` (one set-up is
/// single-threaded, so its time follows the host's swings in single-thread
/// speed, and the fastest of several is the steadiest figure).
constexpr int kSetupRepeats = 5;

/// Compute workers of the host-speed workloads, and concurrent clients of
/// sim-paper: one thread on a shared host swings far more in speed than
/// two do.
constexpr int kWorkers = 2;

/// Vector length of the functional engines of the host-speed workloads.
constexpr unsigned kHostVlenBits = 512;

// ----------------------------------------------------- simulated configs

/// One of the paper's machine + kernel-policy points.
struct SimConfig {
  std::string name;
  vlacnn::sim::MachineConfig machine;
  vlacnn::core::EnginePolicy policy;
};

/// rvv512-l2_1m-gemm, rvv16k-l2_256m-gemm, sve2048-l2_1m-winograd — always
/// in this order.
std::vector<SimConfig> paper_configs();

/// Simulated statistics of one network pass under one config.
struct SimStats {
  std::uint64_t cycles = 0;
  std::uint64_t vinst = 0;
  double avg_vl = 0.0;
  double l2_miss_rate = 0.0;
  std::uint64_t dram_lines = 0;
  double host_s = 0.0;
};

/// Runs `net` once per config through core::run_simulated on the input
/// drawn from `input_seed`. Appends each config's final output to `outputs`
/// when it is non-null.
std::vector<SimStats> simulate_all(vlacnn::dnn::Network& net,
                                   const std::vector<SimConfig>& configs,
                                   std::uint64_t input_seed,
                                   std::vector<vlacnn::dnn::Tensor>* outputs);

/// The network input core::run_simulated draws for `input_seed`.
vlacnn::dnn::Tensor sim_input(const vlacnn::dnn::Network& net,
                              std::uint64_t input_seed);

/// Functional (host-speed, uninstrumented) forward pass of `input` on one
/// context at `vlen_bits` under `plan`: the sequential reference every
/// workload checks its outputs against. Adds the time spent in
/// ConvolutionEngine::prepare to `*prepare_s` when given.
vlacnn::dnn::Tensor reference_forward(vlacnn::dnn::Network& net,
                                      const vlacnn::core::BackendPlan& plan,
                                      unsigned vlen_bits,
                                      const vlacnn::dnn::Tensor& input,
                                      double* prepare_s = nullptr);

/// Tensors are move-only; this is the explicit deep copy.
vlacnn::dnn::Tensor copy_tensor(const vlacnn::dnn::Tensor& t);

bool bitwise_equal(const vlacnn::dnn::Tensor& a, const vlacnn::dnn::Tensor& b);

// ----------------------------------------------------------------- tracing

/// Spans kept in memory and written once, at the end, as a Chrome
/// trace-event file (load it in chrome://tracing or ui.perfetto.dev).
class Tracer {
 public:
  struct Span {
    std::string name;
    std::string module;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  // 0: a root span
    std::uint64_t op = 0;      // op or request id the span belongs to
    double start_us = 0.0;
    double end_us = 0.0;
    std::vector<std::pair<std::string, double>> args;
  };

  Tracer() : t0_(Clock::now()) {}

  [[nodiscard]] double now_us() const {
    return seconds_between(t0_, Clock::now()) * 1e6;
  }
  [[nodiscard]] double us_at(Clock::time_point t) const {
    return seconds_between(t0_, t) * 1e6;
  }

  /// Records a finished span and returns its id.
  std::uint64_t add(Span s) {
    s.id = spans_.size() + 1;
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }
  Span& span(std::uint64_t id) { return spans_[id - 1]; }

  /// Writes the spans plus `provenance` (a JSON object) to `path`.
  void write(const std::string& path, const std::string& provenance) const;

 private:
  Clock::time_point t0_;
  std::vector<Span> spans_;
};

/// Which module a layer's time and cycles are charged to: a conv goes to
/// `gemm` or `winograd` by its backend label, every other layer to `dnn`.
enum class Module { Gemm, Winograd, Dnn };
constexpr int kModules = 3;
const char* module_name(Module m);

/// Per-module totals of one traced replay.
struct ModuleTotals {
  std::uint64_t cycles[kModules] = {};
  double host_s[kModules] = {};
  double engine_bytes = 0.0;
  double layers_s = 0.0;   // summed layer spans
  double prepare_s = 0.0;  // ConvolutionEngine::prepare
  double plan_s = 0.0;     // ConvolutionEngine construction (plan compile)
  double total_s = 0.0;    // the whole replay, set-up included
  std::uint64_t total_cycles = 0;
  std::uint64_t mem_stall_cycles = 0;

  /// Replay time inside spans: layers, prepare and plan compile.
  [[nodiscard]] double covered_s() const {
    return layers_s + prepare_s + plan_s;
  }
};

/// Replays `net` layer by layer under `config` on a simulated machine,
/// mirroring core::run_simulated (same engine set-up, same per-layer
/// pipeline flush), with one span per layer carrying cycle, cache and DRAM
/// deltas. Returns the final output in `out`.
ModuleTotals traced_sim_replay(vlacnn::dnn::Network& net,
                               const SimConfig& config,
                               std::uint64_t input_seed, Tracer& tracer,
                               std::uint64_t parent, std::uint64_t op,
                               vlacnn::dnn::Tensor& out);

/// Replays `net` layer by layer functionally on one context with `plan`
/// (the same calls reference_forward makes), one span per layer carrying
/// the engine's bytes moved. Returns the final output in `out`.
ModuleTotals traced_functional_replay(vlacnn::dnn::Network& net,
                                      const vlacnn::core::BackendPlan& plan,
                                      unsigned vlen_bits,
                                      const vlacnn::dnn::Tensor& input,
                                      Tracer& tracer, std::uint64_t parent,
                                      std::uint64_t op,
                                      vlacnn::dnn::Tensor& out);

// --------------------------------------------------------------- workloads

/// The analytic plan the host-speed workloads run: priced on A64FX for
/// `batch` with the structural cost model (no simulator involved).
vlacnn::core::BackendPlan analytic_plan(vlacnn::dnn::Network& net, int batch);

/// What a host-speed workload serves, and how long setting it up took.
/// Members are declared so that they are destroyed scheduler first.
struct HostSetup {
  std::unique_ptr<vlacnn::dnn::Network> net;
  vlacnn::core::BackendPlan plan;
  std::unique_ptr<vlacnn::core::ConvolutionEngine> engine;
  std::unique_ptr<vlacnn::runtime::BatchScheduler> sched;
  std::vector<double> setup_s, plan_s, prepare_s;
};

/// Draws a workload's inputs and computes their sequential references
/// (reference_forward, adding its prepare time to the last argument). It
/// replaces whatever the previous set-up drew.
using MakeInputs = std::function<void(vlacnn::dnn::Network&,
                                      const vlacnn::core::BackendPlan&,
                                      double*)>;

/// Sets up YOLOv3-tiny at `input_hw` kSetupRepeats times: model build,
/// analytic plan priced for `plan_batch`, prepare, a kWorkers-thread
/// BatchScheduler at kHostVlenBits, and `make_inputs`. Keeps the last
/// set-up and every repeat's timings.
HostSetup set_up_host(int input_hw, int plan_batch,
                      const MakeInputs& make_inputs);

/// Shared context handed to every workload.
struct Run {
  Args args;
  Tracer tracer;
  Result result;
};

void run_sim_paper(Run& run);
void run_offline_batch(Run& run);
void run_serve_closed(Run& run);

/// The sim-count probe the two host-speed workloads run first, before any
/// thread starts (so the simulated address layout is the same in every
/// process): the workload's own network under the three paper configs.
/// Adds `sim_mcycles.<c>` and, on traced runs, the per-config per-layer
/// metrics from a traced replay. The probe's simulation runs in a child
/// process, so the replay starts from the same simulated address layout and
/// its per-module cycles must sum to the probe's.
void sim_probe(Run& run, vlacnn::dnn::Network& net, std::uint64_t input_seed);

/// Adds the set-up metrics: `setup_s` and the per-layer `core.plan_ms` and
/// `core.prepare_ms`, each the fastest of the repeats.
void add_setup_metrics(Result& r, const std::vector<double>& setup_s,
                       const std::vector<double>& plan_s,
                       const std::vector<double>& prepare_s);

/// Adds the per-config sim/vla/module metrics of traced replays to `r`.
void add_sim_layer_metrics(Result& r, const std::vector<SimConfig>& configs,
                           const std::vector<SimStats>& untraced,
                           const std::vector<ModuleTotals>& traced);

/// Adds the functional per-image module metrics of a traced replay.
void add_functional_layer_metrics(Result& r, const ModuleTotals& t,
                                  int images);

/// Adds the tracing-overhead and coverage metrics for a traced op whose
/// untraced counterpart took `untraced_s`.
void add_trace_check_metrics(Result& r, double traced_total_s,
                             double traced_covered_s, double untraced_s);

/// Op ids of traced replay passes start here, apart from request ids.
constexpr std::uint64_t kReplayOpBase = 1000000;

/// The traced run of a host-speed workload: `pairs` times, the sequential
/// reference pass of `input` untraced and the same pass replayed with spans
/// (checked against `ref`), in alternating order. Host-time metrics are
/// medians over the pairs, so one noisy pass moves neither the breakdown
/// nor the overhead.
/// `engine_bytes_per_pass` < 0 reports the replay's own engine traffic.
void functional_trace(Run& run, vlacnn::dnn::Network& net,
                      const vlacnn::core::BackendPlan& plan,
                      unsigned vlen_bits, const vlacnn::dnn::Tensor& input,
                      const vlacnn::dnn::Tensor& ref, int pairs,
                      double engine_bytes_per_pass = -1.0);

/// Adds zero-valued metrics of the modules a workload does not run (the
/// per-layer set is the same on every workload).
void add_idle_runtime_metrics(Result& r);
void add_idle_serve_metrics(Result& r);

}  // namespace perfbench
