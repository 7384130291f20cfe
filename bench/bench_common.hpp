#pragma once

// The serving tools' shared pieces: the --policy/--precision/--sparsity
// plan parser, the warm batch timing that sizes offered load, and the one
// open-loop load driver every serving stream goes through.

#include <chrono>
#include <cstdio>
#include <initializer_list>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/arrival_process.hpp"
#include "common/bench_json.hpp"
#include "common/cli.hpp"
#include "common/percentile.hpp"
#include "common/table.hpp"
#include "core/conv_engine.hpp"
#include "core/selector.hpp"
#include "dnn/models.hpp"
#include "runtime/batch_scheduler.hpp"
#include "serve/server.hpp"
#include "sim/machine_config.hpp"

namespace vlacnn::bench {

/// The flags both serving tools take: --model, --input, --threads,
/// --requests, --rate (requests/s; 0 = sized from the measured capacity),
/// --seed, --precision, --sparsity, --chaos (fault-injection seed; 0 = off)
/// and --json. Throws InvalidArgument naming the flag on --requests < 1 or
/// a negative --rate.
struct ServingFlags {
  std::string model, precision, json_path;
  int input_hw, threads, requests;
  double rate, sparsity;
  std::uint64_t seed, chaos_seed;

  ServingFlags(const CliArgs& args, int default_requests)
      : model(args.get("model", "tiny")),
        precision(args.get("precision", "f32")),
        json_path(args.get("json", "")),
        input_hw(static_cast<int>(args.get_int("input", 96))),
        threads(static_cast<int>(args.get_int("threads", 0))),
        requests(static_cast<int>(args.get_int("requests", default_requests))),
        rate(args.get_double("rate", 0.0)),
        sparsity(args.get_double("sparsity", 0.0)),
        seed(static_cast<std::uint64_t>(args.get_int("seed", 1234))),
        chaos_seed(static_cast<std::uint64_t>(args.get_int("chaos", 0))) {
    if (requests < 1) throw InvalidArgument("--requests must be >= 1");
    if (!(rate >= 0.0))
      throw InvalidArgument("--rate=" + Table::fmt(rate, 3) +
                            ": must be >= 0 (0 = from measured capacity)");
  }

  /// The flags above plus a tool's own, for CliArgs::require_known.
  static std::vector<std::string> keys_with(
      std::initializer_list<std::string> own) {
    std::vector<std::string> k = {"model", "precision", "json",     "input",
                                  "threads", "requests", "rate",   "sparsity",
                                  "seed",  "chaos"};
    k.insert(k.end(), own);
    return k;
  }
};

/// The BackendPlan a tool's `--policy` / `--precision` / `--sparsity` flags
/// name. policy: plan (per-layer selection, simulating every candidate on
/// `machine`), opt6, opt3, winograd or fused (uniform). precision: f32,
/// bf16 or int8 routes every Gemm6-family conv through that resident weight
/// format (weight-only; fp32 activations and accumulation). sparsity: the
/// density in [0, 1] of block-sparse resident images (0 = dense; keeps that
/// share of the 4x16 weight blocks; int8 entries stay dense). Throws
/// InvalidArgument naming the flag on an unknown name or a density outside
/// [0, 1] — a typo never runs a default plan.
inline core::BackendPlan plan_from_flags(dnn::Network& net,
                                         const sim::MachineConfig& machine,
                                         const std::string& policy,
                                         const std::string& precision,
                                         double sparsity) {
  // Both format flags are checked before a `plan` policy spends seconds
  // simulating candidates.
  gemm::PackFormat format = gemm::PackFormat::F32;
  if (precision == "bf16") {
    format = gemm::PackFormat::Bf16;
  } else if (precision == "int8") {
    format = gemm::PackFormat::Int8PerChannel;
  } else if (precision != "f32") {
    throw InvalidArgument("--precision=" + precision +
                          ": expected f32|bf16|int8");
  }
  if (!(sparsity >= 0.0 && sparsity <= 1.0))  // NaN fails too
    throw InvalidArgument("--sparsity=" + Table::fmt(sparsity, 3) +
                          ": expected a density in [0, 1]");
  core::BackendPlan plan;
  if (policy == "plan") {
    std::printf("selecting per-layer backends on %s (simulating all "
                "candidates)...\n", machine.name.c_str());
    plan = core::select_per_layer(net, machine);
  } else if (policy == "opt6") {
    plan = core::BackendPlan::uniform(core::EnginePolicy::opt6loop());
  } else if (policy == "opt3") {
    plan = core::BackendPlan::uniform(core::EnginePolicy::opt3loop());
  } else if (policy == "winograd") {
    plan = core::BackendPlan::uniform(core::EnginePolicy::winograd());
  } else if (policy == "fused") {
    plan = core::BackendPlan::uniform(core::EnginePolicy::fused());
  } else {
    throw InvalidArgument("--policy=" + policy +
                          ": expected plan|opt6|opt3|winograd|fused");
  }
  if (format != gemm::PackFormat::F32) plan = plan.with_precision(format);
  if (sparsity > 0.0) plan = plan.with_sparsity(sparsity);
  return plan;
}

/// Wall seconds of one synchronous forward pass of `input` through `sched`.
inline double batch_seconds(runtime::BatchScheduler& sched, dnn::Network& net,
                            const dnn::Tensor& input) {
  const auto t0 = std::chrono::steady_clock::now();
  sched.run(net, input);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Runs one random `batch`-item forward pass to warm `sched` up (weight
/// caches, workspaces, output reshapes), then times a second one: the
/// seconds one warm batch takes. batch / seconds is the capacity the
/// serving tools size their offered load (and deadline slack) by.
inline double warm_batch_seconds(runtime::BatchScheduler& sched,
                                 dnn::Network& net, int batch = 8) {
  dnn::Tensor warm(batch, net.in_c(), net.in_h(), net.in_w());
  warm.randomize_batch(99);
  sched.run(net, warm);
  return batch_seconds(sched, net, warm);
}

/// Milliseconds as a serving-clock duration.
inline serve::Clock::duration from_ms(double ms) {
  return std::chrono::duration_cast<serve::Clock::duration>(
      std::chrono::duration<double, std::milli>(ms));
}

/// Seconds since a stream's start as a serving-clock offset.
inline serve::Clock::duration from_seconds(double s) {
  return std::chrono::duration_cast<serve::Clock::duration>(
      std::chrono::duration<double>(s));
}

/// One request of a precomputed open-loop arrival trace.
struct Arrival {
  /// Submission time after the stream starts. Kept in clock ticks, so a
  /// trace replays exactly the sleep targets its draws round to.
  serve::Clock::duration offset{};
  std::uint64_t id = 0;
  /// Deadline relative to submission; none = serve::kNoDeadline. 0 is a
  /// deadline that has already passed when the request arrives.
  std::optional<double> deadline_ms;
};
using ArrivalTrace = std::vector<Arrival>;

/// Steady stream: the first `n` arrivals of PoissonArrivals(seed, rate),
/// ids 0..n-1, each exponential gap rounded to the clock as it is drawn.
inline ArrivalTrace steady_trace(std::uint64_t seed, double rate, int n,
                                 std::optional<double> deadline_ms = {}) {
  PoissonArrivals arrivals(seed, rate);
  ArrivalTrace trace;
  serve::Clock::duration at{};
  for (int r = 0; r < n; ++r) {
    at += arrivals.next_gap();
    trace.push_back({at, static_cast<std::uint64_t>(r), deadline_ms});
  }
  return trace;
}

/// Every arrival of PiecewiseRateArrivals(seed, segments) (thinning at the
/// peak rate) before the segments' horizon, ids in arrival order.
inline ArrivalTrace piecewise_trace(
    std::uint64_t seed, std::vector<PiecewiseRateArrivals::Segment> segments,
    std::optional<double> deadline_ms = {}) {
  PiecewiseRateArrivals arrivals(seed, std::move(segments));
  const double horizon = arrivals.horizon_seconds();
  ArrivalTrace trace;
  for (double at = arrivals.next_arrival_seconds(); at < horizon;
       at = arrivals.next_arrival_seconds())
    trace.push_back({from_seconds(at), trace.size(), deadline_ms});
  return trace;
}

/// Per-request latency samples of a stream's Ok completions.
struct Latencies {
  std::vector<double> queue_ms, compute_ms, total_ms;
  std::vector<double> occupancy, idle_frac;  ///< of the batch each rode in
  std::uint64_t overlap_starts = 0;          ///< summed over requests
};

/// The {queue,compute,total}_{p50,p95,p99}_ms fields of a serving record.
inline std::vector<std::pair<std::string, double>> stage_percentiles(
    const Latencies& l) {
  return {{"queue_p50_ms", percentile(l.queue_ms, 0.50)},
          {"queue_p95_ms", percentile(l.queue_ms, 0.95)},
          {"queue_p99_ms", percentile(l.queue_ms, 0.99)},
          {"compute_p50_ms", percentile(l.compute_ms, 0.50)},
          {"compute_p95_ms", percentile(l.compute_ms, 0.95)},
          {"compute_p99_ms", percentile(l.compute_ms, 0.99)},
          {"total_p50_ms", percentile(l.total_ms, 0.50)},
          {"total_p95_ms", percentile(l.total_ms, 0.95)},
          {"total_p99_ms", percentile(l.total_ms, 0.99)}};
}

/// Mean micro-batch size the server launched (0 before its first batch).
inline double avg_batch(const serve::ServerStats& s) {
  return s.batches > 0 ? s.sum_batch_items / static_cast<double>(s.batches)
                       : 0.0;
}

/// What serve_open_loop() measured.
struct ServedStream {
  std::vector<serve::Admit> admits;  ///< admission verdict per trace entry
  /// Every delivered completion's trace (the outputs are dropped), and the
  /// latencies of the Ok ones.
  std::vector<serve::RequestTrace> done;
  Latencies ok;
  serve::ServerStats stats;          ///< after the server drained
  double wall_s = 0.0;               ///< stream start -> server drained
  std::uint64_t bytes_moved = 0;     ///< engine bytes over the stream
};

/// The open-loop load driver of every serving tool: serves `trace` through
/// a fresh serve::Server with `cfg` (which must not set on_complete).
/// Sleeps to each arrival's offset, submits request i with input
/// randomize_item(0, seed + i) and its deadline, then stops the server
/// (draining everything admitted).
/// Arrivals never wait on completions, so the offered stream depends only
/// on the trace; a blocking queue (`cfg.block_when_full`) can still hold
/// the client back.
inline ServedStream serve_open_loop(runtime::BatchScheduler& sched,
                                    dnn::Network& net,
                                    const serve::ServerConfig& cfg,
                                    const ArrivalTrace& trace,
                                    std::uint64_t seed) {
  serve::Server server(sched, net, cfg);
  server.start();
  ServedStream out;
  out.admits.reserve(trace.size());
  // No batch is in flight before the first submit or after stop().
  const std::uint64_t bytes0 = sched.mem_bytes_moved();
  const serve::Clock::time_point t0 = serve::Clock::now();
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const Arrival& a = trace[i];
    std::this_thread::sleep_until(t0 + a.offset);
    dnn::Tensor in(1, net.in_c(), net.in_h(), net.in_w());
    in.randomize_item(0, seed + i);
    const serve::Clock::time_point deadline =
        a.deadline_ms ? serve::Clock::now() + from_ms(*a.deadline_ms)
                      : serve::kNoDeadline;
    out.admits.push_back(server.submit(a.id, std::move(in), deadline));
  }
  server.stop();
  out.wall_s =
      std::chrono::duration<double>(serve::Clock::now() - t0).count();
  out.bytes_moved = sched.mem_bytes_moved() - bytes0;
  for (const serve::Completion& c : server.drain_completions()) {
    out.done.push_back(c.trace);
    if (c.trace.outcome != serve::Outcome::Ok) continue;
    out.ok.queue_ms.push_back(c.trace.queue_ms);
    out.ok.compute_ms.push_back(c.trace.compute_ms);
    out.ok.total_ms.push_back(c.trace.total_ms);
    out.ok.occupancy.push_back(c.trace.batch_occupancy);
    out.ok.idle_frac.push_back(c.trace.worker_idle_frac);
    out.ok.overlap_starts += c.trace.batch_overlap_starts;
  }
  out.stats = server.stats();
  return out;
}

}  // namespace vlacnn::bench
