// Throughput server: the async serving runtime end to end.
//
// Simulates a production deployment serving live traffic: a client thread
// submits requests with Poisson-ish arrivals (exponential inter-arrival
// gaps from Rng::for_stream, --rate to set the offered load), the
// serve::Server admits them through a bounded queue with backpressure,
// the deadline-aware micro-batcher groups them per --batch/--max-wait-ms,
// and batches pipeline through the BatchScheduler's double-buffered
// submit/wait API — batch k+1 forms and packs while batch k executes.
// Reports per-request latency percentiles broken down into queue / dispatch
// / compute, throughput, admission stats and launch-trigger counts.
//
// --policy picks the dispatch configuration:
//   plan      (default) simulation-driven per-layer BackendPlan: every
//             eligible backend is simulated per layer on the serving
//             machine config (--machine) and the winner wins — tiny-channel
//             head layers may go direct, 3x3/s1 body layers to fused
//             Winograd, the rest to the fused implicit-GEMM.
//   fused     uniform fused conv pipeline (EnginePolicy::fused()).
//   winograd  Winograd for 3x3/s1, optimized GEMM elsewhere.
//   opt6      uniform 6-loop GEMM.
// The chosen per-layer table is printed at startup. Residual shortcuts are
// folded into their producing convolutions (Network::fuse_residuals) so
// models with skip connections serve them in-epilogue.
//
// --replan (policy=plan only) wires a serve::Replanner into the loop: the
// analytic cost model is calibrated once against the simulated plan, then
// watches the served batch-size histogram and queue depth and re-prices the
// plan for the observed regime off the hot path, swapping it in between
// batches (bit-identical outputs). Its counters — plans recomputed, swaps
// applied, last plan-compute time, per-backend wins of the live plan — are
// reported and land in --json.
//
//   ./throughput_server [--model=tiny|vgg|yolo] [--requests=32] [--batch=8]
//                       [--threads=0 (hardware)] [--input=96] [--vlen=512]
//                       [--policy=plan|fused|winograd|opt6] [--replan]
//                       [--precision=f32|bf16|int8]
//                       [--sparsity=0 (block-sparse weight density in
//                        (0,1); 0 = dense)]
//                       [--machine=a64fx|rvv|sve]
//                       [--max-wait-ms=2] [--deadline-ms=0 (none)]
//                       [--queue-cap=64] [--block (block-when-full)]
//                       [--rate=0 (requests/sec; 0 = 80% of measured
//                        capacity)] [--seed=1234] [--json=<path>]
//                       [--chaos=0 (fault-injection seed; 0 = off)]
//
// --chaos=<seed> arms a deterministic runtime::FaultInjector (task stalls,
// slow workers, per-item failures — the FaultPlan::chaos profile) plus the
// scheduler's batch watchdog. Failures are isolated per request: an injected
// item fault surfaces as that request's InternalError completion while its
// batch-mates finish normally, and the outcome tally printed at the end
// accounts for every request. Same seed, same fault set — chaos runs are
// replayable.

#include <chrono>
#include <cstdio>
#include <optional>
#include <thread>
#include <vector>

#include "common/arrival_process.hpp"
#include "common/bench_json.hpp"
#include "common/cli.hpp"
#include "common/percentile.hpp"
#include "core/cost_model.hpp"
#include "core/selector.hpp"
#include "dnn/models.hpp"
#include "runtime/batch_scheduler.hpp"
#include "runtime/fault_injector.hpp"
#include "serve/replanner.hpp"
#include "serve/server.hpp"

using namespace vlacnn;

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const std::string model = args.get("model", "tiny");
  const int requests = static_cast<int>(args.get_int("requests", 32));
  const int batch = static_cast<int>(args.get_int("batch", 8));
  const int threads = static_cast<int>(args.get_int("threads", 0));
  const int input_hw = static_cast<int>(args.get_int("input", 96));
  const auto vlen = static_cast<unsigned>(args.get_int("vlen", 512));
  const std::string policy = args.get("policy", "plan");
  const std::string precision = args.get("precision", "f32");
  const double sparsity = args.get_double("sparsity", 0.0);
  const std::string machine_name = args.get("machine", "a64fx");
  const double max_wait_ms = args.get_double("max-wait-ms", 2.0);
  const double deadline_ms = args.get_double("deadline-ms", 0.0);
  const auto queue_cap =
      static_cast<std::size_t>(args.get_int("queue-cap", 64));
  const bool block_when_full = args.get_bool("block", false);
  const bool replan = args.get_bool("replan", false);
  double rate = args.get_double("rate", 0.0);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1234));
  const auto chaos_seed = static_cast<std::uint64_t>(args.get_int("chaos", 0));
  bench::BenchJson json("throughput_server", args.get("json", ""));
  if (requests < 1 || batch < 1 || queue_cap < 1 || max_wait_ms < 0.0) {
    std::fprintf(stderr,
                 "error: --requests/--batch/--queue-cap must be >= 1 and "
                 "--max-wait-ms >= 0\n");
    return 1;
  }
  if (model != "tiny" && model != "vgg" && model != "yolo") {
    std::fprintf(stderr, "error: unknown --model=%s (tiny|vgg|yolo)\n",
                 model.c_str());
    return 1;
  }

  // vgg/yolo need an input divisible by 32; never resize silently.
  dnn::warn_if_input_resized(model, input_hw);
  std::unique_ptr<dnn::Network> net = dnn::build_model(model, input_hw);

  // Fold residual shortcuts into their producing convolutions: the skip add
  // runs in the conv epilogue (in-kernel on fused backends) instead of as
  // an extra output-streaming layer.
  const int folded = net->fuse_residuals();

  sim::MachineConfig machine = sim::a64fx();
  if (machine_name == "rvv") {
    machine = sim::rvv_gem5();
  } else if (machine_name == "sve") {
    machine = sim::sve_gem5();
  } else if (machine_name != "a64fx") {
    std::fprintf(stderr, "error: unknown --machine=%s (a64fx|rvv|sve)\n",
                 machine_name.c_str());
    return 1;
  }
  if (replan && policy != "plan") {
    std::fprintf(stderr, "error: --replan requires --policy=plan (the "
                         "analytic model re-ranks the plan's candidates)\n");
    return 1;
  }

  core::BackendPlan plan;
  if (policy == "plan") {
    std::printf("selecting per-layer backends on %s (simulating all "
                "candidates)...\n", machine.name.c_str());
    plan = core::select_per_layer(*net, machine);
  } else if (policy == "fused") {
    plan = core::BackendPlan::uniform(core::EnginePolicy::fused());
  } else if (policy == "winograd") {
    plan = core::BackendPlan::uniform(core::EnginePolicy::winograd());
  } else if (policy == "opt6") {
    plan = core::BackendPlan::uniform(core::EnginePolicy::opt6loop());
  } else {
    std::fprintf(stderr,
                 "error: unknown --policy=%s (plan|fused|winograd|opt6)\n",
                 policy.c_str());
    return 1;
  }
  // One-flag precision knob: route every Gemm6-family conv through the
  // requested resident weight format (weight-only quantization; fp32
  // activations/accumulation). f32 leaves the plan untouched.
  if (precision == "bf16") {
    plan = plan.with_precision(gemm::PackFormat::Bf16);
  } else if (precision == "int8") {
    plan = plan.with_precision(gemm::PackFormat::Int8PerChannel);
  } else if (precision != "f32") {
    std::fprintf(stderr, "error: unknown --precision=%s (f32|bf16|int8)\n",
                 precision.c_str());
    return 1;
  }
  // One-flag sparsity knob, composable with --precision: route the
  // Gemm6-family convs through block-sparse resident images pruned to the
  // given density (e.g. --sparsity=0.5 keeps half the 4x16 weight blocks;
  // int8 entries stay dense). 0 leaves the plan dense.
  if (sparsity < 0.0 || sparsity > 1.0) {
    std::fprintf(stderr, "error: --sparsity=%g must be in [0,1]\n", sparsity);
    return 1;
  }
  if (sparsity > 0.0) plan = plan.with_sparsity(sparsity);

  core::ConvolutionEngine engine(plan);
  runtime::SchedulerConfig cfg;
  cfg.threads = threads;
  cfg.vlen_bits = vlen;
  // --chaos: deterministic fault injection + the batch watchdog. The
  // injector must outlive the scheduler.
  std::optional<runtime::FaultInjector> injector;
  if (chaos_seed != 0) {
    injector.emplace(runtime::FaultPlan::chaos(chaos_seed));
    cfg.fault_injector = &*injector;
    cfg.watchdog_timeout_s = 2.0;
  }
  runtime::BatchScheduler sched(engine, cfg);

  std::printf("serving %s (%zu layers, %d fused shortcuts) | %d requests, "
              "batch<=%d, %d workers | policy=%s precision=%s\n",
              model.c_str(), net->num_layers(), folded, requests, batch,
              sched.threads(), policy.c_str(), precision.c_str());
  std::printf("per-layer dispatch table:\n%s\n",
              engine.plan().summary().c_str());

  // Warm-up pass (weight caches, workspaces, output reshapes) doubles as
  // the capacity measurement that sizes the default offered load and the
  // deadline slack.
  double batch_compute_ms;
  {
    dnn::Tensor warm(batch, net->in_c(), net->in_h(), net->in_w());
    warm.randomize_batch(99);
    const auto t0 = std::chrono::steady_clock::now();
    sched.run(*net, warm);
    batch_compute_ms = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  }
  if (rate <= 0.0) rate = 0.8 * (batch / (batch_compute_ms / 1e3));

  serve::ServerConfig scfg;
  scfg.policy.max_batch = batch;
  scfg.policy.max_wait = std::chrono::duration_cast<serve::Clock::duration>(
      std::chrono::duration<double, std::milli>(max_wait_ms));
  // Reserve roughly one batch's compute before a deadline so the batcher
  // launches early enough to meet it.
  scfg.policy.deadline_slack =
      std::chrono::duration_cast<serve::Clock::duration>(
          std::chrono::duration<double, std::milli>(
              deadline_ms > 0.0 ? batch_compute_ms : 0.0));
  scfg.queue_capacity = queue_cap;
  scfg.block_when_full = block_when_full;
  // Declared before the server so the server (its only caller) is torn
  // down first.
  std::optional<serve::Replanner> replanner;
  if (replan) {
    // One-shot calibration against the simulated plan just computed: fits
    // the analytic model's per-kernel constants from the plan's own
    // candidate cycles, so re-planning needs no further simulation.
    core::CostModel cm(machine, plan.opt6);
    cm.calibrate_from(*net, plan);
    serve::ReplannerConfig rcfg;
    rcfg.max_batch = batch;
    replanner.emplace(sched, *net, std::move(cm), plan, rcfg);
    replanner->start();
    scfg.replanner = &*replanner;
  }
  serve::Server server(sched, *net, scfg);
  server.start();

  std::printf("offered load: %.1f requests/sec (measured capacity ~%.1f "
              "images/sec); max_wait=%.1f ms, deadline=%s, queue cap=%zu "
              "(%s)\n\n",
              rate, batch / (batch_compute_ms / 1e3), max_wait_ms,
              deadline_ms > 0.0
                  ? (std::to_string(deadline_ms) + " ms").c_str()
                  : "none",
              queue_cap, block_when_full ? "block" : "reject");

  // Client: reproducible Poisson-ish arrivals (PoissonArrivals). Request
  // r's input comes from its own stream, so results do not depend on how
  // requests were grouped into batches.
  using clock = std::chrono::steady_clock;
  // Engine-byte delta over the serve run: no batch is in flight here (the
  // server has only just started) or after stop() below.
  const std::uint64_t bytes0 = sched.mem_bytes_moved();
  const auto serve_t0 = clock::now();
  PoissonArrivals arrivals(seed, rate);
  auto next_arrival = serve_t0;
  for (int r = 0; r < requests; ++r) {
    next_arrival += arrivals.next_gap();
    std::this_thread::sleep_until(next_arrival);
    dnn::Tensor in(1, net->in_c(), net->in_h(), net->in_w());
    in.randomize_item(0, seed + static_cast<std::uint64_t>(r));
    const auto deadline =
        deadline_ms > 0.0
            ? clock::now() + std::chrono::duration_cast<clock::duration>(
                                 std::chrono::duration<double, std::milli>(
                                     deadline_ms))
            : serve::kNoDeadline;
    // Non-Accepted here can only be Rejected (queue full, reject-on-full
    // mode); the server's stats count it.
    (void)server.submit(static_cast<std::uint64_t>(r), std::move(in),
                        deadline);
  }
  server.stop();  // drain everything admitted
  if (replanner) replanner->stop();
  const double total_s =
      std::chrono::duration<double>(clock::now() - serve_t0).count();
  const std::uint64_t serve_bytes = sched.mem_bytes_moved() - bytes0;

  const std::vector<serve::Completion> done = server.drain_completions();
  const serve::ServerStats stats = server.stats();
  std::vector<double> queue_ms, compute_ms, total_ms;
  for (const serve::Completion& c : done) {
    if (c.trace.outcome != serve::Outcome::Ok) continue;  // chaos/shed: no
    queue_ms.push_back(c.trace.queue_ms);                 // latency sample
    compute_ms.push_back(c.trace.compute_ms);
    total_ms.push_back(c.trace.total_ms);
  }

  std::printf("served %llu/%d requests in %.2f s (%.1f images/sec), "
              "%llu shed by the full queue\n",
              static_cast<unsigned long long>(stats.completed), requests,
              total_s, static_cast<double>(stats.completed) / total_s,
              static_cast<unsigned long long>(stats.rejected));
  std::printf("%llu batches, avg %.2f images/batch, queue peak depth %zu\n",
              static_cast<unsigned long long>(stats.batches),
              stats.batches > 0 ? stats.sum_batch_items /
                                      static_cast<double>(stats.batches)
                                : 0.0,
              stats.queue_peak_depth);
  std::printf("launch triggers (per batch): full=%llu max_wait=%llu "
              "deadline=%llu drain=%llu\n",
              static_cast<unsigned long long>(stats.trigger_counts[0]),
              static_cast<unsigned long long>(stats.trigger_counts[1]),
              static_cast<unsigned long long>(stats.trigger_counts[2]),
              static_cast<unsigned long long>(stats.trigger_counts[3]));
  if (deadline_ms > 0.0)
    std::printf("deadline misses: %llu\n",
                static_cast<unsigned long long>(stats.deadline_misses));
  if (chaos_seed != 0) {
    const runtime::FaultInjector::Stats fi = injector->stats();
    std::printf("chaos (seed %llu): %llu task stalls, %llu slow-worker "
                "delays, %llu item failures injected; %llu watchdog "
                "cancellations\n",
                static_cast<unsigned long long>(chaos_seed),
                static_cast<unsigned long long>(fi.task_stalls),
                static_cast<unsigned long long>(fi.worker_slows),
                static_cast<unsigned long long>(fi.item_failures),
                static_cast<unsigned long long>(stats.watchdog_wedges));
    std::printf("outcomes:");
    for (std::size_t o = 0; o < serve::kOutcomeCount; ++o)
      if (stats.outcomes[o] > 0)
        std::printf(" %s=%llu",
                    serve::outcome_name(static_cast<serve::Outcome>(o)),
                    static_cast<unsigned long long>(stats.outcomes[o]));
    std::printf("\n");
  }
  if (replan) {
    std::printf("re-planning: %llu plans recomputed, %llu swaps applied, "
                "last plan compute %llu us, live plan priced for batch %d\n",
                static_cast<unsigned long long>(stats.plans_recomputed),
                static_cast<unsigned long long>(stats.plan_swaps_applied),
                static_cast<unsigned long long>(stats.last_plan_compute_us),
                stats.plan_priced_batch);
    std::printf("live plan backend wins:");
    for (std::size_t b = 0; b < core::kBackendCount; ++b)
      if (stats.backend_wins[b] > 0)
        std::printf(" %s=%llu",
                    core::to_string(static_cast<core::Backend>(b)),
                    static_cast<unsigned long long>(stats.backend_wins[b]));
    std::printf("\n");
  }

  const auto p = [](const std::vector<double>& v, double q) {
    return percentile(v, q);
  };
  std::printf("\nper-request latency breakdown (ms):\n");
  std::printf("  %-10s %8s %8s %8s\n", "stage", "p50", "p95", "p99");
  std::printf("  %-10s %8.2f %8.2f %8.2f\n", "queue", p(queue_ms, 0.50),
              p(queue_ms, 0.95), p(queue_ms, 0.99));
  std::printf("  %-10s %8.2f %8.2f %8.2f\n", "compute", p(compute_ms, 0.50),
              p(compute_ms, 0.95), p(compute_ms, 0.99));
  std::printf("  %-10s %8.2f %8.2f %8.2f\n", "total", p(total_ms, 0.50),
              p(total_ms, 0.95), p(total_ms, 0.99));

  json.add("model=" + model + " policy=" + policy +
               " precision=" + precision +
               " batch=" + std::to_string(batch) +
               " max_wait_ms=" + std::to_string(max_wait_ms),
           total_s * 1e3, static_cast<double>(serve_bytes),
           {{"images_per_sec", static_cast<double>(stats.completed) / total_s},
            {"completed", static_cast<double>(stats.completed)},
            {"rejected", static_cast<double>(stats.rejected)},
            {"avg_batch",
             stats.batches > 0
                 ? stats.sum_batch_items / static_cast<double>(stats.batches)
                 : 0.0},
            {"queue_p50_ms", p(queue_ms, 0.50)},
            {"queue_p95_ms", p(queue_ms, 0.95)},
            {"queue_p99_ms", p(queue_ms, 0.99)},
            {"compute_p50_ms", p(compute_ms, 0.50)},
            {"compute_p95_ms", p(compute_ms, 0.95)},
            {"compute_p99_ms", p(compute_ms, 0.99)},
            {"total_p50_ms", p(total_ms, 0.50)},
            {"total_p95_ms", p(total_ms, 0.95)},
            {"total_p99_ms", p(total_ms, 0.99)},
            {"plans_recomputed", static_cast<double>(stats.plans_recomputed)},
            {"plan_swaps_applied",
             static_cast<double>(stats.plan_swaps_applied)},
            {"last_plan_compute_us",
             static_cast<double>(stats.last_plan_compute_us)},
            {"plan_priced_batch",
             static_cast<double>(stats.plan_priced_batch)},
            {"chaos_seed", static_cast<double>(chaos_seed)},
            {"internal_errors",
             static_cast<double>(stats.outcomes[static_cast<std::size_t>(
                 serve::Outcome::InternalError)])},
            {"watchdog_wedges", static_cast<double>(stats.watchdog_wedges)}});
  if (!json.write()) return 1;
  return 0;
}
