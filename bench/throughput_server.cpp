// Throughput server: the async serving runtime end to end.
//
// Simulates a production deployment serving live traffic: an open-loop
// client (bench::serve_open_loop) submits requests with Poisson-ish arrivals
// (exponential inter-arrival gaps from Rng::for_stream, --rate to set the
// offered load), the serve::Server admits them through a bounded queue with
// backpressure, the deadline-aware micro-batcher groups them per
// --batch/--max-wait-ms, and batches pipeline through the BatchScheduler's double-buffered
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
//   opt3      uniform 3-loop GEMM.
// The chosen per-layer table is printed at startup. Residual shortcuts are
// folded into their producing convolutions (Network::fuse_residuals) so
// models with skip connections serve them in-epilogue. An unknown
// --policy/--precision/--machine, a --sparsity outside [0,1] or a negative
// --rate exits 1 naming the flag.
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
//                       [--policy=plan|fused|winograd|opt6|opt3] [--replan]
//                       [--precision=f32|bf16|int8]
//                       [--sparsity=0 (block-sparse weight density in
//                        [0,1]; 0 = dense)]
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

#include <cstdio>
#include <optional>
#include <vector>

#include "bench_common.hpp"
#include "runtime/fault_injector.hpp"

using namespace vlacnn;

int main(int argc, char** argv) try {
  const CliArgs args(argc, argv);
  args.require_known(bench::ServingFlags::keys_with(
      {"batch", "vlen", "policy", "machine", "max-wait-ms", "deadline-ms",
       "queue-cap", "block", "replan"}));
  const bench::ServingFlags f(args, /*default_requests=*/32);
  const int batch = static_cast<int>(args.get_int("batch", 8));
  const auto vlen = static_cast<unsigned>(args.get_int("vlen", 512));
  const std::string policy = args.get("policy", "plan");
  const std::string machine_name = args.get("machine", "a64fx");
  const double max_wait_ms = args.get_double("max-wait-ms", 2.0);
  const double deadline_ms = args.get_double("deadline-ms", 0.0);
  const auto queue_cap =
      static_cast<std::size_t>(args.get_int("queue-cap", 64));
  const bool block_when_full = args.get_bool("block", false);
  const bool replan = args.get_bool("replan", false);
  bench::BenchJson json("throughput_server", f.json_path);
  if (batch < 1 || queue_cap < 1 || max_wait_ms < 0.0) {
    std::fprintf(stderr, "error: --batch/--queue-cap must be >= 1 and "
                         "--max-wait-ms >= 0\n");
    return 1;
  }
  const sim::MachineConfig machine = sim::machine_by_name(machine_name);
  if (replan && policy != "plan") {
    std::fprintf(stderr, "error: --replan requires --policy=plan (the "
                         "analytic model re-ranks the plan's candidates)\n");
    return 1;
  }

  // vgg/yolo need an input divisible by 32; never resize silently.
  dnn::warn_if_input_resized(f.model, f.input_hw);
  std::unique_ptr<dnn::Network> net = dnn::build_model(f.model, f.input_hw);

  // Fold residual shortcuts into their producing convolutions: the skip add
  // runs in the conv epilogue (in-kernel on fused backends) instead of as
  // an extra output-streaming layer.
  const int folded = net->fuse_residuals();

  const core::BackendPlan plan =
      bench::plan_from_flags(*net, machine, policy, f.precision, f.sparsity);
  core::ConvolutionEngine engine(plan);
  runtime::SchedulerConfig cfg;
  cfg.threads = f.threads;
  cfg.vlen_bits = vlen;
  // --chaos: deterministic fault injection + the batch watchdog. The
  // injector must outlive the scheduler.
  std::optional<runtime::FaultInjector> injector;
  if (f.chaos_seed != 0) {
    injector.emplace(runtime::FaultPlan::chaos(f.chaos_seed));
    cfg.fault_injector = &*injector;
    cfg.watchdog_timeout_s = 2.0;
  }
  runtime::BatchScheduler sched(engine, cfg);

  std::printf("serving %s (%zu layers, %d fused shortcuts) | %d requests, "
              "batch<=%d, %d workers | policy=%s precision=%s\n",
              f.model.c_str(), net->num_layers(), folded, f.requests, batch,
              sched.threads(), policy.c_str(), f.precision.c_str());
  std::printf("per-layer dispatch table:\n%s\n",
              engine.plan().summary().c_str());

  // Warm-up (weight caches, workspaces, output reshapes) plus one timed
  // batch: the capacity that sizes the default offered load and the
  // deadline slack.
  const double batch_compute_ms =
      1e3 * bench::warm_batch_seconds(sched, *net, batch);
  const double capacity_ips = batch / (batch_compute_ms / 1e3);
  const double rate = f.rate > 0.0 ? f.rate : 0.8 * capacity_ips;

  serve::ServerConfig scfg{
      .policy = {.max_batch = batch,
                 .max_wait = bench::from_ms(max_wait_ms),
                 // Reserve roughly one batch's compute before a deadline so
                 // the batcher launches early enough to meet it.
                 .deadline_slack = bench::from_ms(
                     deadline_ms > 0.0 ? batch_compute_ms : 0.0)},
      .queue_capacity = queue_cap,
      .block_when_full = block_when_full};
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

  std::printf("offered load: %.1f requests/sec (measured capacity ~%.1f "
              "images/sec); max_wait=%.1f ms, deadline=%s, queue cap=%zu "
              "(%s)\n\n",
              rate, capacity_ips, max_wait_ms,
              deadline_ms > 0.0
                  ? (std::to_string(deadline_ms) + " ms").c_str()
                  : "none",
              queue_cap, block_when_full ? "block" : "reject");

  // Request r's input comes from its own stream, so results do not depend
  // on how requests were grouped into batches. A non-Accepted verdict can
  // only be a queue-full rejection; the server's stats count it.
  const bench::ServedStream res = bench::serve_open_loop(
      sched, *net, scfg,
      bench::steady_trace(f.seed, rate, f.requests,
                          deadline_ms > 0.0 ? std::optional(deadline_ms)
                                            : std::nullopt),
      f.seed);
  if (replanner) replanner->stop();
  const serve::ServerStats& stats = res.stats;
  const serve::ReplanStats& rs = stats.replan;
  // Served means an Ok outcome: `completed` also counts failed requests.
  const std::uint64_t served =
      stats.outcomes[static_cast<std::size_t>(serve::Outcome::Ok)];
  const double ips = static_cast<double>(served) / res.wall_s;

  std::printf("served %llu/%d requests in %.2f s (%.1f images/sec), "
              "%llu shed by the full queue\n",
              static_cast<unsigned long long>(served), f.requests,
              res.wall_s, ips,
              static_cast<unsigned long long>(stats.queue.rejected));
  std::printf("%llu batches, avg %.2f images/batch, queue peak depth %zu\n",
              static_cast<unsigned long long>(stats.batches),
              bench::avg_batch(stats), stats.queue.peak_depth);
  std::printf("launch triggers (per batch): full=%llu max_wait=%llu "
              "deadline=%llu drain=%llu\n",
              static_cast<unsigned long long>(stats.trigger_counts[0]),
              static_cast<unsigned long long>(stats.trigger_counts[1]),
              static_cast<unsigned long long>(stats.trigger_counts[2]),
              static_cast<unsigned long long>(stats.trigger_counts[3]));
  if (deadline_ms > 0.0)
    std::printf("deadline misses: %llu\n",
                static_cast<unsigned long long>(stats.deadline_misses));
  if (f.chaos_seed != 0) {
    const runtime::FaultInjector::Stats fi = injector->stats();
    std::printf("chaos (seed %llu): %llu task stalls, %llu slow-worker "
                "delays, %llu item failures injected; %llu watchdog "
                "cancellations\n",
                static_cast<unsigned long long>(f.chaos_seed),
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
                static_cast<unsigned long long>(rs.plans_recomputed),
                static_cast<unsigned long long>(rs.swaps_applied),
                static_cast<unsigned long long>(rs.last_plan_compute_us),
                rs.current_priced_batch);
    std::printf("live plan backend wins:");
    for (std::size_t b = 0; b < core::kBackendCount; ++b)
      if (rs.wins[b] > 0)
        std::printf(" %s=%llu",
                    core::to_string(static_cast<core::Backend>(b)),
                    static_cast<unsigned long long>(rs.wins[b]));
    std::printf("\n");
  }

  // Latency samples are the Ok completions (chaos failures carry none).
  const std::vector<std::pair<std::string, double>> stages =
      bench::stage_percentiles(res.ok);
  std::printf("\nper-request latency breakdown (ms):\n");
  std::printf("  %-10s %8s %8s %8s\n", "stage", "p50", "p95", "p99");
  const char* stage_names[] = {"queue", "compute", "total"};
  for (std::size_t i = 0; i < 3; ++i)
    std::printf("  %-10s %8.2f %8.2f %8.2f\n", stage_names[i],
                stages[3 * i].second, stages[3 * i + 1].second,
                stages[3 * i + 2].second);

  std::vector<std::pair<std::string, double>> fields = {
      {"images_per_sec", ips},
      {"completed", static_cast<double>(stats.completed)},
      {"rejected", static_cast<double>(stats.queue.rejected)},
      {"avg_batch", bench::avg_batch(stats)}};
  fields.insert(fields.end(), stages.begin(), stages.end());
  fields.insert(
      fields.end(),
      {{"plans_recomputed", static_cast<double>(rs.plans_recomputed)},
       {"plan_swaps_applied", static_cast<double>(rs.swaps_applied)},
       {"last_plan_compute_us", static_cast<double>(rs.last_plan_compute_us)},
       {"plan_priced_batch", static_cast<double>(rs.current_priced_batch)},
       {"chaos_seed", static_cast<double>(f.chaos_seed)},
       {"internal_errors",
        static_cast<double>(stats.outcomes[static_cast<std::size_t>(
            serve::Outcome::InternalError)])},
       {"watchdog_wedges", static_cast<double>(stats.watchdog_wedges)}});
  json.add("model=" + f.model + " policy=" + policy +
               " precision=" + f.precision +
               " batch=" + std::to_string(batch) +
               " max_wait_ms=" + std::to_string(max_wait_ms),
           res.wall_s * 1e3, static_cast<double>(res.bytes_moved), fields);
  return json.write() ? 0 : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
