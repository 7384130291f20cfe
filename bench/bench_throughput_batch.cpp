// Batched multi-threaded throughput: images/sec of the runtime::BatchScheduler
// as a function of worker count and batch size (functional engines — this
// measures the library's host-speed inference runtime, not the simulator).
//
// The headline check: at batch >= 8, 4 workers should deliver >= 2.5x the
// images/sec of 1 worker on a machine with >= 4 cores (batch items are
// independent, so scaling is limited only by memory bandwidth and the
// work graph's barrier layers). The occupancy column is the mean share of
// the pool busy over a timed run (runtime::ExecStats::occupancy()); workers
// idle behind a barrier layer show up there first. The batch=1 rows run
// one chunk per layer:
// no kernel is split across workers, so extra workers help only where
// independent graph tasks can overlap, and these rows scale far less than
// batch >= 8.
//
//   ./bench_throughput_batch [--model=tiny|vgg (full yolo is too heavy
//                             for a scaling sweep)]
//                            [--policy=opt6|opt3|winograd|fused|plan]
//                            [--input=96] [--reps=3] [--max-threads=8]
//                            [--quick] [--json=<path>]
//
// The default policy is opt6, the paper's best uniform GEMM (Fig. 3); an
// unknown --policy exits 1.
// --policy=fused runs the fused conv pipeline (implicit-GEMM packing +
// in-kernel epilogue); --policy=plan runs the simulation-driven per-layer
// BackendPlan (selected once on the a64fx machine config, then reused for
// every row) and, after the table, prints the last run's per-layer backend
// label and wall time (LayerRecord algo, slowest chunk). --json appends one
// {bench, config, wall_ms, bytes_moved, images_per_sec, occupancy,
// lat_p50/95/99_ms} record per (threads, batch) row for the perf
// trajectory — the latency percentiles are over the per-rep batch wall
// times, so BENCH_*.json tracks tail latency alongside throughput.

#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "common/percentile.hpp"
#include "runtime/batch_scheduler.hpp"

using namespace vlacnn;

int main(int argc, char** argv) try {
  CliArgs args(argc, argv);
  args.require_known(
      {"model", "policy", "input", "reps", "max-threads", "quick", "json"});
  const std::string model = args.get("model", "tiny");
  const std::string policy_name = args.get("policy", "opt6");
  const int input_hw = static_cast<int>(args.get_int("input", 96));
  const int reps = static_cast<int>(args.get_int("reps", 3));
  const int max_threads = static_cast<int>(args.get_int("max-threads", 8));
  const bool quick = args.get_bool("quick", false);
  bench::BenchJson json("throughput_batch", args.get("json", ""));
  if (reps < 1 || max_threads < 1) {
    std::fprintf(stderr, "error: --reps and --max-threads must be >= 1\n");
    return 1;
  }

  if (model != "tiny" && model != "vgg") {
    std::fprintf(stderr, "error: unknown --model=%s (tiny|vgg)\n",
                 model.c_str());
    return 1;
  }
  dnn::warn_if_input_resized(model, input_hw);
  std::unique_ptr<dnn::Network> net = dnn::build_model(model, input_hw);
  // Selected (or compiled) once; engines per row share the plan by value.
  const core::BackendPlan plan =
      bench::plan_from_flags(*net, sim::a64fx(), policy_name, "f32", 0.0);
  std::printf("model=%s policy=%s input=%d  hardware threads=%d\n",
              model.c_str(), policy_name.c_str(), input_hw,
              runtime::ThreadPool::hardware_threads());
  if (policy_name == "plan")
    std::printf("per-layer dispatch table:\n%s", plan.summary().c_str());
  std::printf("%-8s %-8s %-12s %-12s %-10s %-10s\n", "threads", "batch",
              "sec/run", "images/sec", "speedup", "occupancy");

  std::vector<int> thread_counts;
  for (int t = 1; t <= max_threads; t *= 2) thread_counts.push_back(t);
  std::vector<int> batches = quick ? std::vector<int>{1, 8}
                                   : std::vector<int>{1, 8, 16};
  std::vector<dnn::LayerRecord> last_records;

  for (int batch : batches) {
    dnn::Tensor input(batch, net->in_c(), net->in_h(), net->in_w());
    input.randomize_batch(1234, 0.0f, 1.0f);
    double base_ips = 0.0;
    for (int threads : thread_counts) {
      core::ConvolutionEngine engine(plan);
      runtime::SchedulerConfig cfg;
      cfg.threads = threads;
      runtime::BatchScheduler sched(engine, cfg);
      // Warm-up (allocations, weight caches).
      bench::batch_seconds(sched, *net, input);
      double best = 1e30, occupancy = 0.0;
      std::uint64_t run_bytes = 0;
      std::vector<double> lat_ms;  // per-rep batch latency -> tail tracking
      lat_ms.reserve(static_cast<std::size_t>(reps));
      for (int r = 0; r < reps; ++r) {
        const std::uint64_t bytes0 = sched.mem_bytes_moved();
        const double sec = bench::batch_seconds(sched, *net, input);
        lat_ms.push_back(sec * 1e3);
        best = std::min(best, sec);
        occupancy += sched.exec_stats().occupancy() / reps;
        run_bytes = sched.mem_bytes_moved() - bytes0;  // constant per run
      }
      last_records = sched.records();
      const double ips = batch / best;
      if (threads == 1) base_ips = ips;
      std::printf("%-8d %-8d %-12.4f %-12.1f %-10.2f %-10.3f\n", threads,
                  batch, best, ips, ips / base_ips, occupancy);
      json.add("model=" + model + " policy=" + policy_name +
                   " threads=" + std::to_string(threads) +
                   " batch=" + std::to_string(batch),
               best * 1e3, static_cast<double>(run_bytes),
               {{"images_per_sec", ips},
                {"occupancy", occupancy},
                {"lat_p50_ms", percentile(lat_ms, 0.50)},
                {"lat_p95_ms", percentile(lat_ms, 0.95)},
                {"lat_p99_ms", percentile(lat_ms, 0.99)}});
    }
  }
  if (policy_name == "plan") {
    Table layers({"layer", "name", "algo", "items", "wall ms"});
    for (std::size_t i = 0; i < last_records.size(); ++i) {
      const dnn::LayerRecord& r = last_records[i];
      layers.add_row({std::to_string(i), r.name, r.algo,
                      std::to_string(r.items),
                      Table::fmt(r.wall_seconds * 1e3, 3)});
    }
    layers.print("last run, per layer (wall ms = slowest chunk):");
  }
  return json.write() ? 0 : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
