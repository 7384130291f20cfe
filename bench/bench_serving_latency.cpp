// Serving latency under micro-batching policies: per-request queue-wait vs.
// compute time (p50/p95/p99) of the async serving runtime, per BatchPolicy.
//
// A producer thread offers a reproducible Poisson-ish request stream at a
// fixed fraction of the measured capacity; each policy serves the same
// stream through serve::Server (admission queue -> deadline-aware
// micro-batcher -> pipelined BatchScheduler). Small batches bound
// queue-wait but pay per-batch overheads; large batches amortize compute
// but make early arrivals wait — this harness makes that tradeoff visible
// as separate queue/compute/total percentile columns per policy.
//
//   ./bench_serving_latency [--model=tiny|vgg] [--input=96] [--threads=0]
//                           [--requests=48] [--load=0.7 (fraction of
//                            measured capacity)] [--rate=<req/s> (absolute
//                            override of load x capacity)] [--seed=1234]
//                           [--quick]
//                           [--precision=f32|bf16|int8]
//                           [--sparsity=0 (block-sparse weight density in
//                            (0,1); 0 = dense)]
//                           [--scenario=steady|ramp|burst|overload3x|
//                            slowloris|mixed-tenant]
//                           [--chaos=<seed> (deterministic fault injection
//                            in the overload scenarios; 0 = off)]
//                           [--check (overload scenarios: exit nonzero if a
//                            robustness gate fails)]
//                           [--json=<path>]
//
// Per-request traces also carry the batch's worker occupancy and idle
// fraction (runtime::ExecStats); their percentiles and quartile histograms
// land in the JSON so the work-graph executor's overlap shows up in the
// perf trajectory.
//
// --scenario=ramp|burst switches to the traffic-shift harness: arrivals
// come from an inhomogeneous Poisson process (piecewise-constant rate,
// simulated by thinning) whose rate ramps up from a fraction of capacity to
// full offered load (ramp) or spikes in the middle of a quiet stream
// (burst). The identical arrival stream is served twice — online
// re-planning off, then on (a serve::Replanner watching the batch-size
// regime and swapping analytically re-priced plans at batch boundaries) —
// and the p50/p95/p99 latencies plus the replanner's counters land in the
// table and the JSON record per scenario. This is the harness behind CI's
// BENCH_replanning.json artifact.
//
// --scenario=overload3x|slowloris|mixed-tenant switches to the overload
// suite: the full hardened pipeline (OverloadGovernor admission + deadline
// shedding + degradation ladder + optional --chaos fault injection +
// watchdog) under adversarial arrival streams. Every request must resolve
// with a typed outcome; --check turns the conservation / shed-rate /
// accepted-p99 invariants into hard gates (nonzero exit). This is the
// harness behind CI's BENCH_overload.json artifact.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/arrival_process.hpp"
#include "common/percentile.hpp"
#include "core/selector.hpp"
#include "runtime/batch_scheduler.hpp"
#include "runtime/fault_injector.hpp"
#include "serve/overload_governor.hpp"
#include "serve/replanner.hpp"
#include "serve/server.hpp"

using namespace vlacnn;

namespace {

struct PolicyCase {
  const char* name;
  int max_batch;
  double max_wait_ms;
};

struct PolicyResult {
  std::vector<double> queue_ms, compute_ms, total_ms;
  std::vector<double> occupancy, idle_frac;
  std::uint64_t overlap_starts = 0;  // summed over requests
  serve::ServerStats stats;
  double wall_s = 0.0;
  std::uint64_t bytes_moved = 0;
};

// Quartile histogram of values in [0, 1]: counts per [0,.25) [.25,.5)
// [.5,.75) [.75,1].
std::array<int, 4> quartile_hist(const std::vector<double>& v) {
  std::array<int, 4> h{};
  for (double x : v) {
    int b = static_cast<int>(x * 4.0);
    if (b < 0) b = 0;
    if (b > 3) b = 3;
    ++h[static_cast<std::size_t>(b)];
  }
  return h;
}

PolicyResult serve_stream(runtime::BatchScheduler& sched, dnn::Network& net,
                          const PolicyCase& pc, int requests, double rate,
                          std::uint64_t seed) {
  serve::ServerConfig cfg;
  cfg.policy.max_batch = pc.max_batch;
  cfg.policy.max_wait = std::chrono::duration_cast<serve::Clock::duration>(
      std::chrono::duration<double, std::milli>(pc.max_wait_ms));
  cfg.queue_capacity = static_cast<std::size_t>(requests);  // no shedding:
  cfg.block_when_full = true;  // every policy serves the identical stream
  serve::Server server(sched, net, cfg);
  server.start();

  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  PoissonArrivals arrivals(seed, rate);
  auto next_arrival = t0;
  for (int r = 0; r < requests; ++r) {
    next_arrival += arrivals.next_gap();
    std::this_thread::sleep_until(next_arrival);
    dnn::Tensor in(1, net.in_c(), net.in_h(), net.in_w());
    in.randomize_item(0, seed + static_cast<std::uint64_t>(r));
    server.submit(static_cast<std::uint64_t>(r), std::move(in));
  }
  server.stop();

  PolicyResult res;
  res.wall_s = std::chrono::duration<double>(clock::now() - t0).count();
  for (const serve::Completion& c : server.drain_completions()) {
    res.queue_ms.push_back(c.trace.queue_ms);
    res.compute_ms.push_back(c.trace.compute_ms);
    res.total_ms.push_back(c.trace.total_ms);
    res.occupancy.push_back(c.trace.batch_occupancy);
    res.idle_frac.push_back(c.trace.worker_idle_frac);
    res.overlap_starts += c.trace.batch_overlap_starts;
  }
  res.stats = server.stats();
  return res;
}

// One pass of the traffic-shift harness: serves the scenario's arrival
// stream (identical across passes for a given seed) with re-planning off or
// on, and returns the latency vectors plus the server's merged counters.
PolicyResult serve_scenario(runtime::BatchScheduler& sched, dnn::Network& net,
                            const std::vector<PiecewiseRateArrivals::Segment>&
                                segments,
                            std::uint64_t seed, serve::Replanner* rp) {
  serve::ServerConfig cfg;
  cfg.policy.max_batch = 8;
  cfg.policy.max_wait = std::chrono::duration_cast<serve::Clock::duration>(
      std::chrono::duration<double, std::milli>(2.0));
  cfg.queue_capacity = 512;
  cfg.block_when_full = true;  // identical stream: never shed
  cfg.replanner = rp;
  serve::Server server(sched, net, cfg);
  server.start();

  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  PiecewiseRateArrivals arrivals(seed, segments);
  const double horizon = arrivals.horizon_seconds();
  for (std::uint64_t r = 0;; ++r) {
    const double at = arrivals.next_arrival_seconds();
    if (at >= horizon) break;
    std::this_thread::sleep_until(
        t0 + std::chrono::duration_cast<clock::duration>(
                 std::chrono::duration<double>(at)));
    dnn::Tensor in(1, net.in_c(), net.in_h(), net.in_w());
    in.randomize_item(0, seed + r);
    server.submit(r, std::move(in));
  }
  server.stop();

  PolicyResult res;
  res.wall_s = std::chrono::duration<double>(clock::now() - t0).count();
  for (const serve::Completion& c : server.drain_completions()) {
    res.queue_ms.push_back(c.trace.queue_ms);
    res.compute_ms.push_back(c.trace.compute_ms);
    res.total_ms.push_back(c.trace.total_ms);
    res.occupancy.push_back(c.trace.batch_occupancy);
    res.idle_frac.push_back(c.trace.worker_idle_frac);
    res.overlap_starts += c.trace.batch_overlap_starts;
  }
  res.stats = server.stats();
  return res;
}

int run_scenario(const std::string& scenario, const std::string& model,
                 int input_hw, int threads, int requests, double load,
                 double rate_override, std::uint64_t seed,
                 bench::BenchJson& json) {
  std::unique_ptr<dnn::Network> net = dnn::build_model(model, input_hw);
  net->fuse_residuals();

  // A per-layer analytic plan priced for batch 1 (the low-traffic regime a
  // scenario starts in): the structural CostModel ranks in microseconds, no
  // simulator in the bench loop. The replanner re-prices the same admitted
  // candidates as the regime shifts.
  const sim::MachineConfig machine = sim::a64fx();
  core::BackendPlan tuned;
  tuned.opt6.blocks = gemm::tune_block_sizes(machine);
  core::CostModel cm(machine, tuned.opt6);
  core::BackendPlan plan = core::select_per_layer(
      *net, machine, 7, /*batch=*/1, {}, core::CostSource::Analytic, &cm);

  core::ConvolutionEngine engine(plan);
  runtime::SchedulerConfig scfg;
  scfg.threads = threads;
  runtime::BatchScheduler sched(engine, scfg);

  double capacity_ips;
  {
    dnn::Tensor warm(8, net->in_c(), net->in_h(), net->in_w());
    warm.randomize_batch(99);
    sched.run(*net, warm);
    const auto t0 = std::chrono::steady_clock::now();
    sched.run(*net, warm);
    capacity_ips = 8.0 / std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  }
  const double peak = rate_override > 0.0 ? rate_override : load * capacity_ips;

  // Segment durations sized so the expected arrival count matches
  // --requests at the scenario's mean rate.
  std::vector<PiecewiseRateArrivals::Segment> segments;
  if (scenario == "ramp") {
    const double mean = 0.625 * peak;  // mean of 0.25..1.0 over 4 steps
    segments = PiecewiseRateArrivals::ramp(0.25 * peak, peak, 4,
                                           requests / mean / 4.0);
  } else {
    const double mean = (0.4 + 1.0) / 3.0 * peak;  // quiet/spike/quiet thirds
    const double third = requests / mean / 3.0;
    segments = PiecewiseRateArrivals::burst(0.2 * peak, peak, third, third);
  }

  std::printf("== serving latency under traffic shift (%s) ==\n",
              scenario.c_str());
  std::printf("model=%s input=%d workers=%d | capacity ~%.1f images/sec, "
              "peak offered %.1f req/sec | horizon %.1fs\n\n",
              model.c_str(), input_hw, sched.threads(), capacity_ips, peak,
              PiecewiseRateArrivals(seed, segments).horizon_seconds());
  std::printf("%-10s %5s %7s | %8s %8s %8s | %7s %6s %9s %7s\n", "replan",
              "done", "avg_b", "t_p50", "t_p95", "t_p99", "replans", "swaps",
              "plan_us", "priced");

  for (const bool replan : {false, true}) {
    serve::Replanner rp(
        sched, *net, cm, plan,
        {/*max_batch=*/8, /*window=*/8, /*hysteresis=*/1.5,
         /*min_batches=*/6, /*cooldown_batches=*/6});
    if (replan) rp.start();
    PolicyResult res =
        serve_scenario(sched, *net, segments, seed, replan ? &rp : nullptr);
    if (replan) rp.stop();
    const auto p = [](const std::vector<double>& v, double q) {
      return percentile(v, q);
    };
    const double avg_b =
        res.stats.batches > 0
            ? res.stats.sum_batch_items / static_cast<double>(res.stats.batches)
            : 0.0;
    std::printf("%-10s %5llu %7.2f | %8.2f %8.2f %8.2f | %7llu %6llu %9llu "
                "%7d\n",
                replan ? "on" : "off",
                static_cast<unsigned long long>(res.stats.completed), avg_b,
                p(res.total_ms, 0.50), p(res.total_ms, 0.95),
                p(res.total_ms, 0.99),
                static_cast<unsigned long long>(res.stats.plans_recomputed),
                static_cast<unsigned long long>(res.stats.plan_swaps_applied),
                static_cast<unsigned long long>(res.stats.last_plan_compute_us),
                res.stats.plan_priced_batch);
    json.add(std::string("model=") + model + " scenario=" + scenario +
                 " replan=" + (replan ? "on" : "off"),
             res.wall_s * 1e3, 0.0,
             {{"images_per_sec",
               static_cast<double>(res.stats.completed) / res.wall_s},
              {"avg_batch", avg_b},
              {"queue_p99_ms", p(res.queue_ms, 0.99)},
              {"compute_p99_ms", p(res.compute_ms, 0.99)},
              {"total_p50_ms", p(res.total_ms, 0.50)},
              {"total_p95_ms", p(res.total_ms, 0.95)},
              {"total_p99_ms", p(res.total_ms, 0.99)},
              {"plans_recomputed",
               static_cast<double>(res.stats.plans_recomputed)},
              {"plan_swaps_applied",
               static_cast<double>(res.stats.plan_swaps_applied)},
              {"last_plan_compute_us",
               static_cast<double>(res.stats.last_plan_compute_us)},
              {"plan_priced_batch",
               static_cast<double>(res.stats.plan_priced_batch)}});
  }
  std::printf("\nre-planning re-prices the admitted candidates for the "
              "regime's effective batch and swaps at a batch boundary; "
              "outputs stay bit-identical (pinned in test_serve).\n");
  if (!json.write()) return 1;
  return 0;
}

// ---------------------------------------------------------------------------
// Overload scenario suite.

// Requests are split into two traffic classes (primary / secondary) so the
// gates can tell victims from aggressors; the class rides in the request id.
constexpr std::uint64_t kClassBit = std::uint64_t{1} << 32;

struct ClassTally {
  std::uint64_t submitted = 0;
  std::uint64_t rejected = 0;  ///< at admission (queue-full or governor)
  std::array<std::uint64_t, serve::kOutcomeCount> delivered{};
  std::vector<double> ok_total_ms;
  std::vector<double> ok_queue_ms;
};

int run_overload(const std::string& scenario, const std::string& model,
                 int input_hw, int threads, int requests, std::uint64_t seed,
                 std::uint64_t chaos_seed, bool check,
                 const std::string& json_path) {
  bench::BenchJson json("serving_overload", json_path);
  std::unique_ptr<dnn::Network> net = dnn::build_model(model, input_hw);
  net->fuse_residuals();

  // Same analytic per-layer plan as the traffic-shift harness; the ladder's
  // tiers (bf16, int8) are derived from it.
  const sim::MachineConfig machine = sim::a64fx();
  core::BackendPlan tuned;
  tuned.opt6.blocks = gemm::tune_block_sizes(machine);
  core::CostModel cm(machine, tuned.opt6);
  core::BackendPlan plan = core::select_per_layer(
      *net, machine, 7, /*batch=*/1, {}, core::CostSource::Analytic, &cm);

  core::ConvolutionEngine engine(plan);
  runtime::FaultInjector injector(runtime::FaultPlan::chaos(chaos_seed));
  runtime::SchedulerConfig scfg;
  scfg.threads = threads;
  if (chaos_seed != 0) scfg.fault_injector = &injector;
  scfg.watchdog_timeout_s = 2.0;  // chaos stalls are ~20ms: far below this
  runtime::BatchScheduler sched(engine, scfg);

  // Capacity + batch-8 service time: sets the offered overload rates and
  // the accepted-latency gate's scale.
  double capacity_ips, batch8_ms;
  {
    dnn::Tensor warm(8, net->in_c(), net->in_h(), net->in_w());
    warm.randomize_batch(99);
    sched.run(*net, warm);
    const auto t0 = std::chrono::steady_clock::now();
    sched.run(*net, warm);
    const double s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    capacity_ips = 8.0 / s;
    batch8_ms = s * 1e3;
  }

  serve::Replanner rp(sched, *net, cm, plan,
                      {/*max_batch=*/8, /*window=*/8, /*hysteresis=*/1.5,
                       /*min_batches=*/6, /*cooldown_batches=*/6});
  rp.set_tiers(serve::default_degradation_tiers(plan));
  rp.start();

  serve::GovernorConfig gcfg;
  gcfg.target_sojourn_ms = 10.0;
  gcfg.interval_ms = 50.0;
  gcfg.est_item_seconds = serve::estimate_item_seconds(plan, machine.freq_ghz);
  gcfg.max_tier = 2;
  gcfg.degrade_after_ms = 100.0;
  gcfg.recover_after_ms = 150.0;
  gcfg.cooldown_ms = 50.0;
  serve::OverloadGovernor governor(gcfg,
                                   [&rp](int tier) { rp.request_tier(tier); });

  std::mutex tally_mu;
  std::array<ClassTally, 2> tally;

  serve::ServerConfig cfg;
  cfg.policy.max_batch = 8;
  cfg.policy.max_wait = std::chrono::duration_cast<serve::Clock::duration>(
      std::chrono::duration<double, std::milli>(2.0));
  cfg.queue_capacity = 64;
  cfg.block_when_full = false;  // overload harness: shed, never block
  cfg.replanner = &rp;
  cfg.governor = &governor;
  cfg.on_complete = [&](serve::Completion&& c) {
    const std::size_t cls = (c.trace.id & kClassBit) != 0 ? 1 : 0;
    std::lock_guard<std::mutex> lock(tally_mu);
    ClassTally& t = tally[cls];
    t.delivered[static_cast<std::size_t>(c.trace.outcome)] += 1;
    if (c.trace.outcome == serve::Outcome::Ok) {
      t.ok_total_ms.push_back(c.trace.total_ms);
      t.ok_queue_ms.push_back(c.trace.queue_ms);
    }
  };
  serve::Server server(sched, *net, cfg);
  server.start();

  // The deadline every well-behaved request carries: a couple of batch-8
  // service times — tight enough that a 3x standing queue overruns it,
  // loose enough that a promptly-served request makes it.
  const double budget_ms = std::max(50.0, 2.0 * batch8_ms);
  const auto deadline_in = [](double ms) {
    return ms <= 0.0 ? serve::Clock::now()
                     : serve::Clock::now() +
                           std::chrono::duration_cast<serve::Clock::duration>(
                               std::chrono::duration<double, std::milli>(ms));
  };
  const auto submit_one = [&](std::size_t cls, std::uint64_t idx,
                              serve::Clock::time_point dl) {
    dnn::Tensor in(1, net->in_c(), net->in_h(), net->in_w());
    in.randomize_item(0, seed + idx);
    const std::uint64_t id = idx | (cls == 1 ? kClassBit : 0);
    const serve::Admit a = server.submit(id, std::move(in), dl);
    std::lock_guard<std::mutex> lock(tally_mu);
    ++tally[cls].submitted;
    if (a != serve::Admit::Accepted) ++tally[cls].rejected;
  };

  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  const auto sleep_to = [&t0](double at_s) {
    std::this_thread::sleep_until(
        t0 + std::chrono::duration_cast<clock::duration>(
                 std::chrono::duration<double>(at_s)));
  };
  double horizon = 0.0;
  std::uint64_t idx = 0;
  if (scenario == "overload3x") {
    // 3x capacity for half the horizon, then 0.4x — the governor must shed
    // through the storm and the ladder must degrade and recover. The horizon
    // scales with the measured batch time so the queue dynamics (backlog
    // build-up, CoDel interval, ladder windows) have room on slow machines.
    const double half = std::max(
        {1.0, 4.0 * batch8_ms * 1e-3,
         static_cast<double>(requests) / (3.4 * capacity_ips)});
    PiecewiseRateArrivals arrivals(
        seed, {{half, 3.0 * capacity_ips}, {half, 0.4 * capacity_ips}});
    horizon = arrivals.horizon_seconds();
    for (;;) {
      const double at = arrivals.next_arrival_seconds();
      if (at >= horizon) break;
      sleep_to(at);
      submit_one(0, idx++, deadline_in(budget_ms));
    }
  } else if (scenario == "slowloris") {
    // A healthy 0.6x stream plus a trickle of requests whose deadline has
    // already expired at submission — doomed work the governor's capacity
    // estimate must turn away at admission (or dequeue-shedding must drop)
    // without ever letting it occupy a batch slot.
    horizon =
        std::max(2.0, static_cast<double>(requests) / (0.6 * capacity_ips));
    PoissonArrivals healthy(seed, 0.6 * capacity_ips);
    PoissonArrivals loris(seed + 1, 20.0);
    double t_h = healthy.next_gap_seconds();
    double t_l = loris.next_gap_seconds();
    for (;;) {
      const bool is_healthy = t_h <= t_l;
      const double at = is_healthy ? t_h : t_l;
      if (at >= horizon) break;
      sleep_to(at);
      if (is_healthy) {
        submit_one(0, idx++, deadline_in(budget_ms));
        t_h += healthy.next_gap_seconds();
      } else {
        submit_one(1, idx++, deadline_in(0.0));  // already expired
        t_l += loris.next_gap_seconds();
      }
    }
  } else {  // mixed-tenant
    // One 1.5x stream, alternating tenants: A (class 0) carries deadlines
    // and absorbs the shedding; B (class 1) is deadline-less batch traffic
    // that must never be deadline-shed, only overload-rejected.
    horizon =
        std::max(2.0, static_cast<double>(requests) / (1.5 * capacity_ips));
    PoissonArrivals arrivals(seed, 1.5 * capacity_ips);
    double at = arrivals.next_gap_seconds();
    for (;;) {
      if (at >= horizon) break;
      sleep_to(at);
      const std::size_t cls = idx % 2;
      submit_one(cls, idx,
                 cls == 0 ? deadline_in(budget_ms) : serve::kNoDeadline);
      ++idx;
      at += arrivals.next_gap_seconds();
    }
  }
  server.stop();
  const double wall_s = std::chrono::duration<double>(clock::now() - t0).count();
  rp.stop();

  const serve::ServerStats st = server.stats();
  const runtime::FaultInjector::Stats fs = injector.stats();
  std::uint64_t submitted = 0, resolved = 0;
  for (const ClassTally& t : tally) {
    submitted += t.submitted;
    resolved += t.rejected;
    for (const std::uint64_t d : t.delivered) resolved += d;
  }
  std::uint64_t outcome_sum = 0;
  for (const std::uint64_t o : st.outcomes) outcome_sum += o;

  const auto p = [](const std::vector<double>& v, double q) {
    return percentile(v, q);
  };
  std::printf("== overload scenario: %s ==\n", scenario.c_str());
  std::printf("model=%s input=%d workers=%d | capacity ~%.1f images/sec "
              "(batch8 %.2f ms) | horizon %.1fs | chaos=%llu\n\n",
              model.c_str(), input_hw, sched.threads(), capacity_ips,
              batch8_ms, horizon,
              static_cast<unsigned long long>(chaos_seed));
  std::printf("%-9s %6s %6s | %6s %6s %6s %6s | %8s %8s\n", "class", "sub",
              "rej", "ok", "shed", "canc", "ierr", "ok_p50", "ok_p99");
  const char* class_names[2] = {"primary", "secondary"};
  for (std::size_t c = 0; c < 2; ++c) {
    const ClassTally& t = tally[c];
    if (t.submitted == 0) continue;
    std::printf(
        "%-9s %6llu %6llu | %6llu %6llu %6llu %6llu | %8.2f %8.2f\n",
        class_names[c], static_cast<unsigned long long>(t.submitted),
        static_cast<unsigned long long>(t.rejected),
        static_cast<unsigned long long>(
            t.delivered[static_cast<std::size_t>(serve::Outcome::Ok)]),
        static_cast<unsigned long long>(t.delivered[static_cast<std::size_t>(
            serve::Outcome::ShedDeadline)]),
        static_cast<unsigned long long>(
            t.delivered[static_cast<std::size_t>(serve::Outcome::Cancelled)]),
        static_cast<unsigned long long>(t.delivered[static_cast<std::size_t>(
            serve::Outcome::InternalError)]),
        p(t.ok_total_ms, 0.50), p(t.ok_total_ms, 0.99));
  }
  std::printf("\ngovernor: rejected_overload=%llu rejected_doomed=%llu "
              "drop_intervals=%llu | ladder: tier=%d degrades=%llu "
              "recoveries=%llu | watchdog_wedges=%llu | faults: stalls=%llu "
              "slows=%llu item_fails=%llu\n",
              static_cast<unsigned long long>(st.governor_rejected_overload),
              static_cast<unsigned long long>(st.governor_rejected_doomed),
              static_cast<unsigned long long>(st.drop_intervals), st.tier,
              static_cast<unsigned long long>(st.tier_degrades),
              static_cast<unsigned long long>(st.tier_recoveries),
              static_cast<unsigned long long>(st.watchdog_wedges),
              static_cast<unsigned long long>(fs.task_stalls),
              static_cast<unsigned long long>(fs.worker_slows),
              static_cast<unsigned long long>(fs.item_failures));

  // Robustness gates. Reported always; --check makes them the exit status.
  std::vector<std::string> failures;
  const auto gate = [&](bool ok, const std::string& what) {
    std::printf("gate %-52s %s\n", what.c_str(), ok ? "PASS" : "FAIL");
    if (!ok) failures.push_back(what);
  };
  std::printf("\n");
  // Conservation: every submitted request resolved with exactly one typed
  // outcome — locally (admission verdict or delivered completion, per
  // class) and in the server's merged outcome tally.
  gate(resolved == submitted, "conservation: typed outcome per request");
  gate(outcome_sum == submitted, "conservation: server outcome tally");
  if (chaos_seed == 0)
    gate(st.watchdog_wedges == 0, "no watchdog wedges without chaos");
  const std::uint64_t ok_primary =
      tally[0].delivered[static_cast<std::size_t>(serve::Outcome::Ok)];
  if (scenario == "overload3x") {
    const double shed_frac =
        submitted > 0
            ? 1.0 - static_cast<double>(ok_primary) / submitted
            : 0.0;
    gate(shed_frac > 0.05 && shed_frac < 0.95,
         "overload3x: shed fraction in (5%, 95%)");
    gate(ok_primary > 0, "overload3x: goodput > 0");
    const double p99_bound =
        budget_ms + 10.0 * batch8_ms + (chaos_seed != 0 ? 500.0 : 200.0);
    gate(p(tally[0].ok_total_ms, 0.99) <= p99_bound,
         "overload3x: accepted p99 bounded");
  } else if (scenario == "slowloris") {
    gate(tally[1].delivered[static_cast<std::size_t>(serve::Outcome::Ok)] ==
             0,
         "slowloris: no expired request ever served");
    gate(tally[0].submitted > 0 &&
             static_cast<double>(ok_primary) / tally[0].submitted >= 0.5,
         "slowloris: healthy goodput >= 50%");
  } else {  // mixed-tenant
    gate(tally[1].delivered[static_cast<std::size_t>(
             serve::Outcome::ShedDeadline)] == 0,
         "mixed-tenant: deadline-less tenant never shed");
    const double p99_bound =
        budget_ms + 10.0 * batch8_ms + (chaos_seed != 0 ? 500.0 : 200.0);
    gate(tally[0].ok_total_ms.empty() ||
             p(tally[0].ok_total_ms, 0.99) <= p99_bound,
         "mixed-tenant: tenant-A accepted p99 bounded");
  }

  json.add(
      std::string("model=") + model + " scenario=" + scenario +
          " chaos=" + std::to_string(chaos_seed),
      wall_s * 1e3, 0.0,
      {{"submitted", static_cast<double>(submitted)},
       {"ok", static_cast<double>(
                  st.outcomes[static_cast<std::size_t>(serve::Outcome::Ok)])},
       {"rejected_overload",
        static_cast<double>(st.outcomes[static_cast<std::size_t>(
            serve::Outcome::RejectedOverload)])},
       {"shed_deadline",
        static_cast<double>(st.outcomes[static_cast<std::size_t>(
            serve::Outcome::ShedDeadline)])},
       {"cancelled", static_cast<double>(st.outcomes[static_cast<std::size_t>(
                         serve::Outcome::Cancelled)])},
       {"internal_error",
        static_cast<double>(st.outcomes[static_cast<std::size_t>(
            serve::Outcome::InternalError)])},
       {"governor_rejected_overload",
        static_cast<double>(st.governor_rejected_overload)},
       {"governor_rejected_doomed",
        static_cast<double>(st.governor_rejected_doomed)},
       {"drop_intervals", static_cast<double>(st.drop_intervals)},
       {"tier_degrades", static_cast<double>(st.tier_degrades)},
       {"tier_recoveries", static_cast<double>(st.tier_recoveries)},
       {"watchdog_wedges", static_cast<double>(st.watchdog_wedges)},
       {"fault_task_stalls", static_cast<double>(fs.task_stalls)},
       {"fault_item_failures", static_cast<double>(fs.item_failures)},
       {"ok_p50_ms", p(tally[0].ok_total_ms, 0.50)},
       {"ok_p99_ms", p(tally[0].ok_total_ms, 0.99)},
       {"ok_queue_p99_ms", p(tally[0].ok_queue_ms, 0.99)},
       {"budget_ms", budget_ms},
       {"batch8_ms", batch8_ms},
       {"capacity_ips", capacity_ips},
       {"gates_failed", static_cast<double>(failures.size())}});
  if (!json.write()) return 1;
  if (!failures.empty()) {
    std::fprintf(stderr, "\n%zu robustness gate(s) FAILED:\n",
                 failures.size());
    for (const std::string& f : failures)
      std::fprintf(stderr, "  - %s\n", f.c_str());
    if (check) return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const std::string model = args.get("model", "tiny");
  const int input_hw = static_cast<int>(args.get_int("input", 96));
  const int threads = static_cast<int>(args.get_int("threads", 0));
  const bool quick = args.get_bool("quick", false);
  const int requests =
      static_cast<int>(args.get_int("requests", quick ? 16 : 48));
  const double load = args.get_double("load", 0.7);
  const double rate_override = args.get_double("rate", 0.0);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1234));
  const std::string precision = args.get("precision", "f32");
  const std::string scenario = args.get("scenario", "steady");
  const auto chaos_seed = static_cast<std::uint64_t>(args.get_int("chaos", 0));
  const bool check = args.get_bool("check", false);
  if (requests < 1 || load <= 0.0) {
    std::fprintf(stderr, "error: --requests >= 1 and --load > 0 required\n");
    return 1;
  }
  const bool overload = scenario == "overload3x" || scenario == "slowloris" ||
                        scenario == "mixed-tenant";
  if (!overload && scenario != "steady" && scenario != "ramp" &&
      scenario != "burst") {
    std::fprintf(stderr,
                 "error: unknown --scenario=%s (steady|ramp|burst|"
                 "overload3x|slowloris|mixed-tenant)\n",
                 scenario.c_str());
    return 1;
  }

  dnn::warn_if_input_resized(model, input_hw);
  if (overload)
    // Overload suite: governor + ladder + optional chaos, its own JSON
    // record name (serving_overload -> BENCH_overload.json in CI).
    return run_overload(scenario, model, input_hw, threads, requests, seed,
                        chaos_seed, check, args.get("json", ""));
  bench::BenchJson json("serving_latency", args.get("json", ""));
  if (scenario != "steady")
    // Traffic-shift harness: per-layer analytic plan + optional online
    // re-planning instead of the per-policy sweep (fp32 dense; --precision /
    // --sparsity apply to the steady sweep only).
    return run_scenario(scenario, model, input_hw, threads, requests, load,
                        rate_override, seed, json);
  std::unique_ptr<dnn::Network> net = dnn::build_model(model, input_hw);
  net->fuse_residuals();

  core::BackendPlan plan =
      core::BackendPlan::uniform(core::EnginePolicy::fused());
  // --precision routes the Gemm6-family convs through reduced-precision
  // resident weight images, so serving percentiles compare across formats
  // with one flag.
  if (precision == "bf16") {
    plan = plan.with_precision(gemm::PackFormat::Bf16);
  } else if (precision == "int8") {
    plan = plan.with_precision(gemm::PackFormat::Int8PerChannel);
  } else if (precision != "f32") {
    std::fprintf(stderr, "error: unknown --precision=%s (f32|bf16|int8)\n",
                 precision.c_str());
    return 1;
  }
  // --sparsity composes with --precision: block-sparse resident images at
  // the given density (0 = dense), the Gemm6-family convs skip-walking only
  // the kept 4x16 blocks.
  const double sparsity = args.get_double("sparsity", 0.0);
  if (sparsity < 0.0 || sparsity > 1.0) {
    std::fprintf(stderr, "error: --sparsity=%g must be in [0,1]\n", sparsity);
    return 1;
  }
  if (sparsity > 0.0) plan = plan.with_sparsity(sparsity);
  core::ConvolutionEngine engine(std::move(plan));
  runtime::SchedulerConfig cfg;
  cfg.threads = threads;
  runtime::BatchScheduler sched(engine, cfg);

  // Capacity measurement (and warm-up): batch-8 images/sec of the
  // synchronous path sets the offered load for every policy.
  double capacity_ips;
  {
    dnn::Tensor warm(8, net->in_c(), net->in_h(), net->in_w());
    warm.randomize_batch(99);
    sched.run(*net, warm);  // warm-up: caches, workspaces
    const auto t0 = std::chrono::steady_clock::now();
    sched.run(*net, warm);
    capacity_ips = 8.0 / std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  }
  const double rate = rate_override > 0.0 ? rate_override : load * capacity_ips;

  std::printf("== serving latency vs. micro-batching policy ==\n");
  std::printf("model=%s input=%d workers=%d | capacity ~%.1f "
              "images/sec, offered %.1f req/sec (load %.2f%s) | %d "
              "requests/policy\n\n",
              model.c_str(), input_hw, sched.threads(), capacity_ips, rate,
              rate / capacity_ips,
              rate_override > 0.0 ? ", --rate override" : "", requests);
  std::printf("%-10s %7s | %8s %8s %8s | %8s %8s %8s | %8s %8s %8s | %5s %7s\n",
              "policy", "avg_b", "q_p50", "q_p95", "q_p99", "c_p50", "c_p95",
              "c_p99", "t_p50", "t_p95", "t_p99", "occ", "ovl");

  std::vector<PolicyCase> cases;
  if (quick)
    cases = {{"batch1", 1, 0.0}, {"mb8_w2", 8, 2.0}};
  else
    cases = {{"batch1", 1, 0.0},
             {"mb4_w1", 4, 1.0},
             {"mb8_w2", 8, 2.0},
             {"mb8_w8", 8, 8.0}};

  for (const PolicyCase& pc : cases) {
    const std::uint64_t bytes0 = sched.mem_bytes_moved();
    PolicyResult res = serve_stream(sched, *net, pc, requests, rate, seed);
    res.bytes_moved = sched.mem_bytes_moved() - bytes0;
    const auto p = [](const std::vector<double>& v, double q) {
      return percentile(v, q);
    };
    const double avg_b =
        res.stats.batches > 0
            ? res.stats.sum_batch_items /
                  static_cast<double>(res.stats.batches)
            : 0.0;
    std::printf("%-10s %7.2f | %8.2f %8.2f %8.2f | %8.2f %8.2f %8.2f | "
                "%8.2f %8.2f %8.2f | %5.2f %7llu\n",
                pc.name, avg_b, p(res.queue_ms, 0.50), p(res.queue_ms, 0.95),
                p(res.queue_ms, 0.99), p(res.compute_ms, 0.50),
                p(res.compute_ms, 0.95), p(res.compute_ms, 0.99),
                p(res.total_ms, 0.50), p(res.total_ms, 0.95),
                p(res.total_ms, 0.99), p(res.occupancy, 0.50),
                static_cast<unsigned long long>(res.overlap_starts));
    const std::array<int, 4> occ_h = quartile_hist(res.occupancy);
    const std::array<int, 4> idle_h = quartile_hist(res.idle_frac);
    json.add(std::string("model=") + model + " precision=" + precision +
                 " sparsity=" + Table::fmt(sparsity, 2) +
                 " policy=" + pc.name +
                 " max_batch=" + std::to_string(pc.max_batch) +
                 " max_wait_ms=" + std::to_string(pc.max_wait_ms),
             res.wall_s * 1e3, static_cast<double>(res.bytes_moved),
             {{"images_per_sec",
               static_cast<double>(res.stats.completed) / res.wall_s},
              {"avg_batch", avg_b},
              {"queue_p50_ms", p(res.queue_ms, 0.50)},
              {"queue_p95_ms", p(res.queue_ms, 0.95)},
              {"queue_p99_ms", p(res.queue_ms, 0.99)},
              {"compute_p50_ms", p(res.compute_ms, 0.50)},
              {"compute_p95_ms", p(res.compute_ms, 0.95)},
              {"compute_p99_ms", p(res.compute_ms, 0.99)},
              {"total_p50_ms", p(res.total_ms, 0.50)},
              {"total_p95_ms", p(res.total_ms, 0.95)},
              {"total_p99_ms", p(res.total_ms, 0.99)},
              {"occupancy_p50", p(res.occupancy, 0.50)},
              {"occupancy_p95", p(res.occupancy, 0.95)},
              {"idle_frac_p50", p(res.idle_frac, 0.50)},
              {"idle_frac_p95", p(res.idle_frac, 0.95)},
              {"occ_hist_q1", static_cast<double>(occ_h[0])},
              {"occ_hist_q2", static_cast<double>(occ_h[1])},
              {"occ_hist_q3", static_cast<double>(occ_h[2])},
              {"occ_hist_q4", static_cast<double>(occ_h[3])},
              {"idle_hist_q1", static_cast<double>(idle_h[0])},
              {"idle_hist_q2", static_cast<double>(idle_h[1])},
              {"idle_hist_q3", static_cast<double>(idle_h[2])},
              {"idle_hist_q4", static_cast<double>(idle_h[3])},
              {"overlap_task_starts", static_cast<double>(res.overlap_starts)}});
  }
  std::printf("\nqueue-wait grows with batch window (max_wait) while compute "
              "amortizes; batch1 minimizes queueing but forfeits batch "
              "sharding across the pool.\n");
  if (!json.write()) return 1;
  return 0;
}
