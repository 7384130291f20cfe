// Serving latency under micro-batching policies: per-request queue-wait vs.
// compute time (p50/p95/p99) of the async serving runtime, per BatchPolicy.
//
// An open-loop client (bench::serve_open_loop) offers a reproducible
// Poisson-ish request stream at a fixed fraction of the measured capacity;
// each policy serves the same precomputed arrival trace through
// serve::Server (admission queue -> deadline-aware micro-batcher ->
// pipelined BatchScheduler). Small batches bound
// queue-wait but pay per-batch overheads; large batches amortize compute
// but make early arrivals wait — this harness makes that tradeoff visible
// as separate queue/compute/total percentile columns per policy.
//
//   ./bench_serving_latency [--model=tiny|vgg] [--input=96] [--threads=0]
//                           [--requests=48] [--load=0.7 (fraction of
//                            measured capacity)] [--rate=<req/s> (absolute
//                            override of load x capacity)] [--seed=1234]
//                           [--quick]
//                           [--precision=f32|bf16|int8 (steady only)]
//                           [--sparsity=0 (block-sparse weight density in
//                            [0,1]; 0 = dense; steady only)]
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
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "runtime/fault_injector.hpp"

using namespace vlacnn;

namespace {

/// The parsed command line, shared by the three harnesses.
struct Flags : bench::ServingFlags {
  std::string scenario;
  double load;
  bool quick, check;

  explicit Flags(const CliArgs& args)
      : ServingFlags(args, args.get_bool("quick", false) ? 16 : 48),
        scenario(args.get("scenario", "steady")),
        load(args.get_double("load", 0.7)),
        quick(args.get_bool("quick", false)),
        check(args.get_bool("check", false)) {}
};

struct PolicyCase {
  const char* name;
  int max_batch;
  double max_wait_ms;
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

double p(const std::vector<double>& v, double q) { return percentile(v, q); }

// A per-layer analytic plan priced for batch 1 (the low-traffic regime a
// stream starts in): the structural CostModel ranks in microseconds, no
// simulator in the bench loop. The replanner re-prices the same admitted
// candidates as the regime shifts; the overload ladder's tiers (bf16, int8)
// derive from it.
const sim::MachineConfig kMachine = sim::a64fx();
const serve::ReplannerConfig kReplan{/*max_batch=*/8, /*window=*/8,
                                     /*hysteresis=*/1.5, /*min_batches=*/6,
                                     /*cooldown_batches=*/6};

core::CostModel analytic_model() {
  core::BackendPlan tuned;
  tuned.opt6.blocks = gemm::tune_block_sizes(kMachine);
  return core::CostModel(kMachine, tuned.opt6);
}

core::BackendPlan analytic_plan(dnn::Network& net, core::CostModel& cm) {
  return core::select_per_layer(net, kMachine, 7, /*batch=*/1, {},
                                core::CostSource::Analytic, &cm);
}

// Per-policy sweep: the same steady Poisson stream through each
// micro-batching policy.
int run_steady(const Flags& f, dnn::Network& net, bench::BenchJson& json) {
  // --precision routes the Gemm6-family convs through reduced-precision
  // resident weight images and --sparsity composes block-sparse ones, so
  // serving percentiles compare across formats with one flag.
  core::ConvolutionEngine engine(
      bench::plan_from_flags(net, kMachine, "fused", f.precision, f.sparsity));
  runtime::BatchScheduler sched(engine, {.threads = f.threads});

  // Capacity measurement (and warm-up): batch-8 images/sec of the
  // synchronous path sets the offered load for every policy.
  const double capacity_ips = 8.0 / bench::warm_batch_seconds(sched, net);
  const double rate = f.rate > 0.0 ? f.rate : f.load * capacity_ips;
  const bench::ArrivalTrace trace =
      bench::steady_trace(f.seed, rate, f.requests);

  std::printf("== serving latency vs. micro-batching policy ==\n");
  std::printf("model=%s input=%d workers=%d | capacity ~%.1f "
              "images/sec, offered %.1f req/sec (load %.2f%s) | %d "
              "requests/policy\n\n",
              f.model.c_str(), f.input_hw, sched.threads(), capacity_ips, rate,
              rate / capacity_ips, f.rate > 0.0 ? ", --rate override" : "",
              f.requests);
  std::printf("%-10s %7s | %8s %8s %8s | %8s %8s %8s | %8s %8s %8s | %5s %7s\n",
              "policy", "avg_b", "q_p50", "q_p95", "q_p99", "c_p50", "c_p95",
              "c_p99", "t_p50", "t_p95", "t_p99", "occ", "ovl");

  std::vector<PolicyCase> cases;
  if (f.quick)
    cases = {{"batch1", 1, 0.0}, {"mb8_w2", 8, 2.0}};
  else
    cases = {{"batch1", 1, 0.0},
             {"mb4_w1", 4, 1.0},
             {"mb8_w2", 8, 2.0},
             {"mb8_w8", 8, 8.0}};

  for (const PolicyCase& pc : cases) {
    // Queue sized to the stream and blocking: no shedding, so every policy
    // serves the identical stream.
    const bench::ServedStream res = bench::serve_open_loop(
        sched, net,
        {.policy = {.max_batch = pc.max_batch,
                    .max_wait = bench::from_ms(pc.max_wait_ms)},
         .queue_capacity = static_cast<std::size_t>(f.requests),
         .block_when_full = true},
        trace, f.seed);
    const bench::Latencies& l = res.ok;
    const std::vector<std::pair<std::string, double>> stages =
        bench::stage_percentiles(l);
    std::printf("%-10s %7.2f |", pc.name, bench::avg_batch(res.stats));
    for (std::size_t i = 0; i < stages.size(); ++i)
      std::printf(" %8.2f%s", stages[i].second, i % 3 == 2 ? " |" : "");
    std::printf(" %5.2f %7llu\n", p(l.occupancy, 0.50),
                static_cast<unsigned long long>(l.overlap_starts));
    const std::array<int, 4> occ_h = quartile_hist(l.occupancy);
    const std::array<int, 4> idle_h = quartile_hist(l.idle_frac);
    std::vector<std::pair<std::string, double>> fields = {
        {"images_per_sec",
         static_cast<double>(res.stats.completed) / res.wall_s},
        {"avg_batch", bench::avg_batch(res.stats)}};
    fields.insert(fields.end(), stages.begin(), stages.end());
    fields.insert(fields.end(), {{"occupancy_p50", p(l.occupancy, 0.50)},
                                 {"occupancy_p95", p(l.occupancy, 0.95)},
                                 {"idle_frac_p50", p(l.idle_frac, 0.50)},
                                 {"idle_frac_p95", p(l.idle_frac, 0.95)}});
    // occ_hist_q1..q4, then idle_hist_q1..q4.
    for (const auto& [name, h] : {std::pair{"occ", occ_h}, {"idle", idle_h}})
      for (std::size_t q = 0; q < h.size(); ++q)
        fields.emplace_back(std::string(name) + "_hist_q" +
                                std::to_string(q + 1),
                            static_cast<double>(h[q]));
    fields.emplace_back("overlap_task_starts",
                        static_cast<double>(l.overlap_starts));
    json.add(std::string("model=") + f.model + " precision=" + f.precision +
                 " sparsity=" + Table::fmt(f.sparsity, 2) +
                 " policy=" + pc.name +
                 " max_batch=" + std::to_string(pc.max_batch) +
                 " max_wait_ms=" + std::to_string(pc.max_wait_ms),
             res.wall_s * 1e3, static_cast<double>(res.bytes_moved), fields);
  }
  std::printf("\nqueue-wait grows with batch window (max_wait) while compute "
              "amortizes; batch1 minimizes queueing but forfeits batch "
              "sharding across the pool.\n");
  return json.write() ? 0 : 1;
}

// Traffic-shift harness: the scenario's arrival trace (identical across
// passes for a given seed) served with re-planning off, then on.
int run_scenario(const Flags& f, dnn::Network& net, bench::BenchJson& json) {
  core::CostModel cm = analytic_model();
  const core::BackendPlan plan = analytic_plan(net, cm);
  core::ConvolutionEngine engine(plan);
  runtime::BatchScheduler sched(engine, {.threads = f.threads});

  const double capacity_ips = 8.0 / bench::warm_batch_seconds(sched, net);
  const double peak = f.rate > 0.0 ? f.rate : f.load * capacity_ips;

  // Segment durations sized so the expected arrival count matches
  // --requests at the scenario's mean rate.
  std::vector<PiecewiseRateArrivals::Segment> segments;
  if (f.scenario == "ramp") {
    const double mean = 0.625 * peak;  // mean of 0.25..1.0 over 4 steps
    segments = PiecewiseRateArrivals::ramp(0.25 * peak, peak, 4,
                                           f.requests / mean / 4.0);
  } else {
    const double mean = (0.4 + 1.0) / 3.0 * peak;  // quiet/spike/quiet thirds
    const double third = f.requests / mean / 3.0;
    segments = PiecewiseRateArrivals::burst(0.2 * peak, peak, third, third);
  }
  const bench::ArrivalTrace trace = bench::piecewise_trace(f.seed, segments);

  std::printf("== serving latency under traffic shift (%s) ==\n",
              f.scenario.c_str());
  std::printf("model=%s input=%d workers=%d | capacity ~%.1f images/sec, "
              "peak offered %.1f req/sec | horizon %.1fs\n\n",
              f.model.c_str(), f.input_hw, sched.threads(), capacity_ips, peak,
              PiecewiseRateArrivals(f.seed, segments).horizon_seconds());
  std::printf("%-10s %5s %7s | %8s %8s %8s | %7s %6s %9s %7s\n", "replan",
              "done", "avg_b", "t_p50", "t_p95", "t_p99", "replans", "swaps",
              "plan_us", "priced");

  for (const bool replan : {false, true}) {
    serve::Replanner rp(sched, net, cm, plan, kReplan);
    if (replan) rp.start();
    // Blocking queue: both passes serve the identical stream, never shed.
    const bench::ServedStream res = bench::serve_open_loop(
        sched, net,
        {.policy = {.max_batch = 8, .max_wait = bench::from_ms(2.0)},
         .queue_capacity = 512,
         .block_when_full = true,
         .replanner = replan ? &rp : nullptr},
        trace, f.seed);
    if (replan) rp.stop();
    const bench::Latencies& l = res.ok;
    const serve::ReplanStats& rs = res.stats.replan;
    std::printf("%-10s %5llu %7.2f | %8.2f %8.2f %8.2f | %7llu %6llu %9llu "
                "%7d\n",
                replan ? "on" : "off",
                static_cast<unsigned long long>(res.stats.completed),
                bench::avg_batch(res.stats), p(l.total_ms, 0.50),
                p(l.total_ms, 0.95), p(l.total_ms, 0.99),
                static_cast<unsigned long long>(rs.plans_recomputed),
                static_cast<unsigned long long>(rs.swaps_applied),
                static_cast<unsigned long long>(rs.last_plan_compute_us),
                rs.current_priced_batch);
    json.add(std::string("model=") + f.model + " scenario=" + f.scenario +
                 " replan=" + (replan ? "on" : "off"),
             res.wall_s * 1e3, 0.0,
             {{"images_per_sec",
               static_cast<double>(res.stats.completed) / res.wall_s},
              {"avg_batch", bench::avg_batch(res.stats)},
              {"queue_p99_ms", p(l.queue_ms, 0.99)},
              {"compute_p99_ms", p(l.compute_ms, 0.99)},
              {"total_p50_ms", p(l.total_ms, 0.50)},
              {"total_p95_ms", p(l.total_ms, 0.95)},
              {"total_p99_ms", p(l.total_ms, 0.99)},
              {"plans_recomputed", static_cast<double>(rs.plans_recomputed)},
              {"plan_swaps_applied", static_cast<double>(rs.swaps_applied)},
              {"last_plan_compute_us",
               static_cast<double>(rs.last_plan_compute_us)},
              {"plan_priced_batch",
               static_cast<double>(rs.current_priced_batch)}});
  }
  std::printf("\nre-planning re-prices the admitted candidates for the "
              "regime's effective batch and swaps at a batch boundary; "
              "outputs stay bit-identical (pinned in test_serve).\n");
  return json.write() ? 0 : 1;
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

  [[nodiscard]] std::uint64_t n(serve::Outcome o) const {
    return delivered[static_cast<std::size_t>(o)];
  }
};

std::size_t class_of(std::uint64_t id) { return (id & kClassBit) != 0; }

// The overload scenario's arrival trace. `budget_ms` is the deadline every
// well-behaved request carries; `horizon` receives the offered span.
bench::ArrivalTrace overload_trace(const Flags& f, double capacity_ips,
                                   double batch8_ms, double budget_ms,
                                   double& horizon) {
  bench::ArrivalTrace trace;
  if (f.scenario == "overload3x") {
    // 3x capacity for half the horizon, then 0.4x — the governor must shed
    // through the storm and the ladder must degrade and recover. The horizon
    // scales with the measured batch time so the queue dynamics (backlog
    // build-up, CoDel interval, ladder windows) have room on slow machines.
    const double half = std::max(
        {1.0, 4.0 * batch8_ms * 1e-3,
         static_cast<double>(f.requests) / (3.4 * capacity_ips)});
    horizon = half + half;
    return bench::piecewise_trace(
        f.seed, {{half, 3.0 * capacity_ips}, {half, 0.4 * capacity_ips}},
        budget_ms);
  }
  if (f.scenario == "slowloris") {
    // A healthy 0.6x stream plus a trickle of requests whose deadline has
    // already expired at submission — doomed work the governor's capacity
    // estimate must turn away at admission (or dequeue-shedding must drop)
    // without ever letting it occupy a batch slot.
    horizon =
        std::max(2.0, static_cast<double>(f.requests) / (0.6 * capacity_ips));
    PoissonArrivals healthy(f.seed, 0.6 * capacity_ips);
    PoissonArrivals loris(f.seed + 1, 20.0);
    double t_h = healthy.next_gap_seconds();
    double t_l = loris.next_gap_seconds();
    for (;;) {
      const bool is_healthy = t_h <= t_l;
      const double at = is_healthy ? t_h : t_l;
      if (at >= horizon) break;
      const std::uint64_t idx = trace.size();
      if (is_healthy) {
        trace.push_back({bench::from_seconds(at), idx, budget_ms});
        t_h += healthy.next_gap_seconds();
      } else {  // already expired
        trace.push_back({bench::from_seconds(at), idx | kClassBit, 0.0});
        t_l += loris.next_gap_seconds();
      }
    }
    return trace;
  }
  // mixed-tenant: one 1.5x stream, alternating tenants: A (class 0) carries
  // deadlines and absorbs the shedding; B (class 1) is deadline-less batch
  // traffic that must never be deadline-shed, only overload-rejected.
  horizon =
      std::max(2.0, static_cast<double>(f.requests) / (1.5 * capacity_ips));
  PoissonArrivals arrivals(f.seed, 1.5 * capacity_ips);
  for (double at = arrivals.next_gap_seconds(); at < horizon;
       at += arrivals.next_gap_seconds()) {
    const std::uint64_t idx = trace.size();
    if (idx % 2 == 0)
      trace.push_back({bench::from_seconds(at), idx, budget_ms});
    else
      trace.push_back({bench::from_seconds(at), idx | kClassBit, {}});
  }
  return trace;
}

int run_overload(const Flags& f, dnn::Network& net) {
  bench::BenchJson json("serving_overload", f.json_path);
  core::CostModel cm = analytic_model();
  const core::BackendPlan plan = analytic_plan(net, cm);

  core::ConvolutionEngine engine(plan);
  runtime::FaultInjector injector(runtime::FaultPlan::chaos(f.chaos_seed));
  runtime::BatchScheduler sched(
      engine,
      {.threads = f.threads,
       .fault_injector = f.chaos_seed != 0 ? &injector : nullptr,
       // chaos stalls are ~20ms: far below this
       .watchdog_timeout_s = 2.0});

  // Capacity + batch-8 service time: sets the offered overload rates and
  // the accepted-latency gate's scale.
  const double batch8_s = bench::warm_batch_seconds(sched, net);
  const double capacity_ips = 8.0 / batch8_s;
  const double batch8_ms = batch8_s * 1e3;

  serve::Replanner rp(sched, net, cm, plan, kReplan);
  rp.set_tiers(serve::default_degradation_tiers(plan));
  rp.start();

  serve::GovernorConfig gcfg;
  gcfg.target_sojourn_ms = 10.0;
  gcfg.interval_ms = 50.0;
  gcfg.est_item_seconds =
      serve::estimate_item_seconds(plan, kMachine.freq_ghz);
  gcfg.max_tier = 2;
  gcfg.degrade_after_ms = 100.0;
  gcfg.recover_after_ms = 150.0;
  gcfg.cooldown_ms = 50.0;
  serve::OverloadGovernor governor(gcfg,
                                   [&rp](int tier) { rp.request_tier(tier); });

  // Overload harness: shed, never block.
  const serve::ServerConfig cfg{
      .policy = {.max_batch = 8, .max_wait = bench::from_ms(2.0)},
      .queue_capacity = 64,
      .block_when_full = false,
      .replanner = &rp,
      .governor = &governor};

  // The deadline every well-behaved request carries: a couple of batch-8
  // service times — tight enough that a 3x standing queue overruns it,
  // loose enough that a promptly-served request makes it.
  const double budget_ms = std::max(50.0, 2.0 * batch8_ms);
  double horizon = 0.0;
  const bench::ArrivalTrace trace =
      overload_trace(f, capacity_ips, batch8_ms, budget_ms, horizon);
  const bench::ServedStream res =
      bench::serve_open_loop(sched, net, cfg, trace, f.seed);
  rp.stop();
  std::array<ClassTally, 2> tally;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    ClassTally& t = tally[class_of(trace[i].id)];
    ++t.submitted;
    if (res.admits[i] != serve::Admit::Accepted) ++t.rejected;
  }
  for (const serve::RequestTrace& d : res.done) {
    ClassTally& t = tally[class_of(d.id)];
    t.delivered[static_cast<std::size_t>(d.outcome)] += 1;
    if (d.outcome == serve::Outcome::Ok) {
      t.ok_total_ms.push_back(d.total_ms);
      t.ok_queue_ms.push_back(d.queue_ms);
    }
  }

  const serve::ServerStats& st = res.stats;
  const runtime::FaultInjector::Stats fs = injector.stats();
  std::uint64_t submitted = 0, resolved = 0;
  for (const ClassTally& t : tally) {
    submitted += t.submitted;
    resolved += t.rejected;
    for (const std::uint64_t d : t.delivered) resolved += d;
  }
  std::uint64_t outcome_sum = 0;
  for (const std::uint64_t o : st.outcomes) outcome_sum += o;

  std::printf("== overload scenario: %s ==\n", f.scenario.c_str());
  std::printf("model=%s input=%d workers=%d | capacity ~%.1f images/sec "
              "(batch8 %.2f ms) | horizon %.1fs | chaos=%llu\n\n",
              f.model.c_str(), f.input_hw, sched.threads(), capacity_ips,
              batch8_ms, horizon,
              static_cast<unsigned long long>(f.chaos_seed));
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
        static_cast<unsigned long long>(t.n(serve::Outcome::Ok)),
        static_cast<unsigned long long>(t.n(serve::Outcome::ShedDeadline)),
        static_cast<unsigned long long>(t.n(serve::Outcome::Cancelled)),
        static_cast<unsigned long long>(t.n(serve::Outcome::InternalError)),
        p(t.ok_total_ms, 0.50), p(t.ok_total_ms, 0.99));
  }
  std::printf("\ngovernor: rejected_overload=%llu rejected_doomed=%llu "
              "drop_intervals=%llu | ladder: tier=%d degrades=%llu "
              "recoveries=%llu | watchdog_wedges=%llu | faults: stalls=%llu "
              "slows=%llu item_fails=%llu\n",
              static_cast<unsigned long long>(st.governor.rejected_overload),
              static_cast<unsigned long long>(st.governor.rejected_doomed),
              static_cast<unsigned long long>(st.governor.drop_intervals),
              st.governor.tier,
              static_cast<unsigned long long>(st.governor.tier_degrades),
              static_cast<unsigned long long>(st.governor.tier_recoveries),
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
  if (f.chaos_seed == 0)
    gate(st.watchdog_wedges == 0, "no watchdog wedges without chaos");
  const std::uint64_t ok_primary = tally[0].n(serve::Outcome::Ok);
  if (f.scenario == "overload3x") {
    const double shed_frac =
        submitted > 0
            ? 1.0 - static_cast<double>(ok_primary) / submitted
            : 0.0;
    gate(shed_frac > 0.05 && shed_frac < 0.95,
         "overload3x: shed fraction in (5%, 95%)");
    gate(ok_primary > 0, "overload3x: goodput > 0");
    const double p99_bound =
        budget_ms + 10.0 * batch8_ms + (f.chaos_seed != 0 ? 500.0 : 200.0);
    gate(p(tally[0].ok_total_ms, 0.99) <= p99_bound,
         "overload3x: accepted p99 bounded");
  } else if (f.scenario == "slowloris") {
    gate(tally[1].n(serve::Outcome::Ok) == 0,
         "slowloris: no expired request ever served");
    gate(tally[0].submitted > 0 &&
             static_cast<double>(ok_primary) / tally[0].submitted >= 0.5,
         "slowloris: healthy goodput >= 50%");
  } else {  // mixed-tenant
    gate(tally[1].n(serve::Outcome::ShedDeadline) == 0,
         "mixed-tenant: deadline-less tenant never shed");
    const double p99_bound =
        budget_ms + 10.0 * batch8_ms + (f.chaos_seed != 0 ? 500.0 : 200.0);
    gate(tally[0].ok_total_ms.empty() ||
             p(tally[0].ok_total_ms, 0.99) <= p99_bound,
         "mixed-tenant: tenant-A accepted p99 bounded");
  }

  // One field per Outcome, named by outcome_name (ok, rejected_overload,
  // shed_deadline, cancelled, internal_error).
  std::vector<std::pair<std::string, double>> fields = {
      {"submitted", static_cast<double>(submitted)}};
  for (std::size_t o = 0; o < serve::kOutcomeCount; ++o)
    fields.emplace_back(serve::outcome_name(static_cast<serve::Outcome>(o)),
                        static_cast<double>(st.outcomes[o]));
  fields.insert(
      fields.end(),
      {{"governor_rejected_overload",
        static_cast<double>(st.governor.rejected_overload)},
       {"governor_rejected_doomed",
        static_cast<double>(st.governor.rejected_doomed)},
       {"drop_intervals", static_cast<double>(st.governor.drop_intervals)},
       {"tier_degrades", static_cast<double>(st.governor.tier_degrades)},
       {"tier_recoveries", static_cast<double>(st.governor.tier_recoveries)},
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
  json.add(std::string("model=") + f.model + " scenario=" + f.scenario +
               " chaos=" + std::to_string(f.chaos_seed),
           res.wall_s * 1e3, 0.0, fields);
  if (!json.write()) return 1;
  if (!failures.empty()) {
    std::fprintf(stderr, "\n%zu robustness gate(s) FAILED:\n",
                 failures.size());
    for (const std::string& what : failures)
      std::fprintf(stderr, "  - %s\n", what.c_str());
    if (f.check) return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  const CliArgs args(argc, argv);
  args.require_known(bench::ServingFlags::keys_with(
      {"quick", "scenario", "load", "check"}));
  const Flags f(args);
  if (f.load <= 0.0) {
    std::fprintf(stderr, "error: --load must be > 0\n");
    return 1;
  }
  const bool overload = f.scenario == "overload3x" ||
                        f.scenario == "slowloris" ||
                        f.scenario == "mixed-tenant";
  if (!overload && f.scenario != "steady" && f.scenario != "ramp" &&
      f.scenario != "burst") {
    std::fprintf(stderr,
                 "error: unknown --scenario=%s (steady|ramp|burst|"
                 "overload3x|slowloris|mixed-tenant)\n",
                 f.scenario.c_str());
    return 1;
  }
  // The traffic-shift and overload harnesses serve an fp32 dense analytic
  // plan; a format flag there would silently measure something else.
  for (const char* flag : {"precision", "sparsity"})
    if (f.scenario != "steady" && args.has(flag)) {
      std::fprintf(stderr, "error: --%s applies to --scenario=steady only\n",
                   flag);
      return 1;
    }

  dnn::warn_if_input_resized(f.model, f.input_hw);
  std::unique_ptr<dnn::Network> net = dnn::build_model(f.model, f.input_hw);
  net->fuse_residuals();
  if (overload)
    // Overload suite: governor + ladder + optional chaos, its own JSON
    // record name (serving_overload -> BENCH_overload.json in CI).
    return run_overload(f, *net);
  bench::BenchJson json("serving_latency", f.json_path);
  if (f.scenario != "steady")
    // Traffic-shift harness: per-layer analytic plan + optional online
    // re-planning instead of the per-policy sweep.
    return run_scenario(f, *net, json);
  return run_steady(f, *net, json);
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
