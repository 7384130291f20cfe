// serve-closed: closed loop, one client. serve::Server on YOLOv3-tiny at
// 64x64 with two workers and the analytic plan priced for batch 1
// (max_batch 8, max_wait 2 ms, no governor, no replanner). The client sends
// a request, waits for its completion, thinks for an exponential time drawn
// from the seed, and sends the next. Every micro-batch holds one request,
// so the batch-1 intra-op path, the queue, the batcher and the completion
// thread all do work, and no request ever waits behind another.

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <thread>

#include "common/arrival_process.hpp"
#include "common/rng.hpp"
#include "dnn/models.hpp"
#include "perfbench.hpp"
#include "serve/server.hpp"

namespace perfbench {

using namespace vlacnn;

namespace {

constexpr int kInputHw = 64;
/// Mean think time between a completion and the client's next request:
/// short, so a 25 s run holds ~200 requests (the median of a few dozen is
/// left to this host's per-request noise).
constexpr double kThinkS = 0.005;
/// How long the client waits for one completion before counting the
/// request as lost.
constexpr double kLostAfterS = 10.0;
/// Goodput latency limit: about 3x the batch-1 median on a 4-core x86 box.
constexpr double kLimitMs = 500.0;
/// Distinct inputs; each request carries one of them.
constexpr int kPool = 8;
/// Untraced/traced pass pairs of a traced run.
constexpr int kTracePairs = 9;

/// What the client records per request.
struct Req {
  Clock::time_point due{}, submitted{}, returned{}, delivered{};
  int pool_index = 0;
  serve::Admit admit = serve::Admit::Accepted;
  bool completed = false;
  bool correct = false;
  serve::RequestTrace trace;
};

}  // namespace

void run_serve_closed(Run& run) {
  Result& r = run.result;
  const std::uint64_t seed = run.args.seed;
  {
    auto probe_net = dnn::build_yolov3_tiny(kInputHw);
    sim_probe(run, *probe_net, seed);
  }

  // Set-up, repeated: model build, plan, prepare, scheduler start, the
  // input pool and its sequential reference outputs.
  std::vector<dnn::Tensor> pool, refs;
  HostSetup set = set_up_host(
      kInputHw, 1,
      [&](dnn::Network& net, const core::BackendPlan& plan, double* prep) {
        pool.clear();
        refs.clear();
        for (int i = 0; i < kPool; ++i) {
          dnn::Tensor in(1, net.in_c(), net.in_h(), net.in_w());
          in.randomize_item(0, Rng::for_stream(seed, i).next_u64());
          refs.push_back(reference_forward(net, plan, kHostVlenBits, in, prep));
          pool.push_back(std::move(in));
        }
      });
  dnn::Network& net = *set.net;

  // One untimed request first: lazy workspace growth and pool start-up.
  {
    const dnn::Tensor& out = set.sched->run(net, pool[0]);
    if (!bitwise_equal(out, refs[0]))
      r.problem("warm-up pass differs from the sequential reference");
  }

  // The one outstanding request's completion, handed from the completion
  // thread to the client.
  std::mutex mu;
  std::condition_variable cv;
  bool delivered = false;
  Req last;
  int pending_pool = 0;
  serve::ServerConfig scfg;
  scfg.policy.max_batch = 8;
  scfg.policy.max_wait = std::chrono::milliseconds(2);
  scfg.on_complete = [&](serve::Completion&& c) {
    const auto now = Clock::now();
    std::lock_guard<std::mutex> lock(mu);
    last.delivered = now;
    last.completed = true;
    last.trace = c.trace;
    last.correct = c.trace.outcome == serve::Outcome::Ok &&
                   bitwise_equal(c.output, refs[pending_pool]);
    delivered = true;
    cv.notify_one();
  };
  serve::Server server(*set.sched, net, scfg);
  server.start();

  std::vector<Req> reqs;
  PoissonArrivals think(seed, 1.0 / kThinkS);
  Rng pick = Rng::for_stream(seed, 0x9001);
  const auto start = Clock::now();
  Clock::time_point ready = start;  // when the client got its last reply
  while (reqs.empty() ||
         seconds_between(start, Clock::now()) < run.args.seconds) {
    Req q;
    q.pool_index = static_cast<int>(pick.next_u64() % kPool);
    dnn::Tensor in = copy_tensor(pool[q.pool_index]);
    q.due = ready + think.next_gap();
    {
      std::lock_guard<std::mutex> lock(mu);
      pending_pool = q.pool_index;
      delivered = false;
      last = Req{};
    }
    std::this_thread::sleep_until(q.due);
    q.submitted = Clock::now();
    q.admit = server.submit(reqs.size(), std::move(in));
    q.returned = Clock::now();
    ready = q.returned;
    if (q.admit == serve::Admit::Accepted) {
      std::unique_lock<std::mutex> lock(mu);
      if (cv.wait_for(lock, std::chrono::duration<double>(kLostAfterS),
                      [&] { return delivered; })) {
        q.delivered = last.delivered;
        q.completed = true;
        q.trace = last.trace;
        q.correct = last.correct;
        ready = q.delivered;
      }
    }
    reqs.push_back(q);
    if (q.admit == serve::Admit::Accepted && !q.completed) break;
  }
  server.stop();

  // Outcomes and latencies (from each request's due time).
  std::vector<double> lat_ms, queue_ms, dispatch_ms, compute_ms, lag_ms,
      submit_us, ips, batch_ms;
  double items = 0.0, occupancy = 0.0, overlap = 0.0;
  std::uint64_t ok = 0, good = 0, wrong = 0, lost = 0;
  std::uint64_t by_outcome[serve::kOutcomeCount] = {};
  std::uint64_t rejected_at_submit = 0;
  for (const Req& q : reqs) {
    lag_ms.push_back(seconds_between(q.due, q.submitted) * 1e3);
    submit_us.push_back(seconds_between(q.submitted, q.returned) * 1e6);
    if (q.admit != serve::Admit::Accepted) {
      ++rejected_at_submit;
      continue;
    }
    if (!q.completed) {
      ++lost;
      continue;
    }
    ++by_outcome[static_cast<std::size_t>(q.trace.outcome)];
    if (q.trace.outcome != serve::Outcome::Ok) continue;
    if (!q.correct) {
      ++wrong;
      continue;
    }
    ++ok;
    const double l = seconds_between(q.due, q.delivered) * 1e3;
    lat_ms.push_back(l);
    if (l <= kLimitMs) ++good;
    queue_ms.push_back(q.trace.queue_ms);
    dispatch_ms.push_back(q.trace.dispatch_ms);
    compute_ms.push_back(q.trace.compute_ms);
    batch_ms.push_back(q.trace.dispatch_ms + q.trace.compute_ms);
    ips.push_back(q.trace.batch_items * 1e3 / q.trace.compute_ms);
    items += q.trace.batch_items;
    occupancy += q.trace.batch_occupancy;
    overlap += static_cast<double>(q.trace.batch_overlap_starts);
  }
  r.attempted = reqs.size();
  r.failed = r.attempted - ok;
  if (wrong > 0)
    r.problem(std::to_string(wrong) +
              " Ok completions differ from their reference output");
  if (lost > 0)
    r.problem(std::to_string(lost) + " accepted requests never completed");
  // No governor, no deadlines and one request at a time: nothing should be
  // rejected, shed, cancelled or fail inside the server.
  if (rejected_at_submit > 0)
    r.problem(std::to_string(rejected_at_submit) +
              " requests rejected at submit");
  for (std::size_t o = 0; o < serve::kOutcomeCount; ++o)
    if (o != static_cast<std::size_t>(serve::Outcome::Ok) && by_outcome[o] > 0)
      r.problem(std::to_string(by_outcome[o]) + " requests completed as " +
                serve::outcome_name(static_cast<serve::Outcome>(o)));

  const Tail tail = tail_of(lat_ms);
  const double sent = static_cast<double>(reqs.size());
  add_setup_metrics(r, set.setup_s, set.plan_s, set.prepare_s);
  r.add_e2e("ok_frac", ok / sent, "frac");
  r.add_e2e("goodput_frac", good / sent, "frac");
  r.add_e2e("lat_p50_ms", median(lat_ms), "ms");
  r.add_e2e("lat_tail_ms", tail.value, "ms");
  r.add_e2e("images_per_s", median(ips), "1/s");
  std::printf("serve-closed: %zu sent, %llu ok, %llu wrong, %llu never "
              "completed, %llu rejected at submit; outcomes "
              "ok/rejected/shed/cancelled/internal = %llu/%llu/%llu/%llu/%llu;"
              " latency tail p%.1f of %zu\n",
              reqs.size(), static_cast<unsigned long long>(ok),
              static_cast<unsigned long long>(wrong),
              static_cast<unsigned long long>(lost),
              static_cast<unsigned long long>(rejected_at_submit),
              static_cast<unsigned long long>(by_outcome[0]),
              static_cast<unsigned long long>(by_outcome[1]),
              static_cast<unsigned long long>(by_outcome[2]),
              static_cast<unsigned long long>(by_outcome[3]),
              static_cast<unsigned long long>(by_outcome[4]), tail.pct,
              tail.n);

  print_series("latency_ms", lat_ms, 1.0);
  const double n_ok = ok > 0 ? static_cast<double>(ok) : 1.0;
  r.add_layer("runtime.batch_ms", median(batch_ms), "ms");
  r.add_layer("runtime.compute_ms.p50", median(compute_ms), "ms");
  r.add_layer("runtime.occupancy", occupancy / n_ok, "frac");
  r.add_layer("runtime.overlap_task_starts", overlap / n_ok, "count");
  const Tail queue_tail = tail_of(queue_ms);
  r.add_layer("serve.queue_ms.p50", median(queue_ms), "ms");
  r.add_layer("serve.queue_ms.tail", queue_tail.value, "ms");
  r.add_layer("serve.dispatch_ms.p50", median(dispatch_ms), "ms");
  r.add_layer("serve.gen_lag_ms.p50", median(lag_ms), "ms");
  r.add_layer("serve.gen_lag_ms.max",
              lag_ms.empty() ? 0.0
                             : *std::max_element(lag_ms.begin(), lag_ms.end()),
              "ms");
  r.add_layer("serve.submit_us.p50", median(submit_us), "us");
  r.add_layer("serve.batch_items_mean", items / n_ok, "items");
  r.add_layer("serve.sent", sent, "count");
  r.add_layer("serve.ok", static_cast<double>(ok), "count");
  r.add_layer("serve.failed", static_cast<double>(r.failed), "count");
  if (!run.args.trace) return;

  // Request spans: the generator's lateness, the submit call, the server's
  // own stage breakdown laid end to end from the submit, and delivery.
  Tracer& tr = run.tracer;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const Req& q = reqs[i];
    const std::uint64_t id = i + 1;
    const double end = tr.us_at(q.completed ? q.delivered : q.returned);
    const std::uint64_t root =
        tr.add({"request", "serve", 0, 0, id, tr.us_at(q.due), end,
                {{"outcome", q.completed ? static_cast<double>(q.trace.outcome)
                                         : -1.0},
                 {"batch_items", static_cast<double>(q.trace.batch_items)}}});
    tr.add({"gen_lag", "serve", 0, root, id, tr.us_at(q.due),
            tr.us_at(q.submitted), {}});
    tr.add({"submit", "serve", 0, root, id, tr.us_at(q.submitted),
            tr.us_at(q.returned), {}});
    if (!q.completed) continue;
    double at = tr.us_at(q.submitted);
    for (const auto& [name, ms] :
         {std::pair<const char*, double>{"queue", q.trace.queue_ms},
          {"dispatch", q.trace.dispatch_ms},
          {"compute", q.trace.compute_ms}}) {
      tr.add({name, name == std::string("queue") ? "serve" : "runtime", 0,
              root, id, at, at + ms * 1e3, {}});
      at += ms * 1e3;
    }
    tr.add({"deliver", "serve", 0, root, id, at, end, {}});
  }

  // Traced layer replays of one pooled input on one context, against the
  // same sequential pass untraced.
  functional_trace(run, net, set.plan, kHostVlenBits, pool[0], refs[0],
                   kTracePairs);
}

}  // namespace perfbench
