// offline-batch: closed loop of synchronous batches through the work-graph
// executor. BatchScheduler on YOLOv3-tiny at 96x96, batch 8, two workers,
// with the analytic per-layer plan priced for batch 8 on A64FX (today it
// mixes fused Winograd, gemm3 and weight-resident batch-fused gemm6). No
// serving layer and no simulator in the timed loop.

#include <cstdio>

#include "dnn/models.hpp"
#include "perfbench.hpp"
#include "runtime/batch_scheduler.hpp"

namespace perfbench {

using namespace vlacnn;

namespace {

constexpr int kInputHw = 96;
constexpr int kBatch = 8;
/// Goodput limit per batch: about 3x the batch time on a 4-core x86 box.
constexpr double kLimitS = 3.0;
/// Untraced/traced pass pairs of a traced run.
constexpr int kTracePairs = 5;

}  // namespace

void run_offline_batch(Run& run) {
  Result& r = run.result;
  {
    auto probe_net = dnn::build_yolov3_tiny(kInputHw);
    sim_probe(run, *probe_net, run.args.seed);
  }

  // Set-up, repeated: model build, plan, prepare, scheduler start, input
  // batch and its sequential reference output.
  dnn::Tensor input, ref;
  HostSetup set = set_up_host(
      kInputHw, kBatch,
      [&](dnn::Network& net, const core::BackendPlan& plan, double* prep) {
        input = dnn::Tensor(kBatch, net.in_c(), net.in_h(), net.in_w());
        input.randomize_batch(run.args.seed);
        ref = reference_forward(net, plan, kHostVlenBits, input, prep);
      });
  dnn::Network& net = *set.net;
  runtime::BatchScheduler& sched = *set.sched;

  // One untimed batch first: lazy workspace growth and pool start-up.
  {
    const runtime::BatchTicket t = sched.submit(net, copy_tensor(input));
    if (!bitwise_equal(sched.wait(t).output, ref))
      r.problem("warm-up batch differs from the sequential reference");
  }

  std::vector<double> batch_s, compute_s, occupancy;
  double overlap = 0.0, bytes = 0.0;
  std::uint64_t good = 0;
  const auto start = Clock::now();
  while (batch_s.empty() ||
         seconds_between(start, Clock::now()) < run.args.seconds) {
    dnn::Tensor in = copy_tensor(input);
    const std::uint64_t b0 = sched.mem_bytes_moved();
    const auto t0 = Clock::now();
    const runtime::BatchTicket ticket = sched.submit(net, std::move(in));
    const runtime::BatchResult res = sched.wait(ticket);
    batch_s.push_back(seconds_between(t0, Clock::now()));
    bytes += static_cast<double>(sched.mem_bytes_moved() - b0);
    compute_s.push_back(res.compute_seconds);
    occupancy.push_back(res.exec.occupancy());
    overlap += static_cast<double>(res.exec.overlap_task_starts);
    ++r.attempted;
    const bool ok = res.item_errors.empty() && bitwise_equal(res.output, ref);
    if (!ok) {
      ++r.failed;
      r.problem("batch " + std::to_string(batch_s.size() - 1) +
                " differs from the sequential reference");
    }
    if (ok && batch_s.back() <= kLimitS) ++good;
  }

  const double med = median(batch_s);
  const Tail tail = tail_of(batch_s);
  add_setup_metrics(r, set.setup_s, set.plan_s, set.prepare_s);
  r.add_e2e("ok_frac", 1.0 - static_cast<double>(r.failed) / r.attempted,
            "frac");
  r.add_e2e("goodput_frac", static_cast<double>(good) / r.attempted, "frac");
  r.add_e2e("lat_p50_ms", med * 1e3, "ms");
  r.add_e2e("lat_tail_ms", tail.value * 1e3, "ms");
  r.add_e2e("images_per_s", kBatch / med, "1/s");
  std::printf("offline-batch: %zu batches of %d, tail p%.1f of %zu\n",
              batch_s.size(), kBatch, tail.pct, tail.n);
  print_series("batch_ms", batch_s, 1e3);

  r.add_layer("runtime.batch_ms", med * 1e3, "ms");
  r.add_layer("runtime.compute_ms.p50", median(compute_s) * 1e3, "ms");
  r.add_layer("runtime.occupancy", median(occupancy), "frac");
  r.add_layer("runtime.overlap_task_starts",
              overlap / static_cast<double>(batch_s.size()), "count");
  if (!run.args.trace) return;

  // Traced replays of one batch on one context, against the same
  // sequential pass untraced. Engine traffic is the scheduler's own count
  // (batch-fused layers included).
  set.sched.reset();
  functional_trace(run, net, set.plan, kHostVlenBits, input, ref, kTracePairs,
                   bytes / static_cast<double>(batch_s.size()));
  add_idle_serve_metrics(r);
}

}  // namespace perfbench
