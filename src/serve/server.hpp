#pragma once

#include <array>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "core/cost_model.hpp"
#include "runtime/batch_scheduler.hpp"
#include "serve/micro_batcher.hpp"
#include "serve/overload_governor.hpp"
#include "serve/replanner.hpp"

namespace vlacnn::serve {

/// Per-request latency breakdown, in milliseconds.
struct RequestTrace {
  std::uint64_t id = 0;
  /// Terminal status. Only Ok completions carry a meaningful output; for
  /// every other outcome the Completion's output tensor is empty and the
  /// compute/dispatch fields are zero.
  Outcome outcome = Outcome::Ok;
  double queue_ms = 0.0;     ///< arrival -> micro-batch launched
  double dispatch_ms = 0.0;  ///< batch launched -> accepted by a scheduler
                             ///< slot (packing + slot backpressure)
  double compute_ms = 0.0;   ///< forward pass of the batch it rode in
  double total_ms = 0.0;     ///< arrival -> result delivered
  int batch_items = 1;       ///< size of that micro-batch (0: never batched)
  Trigger trigger = Trigger::Full;
  bool deadline_met = true;
  /// Mean fraction of the pool busy on this request's batch over its span
  /// (runtime::ExecStats::occupancy of the batch it rode in).
  double batch_occupancy = 0.0;
  /// 1 - batch_occupancy: worker time idle (or lent to an overlapping
  /// batch) during the batch's span.
  double worker_idle_frac = 1.0;
  /// Work-graph tasks of this batch that started while an older batch was
  /// still in flight — nonzero means the executor overlapped batches.
  std::uint64_t batch_overlap_starts = 0;
};

/// A finished request: its trace plus its slice of the network output.
struct Completion {
  RequestTrace trace;
  dnn::Tensor output;  ///< batch-1 copy of this request's last-layer output
};

struct ServerConfig {
  BatchPolicy policy;
  std::size_t queue_capacity = 64;
  /// false: reject-on-full (load shedding); true: block the submitter.
  bool block_when_full = false;
  /// Invoked on the completion thread as each request finishes. When unset,
  /// completions accumulate internally; collect with drain_completions().
  std::function<void(Completion&&)> on_complete{};
  /// Online re-planning hook (optional; must outlive the server and be
  /// start()ed by the caller). The completion loop reports every finished
  /// micro-batch (size + queue depth) to it, and Server::stats() snapshots
  /// its counters. The server never blocks on it: planning happens on the
  /// replanner's own thread, plan swaps at scheduler batch boundaries.
  Replanner* replanner = nullptr;
  /// Adaptive admission control + degradation-ladder driver (optional; must
  /// outlive the server). submit() consults it before offering the request
  /// to the queue — a governor rejection returns Admit::RejectedOverload and
  /// the request never occupies a queue slot. The completion loop feeds
  /// every finished batch back into it, and Server::stats() snapshots its
  /// counters. Wire its on_tier callback to Replanner::request_tier to
  /// close the graceful-degradation loop.
  OverloadGovernor* governor = nullptr;
};

/// Aggregate throughput counters (monotonic over the server's life).
struct ServerStats {
  /// Completions delivered — every terminal outcome except admission
  /// rejections (a rejected request was never copied in, so nothing
  /// completes for it; rejections are tallied in `outcomes` below).
  std::uint64_t completed = 0;
  std::uint64_t batches = 0;
  std::uint64_t deadline_misses = 0;
  double sum_batch_items = 0.0;  ///< avg micro-batch = sum_batch_items/batches
  /// Launches per Trigger (indexed by static_cast<int>(Trigger)) — one
  /// count per batch, not per request.
  std::array<std::uint64_t, 4> trigger_counts{};
  /// Terminal outcome tally, indexed by static_cast<std::size_t>(Outcome).
  /// outcomes[RejectedOverload] merges queue-full rejections with the
  /// governor's CoDel/doomed rejections; the other entries count delivered
  /// Completions. Sum == every request that ever entered submit() and
  /// resolved — nothing vanishes silently.
  std::array<std::uint64_t, kOutcomeCount> outcomes{};
  /// Snapshots taken at the stats() call: the admission queue's counters,
  /// and those of the Replanner and the OverloadGovernor (all zero when
  /// that component is not wired in).
  RequestQueue::Stats queue;
  ReplanStats replan;
  GovernorStats governor;
  /// Batches the scheduler's watchdog declared wedged and cancelled.
  std::uint64_t watchdog_wedges = 0;
};

/// The async serving runtime: admission queue -> deadline-aware
/// micro-batcher -> pipelined BatchScheduler.
///
/// Three stages run concurrently once start()ed:
///   * client threads push InferRequests through submit() (MPSC queue with
///     backpressure);
///   * the batcher thread forms micro-batches per BatchPolicy, packs them
///     into a batched tensor and hands them to BatchScheduler::submit() —
///     which returns as soon as an admission slot is free, so batch k+1's
///     formation and packing overlap batch k's execution;
///   * the completion thread waits each BatchTicket in FIFO order, slices
///     the output snapshot back into per-request results, stamps the
///     latency breakdown (queue / dispatch / compute) and delivers
///     Completions.
///
/// stop() closes admission, drains everything already accepted, and joins
/// the threads; per-request outputs are bit-identical to running the same
/// inputs through the synchronous BatchScheduler::run() path (pinned by
/// tests/test_serve.cpp).
class Server {
 public:
  /// The scheduler and network must outlive the server; between start()
  /// and stop() the server is their only driver.
  Server(runtime::BatchScheduler& sched, dnn::Network& net,
         ServerConfig cfg = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Spawns the batcher + completion threads. Call once.
  void start();

  /// Admits one request (thread-safe). `input` must be a batch-1 tensor of
  /// the network's input shape. Returns the queue's verdict; a Rejected
  /// request was not copied anywhere and never completes.
  Admit submit(std::uint64_t id, dnn::Tensor input,
               Clock::time_point deadline = kNoDeadline);

  /// Closes admission, serves everything already accepted, joins the
  /// pipeline threads, and rethrows the first execution error if any.
  /// On a never-started server, cancels every admitted request with a typed
  /// Cancelled completion instead (nothing vanishes). Idempotent.
  void stop();

  /// Moves out the completions accumulated so far (only meaningful without
  /// an on_complete callback). Thread-safe.
  std::vector<Completion> drain_completions();

  // No raw queue accessor: submit() is the only admission path, so every
  // request passes its shape validation before the batcher memcpy's it.
  [[nodiscard]] ServerStats stats() const;

 private:
  struct InFlight {
    runtime::BatchTicket ticket;
    std::vector<InferRequest> requests;  // inputs released after packing
    Clock::time_point formed_at{};
    Clock::time_point submitted_at{};
    Trigger trigger = Trigger::Full;
  };

  void batcher_loop();
  void completion_loop();
  /// Delivers one completion (served, shed, cancelled or failed): updates
  /// the outcome counters and routes it to on_complete or the internal
  /// buffer.
  void emit(Completion&& c);
  /// Builds the empty-output completion for a request that never executed.
  Completion terminal(const InferRequest& r, Outcome outcome,
                      Clock::time_point now) const;

  runtime::BatchScheduler* sched_;
  dnn::Network* net_;
  ServerConfig cfg_;
  RequestQueue queue_;
  MicroBatcher batcher_;

  std::mutex inflight_mu_;
  std::condition_variable inflight_cv_;
  std::deque<InFlight> inflight_;
  bool batcher_done_ = false;

  mutable std::mutex stats_mu_;
  ServerStats stats_;
  std::vector<Completion> completions_;
  std::exception_ptr error_;

  std::thread batcher_thread_;
  std::thread completion_thread_;
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace vlacnn::serve
