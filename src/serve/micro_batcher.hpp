#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "serve/request_queue.hpp"

namespace vlacnn::serve {

/// Why a micro-batch launched.
enum class Trigger {
  Full,      ///< reached max_batch
  MaxWait,   ///< oldest request waited max_wait
  Deadline,  ///< a request's deadline (minus slack) would otherwise be missed
  Drain,     ///< queue closed; final partial batch of the shutdown drain
};

/// Batch-formation policy.
struct BatchPolicy {
  /// Launch as soon as this many requests are aboard.
  int max_batch = 8;
  /// Launch once the oldest aboard request has waited this long — bounds
  /// the queueing latency a request can accrue to batching.
  Clock::duration max_wait = std::chrono::milliseconds(2);
  /// Compute-time reserve before a deadline: a batch launches no later than
  /// min(deadline aboard) - deadline_slack, even if neither full nor
  /// max_wait-expired. Callers typically set it to an estimate of one
  /// batch's forward-pass time.
  Clock::duration deadline_slack = Clock::duration::zero();
  /// Shed requests whose deadline has already passed at dequeue time
  /// instead of boarding them: a stale request can only be served late, and
  /// under overload every slot it occupies makes the batch behind it later
  /// too. Off restores the old serve-late behavior.
  bool shed_expired = true;
};

/// The pure shed rule: true when `policy` says a request with this deadline
/// must be dropped at dequeue rather than boarded. Stale means the deadline
/// has already passed — a request at exactly its deadline can no longer be
/// served in time, so `now >= deadline` sheds.
inline bool should_shed(const BatchPolicy& policy, Clock::time_point deadline,
                        Clock::time_point now) {
  return policy.shed_expired && deadline != kNoDeadline && now >= deadline;
}

/// decide()'s verdict for the current batch-in-formation.
struct LaunchDecision {
  bool launch = false;
  /// When launch: why. When !launch: which criterion will bind at launch_by.
  Trigger trigger = Trigger::MaxWait;
  /// When !launch: the latest instant to re-evaluate (the batcher sleeps on
  /// the queue until then).
  Clock::time_point launch_by = kNoDeadline;
};

/// The pure batch-launch core — all policy, no clocks or threads, so the
/// formation rules are table-testable with synthetic time points. `queued`
/// counts requests already aboard the forming batch; `oldest_arrival` is
/// the first of them; `min_deadline` is the earliest deadline aboard
/// (kNoDeadline when none carries one).
LaunchDecision decide(const BatchPolicy& policy, int queued,
                      Clock::time_point oldest_arrival,
                      Clock::time_point min_deadline, Clock::time_point now);

/// One launched micro-batch.
struct FormedBatch {
  std::vector<InferRequest> requests;
  Clock::time_point formed_at{};
  Trigger trigger = Trigger::Full;
};

/// Deadline-aware micro-batcher: single consumer of a RequestQueue that
/// groups requests into batches per BatchPolicy. Blocks for the first
/// request of a batch, then keeps admitting until decide() says launch —
/// full, the oldest's max_wait expiring, or an aboard deadline approaching.
/// After the queue closes, remaining requests drain as final batches
/// (Trigger::Drain) before next_batch() returns nullopt.
class MicroBatcher {
 public:
  MicroBatcher(RequestQueue& queue, const BatchPolicy& policy)
      : queue_(&queue), policy_(policy) {}

  /// Forms and returns the next batch; nullopt once the queue is closed and
  /// drained. Single-consumer: call from one thread.
  std::optional<FormedBatch> next_batch();

  [[nodiscard]] const BatchPolicy& policy() const { return policy_; }

  /// Invoked (from the batcher thread) for every request shed at dequeue
  /// because its deadline had already passed. Unset: shed requests are
  /// destroyed silently. The shed check runs at every pop point, so a stale
  /// request never occupies a batch slot; requests already aboard are not
  /// re-checked (their staleness is bounded by the launch window).
  std::function<void(InferRequest&&)> on_shed;

 private:
  RequestQueue* queue_;
  BatchPolicy policy_;
};

}  // namespace vlacnn::serve
