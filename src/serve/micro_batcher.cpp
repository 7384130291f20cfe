#include "serve/micro_batcher.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace vlacnn::serve {

LaunchDecision decide(const BatchPolicy& policy, int queued,
                      Clock::time_point oldest_arrival,
                      Clock::time_point min_deadline, Clock::time_point now) {
  VLACNN_REQUIRE(policy.max_batch >= 1, "max_batch must be >= 1");
  LaunchDecision d;
  if (queued <= 0) return d;  // nothing aboard: nothing to launch
  if (queued >= policy.max_batch) {
    d.launch = true;
    d.trigger = Trigger::Full;
    return d;
  }
  Clock::time_point launch_by = oldest_arrival + policy.max_wait;
  Trigger binding = Trigger::MaxWait;
  if (min_deadline != kNoDeadline) {
    const Clock::time_point deadline_by = min_deadline - policy.deadline_slack;
    if (deadline_by < launch_by) {
      launch_by = deadline_by;
      binding = Trigger::Deadline;
    }
  }
  if (now >= launch_by) {
    d.launch = true;
    d.trigger = binding;
    return d;
  }
  d.trigger = binding;
  d.launch_by = launch_by;
  return d;
}

std::optional<FormedBatch> MicroBatcher::next_batch() {
  FormedBatch fb;
  Clock::time_point min_deadline = kNoDeadline;

  // Boards a freshly popped request unless its deadline has already passed,
  // in which case it is shed on the spot — the check runs at every pop
  // point so stale requests never occupy a batch slot.
  const auto board = [&](InferRequest&& r) {
    if (should_shed(policy_, r.deadline, Clock::now())) {
      if (on_shed) on_shed(std::move(r));
      return false;
    }
    min_deadline = std::min(min_deadline, r.deadline);
    fb.requests.push_back(std::move(r));
    return true;
  };

  // Block for the first live request of the batch, shedding stale ones.
  for (;;) {
    InferRequest first;
    if (!queue_->pop(first)) return std::nullopt;  // closed and drained
    if (board(std::move(first))) break;
  }
  const Clock::time_point oldest = fb.requests.front().arrival;

  for (;;) {
    // Greedy drain first: admit everything already queued (up to
    // max_batch) before consulting the time-based triggers. Otherwise a
    // stale oldest request (waited >= max_wait — routine under backlog,
    // where requests pile up while the previous batch computes) would
    // launch alone and strand a queue full of ready requests, collapsing
    // batches to size 1 exactly in the overload regime micro-batching
    // exists for.
    while (static_cast<int>(fb.requests.size()) < policy_.max_batch) {
      InferRequest ready;
      if (queue_->try_pop(ready) != RequestQueue::PopStatus::Ok) break;
      board(std::move(ready));
    }
    const LaunchDecision d =
        decide(policy_, static_cast<int>(fb.requests.size()), oldest,
               min_deadline, Clock::now());
    if (d.launch) {
      fb.trigger = d.trigger;
      break;
    }
    InferRequest more;
    const RequestQueue::PopStatus st =
        queue_->pop_wait_until(more, d.launch_by);
    if (st == RequestQueue::PopStatus::Ok) {
      board(std::move(more));
      continue;
    }
    if (st == RequestQueue::PopStatus::Closed) {
      // Shutdown drain: ship what's aboard rather than waiting out the
      // launch window.
      fb.trigger = Trigger::Drain;
      break;
    }
    // TimedOut: launch_by passed; the next decide() call launches with the
    // binding trigger.
  }
  fb.formed_at = Clock::now();
  return fb;
}

}  // namespace vlacnn::serve
