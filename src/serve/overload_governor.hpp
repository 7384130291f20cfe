#pragma once

#include <cstdint>
#include <functional>
#include <mutex>

#include "serve/request_queue.hpp"

namespace vlacnn::core {
struct BackendPlan;
}

namespace vlacnn::serve {

/// OverloadGovernor configuration. Times are milliseconds of the serving
/// Clock; every rule is evaluated against explicit `now` arguments so the
/// whole state machine is table-testable with synthetic time points.
struct GovernorConfig {
  /// CoDel sojourn target: the standing queue delay the governor tolerates.
  /// Sojourn here is the queue wait of the oldest request in each completed
  /// batch — the same signal CoDel reads at dequeue.
  double target_sojourn_ms = 5.0;
  /// CoDel interval: sojourn must stay above target for this long before
  /// the governor enters the dropping state, and the control law spaces
  /// rejections interval/sqrt(n) apart once it has.
  double interval_ms = 100.0;
  /// Seed for the per-item service-time estimate, in seconds. Callers price
  /// it from the CostModel (estimate_item_seconds below); 0 means "learn
  /// from observations only" — doomed-work rejection stays off until the
  /// first batch completes. Observed per-item compute is folded in with an
  /// EWMA of weight 0.2.
  double est_item_seconds = 0.0;
  /// Doomed-work rejection margin: a request is rejected at admission when
  /// queue_depth * est_item_seconds * doom_headroom already overruns its
  /// deadline — it would only be shed at dequeue after wasting a queue
  /// slot. <= 0 disables the doomed check.
  double doom_headroom = 1.0;
  /// Degradation ladder: highest tier the governor may request (0 disables
  /// the ladder even when on_tier is set). Tier 0 is the full-precision
  /// plan; higher tiers are progressively cheaper (bf16, int8/sparse).
  int max_tier = 0;
  /// Sustained overload before stepping down a tier, and sustained calm
  /// before climbing back up. Overload pressure is the dropping state OR an
  /// unbroken rejection streak (see class doc), either held uninterrupted
  /// for degrade_after_ms.
  double degrade_after_ms = 250.0;
  double recover_after_ms = 500.0;
  /// Minimum gap between consecutive tier moves in either direction —
  /// hysteresis so a borderline load can't make the ladder oscillate.
  double cooldown_ms = 250.0;
};

struct GovernorStats {
  std::uint64_t admitted = 0;
  std::uint64_t rejected_overload = 0;  ///< CoDel control-law rejections
  std::uint64_t rejected_doomed = 0;    ///< predicted to miss their deadline
  std::uint64_t drop_intervals = 0;     ///< times the dropping state engaged
  int tier = 0;                         ///< current degradation tier
  std::uint64_t tier_degrades = 0;
  std::uint64_t tier_recoveries = 0;
  double est_item_seconds = 0.0;  ///< live capacity estimate
};

/// Verdict of OverloadGovernor::admit().
enum class AdmitVerdict {
  Admit,
  RejectOverload,  ///< CoDel: standing queue delay above target
  RejectDoomed,    ///< capacity estimate says the deadline is unreachable
};

/// Adaptive admission control in front of the RequestQueue, plus the driver
/// of the graceful-degradation ladder.
///
/// Admission fuses two signals. (1) A CoDel-style controller on batch
/// sojourn delay: when the *minimum* sojourn observed over a full interval
/// stays above target, a standing queue has formed that batching slack
/// cannot explain, and the governor starts rejecting new arrivals at the
/// classic interval/sqrt(n) cadence until sojourn drops back under target
/// (or the queue empties at an admission point — the dequeue-side signal
/// starves once rejections outpace completions, so an empty queue is the
/// admission-side proof the standing queue dissolved).
/// (2) A CostModel-informed capacity estimate (seeded analytically,
/// corrected online by an EWMA of observed per-item compute): requests
/// whose deadline is already unreachable given the current backlog are
/// rejected up front with a structured status instead of queueing doomed
/// work that dequeue-time shedding would discard anyway.
///
/// The ladder: while overload pressure persists for degrade_after, the
/// governor asks (via on_tier, typically Replanner::request_tier) for the
/// next cheaper plan tier; once sojourn has stayed calm for recover_after
/// (with no rejections in between) it climbs back. Cooldown gates both
/// directions. Pressure is the dropping state OR an unbroken rejection
/// streak: when the capacity estimate rejects every deadline-carrying
/// arrival as doomed, nothing is admitted and no batch completes, so the
/// dropping state starves — yet a cheaper tier is exactly what would make
/// those deadlines reachable, so the streak itself must drive the ladder.
///
/// Thread-safe; admit() is called from producer threads and observe_batch()
/// from the server's completion thread.
class OverloadGovernor {
 public:
  explicit OverloadGovernor(GovernorConfig cfg,
                            std::function<void(int)> on_tier = nullptr);

  /// Admission verdict for a request arriving `now` with `queue_depth`
  /// requests already waiting. `deadline` may be kNoDeadline.
  AdmitVerdict admit(Clock::time_point now, std::size_t queue_depth,
                     Clock::time_point deadline);

  /// Feeds one completed batch back into the controller: `sojourn_s` is the
  /// queue wait of the oldest request aboard, `items` the batch size,
  /// `compute_s` the batch forward-pass time.
  void observe_batch(Clock::time_point now, double sojourn_s, int items,
                     double compute_s);

  [[nodiscard]] GovernorStats stats() const;

 private:
  bool above_target(double sojourn_s) const;
  void update_ladder(Clock::time_point now);
  void fire_pending_tier();

  const GovernorConfig cfg_;
  const std::function<void(int)> on_tier_;
  mutable std::mutex mu_;
  // CoDel controller state.
  bool dropping_ = false;
  Clock::time_point first_above_{};  ///< when sojourn first exceeded target
  bool seen_above_ = false;
  Clock::time_point drop_next_{};
  std::uint64_t drop_count_ = 0;
  // Ladder state.
  Clock::time_point overload_since_{};
  bool seen_reject_ = false;  ///< unbroken rejection streak in progress
  Clock::time_point reject_since_{};
  Clock::time_point calm_since_{};
  bool seen_calm_ = false;
  Clock::time_point last_tier_move_{};
  bool moved_ = false;
  int pending_tier_ = -1;  ///< tier move decided under mu_, fired outside it
  // Capacity estimate.
  double est_item_s_ = 0.0;
  GovernorStats stats_;
};

/// CostModel-informed capacity seed for GovernorConfig::est_item_seconds:
/// the plan's summed per-layer cycle estimates (already per-item — pack
/// cost is amortized over the priced batch) converted to seconds at
/// `freq_ghz`. The absolute scale is the simulated machine's, not the
/// host's; the governor's EWMA corrects it online, so this seed only has
/// to be the right order of magnitude for the doomed-work check to engage
/// before the first completion.
double estimate_item_seconds(const core::BackendPlan& plan, double freq_ghz);

}  // namespace vlacnn::serve
