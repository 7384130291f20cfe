#include "serve/overload_governor.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "core/backend_plan.hpp"

namespace vlacnn::serve {

double estimate_item_seconds(const core::BackendPlan& plan, double freq_ghz) {
  VLACNN_REQUIRE(freq_ghz > 0, "freq_ghz must be > 0");
  double cycles = 0;
  for (const auto& e : plan.entries) cycles += static_cast<double>(e.cycles);
  return cycles / (freq_ghz * 1e9);
}

namespace {

/// EWMA weight for folding observed per-item compute into the estimate.
constexpr double kEwmaAlpha = 0.2;

Clock::duration ms_to_dur(double ms) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(ms));
}

}  // namespace

OverloadGovernor::OverloadGovernor(GovernorConfig cfg,
                                   std::function<void(int)> on_tier)
    : cfg_(cfg), on_tier_(std::move(on_tier)) {
  VLACNN_REQUIRE(cfg_.target_sojourn_ms > 0, "target_sojourn_ms must be > 0");
  VLACNN_REQUIRE(cfg_.interval_ms > 0, "interval_ms must be > 0");
  est_item_s_ = cfg_.est_item_seconds;
  stats_.est_item_seconds = est_item_s_;
}

bool OverloadGovernor::above_target(double sojourn_s) const {
  return sojourn_s * 1e3 > cfg_.target_sojourn_ms;
}

// Decides (under mu_) whether the ladder moves; returns the tier to
// broadcast or -1. The on_tier callback is invoked by the caller AFTER
// releasing mu_, so a callback that reads governor stats can't deadlock.
void OverloadGovernor::update_ladder(Clock::time_point now) {
  if (cfg_.max_tier <= 0) return;
  const bool cooldown_ok =
      !moved_ || now - last_tier_move_ >= ms_to_dur(cfg_.cooldown_ms);
  if (!cooldown_ok) return;
  // Overload pressure is EITHER the CoDel dropping state OR an unbroken
  // rejection streak. The second clause matters when the capacity estimate
  // rejects every deadline-carrying arrival as doomed: nothing is admitted,
  // no batch completes, so the dropping state starves — yet degrading to a
  // cheaper tier is precisely what would make those deadlines reachable
  // again.
  const bool pressured =
      (dropping_ &&
       now - overload_since_ >= ms_to_dur(cfg_.degrade_after_ms)) ||
      (seen_reject_ &&
       now - reject_since_ >= ms_to_dur(cfg_.degrade_after_ms));
  if (pressured && stats_.tier < cfg_.max_tier) {
    ++stats_.tier;
    ++stats_.tier_degrades;
    moved_ = true;
    last_tier_move_ = now;
    overload_since_ = now;  // next step down needs its own sustained window
    reject_since_ = now;
    pending_tier_ = stats_.tier;
  } else if (!dropping_ && !seen_reject_ && seen_calm_ && stats_.tier > 0 &&
             now - calm_since_ >= ms_to_dur(cfg_.recover_after_ms)) {
    --stats_.tier;
    ++stats_.tier_recoveries;
    moved_ = true;
    last_tier_move_ = now;
    calm_since_ = now;  // next step up needs its own sustained calm
    pending_tier_ = stats_.tier;
  }
}

void OverloadGovernor::fire_pending_tier() {
  int tier = -1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    tier = pending_tier_;
    pending_tier_ = -1;
  }
  if (tier >= 0 && on_tier_) on_tier_(tier);
}

AdmitVerdict OverloadGovernor::admit(Clock::time_point now,
                                     std::size_t queue_depth,
                                     Clock::time_point deadline) {
  AdmitVerdict v = AdmitVerdict::Admit;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Doomed-work check first: with `queue_depth` requests ahead of it, the
    // earliest this request can finish is depth+1 item-services from now.
    // If that already overruns its deadline, queueing it only manufactures
    // a future ShedDeadline — reject with a structured status instead.
    if (v == AdmitVerdict::Admit && cfg_.doom_headroom > 0 &&
        est_item_s_ > 0 && deadline != kNoDeadline) {
      const double wait_s = static_cast<double>(queue_depth + 1) *
                            est_item_s_ * cfg_.doom_headroom;
      if (now + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(wait_s)) >
          deadline) {
        ++stats_.rejected_doomed;
        v = AdmitVerdict::RejectDoomed;
      }
    }
    // An empty queue proves the standing queue dissolved: exit dropping at
    // the admission point itself. Without this the controller can wedge —
    // at high rejection pressure nothing is admitted, so no batch ever
    // completes to deliver the below-target sojourn reading that normally
    // ends the dropping state.
    if (dropping_ && queue_depth == 0) {
      dropping_ = false;
      seen_above_ = false;
      if (!seen_calm_) {
        seen_calm_ = true;
        calm_since_ = now;
      }
    }
    // CoDel control law: while the dropping state holds, reject one arrival
    // every interval/sqrt(n) — rejection pressure ramps until the standing
    // queue dissolves.
    if (v == AdmitVerdict::Admit && dropping_ && now >= drop_next_) {
      ++drop_count_;
      drop_next_ =
          std::max(now, drop_next_) +
          ms_to_dur(cfg_.interval_ms / std::sqrt(static_cast<double>(
                                           drop_count_)));
      ++stats_.rejected_overload;
      v = AdmitVerdict::RejectOverload;
    }
    if (v == AdmitVerdict::Admit) {
      ++stats_.admitted;
      seen_reject_ = false;
    } else {
      // Track the unbroken rejection streak for the ladder, and veto calm:
      // a governor that is turning work away is not recovering.
      if (!seen_reject_) {
        seen_reject_ = true;
        reject_since_ = now;
      }
      seen_calm_ = false;
    }
    update_ladder(now);
  }
  fire_pending_tier();
  return v;
}

void OverloadGovernor::observe_batch(Clock::time_point now, double sojourn_s,
                                     int items, double compute_s) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (items > 0 && compute_s > 0) {
      const double obs = compute_s / items;
      est_item_s_ = est_item_s_ <= 0
                        ? obs
                        : kEwmaAlpha * obs + (1.0 - kEwmaAlpha) * est_item_s_;
      stats_.est_item_seconds = est_item_s_;
    }
    if (!above_target(sojourn_s)) {
      // One below-target reading proves the interval minimum is below
      // target: leave (or never enter) the dropping state.
      seen_above_ = false;
      dropping_ = false;
      if (!seen_calm_) {
        seen_calm_ = true;
        calm_since_ = now;
      }
    } else {
      seen_calm_ = false;
      if (!seen_above_) {
        seen_above_ = true;
        first_above_ = now;
      } else if (!dropping_ &&
                 now - first_above_ >= ms_to_dur(cfg_.interval_ms)) {
        // Sojourn stayed above target for a full interval: a standing
        // queue. Enter dropping; the first rejection fires immediately.
        dropping_ = true;
        ++stats_.drop_intervals;
        drop_count_ = 0;
        drop_next_ = now;
        overload_since_ = now;
      }
    }
    update_ladder(now);
  }
  fire_pending_tier();
}

GovernorStats OverloadGovernor::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace vlacnn::serve
