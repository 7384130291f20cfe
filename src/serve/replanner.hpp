#pragma once

#include <array>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "core/cost_model.hpp"
#include "core/selector.hpp"
#include "runtime/batch_scheduler.hpp"

namespace vlacnn::serve {

struct ReplannerConfig {
  /// Ceiling of the effective batch size a plan may be priced for — set it
  /// to the server's BatchPolicy::max_batch (queue depth beyond it cannot
  /// be served in one micro-batch anyway).
  int max_batch = 8;
  /// Sliding window of observed batches the regime estimate averages over.
  std::size_t window = 32;
  /// Minimum regime shift (ratio between the estimated effective batch and
  /// the batch the current plan is priced for, whichever way) before a
  /// re-plan is considered. 2.0 = re-plan only when the amortization point
  /// moved by at least 2× — small wobbles never churn plans.
  double hysteresis = 2.0;
  /// Observations required before the first decision (don't re-plan off a
  /// cold two-sample window).
  std::size_t min_batches = 8;
  /// Observed batches that must pass after a swap before the next one —
  /// the post-swap window reflects the new plan, let it fill first.
  std::size_t cooldown_batches = 8;
};

/// Monotonic counters of the re-planning loop (ServerStats::replan).
struct ReplanStats {
  std::uint64_t plans_recomputed = 0;  ///< analytic re-plans computed
  std::uint64_t swaps_applied = 0;     ///< plans actually installed
  std::uint64_t last_plan_compute_us = 0;  ///< wall µs of the last re-plan
  int current_priced_batch = 0;        ///< batch the live plan is priced for
  int current_tier = 0;                ///< active degradation-ladder tier
  std::uint64_t tier_swaps = 0;        ///< tier plans installed (both ways)
  /// Per-backend layer-entry win counts of the live plan.
  std::array<std::uint64_t, core::kBackendCount> wins{};
};

/// The default graceful-degradation ladder above a full-precision base
/// plan: tier 1 swaps every Gemm6-family route to bf16 resident weights
/// (~2x weight-DRAM cut), tier 2 to int8 per-channel (~4x). Each tier is a
/// complete BackendPlan, so installing one goes through the same quiesce +
/// recompile path as any replan; within a tier the plan is frozen, so
/// outputs stay bit-identical until the governor moves tiers.
std::vector<core::BackendPlan> default_degradation_tiers(
    const core::BackendPlan& base);

/// Online re-planning driver: watches the traffic regime the server
/// actually sees (micro-batch sizes and queue depth, reported by the
/// completion loop via observe()) and, when the effective batch size shifts
/// past the hysteresis threshold, recomputes the plan analytically
/// (core::replan_for_batch over the calibrated CostModel — microseconds,
/// off the hot path on this object's own worker thread) and swaps it into
/// the scheduler at a batch boundary (BatchScheduler::install_plan).
///
/// Re-planning is re-RANKING, not re-admission: only candidates the base
/// plan already admitted under its AccuracyBudget are considered, and with
/// the default bit-identical pinning a swap can only move a layer between
/// backends that produce identical bits (Gemm6 <-> FusedGemm6) or flip its
/// residency/amortization — never change output numerics mid-stream.
class Replanner {
 public:
  /// `sched` and `net` must outlive the replanner. `base` is the currently
  /// installed plan (the one the scheduler's engine was built with);
  /// `model` is a calibrated cost model for the serving machine — e.g.
  /// CostModel::calibrated(...), or calibrate_from(net, base) to fit it
  /// from the base plan's own simulated candidate table for free.
  Replanner(runtime::BatchScheduler& sched, dnn::Network& net,
            core::CostModel model, core::BackendPlan base,
            ReplannerConfig cfg = {});
  ~Replanner();

  Replanner(const Replanner&) = delete;
  Replanner& operator=(const Replanner&) = delete;

  /// Spawns the worker thread. Call once, before the server starts.
  void start();

  /// Joins the worker. Idempotent; called by the destructor.
  void stop();

  /// One finished micro-batch: its item count and the admission-queue depth
  /// at completion time. Cheap (one lock, no planning) — the server's
  /// completion loop calls this inline per batch.
  void observe(int batch_items, std::size_t queue_depth);

  /// Installs the degradation ladder: tiers[i] serves as tier i+1 (tier 0
  /// is the base plan the replanner was built with). Call before start().
  void set_tiers(std::vector<core::BackendPlan> tiers);

  /// Asks the worker to move to `tier` (clamped to the installed ladder).
  /// Thread-safe and cheap — the OverloadGovernor calls this from its
  /// admission/observation path; the actual install_plan happens on the
  /// worker thread at a batch boundary. While a non-zero tier is active,
  /// regime re-ranking is frozen (the tier plan never mutates), so outputs
  /// stay bit-identical within a tier; recovery to tier 0 restores the
  /// original base plan and re-ranking resumes from it.
  void request_tier(int tier);

  [[nodiscard]] int current_tier() const;

  [[nodiscard]] ReplanStats stats() const;

  /// The plan currently installed (for tests and the advisor).
  [[nodiscard]] core::BackendPlan current_plan() const;

 private:
  void worker_loop();
  /// Effective batch the observed regime asks for, clamped to
  /// [1, max_batch]: the larger of the mean served batch and the mean
  /// queue depth (a deep queue means the batcher WILL form bigger batches
  /// as soon as the plan amortizes them better).
  [[nodiscard]] int effective_batch_locked() const;

  runtime::BatchScheduler* sched_;
  dnn::Network* net_;
  core::CostModel model_;
  ReplannerConfig cfg_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  core::BackendPlan plan_;   // the live plan (what the scheduler runs)
  core::BackendPlan tier0_;  // pristine base; reinstalled on recovery
  std::vector<core::BackendPlan> tiers_;  // tiers_[i] = ladder tier i+1
  int requested_tier_ = 0;
  int current_tier_ = 0;
  std::deque<std::pair<int, std::size_t>> window_;  // (items, depth)
  std::uint64_t observed_ = 0;        // total observe() calls
  std::uint64_t last_swap_obs_ = 0;   // observed_ at the last swap
  ReplanStats stats_;
  bool stop_ = false;
  bool started_ = false;
  std::thread worker_;
};

}  // namespace vlacnn::serve
