#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/conv_engine.hpp"
#include "dnn/network.hpp"
#include "runtime/thread_pool.hpp"
#include "runtime/work_graph.hpp"

namespace vlacnn::runtime {

struct SchedulerConfig {
  /// Worker count; <= 0 selects the hardware concurrency. Above
  /// ThreadPool::kMaxThreads the scheduler's constructor throws
  /// InvalidArgument before any thread starts.
  int threads = 0;
  /// Hardware vector length of the per-worker functional engines.
  unsigned vlen_bits = 512;
  /// Deterministic fault source for chaos runs: injected task stalls reach
  /// the work graph, worker-slow faults the pool, item failures the layer
  /// dispatch (where per-item isolation catches them). Must outlive the
  /// scheduler. Null = no injection (production default).
  FaultInjector* fault_injector = nullptr;
  /// Batch watchdog: when > 0, a monitor thread declares the oldest
  /// in-flight graph batch wedged after this many seconds without progress
  /// and cancels it (WorkGraph::cancel_if_wedged) — the batch completes
  /// with BatchCancelled instead of blocking the slot ring forever. 0
  /// disables the watchdog.
  double watchdog_timeout_s = 0.0;
  /// Watchdog poll period.
  double watchdog_poll_s = 0.01;
};

/// Handle to a batch accepted by BatchScheduler::submit(). Single-use:
/// redeem exactly once with wait(). Tickets complete in submission order,
/// but may be waited from any thread and in any order (results are buffered
/// in their slot until collected).
struct BatchTicket {
  std::uint64_t id = 0;
};

/// What BatchScheduler::wait() hands back for one batch.
struct BatchResult {
  /// Snapshot of the last layer's batched output, copied out before the
  /// next batch may run — valid independently of anything executed later
  /// on the same network.
  dnn::Tensor output;
  /// Deterministically merged per-layer records of this batch (same
  /// contents records() holds after a synchronous run()).
  std::vector<dnn::LayerRecord> records;
  /// Wall time of the forward pass (first task start to completion).
  /// Excludes the time the batch spent queued in its admission slot, so
  /// callers can separate queue wait from compute.
  double compute_seconds = 0.0;
  /// Worker occupancy and cross-batch overlap counters for this batch.
  ExecStats exec;
  /// Per-item execution errors: empty when every item succeeded; otherwise
  /// size n() with a non-null exception_ptr per failed item. A failed
  /// item's slice of `output` is meaningless; every other item is
  /// bit-identical to a fault-free run (its kernels ran on the same
  /// contexts with the same inputs — failed items are skipped, never
  /// recomputed differently). Batch-level failures (prepare, shape,
  /// watchdog cancellation) surface as a wait() throw instead.
  std::vector<std::exception_ptr> item_errors;
};

/// Parallel layer scheduler: runs batched forward passes of a Network with
/// every core busy.
///
/// Each worker owns a functional VectorEngine and an ExecContext (its own
/// im2col workspace, packed-GEMM buffers and Winograd scratch, installed by
/// the ConvolutionEngine), so workers never share mutable kernel state;
/// weights and the Winograd/packed weight caches are read-only during a
/// pass (every pass calls engine.prepare() first, and the caches themselves
/// are thread-safe for the prepare-during-execution overlap below).
///
/// Every pass, batch 1 included, is decomposed into a work graph
/// (runtime::WorkGraph): per-item layers split into item chunks whose
/// readiness follows the items they consume, so a worker finishing its
/// chunk of layer i starts layer i+1 on those items instead of waiting at a
/// global barrier; only layers that pin a sync point — fused residual
/// folds (Layer::readiness()) — become single barrier tasks, which run on
/// one pool worker while cross-batch overlap refills the others. A batch of
/// one item is one chunk per layer. The kSlots slot ring feeds the same graph, so batch k+1's early
/// layers overlap batch k's late layers on free workers (write-after-read
/// edges on the shared layer tensors keep it sound).
///
/// Scheduling is deterministic and bit-identical to a sequential
/// Network::forward on one ExecContext under the same plan: items map to
/// chunks by a static partition, every worker's arithmetic depends only on
/// the engine vector length, readiness edges reproduce exactly the data
/// dependences of layer order, and LayerRecords are merged in canonical
/// chunk order regardless of interleaving.
///
/// Layers the engine's plan marks weight-resident (and FC layers under the
/// plan's fc_weight_resident flag) are dispatched batch-fused per chunk:
/// each of the layer's item chunks makes one Layer::forward_batch call over
/// its own items, streaming each pack-once weight panel once per chunk
/// instead of once per item — bit-identical to the per-item path, which
/// remains the fallback whenever the layer declines (a 1-item chunk
/// always does). A fused dispatch that throws fails exactly its chunk's
/// items (BatchResult::item_errors); the other chunks run on.
///
/// Two ways to drive it:
///  * run(net, input) — synchronous: blocks until the batch finishes and
///    returns the network's output tensor. This is a thin wrapper over the
///    async API below and is bit-identical to it.
///  * submit(net, batch) -> BatchTicket / wait(ticket) -> BatchResult —
///    pipelined: batches execute FIFO while the caller forms/packs the next
///    one. kSlots batches may be in flight; a further submit() blocks until
///    a slot frees — the natural backpressure the serving layer leans on.
///    Both in-flight batches make progress concurrently.
///
/// submit() and wait() are thread-safe; run() may be freely mixed with
/// them, but the reference it returns (into the Network's last layer) is
/// only stable until the next batch executes on that network.
class BatchScheduler {
 public:
  /// In-flight batch slots: two batches overlapping in the work graph.
  static constexpr int kSlots = 2;

  BatchScheduler(core::ConvolutionEngine& engine,
                 const SchedulerConfig& cfg = {});
  ~BatchScheduler();

  BatchScheduler(const BatchScheduler&) = delete;
  BatchScheduler& operator=(const BatchScheduler&) = delete;

  /// Batched forward of `net` on `input` (any batch size N >= 1). Returns
  /// the last layer's batched output. Per-layer stats land in records().
  const dnn::Tensor& run(dnn::Network& net, const dnn::Tensor& input);

  /// Queues a batched forward of `net` on `input` (ownership taken) and
  /// returns immediately once an admission slot is free. Shape errors throw
  /// here, synchronously; execution errors surface from wait().
  BatchTicket submit(dnn::Network& net, dnn::Tensor input);

  /// Blocks until `ticket`'s batch has executed and returns its output
  /// snapshot, records and compute time. Rethrows any execution error.
  /// Each ticket must be waited exactly once.
  BatchResult wait(const BatchTicket& ticket);

  /// Records and execution statistics of the last run() — the synchronous
  /// API's accounting surface. Pipelined batches carry theirs in their
  /// BatchResult instead.
  [[nodiscard]] const std::vector<dnn::LayerRecord>& records() const {
    return records_;
  }
  [[nodiscard]] const ExecStats& exec_stats() const { return exec_; }

  /// Atomically swaps the engine's plan at a batch boundary: pauses the
  /// executor from claiming further queued batches, waits for every
  /// in-flight batch to retire (FIFO — the ring drains in order), drains
  /// the work graph, installs `plan` into the engine, recompiles every
  /// worker ExecContext against it, then resumes. Queued batches are
  /// never dropped — they simply execute under the new plan; a batch
  /// already executing finishes entirely under the old one (its compiled
  /// dispatch owns the old plan). Safe to call from any thread (the
  /// Replanner's worker calls it off the hot path); callers blocked in
  /// submit()/wait() are unaffected beyond the pause.
  void install_plan(core::BackendPlan plan);

  [[nodiscard]] int threads() const { return pool_.size(); }
  [[nodiscard]] ThreadPool& pool() { return pool_; }

  /// Batches the watchdog declared wedged and cancelled so far.
  [[nodiscard]] std::uint64_t watchdog_wedges() const {
    return watchdog_wedges_.load(std::memory_order_relaxed);
  }

  /// Cumulative bytes moved by the worker engines. Sample before/after a
  /// batch to get its traffic. Call only while no batch is in flight.
  [[nodiscard]] std::uint64_t mem_bytes_moved() const;

  /// TEST-ONLY: invoked before every per-item kernel as (layer, item), and
  /// as (layer, -1) before each chunk's batch-fused dispatch, from whichever
  /// worker runs the work. Tests use it to inject delays (stress interleavings) or
  /// throw (exercise error propagation). Set / clear only while no batch is
  /// in flight.
  std::function<void(int layer, int item)> test_item_hook;

 private:
  struct Slot {
    enum class State { Free, Queued, Running, Done };
    State state = State::Free;
    std::uint64_t id = 0;
    dnn::Network* net = nullptr;
    dnn::Tensor owned_input;             // submit() path: input moved in
    const dnn::Tensor* input = nullptr;  // &owned_input, or run()'s borrow
    bool snapshot_output = true;         // run() skips the output copy
    BatchResult result;
    std::exception_ptr error;
  };

  BatchTicket enqueue(dnn::Network& net, const dnn::Tensor* borrowed,
                      dnn::Tensor owned, bool snapshot_output);
  void executor_loop();
  void launch_graph(Slot& slot);
  GraphBatchSpec build_program(Slot& slot);
  void complete(Slot& slot);  // release input, mark Done, wake waiters
  void watchdog_loop();

  // Per-item error isolation (guarded by item_mu_: entries are written by
  // whichever worker hits the failure and read by every later layer's
  // skip check).
  void init_item_errors(Slot& slot, int items);
  [[nodiscard]] bool item_failed(Slot& slot, int item);
  [[nodiscard]] bool any_item_failed(Slot& slot, int begin, int end);
  void fail_item(Slot& slot, int item, std::exception_ptr e);
  void fail_items(Slot& slot, int begin, int end, std::exception_ptr e);

  core::ConvolutionEngine* engine_;
  SchedulerConfig cfg_;
  ThreadPool pool_;
  // Declared after pool_ so it is destroyed first: the graph drains its
  // posted tasks before the pool's destructor checks for strays.
  std::unique_ptr<WorkGraph> graph_;
  std::vector<std::unique_ptr<vla::VectorEngine>> worker_engines_;
  std::vector<std::unique_ptr<dnn::ExecContext>> worker_ctxs_;
  std::vector<dnn::LayerRecord> records_;
  ExecStats exec_;

  std::mutex item_mu_;  // guards every Slot::result.item_errors
  std::atomic<std::uint64_t> watchdog_wedges_{0};

  std::mutex mu_;                  // guards slots_ + counters below
  std::condition_variable slot_cv_;  // slot became Free or Done
  std::condition_variable exec_cv_;  // slot became Queued (or stopping)
  Slot slots_[kSlots];
  std::uint64_t next_ticket_ = 1;  // id the next submit() will take
  std::uint64_t next_exec_ = 1;    // id the executor claims next (FIFO)
  bool stopping_ = false;
  bool swap_pending_ = false;  // install_plan() gate: executor claims nothing
  std::uint64_t running_ = 0;  // slots claimed but not yet Done
  std::thread executor_;
  std::condition_variable watchdog_cv_;  // wakes the watchdog on shutdown
  std::thread watchdog_;
};

}  // namespace vlacnn::runtime
