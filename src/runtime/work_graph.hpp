#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <stdexcept>
#include <vector>

#include "dnn/exec_context.hpp"
#include "runtime/thread_pool.hpp"

namespace vlacnn::runtime {

class FaultInjector;

/// The error a watchdog-cancelled batch completes with: the batch made no
/// progress for the configured timeout, so its remaining tasks were skipped
/// and the whole batch failed. Callers (serve::Server) map it to a typed
/// per-request Cancelled outcome rather than an internal error.
struct BatchCancelled : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Execution statistics of one batch in the work graph: `span_seconds` runs
/// from the batch's first task start to its sink completion and
/// `busy_seconds` sums compute-task durations across all workers; the
/// overlap counters prove cross-batch pipelining (tasks of this batch that
/// started while an older batch was still in flight).
struct ExecStats {
  double span_seconds = 0.0;  ///< first task start -> batch completion
  double busy_seconds = 0.0;  ///< summed compute-task time over all workers
  int workers = 0;            ///< pool size the batch ran on
  std::uint64_t tasks = 0;    ///< compute tasks (layer chunks) of the batch
  /// Compute tasks of this batch started while an older batch was still
  /// incomplete — nonzero means the executor overlapped batches.
  std::uint64_t overlap_task_starts = 0;
  /// Same, restricted to layer-0 chunks: batch k+1 entered the network
  /// before batch k left it.
  std::uint64_t overlap_first_layer_starts = 0;

  /// Mean fraction of the pool busy on this batch over its span.
  [[nodiscard]] double occupancy() const {
    if (span_seconds <= 0.0 || workers <= 0) return 0.0;
    const double occ = busy_seconds / (span_seconds * workers);
    return occ < 1.0 ? occ : 1.0;
  }
  /// Complement of occupancy(): worker time idle (or stolen by other
  /// batches) during this batch's span.
  [[nodiscard]] double idle_fraction() const { return 1.0 - occupancy(); }
};

/// One layer of a batch program handed to WorkGraph::launch.
struct GraphLayerSpec {
  /// Single task over all items (a fused residual fold's sync point)
  /// instead of per-item chunks.
  bool barrier = false;
  /// Indices of the layers whose outputs this layer consumes; -1 denotes
  /// the batch input tensor (always ready, private to the batch).
  std::vector<int> inputs;
  /// Identity of the tensor this layer writes — &Layer::output(), which for
  /// a fused-away layer aliases its producer's tensor, so write-after-read
  /// hazards across batches are keyed by the real storage.
  const void* out_key = nullptr;
  /// Reshapes/validates the layer for this batch (dnn prepare_batch). Runs
  /// exactly once, after every input layer's prepare and after every live
  /// reader/writer of out_key from older batches has finished (the reshape
  /// may reallocate the tensor).
  std::function<void()> prepare;
  /// Computes items [begin, end) on `worker`, filling `rec`
  /// (name/algo/items/flops; the graph stamps wall_seconds) for the
  /// canonical chunk-order record merge.
  std::function<void(int begin, int end, int worker, dnn::LayerRecord& rec)>
      run;
};

/// What a completed batch hands to its on_done callback.
struct GraphBatchResult {
  /// Per-layer records, merged over chunks in chunk order — canonical
  /// regardless of execution interleaving and worker count (same
  /// name/algo/items/flops for every schedule; wall_seconds is the slowest
  /// chunk).
  std::vector<dnn::LayerRecord> records;
  ExecStats stats;
  /// First execution error of the batch, or null. On error the remaining
  /// tasks of the batch were skipped and `records` is empty.
  std::exception_ptr error;
};

/// One batch submitted to the graph.
struct GraphBatchSpec {
  int items = 1;   ///< batch size (chunking domain of per-item layers)
  int chunks = 1;  ///< target chunks per per-item layer (the worker count)
  std::vector<GraphLayerSpec> layers;
  /// Tensors on_done reads (the output snapshot): the graph holds the
  /// write-after-read guard on them until on_done returns, so the next
  /// batch cannot overwrite the output while it is being snapshotted.
  std::vector<const void*> final_read_keys;
  /// Invoked once on the completing worker after every task of the batch
  /// finished (or was skipped due to an error). Must not throw.
  std::function<void(GraphBatchResult&&)> on_done;
};

/// Work-graph batch executor: decomposes batched forward passes into
/// (batch, layer, item-chunk) tasks with readiness edges and runs them as
/// ThreadPool tasks.
///
/// Per-item readiness — a worker that finishes its chunk of layer i
/// immediately unlocks layer i+1 on exactly the items it completed (chunk
/// partitions are the same static function of (items, chunks) at every
/// layer, so the per-item dependence collapses to aligned chunk -> chunk
/// edges; a barrier layer is a single task depending on every chunk of each
/// input). There is no global per-layer barrier: independent chunks of many
/// layers — and of different batches — run concurrently.
///
/// Cross-batch overlap — launch() may be called again while earlier batches
/// are still executing. The builder adds write-after-read / write-after-
/// write edges against every still-live task touching the same tensor
/// (keyed by tensor identity, so layer outputs living in the shared Network
/// are handed from batch k's readers to batch k+1's writers without copies):
/// batch k+1's early layers start on free workers as soon as batch k's
/// consumers of those tensors are done, overlapping batch k's tail.
///
/// Determinism — outputs are bit-identical to a sequential
/// Network::forward because every task runs the same per-item kernels on an
/// equivalent ExecContext, and the edges reproduce exactly the data
/// dependences of layer order; record merges are in (layer, chunk) order,
/// so accounting is byte-stable regardless of interleaving. Batches complete strictly FIFO:
/// launch() chains the youngest live batch's sink onto the new batch's
/// sink, so completion (and retirement) order is launch order even for
/// batches that share no tensors (e.g. different Networks in flight).
///
/// launch() must be called from one thread at a time (the scheduler's
/// executor thread); completion callbacks run on pool workers.
class WorkGraph {
 public:
  explicit WorkGraph(ThreadPool& pool) : pool_(&pool) {}
  ~WorkGraph() { drain(); }

  WorkGraph(const WorkGraph&) = delete;
  WorkGraph& operator=(const WorkGraph&) = delete;

  /// Admits one batch: builds its task graph (with ordering edges against
  /// every batch still in flight) and starts executing it. Returns
  /// immediately; completion is reported through spec.on_done. The spec is
  /// validated in full before any shared state is touched — on throw
  /// (InvalidArgument), in-flight batches are unaffected and the graph
  /// remains usable.
  void launch(GraphBatchSpec&& spec);

  /// Blocks until every launched batch has completed.
  void drain();

  /// Batches currently in flight (for tests).
  [[nodiscard]] int live_batches() const;

  /// Wires a deterministic fault source: compute tasks consult it for an
  /// injected stall before running. Set while the graph is drained (the
  /// scheduler wires it at construction); the injector must outlive the
  /// graph's batches.
  void set_fault_injector(FaultInjector* inj) { injector_ = inj; }

  /// The watchdog's wedge check: when the OLDEST live batch has made no
  /// progress (no task of ANY batch started or completed — younger batches
  /// overlapping the front one count as progress, since FIFO retirement
  /// gates on the front) for `timeout_s`, marks it failed with
  /// BatchCancelled so its remaining tasks skip and it completes with a
  /// typed error instead of wedging the slot ring forever. Returns 1 when
  /// a batch was declared wedged, else 0.
  /// Cancellation takes effect when the stuck task returns:
  /// a finitely stalled worker (the FaultInjector's model) unwedges; a task
  /// that never returns cannot be reclaimed without killing its thread.
  int cancel_if_wedged(double timeout_s);

 private:
  struct Batch;
  struct Node {
    Batch* batch = nullptr;
    int layer = 0;       // layer index; sink uses INT_MAX
    int chunk = 0;
    int begin = 0, end = 0;  // item range (compute nodes)
    bool is_prepare = false;
    bool is_sink = false;
    int deps = 0;        // unfinished predecessors (guarded by mu_)
    bool done = false;
    std::vector<Node*> out;            // dependents to unlock on completion
    std::vector<const void*> touched;  // keys registered in live_touch_
    dnn::LayerRecord rec;              // compute nodes only
  };
  struct Batch {
    std::uint64_t seq = 0;
    GraphBatchSpec spec;
    std::vector<std::unique_ptr<Node>> nodes;  // prepare + compute nodes
    std::vector<std::vector<Node*>> layer_chunks;  // per layer, chunk order
    Node sink;
    bool failed = false;
    std::exception_ptr error;
    bool started = false;
    std::chrono::steady_clock::time_point launched_at{};
    std::chrono::steady_clock::time_point first_start{};
    double busy_seconds = 0.0;
    std::uint64_t tasks = 0;
    std::uint64_t overlap_task_starts = 0;
    std::uint64_t overlap_first_layer_starts = 0;
  };
  struct NodeOrder {
    // Min-heap on (batch seq, layer, compute-after-prepare, chunk): older
    // batches drain first (tail latency), layers in topological order.
    bool operator()(const Node* a, const Node* b) const;
  };

  void make_ready(Node* n);  // mu_ held: push + post one pool token
  void run_token(int worker);
  void finish_batch(Batch& b);         // sink body (no lock held)
  void untouch(Node* n);               // mu_ held: drop n from live_touch_
  void retire(Batch& b);               // mu_ held

  ThreadPool* pool_;
  FaultInjector* injector_ = nullptr;
  mutable std::mutex mu_;
  std::condition_variable drained_cv_;
  // Last instant any task of any batch completed — the watchdog's liveness
  // signal (guarded by mu_).
  std::chrono::steady_clock::time_point last_progress_{};
  std::uint64_t next_seq_ = 1;
  std::deque<std::unique_ptr<Batch>> live_;  // FIFO by seq
  // Every incomplete node touching (reading or writing) a tensor, keyed by
  // tensor identity — the WAR/WAW edge source for newly launched batches.
  std::map<const void*, std::vector<Node*>> live_touch_;
  std::priority_queue<Node*, std::vector<Node*>, NodeOrder> ready_;
};

}  // namespace vlacnn::runtime
