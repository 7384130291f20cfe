#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace vlacnn::runtime {

/// Fixed-size worker pool with a FIFO task queue (the work-graph executor's
/// substrate). Each posted task is picked up by exactly one idle worker and
/// runs to completion on it; tasks are dequeued in posting order. post()
/// never blocks on task execution.
class ThreadPool {
 public:
  /// A unit of work; `worker` is the id of the worker executing it, in
  /// [0, size()). Tasks must not throw — an escaped exception terminates the
  /// process (error handling belongs to the task's own scope, see
  /// runtime::WorkGraph).
  using Task = std::function<void(int worker)>;

  /// Ceiling of an explicit worker count: far above any core count this
  /// runtime targets, low enough that a mistyped `--threads` cannot ask the
  /// OS for an unbounded number of threads.
  static constexpr int kMaxThreads = 1024;

  /// `threads` <= 0 selects the hardware concurrency. Throws
  /// InvalidArgument, before spawning any worker, when `threads` exceeds
  /// kMaxThreads.
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int size() const { return static_cast<int>(workers_.size()); }

  [[nodiscard]] static int hardware_threads();

  /// Queues `task` for execution on one worker (thread-safe, non-blocking).
  /// Tasks posted while workers are busy wait FIFO. The caller is
  /// responsible for draining its tasks before the pool is destroyed — the
  /// destructor asserts the queue is empty.
  void post(Task task);

  /// Tasks posted but not yet finished (approximate; for tests).
  [[nodiscard]] int pending_tasks() const;

  /// Fault-injection hook: when set, runs on the worker right before each
  /// task executes. Must not throw; intended for timing-only chaos
  /// (runtime::FaultInjector's worker-slow faults). Set it only while no
  /// tasks are in flight.
  std::function<void(int worker)> task_start_hook;

 private:
  void worker_loop(int id);

  std::vector<std::thread> workers_;

  mutable std::mutex mu_;
  std::condition_variable start_cv_;
  std::deque<Task> tasks_;   // FIFO
  int tasks_in_flight_ = 0;  // queued + currently executing tasks
  bool stop_ = false;
};

}  // namespace vlacnn::runtime
