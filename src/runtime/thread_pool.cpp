#include "runtime/thread_pool.hpp"

#include <cstdlib>
#include <string>

#include "common/error.hpp"

namespace vlacnn::runtime {

int ThreadPool::hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool::ThreadPool(int threads) {
  VLACNN_REQUIRE(threads <= kMaxThreads,
                 "thread count " + std::to_string(threads) + " exceeds " +
                     std::to_string(kMaxThreads));
  const int n = threads <= 0 ? hardware_threads() : threads;
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Undrained tasks would be silently dropped here; that is always a bug
    // in the owner (runtime::WorkGraph drains before its pool dies).
    if (!tasks_.empty()) std::abort();
    stop_ = true;
  }
  start_cv_.notify_all();
  for (auto& t : workers_) t.join();
}

void ThreadPool::worker_loop(int id) {
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      start_cv_.wait(lock, [&] { return stop_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stop_, with nothing left to run
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    if (task_start_hook) task_start_hook(id);
    task(id);  // must not throw (see Task)
    std::lock_guard<std::mutex> lock(mu_);
    --tasks_in_flight_;
  }
}

void ThreadPool::post(Task task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push_back(std::move(task));
    ++tasks_in_flight_;
  }
  start_cv_.notify_one();
}

int ThreadPool::pending_tasks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tasks_in_flight_;
}

}  // namespace vlacnn::runtime
