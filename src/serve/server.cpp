#include "serve/server.hpp"

#include <algorithm>
#include <cstring>

namespace vlacnn::serve {

namespace {

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

}  // namespace

Server::Server(runtime::BatchScheduler& sched, dnn::Network& net,
               ServerConfig cfg)
    : sched_(&sched),
      net_(&net),
      cfg_(std::move(cfg)),
      queue_(cfg_.queue_capacity, cfg_.block_when_full),
      batcher_(queue_, cfg_.policy) {
  VLACNN_REQUIRE(cfg_.queue_capacity >= 1, "queue capacity must be >= 1");
  VLACNN_REQUIRE(cfg_.policy.max_batch >= 1, "max_batch must be >= 1");
  // A request the batcher sheds at dequeue (deadline already passed) still
  // resolves: deliver its typed completion from the batcher thread.
  batcher_.on_shed = [this](InferRequest&& r) {
    emit(terminal(r, Outcome::ShedDeadline, Clock::now()));
  };
}

Server::~Server() {
  try {
    stop();
  } catch (...) {
    // A forward-pass failure already surfaced to stop()'s caller or is
    // being abandoned with the server; never throw from the destructor.
  }
}

void Server::start() {
  VLACNN_REQUIRE(!started_, "server already started");
  started_ = true;
  batcher_thread_ = std::thread([this] { batcher_loop(); });
  completion_thread_ = std::thread([this] { completion_loop(); });
}

Admit Server::submit(std::uint64_t id, dnn::Tensor input,
                     Clock::time_point deadline) {
  VLACNN_REQUIRE(input.n() == 1 && input.c() == net_->in_c() &&
                     input.h() == net_->in_h() && input.w() == net_->in_w(),
                 "request input must be a batch-1 tensor of the network's "
                 "input shape");
  if (cfg_.governor != nullptr) {
    const AdmitVerdict v =
        cfg_.governor->admit(Clock::now(), queue_.size(), deadline);
    if (v != AdmitVerdict::Admit) return Admit::RejectedOverload;
  }
  InferRequest req;
  req.id = id;
  req.input = std::move(input);
  req.deadline = deadline;
  return queue_.push(std::move(req));
}

void Server::stop() {
  if (stopped_) return;
  stopped_ = true;
  if (!started_) {
    // Never started: no batcher thread exists to drain the queue, but
    // submit() may already have admitted requests. Atomically close and
    // pull them back, resolving each with a Cancelled completion — the
    // "every admitted request gets a typed outcome" contract holds even
    // for a server that was torn down before serving anything.
    std::vector<InferRequest> orphans = queue_.close_and_cancel();
    const Clock::time_point now = Clock::now();
    for (const InferRequest& r : orphans)
      emit(terminal(r, Outcome::Cancelled, now));
    return;
  }
  queue_.close();
  if (batcher_thread_.joinable()) batcher_thread_.join();
  if (completion_thread_.joinable()) completion_thread_.join();
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    error = error_;
  }
  if (error) std::rethrow_exception(error);
}

std::vector<Completion> Server::drain_completions() {
  std::lock_guard<std::mutex> lock(stats_mu_);
  std::vector<Completion> out = std::move(completions_);
  completions_.clear();
  return out;
}

ServerStats Server::stats() const {
  ServerStats s;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    s = stats_;
  }
  s.queue = queue_.stats();
  if (cfg_.replanner != nullptr) s.replan = cfg_.replanner->stats();
  if (cfg_.governor != nullptr) s.governor = cfg_.governor->stats();
  // Admission rejections never produce a Completion; fold them into the
  // outcome tally here so outcomes sums to every resolved request.
  s.outcomes[static_cast<std::size_t>(Outcome::RejectedOverload)] +=
      s.queue.rejected + s.governor.rejected_overload +
      s.governor.rejected_doomed;
  s.watchdog_wedges = sched_->watchdog_wedges();
  return s;
}

Completion Server::terminal(const InferRequest& r, Outcome outcome,
                            Clock::time_point now) const {
  Completion c;
  c.trace.id = r.id;
  c.trace.outcome = outcome;
  c.trace.queue_ms = ms_between(r.arrival, now);
  c.trace.total_ms = c.trace.queue_ms;
  c.trace.batch_items = 0;
  c.trace.deadline_met = r.deadline == kNoDeadline || now <= r.deadline;
  return c;
}

void Server::emit(Completion&& c) {
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.completed += 1;
    stats_.outcomes[static_cast<std::size_t>(c.trace.outcome)] += 1;
    if (c.trace.outcome == Outcome::Ok && !c.trace.deadline_met)
      ++stats_.deadline_misses;
    if (!cfg_.on_complete) {
      completions_.push_back(std::move(c));
      return;
    }
  }
  cfg_.on_complete(std::move(c));
}

void Server::batcher_loop() {
  while (auto fb = batcher_.next_batch()) {
    const int nb = static_cast<int>(fb->requests.size());
    // Pack the requests into one batched tensor; item order is submission
    // order within the batch, and each item's values are exactly the
    // request's input bytes — per-item kernels make the results
    // independent of how requests were grouped.
    dnn::Tensor batch(nb, net_->in_c(), net_->in_h(), net_->in_w());
    for (int b = 0; b < nb; ++b) {
      InferRequest& r = fb->requests[static_cast<std::size_t>(b)];
      std::memcpy(batch.item_data(b), r.input.data(),
                  batch.item_size() * sizeof(float));
      r.input = dnn::Tensor();  // packed; release the request's copy
    }

    InFlight inf;
    inf.formed_at = fb->formed_at;
    inf.trigger = fb->trigger;
    // Blocks only when both scheduler slots are occupied — the pipeline's
    // own backpressure. While batch k executes, we loop around and form
    // batch k+1.
    inf.ticket = sched_->submit(*net_, std::move(batch));
    inf.submitted_at = Clock::now();
    inf.requests = std::move(fb->requests);
    {
      std::lock_guard<std::mutex> lock(inflight_mu_);
      inflight_.push_back(std::move(inf));
    }
    inflight_cv_.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    batcher_done_ = true;
  }
  inflight_cv_.notify_one();
}

void Server::completion_loop() {
  for (;;) {
    InFlight inf;
    {
      std::unique_lock<std::mutex> lock(inflight_mu_);
      inflight_cv_.wait(lock,
                        [&] { return !inflight_.empty() || batcher_done_; });
      if (inflight_.empty()) return;  // batcher exited and all collected
      inf = std::move(inflight_.front());
      inflight_.pop_front();
    }

    runtime::BatchResult res;
    Outcome failed = Outcome::Ok;
    try {
      res = sched_->wait(inf.ticket);
    } catch (const runtime::BatchCancelled&) {
      // The watchdog declared the batch wedged and cancelled it: not an
      // internal fault of the server (no error_ recorded, stop() stays
      // clean) — resolve every rider with a typed Cancelled completion.
      failed = Outcome::Cancelled;
    } catch (...) {
      // A failed forward pass: remember the first error (stop() rethrows)
      // and resolve the batch's requests as InternalError — they still
      // complete, just without an output.
      std::lock_guard<std::mutex> lock(stats_mu_);
      if (!error_) error_ = std::current_exception();
      failed = Outcome::InternalError;
    }
    if (failed != Outcome::Ok) {
      // Outside the error's lock scope: emit() takes stats_mu_ itself.
      const Clock::time_point now = Clock::now();
      for (const InferRequest& r : inf.requests)
        emit(terminal(r, failed, now));
      continue;
    }
    const Clock::time_point done = Clock::now();
    const int nb = static_cast<int>(inf.requests.size());

    // Feed the traffic-regime observer (cheap: one lock + a cv signal;
    // planning itself happens on the replanner's own thread).
    if (cfg_.replanner != nullptr)
      cfg_.replanner->observe(nb, queue_.size());
    // Feed the admission controller: sojourn of the oldest rider is the
    // CoDel signal, per-item compute corrects the capacity estimate.
    if (cfg_.governor != nullptr) {
      double sojourn_s = 0.0;
      for (const InferRequest& r : inf.requests)
        sojourn_s = std::max(
            sojourn_s,
            std::chrono::duration<double>(inf.formed_at - r.arrival).count());
      cfg_.governor->observe_batch(done, sojourn_s, nb, res.compute_seconds);
    }

    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_.batches += 1;
      stats_.sum_batch_items += nb;
      stats_.trigger_counts[static_cast<std::size_t>(inf.trigger)] += 1;
    }
    for (int b = 0; b < nb; ++b) {
      const InferRequest& r = inf.requests[static_cast<std::size_t>(b)];
      const bool item_failed =
          !res.item_errors.empty() &&
          res.item_errors[static_cast<std::size_t>(b)] != nullptr;
      Completion c;
      c.trace.id = r.id;
      c.trace.outcome = item_failed ? Outcome::InternalError : Outcome::Ok;
      c.trace.queue_ms = ms_between(r.arrival, inf.formed_at);
      c.trace.dispatch_ms = ms_between(inf.formed_at, inf.submitted_at);
      c.trace.compute_ms = res.compute_seconds * 1e3;
      c.trace.total_ms = ms_between(r.arrival, done);
      c.trace.batch_items = nb;
      c.trace.trigger = inf.trigger;
      c.trace.deadline_met = r.deadline == kNoDeadline || done <= r.deadline;
      c.trace.batch_occupancy = res.exec.occupancy();
      c.trace.worker_idle_frac = res.exec.idle_fraction();
      c.trace.batch_overlap_starts = res.exec.overlap_task_starts;
      if (!item_failed) {
        // A failed item's output slice is meaningless (per-item isolation
        // skipped its remaining layers) — deliver an empty tensor instead.
        c.output.reshape(res.output.c(), res.output.h(), res.output.w());
        std::memcpy(c.output.data(), res.output.item_data(b),
                    c.output.size() * sizeof(float));
      }
      emit(std::move(c));
    }
  }
}

}  // namespace vlacnn::serve
