#include "runtime/batch_scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <utility>

#include "runtime/fault_injector.hpp"

namespace vlacnn::runtime {

BatchScheduler::BatchScheduler(core::ConvolutionEngine& engine,
                               const SchedulerConfig& cfg)
    : engine_(&engine), cfg_(cfg), pool_(cfg.threads) {
  graph_ = std::make_unique<WorkGraph>(pool_);
  const int t = pool_.size();
  worker_engines_.reserve(static_cast<std::size_t>(t));
  worker_ctxs_.reserve(static_cast<std::size_t>(t));
  for (int w = 0; w < t; ++w) {
    worker_engines_.push_back(
        std::make_unique<vla::VectorEngine>(cfg_.vlen_bits));
    worker_ctxs_.push_back(
        std::make_unique<dnn::ExecContext>(*worker_engines_.back()));
    engine_->install(*worker_ctxs_.back());
  }
  if (cfg_.fault_injector != nullptr) {
    graph_->set_fault_injector(cfg_.fault_injector);
    FaultInjector* inj = cfg_.fault_injector;
    pool_.task_start_hook = [inj](int worker) { inj->on_worker_task(worker); };
  }
  executor_ = std::thread([this] { executor_loop(); });
  if (cfg_.watchdog_timeout_s > 0)
    watchdog_ = std::thread([this] { watchdog_loop(); });
}

BatchScheduler::~BatchScheduler() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  exec_cv_.notify_all();
  watchdog_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
  if (executor_.joinable()) executor_.join();
}

void BatchScheduler::watchdog_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stopping_) {
    watchdog_cv_.wait_for(
        lock,
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(std::max(1e-4,
                                                   cfg_.watchdog_poll_s))),
        [&] { return stopping_; });
    if (stopping_) break;
    lock.unlock();
    if (graph_->cancel_if_wedged(cfg_.watchdog_timeout_s) > 0)
      watchdog_wedges_.fetch_add(1, std::memory_order_relaxed);
    lock.lock();
  }
}

void BatchScheduler::init_item_errors(Slot& slot, int items) {
  std::lock_guard<std::mutex> lock(item_mu_);
  slot.result.item_errors.assign(static_cast<std::size_t>(items), nullptr);
}

bool BatchScheduler::item_failed(Slot& slot, int item) {
  std::lock_guard<std::mutex> lock(item_mu_);
  return slot.result.item_errors[static_cast<std::size_t>(item)] != nullptr;
}

bool BatchScheduler::any_item_failed(Slot& slot, int begin, int end) {
  std::lock_guard<std::mutex> lock(item_mu_);
  for (int b = begin; b < end; ++b)
    if (slot.result.item_errors[static_cast<std::size_t>(b)]) return true;
  return false;
}

void BatchScheduler::fail_item(Slot& slot, int item, std::exception_ptr e) {
  std::lock_guard<std::mutex> lock(item_mu_);
  auto& cell = slot.result.item_errors[static_cast<std::size_t>(item)];
  if (!cell) cell = std::move(e);  // first failure wins (the root cause)
}

void BatchScheduler::fail_items(Slot& slot, int begin, int end,
                                std::exception_ptr e) {
  std::lock_guard<std::mutex> lock(item_mu_);
  for (int b = begin; b < end; ++b) {
    auto& cell = slot.result.item_errors[static_cast<std::size_t>(b)];
    if (!cell) cell = e;
  }
}

std::uint64_t BatchScheduler::mem_bytes_moved() const {
  std::uint64_t total = 0;
  for (const auto& eng : worker_engines_) total += eng->mem_bytes_moved();
  return total;
}

BatchTicket BatchScheduler::enqueue(dnn::Network& net,
                                    const dnn::Tensor* borrowed,
                                    dnn::Tensor owned, bool snapshot_output) {
  // Validate synchronously so precondition errors throw from submit()/run(),
  // not from a later wait().
  const dnn::Tensor& in = borrowed != nullptr ? *borrowed : owned;
  VLACNN_REQUIRE(net.num_layers() > 0, "empty network");
  VLACNN_REQUIRE(in.c() == net.in_c() && in.h() == net.in_h() &&
                     in.w() == net.in_w(),
                 "network input shape mismatch");

  std::unique_lock<std::mutex> lock(mu_);
  // The slot a ticket maps to is a function of its id, and ids are handed
  // out under the lock — re-evaluate the slot inside the predicate because
  // a concurrent submitter may claim next_ticket_ while we sleep.
  slot_cv_.wait(lock, [&] {
    return slots_[next_ticket_ % kSlots].state == Slot::State::Free;
  });
  Slot& slot = slots_[next_ticket_ % kSlots];
  slot.id = next_ticket_++;
  slot.net = &net;
  slot.owned_input = std::move(owned);
  slot.input = borrowed != nullptr ? borrowed : &slot.owned_input;
  slot.snapshot_output = snapshot_output;
  slot.result = {};
  slot.error = nullptr;
  slot.state = Slot::State::Queued;
  const BatchTicket ticket{slot.id};
  lock.unlock();
  exec_cv_.notify_one();
  // next_ticket_ advanced: another producer blocked on the *other* slot's
  // freedom may now be eligible.
  slot_cv_.notify_all();
  return ticket;
}

BatchTicket BatchScheduler::submit(dnn::Network& net, dnn::Tensor input) {
  return enqueue(net, nullptr, std::move(input), /*snapshot_output=*/true);
}

BatchResult BatchScheduler::wait(const BatchTicket& ticket) {
  VLACNN_REQUIRE(ticket.id != 0, "invalid (default-constructed) ticket");
  std::unique_lock<std::mutex> lock(mu_);
  VLACNN_REQUIRE(ticket.id < next_ticket_, "ticket was never issued");
  Slot& slot = slots_[ticket.id % kSlots];
  // slot.id only grows; > means the slot was collected and recycled, ==
  // with State::Free means this very ticket was already waited.
  slot_cv_.wait(lock, [&] {
    return slot.id > ticket.id || slot.state == Slot::State::Done ||
           slot.state == Slot::State::Free;
  });
  VLACNN_REQUIRE(slot.id == ticket.id && slot.state == Slot::State::Done,
                 "ticket already collected (tickets are single-use)");
  BatchResult result = std::move(slot.result);
  std::exception_ptr error = slot.error;
  slot.result = {};
  slot.error = nullptr;
  slot.net = nullptr;
  slot.state = Slot::State::Free;
  lock.unlock();
  slot_cv_.notify_all();
  if (error) std::rethrow_exception(error);
  return result;
}

const dnn::Tensor& BatchScheduler::run(dnn::Network& net,
                                       const dnn::Tensor& input) {
  // Thin synchronous wrapper over the pipelined API: the input is borrowed
  // (no copy — we block in wait() for the batch's whole lifetime) and the
  // output snapshot is skipped because the caller reads the network's own
  // tensor, exactly as the historical drain-loop API did.
  const BatchTicket ticket =
      enqueue(net, &input, dnn::Tensor(), /*snapshot_output=*/false);
  BatchResult result = wait(ticket);
  records_ = std::move(result.records);
  exec_ = result.exec;
  return net.layer(net.num_layers() - 1).output();
}

void BatchScheduler::complete(Slot& slot) {
  {
    // Collapse an all-null item-error vector to empty: the common fault-free
    // path hands callers `item_errors.empty()`, and a batch-level error
    // supersedes per-item bookkeeping entirely.
    std::lock_guard<std::mutex> item_lock(item_mu_);
    auto& errs = slot.result.item_errors;
    bool any = false;
    for (const auto& e : errs)
      if (e) { any = true; break; }
    if (!any || slot.error) errs.clear();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    slot.owned_input = dnn::Tensor();  // release admitted input early
    slot.input = nullptr;
    slot.state = Slot::State::Done;
    --running_;
  }
  slot_cv_.notify_all();
}

void BatchScheduler::install_plan(core::BackendPlan plan) {
  std::unique_lock<std::mutex> lock(mu_);
  // One swap at a time; a second caller queues behind the first.
  slot_cv_.wait(lock, [&] { return !swap_pending_; });
  swap_pending_ = true;  // executor claims no further queued batches
  // Quiesce: every claimed batch must retire (complete() notifies
  // slot_cv_). Queued batches stay queued and run under the new plan.
  slot_cv_.wait(lock, [&] { return running_ == 0; });
  lock.unlock();

  // No batch in flight: the graph's remaining work is bookkeeping only.
  graph_->drain();
  engine_->set_plan(std::move(plan));
  // Recompile every context's dispatch against the new plan (same
  // install() calls as construction; per-context scratch is rebuilt, the
  // shared weight caches persist). The next launch's prepare() packs and
  // transforms whatever the new routing needs.
  for (auto& ctx : worker_ctxs_) engine_->install(*ctx);

  lock.lock();
  swap_pending_ = false;
  lock.unlock();
  exec_cv_.notify_all();
  slot_cv_.notify_all();
}

void BatchScheduler::executor_loop() {
  for (;;) {
    Slot* slot = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      exec_cv_.wait(lock, [&] {
        Slot& s = slots_[next_exec_ % kSlots];
        if (!swap_pending_ && s.state == Slot::State::Queued &&
            s.id == next_exec_) {
          slot = &s;
          return true;
        }
        return stopping_ && !swap_pending_;
      });
      // Queued batches drain even during shutdown (their submitters may be
      // blocked in wait()); exit only once nothing is queued.
      if (slot == nullptr) break;
      slot->state = Slot::State::Running;
      ++running_;
      ++next_exec_;
    }
    launch_graph(*slot);  // returns immediately; on_done completes it
  }
  graph_->drain();
}

void BatchScheduler::launch_graph(Slot& slot) {
  init_item_errors(slot, slot.input->n());
  try {
    // Weight transforms happen before any task runs, so the shared caches
    // are read-only lookups for the rest of the pass (they are also
    // thread-safe, which keeps this prepare sound while an older batch is
    // still executing on the pool).
    engine_->prepare(*slot.net);
    graph_->launch(build_program(slot));
  } catch (...) {
    slot.error = std::current_exception();
    complete(slot);
  }
}

GraphBatchSpec BatchScheduler::build_program(Slot& slot) {
  dnn::Network& net = *slot.net;
  const dnn::Tensor* input = slot.input;
  const int nb = input->n();
  Slot* slotp = &slot;

  GraphBatchSpec spec;
  spec.items = nb;
  spec.chunks = pool_.size();
  spec.layers.reserve(net.num_layers());

  // Per-layer backend names come from the engine's compiled plan (every
  // worker context shares the same plan, so worker 0's label function is
  // authoritative for all of them).
  const dnn::ExecContext& label_ctx = *worker_ctxs_.front();
  const auto algo_of = [&label_ctx](const dnn::Layer& layer) -> std::string {
    const auto* conv = dynamic_cast<const dnn::ConvLayer*>(&layer);
    if (conv == nullptr) return "aux";
    return label_ctx.conv_label ? label_ctx.conv_label(conv->desc())
                                : "im2col+gemm";
  };

  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    dnn::Layer& layer = net.layer(i);
    const int li = static_cast<int>(i);
    dnn::Layer* lp = &layer;

    std::vector<const dnn::Tensor*> ins;
    for (int idx : layer.input_indices()) {
      if (idx < 0)
        ins.push_back(input);
      else
        ins.push_back(&net.layer(static_cast<std::size_t>(idx)).output());
    }

    // Weight-resident layers execute batch-fused: each item chunk runs ONE
    // dispatch over its own items (per-item im2col matrices concatenated
    // along the GEMM N axis), so each resident weight panel is streamed
    // once per chunk instead of once per item, and the layer keeps the
    // per-item readiness and width of its chunks. Only a fused residual
    // fold, which must see every item of its shortcut source, pins a sync
    // point (one barrier task over the whole batch).
    const auto* conv = dynamic_cast<const dnn::ConvLayer*>(&layer);
    const bool want_batch_fused =
        nb > 1 &&
        (conv != nullptr
             ? engine_->plan().weight_resident_for(conv->desc())
             : (engine_->plan().fc_weight_resident &&
                dynamic_cast<const dnn::ConnectedLayer*>(&layer) != nullptr));

    GraphLayerSpec L;
    L.inputs = layer.input_indices();
    L.out_key = &layer.output();
    L.barrier = layer.readiness() == dnn::Layer::Readiness::Barrier;
    L.prepare = [lp, ins] { lp->prepare_batch(ins); };
    // The record names the layer's route, whatever size each chunk has: a
    // chunk the layer declines (a single item, say) runs the bit-identical
    // per-item path under the same label, so the merged record does not
    // depend on the worker count.
    const std::string algo =
        want_batch_fused ? algo_of(layer) + "+batch" : algo_of(layer);
    L.run = [this, lp, ins, algo, li, want_batch_fused, slotp](
                int begin, int end, int worker, dnn::LayerRecord& rec) {
      dnn::ExecContext& ctx = *worker_ctxs_[static_cast<std::size_t>(worker)];
      rec.name = lp->name();
      rec.algo = algo;
      // One batch-fused dispatch covers every item of the chunk, so it only
      // runs while the chunk is fault-free: a failed item would poison the
      // fused output of its chunk siblings. With a failure aboard, fall
      // through to the per-item path (bit-identical by the residency
      // contract), which skips poisoned items individually.
      if (want_batch_fused && !any_item_failed(*slotp, begin, end)) {
        try {
          if (test_item_hook) test_item_hook(li, -1);
          if (lp->forward_batch(ctx, ins, begin, end)) {
            rec.items = end - begin;
            rec.flops = lp->flops() * static_cast<double>(end - begin);
            return;
          }
          // Layer declined (a 1-item chunk, packing disabled): per-item.
        } catch (...) {
          // The fused kernel failed with the chunk's items in flight: they
          // fail together; other chunks' items are untouched.
          fail_items(*slotp, begin, end, std::current_exception());
          rec.items = 0;
          return;
        }
      }
      rec.items = 0;
      for (int b = begin; b < end; ++b) {
        if (item_failed(*slotp, b)) continue;  // poisoned upstream: skip
        try {
          if (cfg_.fault_injector != nullptr)
            cfg_.fault_injector->maybe_fail_item(slotp->id, li, b);
          if (test_item_hook) test_item_hook(li, b);
          lp->forward_item(ctx, ins, b);
        } catch (...) {
          // Isolate: this item fails, its siblings' outputs stay untouched
          // and bit-identical; downstream layers skip it.
          fail_item(*slotp, b, std::current_exception());
          continue;
        }
        rec.items += 1;
        rec.flops += lp->flops();
      }
    };
    spec.layers.push_back(std::move(L));
  }

  spec.final_read_keys = {&net.layer(net.num_layers() - 1).output()};
  spec.on_done = [this, slotp](GraphBatchResult&& res) {
    Slot& s = *slotp;
    s.error = res.error;
    s.result.records = std::move(res.records);
    s.result.exec = res.stats;
    s.result.compute_seconds = res.stats.span_seconds;
    if (!s.error && s.snapshot_output) {
      // The graph's sink still holds the read guard on the output tensor
      // here, so the next batch cannot overwrite it mid-copy.
      try {
        const dnn::Tensor& out = s.net->layer(s.net->num_layers() - 1).output();
        s.result.output.reshape(out.n(), out.c(), out.h(), out.w());
        std::memcpy(s.result.output.data(), out.data(),
                    out.size() * sizeof(float));
      } catch (...) {
        s.error = std::current_exception();
      }
    }
    complete(s);
  };
  return spec;
}

}  // namespace vlacnn::runtime
