#include "runtime/work_graph.hpp"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "runtime/fault_injector.hpp"

namespace vlacnn::runtime {

namespace {
// Heap key: (seq, layer, compute-after-prepare, chunk). The sink sorts after
// every real layer of its batch.
struct Key {
  std::uint64_t seq;
  int layer;
  int phase;  // 0 = prepare, 1 = compute/sink
  int chunk;
};

Key key_of(std::uint64_t seq, int layer, int phase, int chunk) {
  return Key{seq, layer, phase, chunk};
}

bool key_greater(const Key& a, const Key& b) {
  if (a.seq != b.seq) return a.seq > b.seq;
  if (a.layer != b.layer) return a.layer > b.layer;
  if (a.phase != b.phase) return a.phase > b.phase;
  return a.chunk > b.chunk;
}
}  // namespace

bool WorkGraph::NodeOrder::operator()(const Node* a, const Node* b) const {
  const Key ka = key_of(a->batch->seq, a->layer, a->is_prepare ? 0 : 1,
                        a->chunk);
  const Key kb = key_of(b->batch->seq, b->layer, b->is_prepare ? 0 : 1,
                        b->chunk);
  return key_greater(ka, kb);  // priority_queue is a max-heap; invert
}

void WorkGraph::launch(GraphBatchSpec&& spec) {
  const int n_layers = static_cast<int>(spec.layers.size());
  VLACNN_REQUIRE(n_layers > 0, "work graph batch has no layers");
  VLACNN_REQUIRE(spec.items >= 1, "work graph batch has no items");
  // Validate the whole spec before touching any shared state: the build
  // below registers out-edges into still-live older batches' nodes as it
  // goes, so a mid-build throw would leave them pointing into the destroyed
  // Batch (the only throw left past this point is std::bad_alloc, which
  // nothing in the runtime recovers from).
  for (int li = 0; li < n_layers; ++li) {
    const GraphLayerSpec& L = spec.layers[static_cast<std::size_t>(li)];
    VLACNN_REQUIRE(L.out_key != nullptr, "graph layer missing out_key");
    VLACNN_REQUIRE(static_cast<bool>(L.run), "graph layer missing run");
    for (int j : L.inputs)
      VLACNN_REQUIRE(j < li, "graph layer inputs must precede it");
  }

  auto batch = std::make_unique<Batch>();
  Batch& b = *batch;
  b.spec = std::move(spec);

  std::vector<Node*> initially_ready;

  std::lock_guard<std::mutex> lock(mu_);
  b.seq = next_seq_++;
  b.launched_at = std::chrono::steady_clock::now();
  b.layer_chunks.resize(static_cast<std::size_t>(n_layers));

  // Adds an ordering edge from every still-incomplete node of an OLDER batch
  // touching `key` (WAR/WAW hazard: this batch is about to rewrite a tensor
  // the older batch still reads or writes). Same-batch ordering is purely
  // structural — edges here would wrongly escalate per-item readiness to a
  // barrier whenever layers share storage (fused shortcuts).
  auto live_deps = [&](const void* key, Node* to) {
    auto it = live_touch_.find(key);
    if (it == live_touch_.end()) return;
    for (Node* from : it->second) {
      if (from->batch->seq == b.seq || from->done) continue;
      from->out.push_back(to);
      ++to->deps;
    }
  };
  auto touch = [&](const void* key, Node* n) {
    live_touch_[key].push_back(n);
    n->touched.push_back(key);
  };

  std::vector<Node*> prep(static_cast<std::size_t>(n_layers), nullptr);
  for (int li = 0; li < n_layers; ++li) {
    const GraphLayerSpec& L = b.spec.layers[static_cast<std::size_t>(li)];

    // Prepare node: reshape/validate before any chunk of this layer runs.
    auto pn = std::make_unique<Node>();
    pn->batch = &b;
    pn->layer = li;
    pn->is_prepare = true;
    for (int j : L.inputs) {
      if (j < 0) continue;  // batch input tensor: private, always ready
      prep[static_cast<std::size_t>(j)]->out.push_back(pn.get());
      ++pn->deps;
    }
    live_deps(L.out_key, pn.get());  // may realloc: older touchers first
    touch(L.out_key, pn.get());
    prep[static_cast<std::size_t>(li)] = pn.get();

    // Compute nodes: one per chunk (or one total for barrier layers).
    const int n_chunks =
        L.barrier ? 1 : std::max(1, std::min(b.spec.chunks, b.spec.items));
    for (int c = 0; c < n_chunks; ++c) {
      auto cn = std::make_unique<Node>();
      cn->batch = &b;
      cn->layer = li;
      cn->chunk = c;
      cn->begin = static_cast<int>(
          static_cast<long long>(b.spec.items) * c / n_chunks);
      cn->end = static_cast<int>(
          static_cast<long long>(b.spec.items) * (c + 1) / n_chunks);
      pn->out.push_back(cn.get());
      ++cn->deps;
      for (int j : L.inputs) {
        if (j < 0) continue;
        for (Node* src : b.layer_chunks[static_cast<std::size_t>(j)]) {
          // Chunk partitions are identical at every per-item layer, so this
          // overlap test links each chunk to exactly its aligned producer
          // chunk; barrier endpoints overlap everything.
          if (src->begin < cn->end && cn->begin < src->end) {
            src->out.push_back(cn.get());
            ++cn->deps;
          }
        }
        touch(b.spec.layers[static_cast<std::size_t>(j)].out_key, cn.get());
      }
      touch(L.out_key, cn.get());
      b.layer_chunks[static_cast<std::size_t>(li)].push_back(cn.get());
      ++b.tasks;
      b.nodes.push_back(std::move(cn));
    }
    b.nodes.push_back(std::move(pn));
  }

  // Sink: runs after every node of the batch; merges records and calls
  // on_done while still holding the final-output read guard.
  b.sink.batch = &b;
  b.sink.layer = std::numeric_limits<int>::max();
  b.sink.is_sink = true;
  for (auto& n : b.nodes) {
    n->out.push_back(&b.sink);
    ++b.sink.deps;
  }
  for (const void* key : b.spec.final_read_keys) {
    live_deps(key, &b.sink);  // e.g. guard against future batches: below
    touch(key, &b.sink);
  }

  // Completion-order chain: the new sink also waits on the youngest live
  // batch's sink, so batches complete (and retire) strictly FIFO even when
  // they share no tensors — two in-flight batches on different Networks
  // build no hazard edges against each other, and without this edge the
  // younger sink could fire first and retire() would pop the wrong batch.
  // A live batch's sink is never `done` while mu_ is held (a sink marks
  // itself done and retires its batch inside one critical section), so
  // this edge is never added to an already-completed sink.
  if (!live_.empty()) {
    live_.back()->sink.out.push_back(&b.sink);
    ++b.sink.deps;
  }

  for (auto& n : b.nodes)
    if (n->deps == 0) initially_ready.push_back(n.get());
  if (b.sink.deps == 0) initially_ready.push_back(&b.sink);

  live_.push_back(std::move(batch));
  for (Node* n : initially_ready) make_ready(n);
}

void WorkGraph::make_ready(Node* n) {
  ready_.push(n);
  pool_->post([this](int worker) { run_token(worker); });
}

void WorkGraph::run_token(int worker) {
  Node* n = nullptr;
  bool skip = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    VLACNN_ASSERT(!ready_.empty(), "work-graph token without a ready node");
    n = ready_.top();
    ready_.pop();
    Batch& b = *n->batch;
    const auto now = std::chrono::steady_clock::now();
    // A task being picked up is progress too: back-to-back long tasks keep
    // refreshing the watchdog at every boundary, so only a single task
    // exceeding the timeout outright (with nothing else starting or
    // finishing) can be declared wedged.
    last_progress_ = now;
    if (!b.started) {
      b.started = true;
      b.first_start = now;
    }
    if (!n->is_prepare && !n->is_sink && !live_.empty() &&
        live_.front()->seq < b.seq) {
      ++b.overlap_task_starts;
      if (n->layer == 0) ++b.overlap_first_layer_starts;
    }
    skip = b.failed;
  }

  Batch& b = *n->batch;
  if (n->is_sink) {
    finish_batch(b);
    std::lock_guard<std::mutex> lock(mu_);
    // The sink can carry out-edges of its own: a younger batch's writer of
    // the final output tensor waits on this sink's read guard. Release them
    // before the batch (and the sink with it) is freed.
    n->done = true;
    for (Node* d : n->out) {
      VLACNN_ASSERT(d->deps > 0, "work-graph dependency underflow");
      if (--d->deps == 0) make_ready(d);
    }
    retire(b);  // frees b — no further use
    return;
  }

  std::exception_ptr err;
  double dur = 0.0;
  if (!skip) {
    if (injector_ != nullptr && !n->is_prepare) {
      // Injected stall: the worker holds this task (and nothing else) for a
      // bounded time — the scenario the watchdog must ride out or, past its
      // timeout, declare wedged.
      const double ms = injector_->task_stall_ms(b.seq, n->layer, n->chunk);
      if (ms > 0) injector_->stall(ms);
    }
    const auto t0 = std::chrono::steady_clock::now();
    try {
      if (n->is_prepare) {
        if (n->batch->spec.layers[static_cast<std::size_t>(n->layer)].prepare)
          n->batch->spec.layers[static_cast<std::size_t>(n->layer)].prepare();
      } else {
        n->batch->spec.layers[static_cast<std::size_t>(n->layer)].run(
            n->begin, n->end, worker, n->rec);
      }
    } catch (...) {
      err = std::current_exception();
    }
    dur = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
    if (!n->is_prepare) n->rec.wall_seconds = dur;
  }

  std::lock_guard<std::mutex> lock(mu_);
  if (err && !b.failed) {
    b.failed = true;
    b.error = err;
  }
  if (!n->is_prepare) b.busy_seconds += dur;
  last_progress_ = std::chrono::steady_clock::now();
  n->done = true;
  for (Node* d : n->out) {
    VLACNN_ASSERT(d->deps > 0, "work-graph dependency underflow");
    if (--d->deps == 0) make_ready(d);
  }
}

void WorkGraph::finish_batch(Batch& b) {
  GraphBatchResult res;
  res.stats.workers = pool_->size();
  res.stats.tasks = b.tasks;
  res.stats.busy_seconds = b.busy_seconds;
  res.stats.overlap_task_starts = b.overlap_task_starts;
  res.stats.overlap_first_layer_starts = b.overlap_first_layer_starts;
  if (b.started) {
    res.stats.span_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      b.first_start)
            .count();
  }
  res.error = b.error;
  if (!b.error) {
    // Canonical merge: chunks in chunk order within each layer, layers in
    // program order — the same accounting no matter how execution
    // interleaved. Every chunk that ran named its record after its layer,
    // so the merge's same-layer check holds.
    res.records.reserve(b.layer_chunks.size());
    for (const auto& chunks : b.layer_chunks) {
      std::vector<std::vector<dnn::LayerRecord>> parts;
      parts.reserve(chunks.size());
      for (const Node* c : chunks) parts.push_back({c->rec});
      res.records.push_back(std::move(dnn::merge_layer_records(parts).front()));
    }
  }
  if (b.spec.on_done) b.spec.on_done(std::move(res));
}

void WorkGraph::untouch(Node* n) {
  for (const void* key : n->touched) {
    auto it = live_touch_.find(key);
    if (it == live_touch_.end()) continue;
    auto& v = it->second;
    v.erase(std::remove(v.begin(), v.end(), n), v.end());
    if (v.empty()) live_touch_.erase(it);
  }
}

void WorkGraph::retire(Batch& b) {
  // mu_ held. Unregister every key this batch touched.
  for (auto& n : b.nodes) untouch(n.get());
  untouch(&b.sink);
  // Batches retire strictly FIFO by construction: launch() chains every new
  // sink onto its predecessor's, so the retiring batch is the oldest live
  // one even when in-flight batches share no tensors.
  VLACNN_ASSERT(!live_.empty() && live_.front().get() == &b,
                "work-graph batches must retire FIFO");
  live_.pop_front();
  if (live_.empty()) drained_cv_.notify_all();
}

void WorkGraph::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  drained_cv_.wait(lock, [&] { return live_.empty(); });
}

int WorkGraph::live_batches() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(live_.size());
}

int WorkGraph::cancel_if_wedged(double timeout_s) {
  std::lock_guard<std::mutex> lock(mu_);
  if (live_.empty()) return 0;
  Batch& b = *live_.front();
  if (b.failed) return 0;  // already failing/cancelled; skips are in flight
  auto since = b.launched_at;
  if (last_progress_ > since) since = last_progress_;
  const double idle_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - since)
                            .count();
  if (idle_s < timeout_s) return 0;
  b.failed = true;
  b.error = std::make_exception_ptr(BatchCancelled(
      "watchdog: batch made no progress for " + std::to_string(idle_s) +
      "s (timeout " + std::to_string(timeout_s) + "s)"));
  return 1;
}

}  // namespace vlacnn::runtime
