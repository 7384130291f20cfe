// Serve subsystem: admission-queue backpressure and shutdown draining,
// micro-batch formation policy (pure decide() table), and the pipelined
// Server end-to-end — including bit-identical outputs vs. the synchronous
// BatchScheduler::run() path and TSan-clean concurrent submission.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "core/conv_engine.hpp"
#include "core/selector.hpp"
#include "dnn/models.hpp"
#include "gemm/blocking.hpp"
#include "runtime/batch_scheduler.hpp"
#include "runtime/fault_injector.hpp"
#include "serve/overload_governor.hpp"
#include "serve/replanner.hpp"
#include "serve/server.hpp"

namespace vlacnn::serve {
namespace {

using std::chrono::milliseconds;

InferRequest make_req(std::uint64_t id,
                      Clock::time_point arrival = Clock::time_point{},
                      Clock::time_point deadline = kNoDeadline) {
  InferRequest r;
  r.id = id;
  r.arrival = arrival;
  r.deadline = deadline;
  return r;
}

// ------------------------------------------------------------ decide() table

TEST(MicroBatcher, DecideTable) {
  BatchPolicy pol;
  pol.max_batch = 4;
  pol.max_wait = milliseconds(10);
  pol.deadline_slack = milliseconds(5);
  // Synthetic epoch: all times are offsets from t0, no real clock involved.
  const Clock::time_point t0 = Clock::time_point() + milliseconds(1000);
  const auto at = [&](int ms) { return t0 + milliseconds(ms); };

  struct Case {
    const char* label;
    int queued;
    Clock::time_point oldest;
    Clock::time_point min_deadline;
    Clock::time_point now;
    bool launch;
    Trigger trigger;
  };
  const Case cases[] = {
      {"empty batch never launches", 0, t0, kNoDeadline, at(999), false,
       Trigger::MaxWait},
      {"full batch launches immediately", 4, t0, kNoDeadline, at(0), true,
       Trigger::Full},
      {"overfull batch launches immediately", 5, t0, kNoDeadline, at(0), true,
       Trigger::Full},
      {"under max_wait: hold", 1, t0, kNoDeadline, at(5), false,
       Trigger::MaxWait},
      {"oldest waited max_wait: launch", 1, t0, kNoDeadline, at(10), true,
       Trigger::MaxWait},
      {"deadline binds before max_wait: hold until deadline-slack", 2, t0,
       at(12), at(3), false, Trigger::Deadline},
      {"deadline-slack reached: launch", 2, t0, at(12), at(7), true,
       Trigger::Deadline},
      {"far deadline leaves max_wait binding", 1, t0, at(100), at(10), true,
       Trigger::MaxWait},
      {"deadline already past: launch now", 1, t0, at(-1), at(0), true,
       Trigger::Deadline},
  };
  for (const Case& c : cases) {
    const LaunchDecision d =
        decide(pol, c.queued, c.oldest, c.min_deadline, c.now);
    EXPECT_EQ(d.launch, c.launch) << c.label;
    if (c.launch || c.queued > 0) {
      EXPECT_EQ(d.trigger, c.trigger) << c.label;
    }
  }

  // The hold case exposes the launch point so the batcher can sleep on it:
  // max_wait binding -> oldest + max_wait; deadline binding -> deadline -
  // slack.
  const LaunchDecision hold_wait =
      decide(pol, 1, t0, kNoDeadline, at(5));
  EXPECT_EQ(hold_wait.launch_by, at(10));
  const LaunchDecision hold_deadline = decide(pol, 2, t0, at(12), at(3));
  EXPECT_EQ(hold_deadline.launch_by, at(7));
}

// ----------------------------------------------------------- RequestQueue

TEST(RequestQueue, RejectOnFullBackpressure) {
  RequestQueue q(2, /*block_when_full=*/false);
  EXPECT_EQ(q.push(make_req(1)), Admit::Accepted);
  EXPECT_EQ(q.push(make_req(2)), Admit::Accepted);
  EXPECT_EQ(q.push(make_req(3)), Admit::Rejected);
  EXPECT_EQ(q.size(), 2u);
  InferRequest r;
  ASSERT_TRUE(q.pop(r));
  EXPECT_EQ(r.id, 1u);  // FIFO
  EXPECT_EQ(q.push(make_req(4)), Admit::Accepted);
  const RequestQueue::Stats s = q.stats();
  EXPECT_EQ(s.accepted, 3u);
  EXPECT_EQ(s.rejected, 1u);
  EXPECT_EQ(s.peak_depth, 2u);
}

TEST(RequestQueue, BlockWhenFullUnblocksOnPop) {
  RequestQueue q(1, /*block_when_full=*/true);
  EXPECT_EQ(q.push(make_req(1)), Admit::Accepted);
  std::atomic<bool> second_admitted{false};
  std::thread producer([&] {
    EXPECT_EQ(q.push(make_req(2)), Admit::Accepted);
    second_admitted.store(true);
  });
  std::this_thread::sleep_for(milliseconds(20));
  EXPECT_FALSE(second_admitted.load());  // still blocked on the full queue
  InferRequest r;
  ASSERT_TRUE(q.pop(r));
  EXPECT_EQ(r.id, 1u);
  producer.join();
  EXPECT_TRUE(second_admitted.load());
  ASSERT_TRUE(q.pop(r));
  EXPECT_EQ(r.id, 2u);
}

TEST(RequestQueue, CloseDrainsConsumerAndRejectsProducers) {
  RequestQueue q(8, /*block_when_full=*/false);
  EXPECT_EQ(q.push(make_req(1)), Admit::Accepted);
  EXPECT_EQ(q.push(make_req(2)), Admit::Accepted);
  q.close();
  EXPECT_EQ(q.push(make_req(3)), Admit::Closed);
  // Admitted requests drain...
  InferRequest r;
  ASSERT_TRUE(q.pop(r));
  EXPECT_EQ(r.id, 1u);
  ASSERT_TRUE(q.pop(r));
  EXPECT_EQ(r.id, 2u);
  // ...then the consumer learns the stream ended.
  EXPECT_FALSE(q.pop(r));
  EXPECT_EQ(q.pop_wait_until(r, Clock::now() + milliseconds(5)),
            RequestQueue::PopStatus::Closed);
}

TEST(RequestQueue, CloseWakesBlockedProducer) {
  RequestQueue q(1, /*block_when_full=*/true);
  EXPECT_EQ(q.push(make_req(1)), Admit::Accepted);
  std::atomic<int> verdict{-1};
  std::thread producer(
      [&] { verdict.store(static_cast<int>(q.push(make_req(2)))); });
  std::this_thread::sleep_for(milliseconds(20));
  q.close();
  producer.join();
  EXPECT_EQ(verdict.load(), static_cast<int>(Admit::Closed));
}

TEST(RequestQueue, CloseAndCancelReturnsEveryPendingRequest) {
  RequestQueue q(8, /*block_when_full=*/false);
  ASSERT_EQ(q.push(make_req(1)), Admit::Accepted);
  ASSERT_EQ(q.push(make_req(2)), Admit::Accepted);
  ASSERT_EQ(q.push(make_req(3)), Admit::Accepted);
  const std::vector<InferRequest> orphans = q.close_and_cancel();
  ASSERT_EQ(orphans.size(), 3u);
  EXPECT_EQ(orphans[0].id, 1u);  // FIFO order preserved
  EXPECT_EQ(orphans[1].id, 2u);
  EXPECT_EQ(orphans[2].id, 3u);
  // Atomic close+drain: nothing can sit in the closed queue afterwards.
  EXPECT_TRUE(q.closed());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.push(make_req(4)), Admit::Closed);
  InferRequest r;
  EXPECT_FALSE(q.pop(r));
  // Idempotent: a second call finds nothing.
  EXPECT_TRUE(q.close_and_cancel().empty());
}

TEST(RequestQueue, CloseAndCancelWakesBlockedProducer) {
  RequestQueue q(1, /*block_when_full=*/true);
  ASSERT_EQ(q.push(make_req(1)), Admit::Accepted);
  std::atomic<int> verdict{-1};
  std::thread producer(
      [&] { verdict.store(static_cast<int>(q.push(make_req(2)))); });
  std::this_thread::sleep_for(milliseconds(20));
  const std::vector<InferRequest> orphans = q.close_and_cancel();
  producer.join();
  EXPECT_EQ(orphans.size(), 1u);
  EXPECT_EQ(verdict.load(), static_cast<int>(Admit::Closed));
}

TEST(RequestQueue, PopWaitUntilTimesOut) {
  RequestQueue q(4, false);
  InferRequest r;
  const auto t0 = Clock::now();
  EXPECT_EQ(q.pop_wait_until(r, t0 + milliseconds(20)),
            RequestQueue::PopStatus::TimedOut);
  EXPECT_GE(Clock::now() - t0, milliseconds(20));
}

TEST(RequestQueue, StampsArrivalOnAdmission) {
  RequestQueue q(4, false);
  const auto before = Clock::now();
  EXPECT_EQ(q.push(make_req(7)), Admit::Accepted);
  InferRequest r;
  ASSERT_TRUE(q.pop(r));
  EXPECT_GE(r.arrival, before);
  EXPECT_LE(r.arrival, Clock::now());
  // A pre-set arrival (synthetic processes in tests) is preserved.
  const auto synthetic = Clock::time_point() + milliseconds(5);
  EXPECT_EQ(q.push(make_req(8, synthetic)), Admit::Accepted);
  ASSERT_TRUE(q.pop(r));
  EXPECT_EQ(r.arrival, synthetic);
}

// ----------------------------------------------------- MicroBatcher (live)

TEST(MicroBatcher, FullBatchesThenShutdownDrain) {
  RequestQueue q(16, false);
  for (std::uint64_t i = 0; i < 5; ++i)
    ASSERT_EQ(q.push(make_req(i)), Admit::Accepted);
  BatchPolicy pol;
  pol.max_batch = 2;
  pol.max_wait = std::chrono::seconds(10);  // only fullness/drain can launch
  MicroBatcher mb(q, pol);

  auto b1 = mb.next_batch();
  ASSERT_TRUE(b1.has_value());
  EXPECT_EQ(b1->trigger, Trigger::Full);
  ASSERT_EQ(b1->requests.size(), 2u);
  EXPECT_EQ(b1->requests[0].id, 0u);
  EXPECT_EQ(b1->requests[1].id, 1u);
  auto b2 = mb.next_batch();
  ASSERT_TRUE(b2.has_value());
  EXPECT_EQ(b2->trigger, Trigger::Full);
  q.close();
  // The odd request out ships as the shutdown drain's partial batch.
  auto b3 = mb.next_batch();
  ASSERT_TRUE(b3.has_value());
  EXPECT_EQ(b3->trigger, Trigger::Drain);
  ASSERT_EQ(b3->requests.size(), 1u);
  EXPECT_EQ(b3->requests[0].id, 4u);
  EXPECT_FALSE(mb.next_batch().has_value());
}

TEST(MicroBatcher, BackloggedQueueFormsFullBatchesDespiteStaleOldest) {
  // Overload regression guard: requests that piled up while a previous
  // batch computed are all older than max_wait. The batcher must greedily
  // drain them into full batches, not launch the stale oldest alone.
  RequestQueue q(16, false);
  const auto stale = Clock::now() - std::chrono::seconds(1);
  for (std::uint64_t i = 0; i < 8; ++i)
    ASSERT_EQ(q.push(make_req(i, stale)), Admit::Accepted);
  BatchPolicy pol;
  pol.max_batch = 4;
  pol.max_wait = milliseconds(1);  // long expired for every queued request
  MicroBatcher mb(q, pol);
  for (int b = 0; b < 2; ++b) {
    auto fb = mb.next_batch();
    ASSERT_TRUE(fb.has_value());
    EXPECT_EQ(fb->requests.size(), 4u) << "batch " << b;
    EXPECT_EQ(fb->trigger, Trigger::Full) << "batch " << b;
  }
  q.close();
}

TEST(RequestQueue, TryPopNeverBlocks) {
  RequestQueue q(4, false);
  InferRequest r;
  EXPECT_EQ(q.try_pop(r), RequestQueue::PopStatus::TimedOut);  // empty
  ASSERT_EQ(q.push(make_req(1)), Admit::Accepted);
  EXPECT_EQ(q.try_pop(r), RequestQueue::PopStatus::Ok);
  EXPECT_EQ(r.id, 1u);
  q.close();
  EXPECT_EQ(q.try_pop(r), RequestQueue::PopStatus::Closed);
}

TEST(MicroBatcher, MaxWaitLaunchesPartialBatch) {
  RequestQueue q(16, false);
  BatchPolicy pol;
  pol.max_batch = 8;
  pol.max_wait = milliseconds(10);
  MicroBatcher mb(q, pol);
  const auto t0 = Clock::now();
  ASSERT_EQ(q.push(make_req(1)), Admit::Accepted);
  auto b = mb.next_batch();
  const auto elapsed = Clock::now() - t0;
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->trigger, Trigger::MaxWait);
  EXPECT_EQ(b->requests.size(), 1u);
  EXPECT_GE(elapsed, milliseconds(10));  // held the full launch window
  q.close();
}

TEST(MicroBatcher, ShouldShedTable) {
  // Pure predicate: a request is shed at dequeue iff shedding is enabled,
  // it has a real deadline, and that deadline has passed.
  const Clock::time_point t0 = Clock::time_point() + milliseconds(1000);
  BatchPolicy on;  // shed_expired defaults true
  BatchPolicy off;
  off.shed_expired = false;
  struct Case {
    const char* label;
    const BatchPolicy& pol;
    Clock::time_point deadline;
    Clock::time_point now;
    bool shed;
  };
  const Case cases[] = {
      {"no deadline never sheds", on, kNoDeadline, t0, false},
      {"future deadline holds", on, t0 + milliseconds(5), t0, false},
      {"deadline exactly now sheds", on, t0, t0, true},
      {"expired deadline sheds", on, t0 - milliseconds(1), t0, true},
      {"policy off: expired still boards", off, t0 - milliseconds(1), t0,
       false},
  };
  for (const Case& c : cases)
    EXPECT_EQ(should_shed(c.pol, c.deadline, c.now), c.shed) << c.label;
}

TEST(MicroBatcher, ShedsExpiredAtEveryDequeuePoint) {
  // Stale requests interleaved with live ones: the batcher must drop every
  // expired request via on_shed (wherever it pops — seed, greedy drain or
  // timed wait) and board only the live ones. A batch slot is never spent
  // on a request that can no longer meet its deadline.
  RequestQueue q(16, false);
  const auto now = Clock::now();
  const auto stale_arrival = now - std::chrono::seconds(1);
  const auto expired = now - milliseconds(10);
  const auto live = now + std::chrono::seconds(10);
  ASSERT_EQ(q.push(make_req(0, stale_arrival, expired)), Admit::Accepted);
  ASSERT_EQ(q.push(make_req(1, stale_arrival, live)), Admit::Accepted);
  ASSERT_EQ(q.push(make_req(2, stale_arrival, expired)), Admit::Accepted);
  ASSERT_EQ(q.push(make_req(3, stale_arrival, live)), Admit::Accepted);
  ASSERT_EQ(q.push(make_req(4, stale_arrival, expired)), Admit::Accepted);

  BatchPolicy pol;
  pol.max_batch = 2;
  pol.max_wait = milliseconds(1);
  MicroBatcher mb(q, pol);
  std::vector<std::uint64_t> shed;
  mb.on_shed = [&](InferRequest&& r) { shed.push_back(r.id); };

  auto fb = mb.next_batch();
  ASSERT_TRUE(fb.has_value());
  ASSERT_EQ(fb->requests.size(), 2u);
  EXPECT_EQ(fb->requests[0].id, 1u);
  EXPECT_EQ(fb->requests[1].id, 3u);
  q.close();
  auto drain = mb.next_batch();
  EXPECT_FALSE(drain.has_value());  // nothing left but shed requests
  EXPECT_EQ(shed, (std::vector<std::uint64_t>{0, 2, 4}));
}

TEST(MicroBatcher, DeadlineCutsTheWaitShort) {
  RequestQueue q(16, false);
  BatchPolicy pol;
  pol.max_batch = 8;
  pol.max_wait = milliseconds(500);
  MicroBatcher mb(q, pol);
  const auto t0 = Clock::now();
  ASSERT_EQ(q.push(make_req(1, {}, t0 + milliseconds(20))), Admit::Accepted);
  auto b = mb.next_batch();
  const auto elapsed = Clock::now() - t0;
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->trigger, Trigger::Deadline);
  EXPECT_LT(elapsed, milliseconds(400));  // did not wait out max_wait
  q.close();
}

// ------------------------------------------------------------------ Server

// ServerStats holds the Replanner's and the governor's counters as whole
// snapshots: every field must arrive unchanged.
void expect_same_stats(const ReplanStats& got, const ReplanStats& want) {
  EXPECT_EQ(got.plans_recomputed, want.plans_recomputed);
  EXPECT_EQ(got.swaps_applied, want.swaps_applied);
  EXPECT_EQ(got.last_plan_compute_us, want.last_plan_compute_us);
  EXPECT_EQ(got.current_priced_batch, want.current_priced_batch);
  EXPECT_EQ(got.current_tier, want.current_tier);
  EXPECT_EQ(got.tier_swaps, want.tier_swaps);
  EXPECT_EQ(got.wins, want.wins);
}

void expect_same_stats(const GovernorStats& got, const GovernorStats& want) {
  EXPECT_EQ(got.admitted, want.admitted);
  EXPECT_EQ(got.rejected_overload, want.rejected_overload);
  EXPECT_EQ(got.rejected_doomed, want.rejected_doomed);
  EXPECT_EQ(got.drop_intervals, want.drop_intervals);
  EXPECT_EQ(got.tier, want.tier);
  EXPECT_EQ(got.tier_degrades, want.tier_degrades);
  EXPECT_EQ(got.tier_recoveries, want.tier_recoveries);
  EXPECT_EQ(got.est_item_seconds, want.est_item_seconds);
}

std::unique_ptr<dnn::Network> small_net() { return dnn::build_vgg16(32, 4); }

TEST(Server, OutputsBitIdenticalToSynchronousRun) {
  auto net = small_net();
  core::ConvolutionEngine engine(core::EnginePolicy::opt6loop());
  runtime::SchedulerConfig cfg;
  cfg.threads = 2;
  runtime::BatchScheduler sched(engine, cfg);

  constexpr int kRequests = 10;
  ServerConfig scfg;
  scfg.policy.max_batch = 4;
  scfg.policy.max_wait = milliseconds(1);
  scfg.queue_capacity = kRequests;
  scfg.block_when_full = true;
  Server server(sched, *net, scfg);
  server.start();
  for (int r = 0; r < kRequests; ++r) {
    dnn::Tensor in(1, net->in_c(), net->in_h(), net->in_w());
    in.randomize_item(0, 777 + static_cast<std::uint64_t>(r));
    ASSERT_EQ(server.submit(static_cast<std::uint64_t>(r), std::move(in)),
              Admit::Accepted);
  }
  server.stop();
  const std::vector<Completion> done = server.drain_completions();
  ASSERT_EQ(done.size(), static_cast<std::size_t>(kRequests));

  // Reference: the same request set through the synchronous run() path as
  // one batch. Per-item kernels make each request's output independent of
  // batch grouping, so every async result must match bit for bit.
  dnn::Tensor ref_in(kRequests, net->in_c(), net->in_h(), net->in_w());
  // Requests were filled from stream 0 of seed 777+r; rebuild those exact
  // bytes per item (randomize_item(r, seed) would use stream r instead).
  for (int r = 0; r < kRequests; ++r) {
    dnn::Tensor one(1, net->in_c(), net->in_h(), net->in_w());
    one.randomize_item(0, 777 + static_cast<std::uint64_t>(r));
    std::memcpy(ref_in.item_data(r), one.data(),
                one.size() * sizeof(float));
  }
  const dnn::Tensor& ref_out = sched.run(*net, ref_in);

  std::set<std::uint64_t> seen;
  for (const Completion& c : done) {
    const auto id = c.trace.id;
    ASSERT_LT(id, static_cast<std::uint64_t>(kRequests));
    EXPECT_TRUE(seen.insert(id).second) << "duplicate completion " << id;
    ASSERT_EQ(c.output.size(), ref_out.item_size());
    EXPECT_EQ(std::memcmp(c.output.data(),
                          ref_out.item_data(static_cast<int>(id)),
                          c.output.size() * sizeof(float)),
              0)
        << "request " << id;
    EXPECT_GE(c.trace.queue_ms, 0.0);
    EXPECT_GT(c.trace.compute_ms, 0.0);
    EXPECT_GE(c.trace.total_ms, c.trace.compute_ms);
    EXPECT_GE(c.trace.batch_items, 1);
    EXPECT_LE(c.trace.batch_items, scfg.policy.max_batch);
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(stats.queue.rejected, 0u);
  EXPECT_GE(stats.batches, 3u);  // 10 requests, batches of <= 4
}

TEST(Server, ConcurrentSubmitCompletesEveryRequest) {
  auto net = small_net();
  core::ConvolutionEngine engine(core::EnginePolicy::opt6loop());
  runtime::SchedulerConfig cfg;
  cfg.threads = 2;
  runtime::BatchScheduler sched(engine, cfg);

  ServerConfig scfg;
  scfg.policy.max_batch = 3;
  scfg.policy.max_wait = milliseconds(1);
  scfg.queue_capacity = 4;  // small: exercises producer backpressure
  scfg.block_when_full = true;
  Server server(sched, *net, scfg);
  server.start();

  constexpr int kThreads = 4, kPerThread = 6;
  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        dnn::Tensor in(1, net->in_c(), net->in_h(), net->in_w());
        const auto id = static_cast<std::uint64_t>(t * 100 + i);
        in.randomize_item(0, id);
        ASSERT_EQ(server.submit(id, std::move(in)), Admit::Accepted);
      }
    });
  }
  for (auto& t : producers) t.join();
  server.stop();

  const std::vector<Completion> done = server.drain_completions();
  ASSERT_EQ(done.size(), static_cast<std::size_t>(kThreads * kPerThread));
  std::set<std::uint64_t> seen;
  for (const Completion& c : done)
    EXPECT_TRUE(seen.insert(c.trace.id).second)
        << "duplicate completion " << c.trace.id;
  EXPECT_EQ(server.stats().completed,
            static_cast<std::uint64_t>(kThreads * kPerThread));
}

TEST(Server, RejectsWhenQueueFullBeforeStart) {
  auto net = small_net();
  core::ConvolutionEngine engine(core::EnginePolicy::opt6loop());
  runtime::BatchScheduler sched(engine, runtime::SchedulerConfig{});

  ServerConfig scfg;
  scfg.policy.max_batch = 2;
  scfg.policy.max_wait = milliseconds(0);
  scfg.queue_capacity = 2;
  scfg.block_when_full = false;
  Server server(sched, *net, scfg);
  // Not started: nothing consumes, so the bounded queue fills
  // deterministically and the third submit sheds load.
  const auto mk = [&](std::uint64_t id) {
    dnn::Tensor in(1, net->in_c(), net->in_h(), net->in_w());
    in.randomize_item(0, id);
    return in;
  };
  EXPECT_EQ(server.submit(0, mk(0)), Admit::Accepted);
  EXPECT_EQ(server.submit(1, mk(1)), Admit::Accepted);
  EXPECT_EQ(server.submit(2, mk(2)), Admit::Rejected);
  server.start();
  server.stop();  // drains the two admitted requests
  EXPECT_EQ(server.drain_completions().size(), 2u);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.queue.rejected, 1u);
}

TEST(Server, StopBeforeStartCancelsPendingWithTypedOutcome) {
  // Regression: a server torn down before start() used to strand admitted
  // requests in the closed queue — they vanished without any completion.
  // stop() must resolve each with a typed Cancelled outcome.
  auto net = small_net();
  core::ConvolutionEngine engine(core::EnginePolicy::opt6loop());
  runtime::BatchScheduler sched(engine, runtime::SchedulerConfig{});

  ServerConfig scfg;
  scfg.queue_capacity = 4;
  Server server(sched, *net, scfg);
  const auto mk = [&](std::uint64_t id) {
    dnn::Tensor in(1, net->in_c(), net->in_h(), net->in_w());
    in.randomize_item(0, id);
    return in;
  };
  EXPECT_EQ(server.submit(0, mk(0)), Admit::Accepted);
  EXPECT_EQ(server.submit(1, mk(1)), Admit::Accepted);
  server.stop();  // never started
  const std::vector<Completion> done = server.drain_completions();
  ASSERT_EQ(done.size(), 2u);
  for (const Completion& c : done) {
    EXPECT_EQ(c.trace.outcome, Outcome::Cancelled);
    EXPECT_EQ(c.output.size(), 0u);
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.outcomes[static_cast<std::size_t>(Outcome::Cancelled)], 2u);
  // Admission is closed after the cancel drain.
  EXPECT_EQ(server.submit(2, mk(2)), Admit::Closed);
}

TEST(Server, ExpiredDeadlinesAreShedWithTypedOutcome) {
  // Default policy (shed_expired): a request whose deadline already passed
  // is dropped at dequeue — it never occupies a batch slot, but it still
  // resolves with a typed ShedDeadline completion.
  auto net = small_net();
  core::ConvolutionEngine engine(core::EnginePolicy::opt6loop());
  runtime::BatchScheduler sched(engine, runtime::SchedulerConfig{});

  ServerConfig scfg;
  scfg.policy.max_batch = 1;  // launch immediately
  scfg.queue_capacity = 8;
  scfg.block_when_full = true;
  Server server(sched, *net, scfg);
  server.start();
  for (std::uint64_t r = 0; r < 3; ++r) {
    dnn::Tensor in(1, net->in_c(), net->in_h(), net->in_w());
    in.randomize_item(0, r);
    ASSERT_EQ(server.submit(r, std::move(in),
                            Clock::now() - milliseconds(1)),
              Admit::Accepted);
  }
  server.stop();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.outcomes[static_cast<std::size_t>(Outcome::ShedDeadline)],
            3u);
  EXPECT_EQ(stats.deadline_misses, 0u);  // shed, not served late
  EXPECT_EQ(stats.batches, 0u);          // no batch ever formed
  const std::vector<Completion> done = server.drain_completions();
  ASSERT_EQ(done.size(), 3u);
  for (const Completion& c : done) {
    EXPECT_EQ(c.trace.outcome, Outcome::ShedDeadline);
    EXPECT_FALSE(c.trace.deadline_met);
    EXPECT_EQ(c.output.size(), 0u);  // never computed
  }
}

TEST(Server, DeadlineMissesAreCounted) {
  // shed_expired off restores serve-anyway semantics: expired requests ride
  // a batch and complete Ok, counted as deadline misses.
  auto net = small_net();
  core::ConvolutionEngine engine(core::EnginePolicy::opt6loop());
  runtime::BatchScheduler sched(engine, runtime::SchedulerConfig{});

  ServerConfig scfg;
  scfg.policy.max_batch = 1;  // launch immediately
  scfg.policy.shed_expired = false;
  scfg.queue_capacity = 8;
  scfg.block_when_full = true;
  Server server(sched, *net, scfg);
  server.start();
  for (std::uint64_t r = 0; r < 3; ++r) {
    dnn::Tensor in(1, net->in_c(), net->in_h(), net->in_w());
    in.randomize_item(0, r);
    // A deadline that already passed cannot be met: every request misses.
    ASSERT_EQ(server.submit(r, std::move(in),
                            Clock::now() - milliseconds(1)),
              Admit::Accepted);
  }
  server.stop();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.deadline_misses, 3u);
  EXPECT_EQ(stats.outcomes[static_cast<std::size_t>(Outcome::Ok)], 3u);
  for (const Completion& c : server.drain_completions()) {
    EXPECT_EQ(c.trace.outcome, Outcome::Ok);
    EXPECT_FALSE(c.trace.deadline_met);
  }
}

TEST(Server, RejectsWrongShapeSynchronously) {
  auto net = small_net();
  core::ConvolutionEngine engine(core::EnginePolicy::opt6loop());
  runtime::BatchScheduler sched(engine, runtime::SchedulerConfig{});
  Server server(sched, *net, ServerConfig{});
  dnn::Tensor wrong(1, net->in_c(), net->in_h() + 1, net->in_w());
  EXPECT_THROW((void)server.submit(1, std::move(wrong)), InvalidArgument);
}

// ------------------------------------------------------- online re-planning

/// Analytic batch-1 plan over the SVE machine model (the kernels still run
/// on the host; the plan only routes dispatch).
core::BackendPlan analytic_plan(dnn::Network& net, core::CostModel& model,
                                int batch) {
  return core::select_per_layer(net, model.machine(), 7, batch, {},
                                core::CostSource::Analytic, &model);
}

core::CostModel make_model() {
  const sim::MachineConfig m = sim::sve_gem5();
  gemm::Opt6Config o6;
  o6.blocks = gemm::tune_block_sizes(m);
  return core::CostModel(m, o6);
}

// The acceptance pin: a plan swap applied MID-STREAM — while submitted
// batches are in flight — must not change a single output bit. The swapped
// plan is the replanner's own re-pricing at a different amortization point
// (bit-identical pinning), so every batch, before or after the swap, must
// equal the fixed-plan reference.
TEST(BatchScheduler, InstallPlanMidStreamKeepsOutputsBitIdentical) {
  auto net = small_net();
  core::CostModel model = make_model();
  core::BackendPlan plan_b1 = analytic_plan(*net, model, 1);
  core::BackendPlan plan_b8 = core::replan_for_batch(*net, plan_b1, model, 8);
  ASSERT_EQ(plan_b8.priced_batch, 8);

  core::ConvolutionEngine engine(plan_b1);
  runtime::SchedulerConfig cfg;
  cfg.threads = 2;
  runtime::BatchScheduler sched(engine, cfg);

  constexpr int kBatches = 6, kItems = 3;
  const auto make_batch = [&](int b) {
    dnn::Tensor in(kItems, net->in_c(), net->in_h(), net->in_w());
    in.randomize_batch(500 + static_cast<std::uint64_t>(b), 0.0f, 1.0f);
    return in;
  };
  // Reference outputs under the untouched base plan.
  std::vector<std::vector<float>> ref;
  for (int b = 0; b < kBatches; ++b) {
    const dnn::Tensor& out = sched.run(*net, make_batch(b));
    ref.emplace_back(out.data(), out.data() + out.size());
  }

  // Same batches through the async path with the swap landing mid-stream.
  // The slot ring holds two batches, so keep one ticket outstanding: when
  // install_plan runs, the just-submitted batch is queued or in flight and
  // the swap must quiesce around it.
  const auto check = [&](const runtime::BatchTicket& t, int b) {
    const runtime::BatchResult res = sched.wait(t);
    ASSERT_EQ(res.output.size(), ref[static_cast<std::size_t>(b)].size());
    EXPECT_EQ(std::memcmp(res.output.data(),
                          ref[static_cast<std::size_t>(b)].data(),
                          res.output.size() * sizeof(float)),
              0)
        << "batch " << b << " diverged across the plan swap";
  };
  std::vector<runtime::BatchTicket> tickets;
  for (int b = 0; b < kBatches; ++b) {
    tickets.push_back(sched.submit(*net, make_batch(b)));
    if (b == kBatches / 2) sched.install_plan(plan_b8);
    if (b >= 1) check(tickets[static_cast<std::size_t>(b - 1)], b - 1);
  }
  check(tickets.back(), kBatches - 1);
}

// Replanner end to end, deterministically driven: a sustained batch-8
// regime (observed directly, the same call the server's completion loop
// makes) must trigger one analytic re-plan and one swap, re-pricing the
// live plan for the new amortization point — and the scheduler must keep
// producing bit-identical outputs afterwards.
TEST(Replanner, RegimeShiftSwapsPlanAndKeepsBitsStable) {
  auto net = small_net();
  core::CostModel model = make_model();
  core::BackendPlan base = analytic_plan(*net, model, 1);
  ASSERT_EQ(base.priced_batch, 1);

  core::ConvolutionEngine engine(base);
  runtime::SchedulerConfig cfg;
  cfg.threads = 2;
  runtime::BatchScheduler sched(engine, cfg);

  dnn::Tensor in(4, net->in_c(), net->in_h(), net->in_w());
  in.randomize_batch(321, 0.0f, 1.0f);
  const dnn::Tensor& out0 = sched.run(*net, in);
  const std::vector<float> ref(out0.data(), out0.data() + out0.size());

  ReplannerConfig rcfg;
  rcfg.max_batch = 8;
  rcfg.window = 4;
  rcfg.hysteresis = 1.5;
  rcfg.min_batches = 4;
  rcfg.cooldown_batches = 4;
  Replanner rp(sched, *net, model, base, rcfg);
  rp.start();
  for (int i = 0; i < 6; ++i) rp.observe(8, 8);

  // The worker plans off-thread in microseconds; bound the wait generously.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (rp.stats().plans_recomputed == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(milliseconds(1));
  const ReplanStats st = rp.stats();
  ASSERT_GE(st.plans_recomputed, 1u);
  // A swap only happens when the re-priced plan routes differently; on this
  // net the batch-8 re-rank may keep the same dispatch, in which case the
  // replanner rightly skips the quiesce. Either way the plan is re-priced.
  EXPECT_LE(st.swaps_applied, st.plans_recomputed);
  EXPECT_GT(st.last_plan_compute_us, 0u);
  EXPECT_EQ(st.current_priced_batch, 8);
  EXPECT_EQ(rp.current_plan().priced_batch, 8);
  rp.stop();

  // Bit-identical pinning: outputs after the swap equal the base plan's.
  const dnn::Tensor& out1 = sched.run(*net, in);
  ASSERT_EQ(out1.size(), ref.size());
  EXPECT_EQ(std::memcmp(out1.data(), ref.data(), ref.size() * sizeof(float)),
            0);

  // Per-backend win counts cover every entry of the live plan.
  std::uint64_t wins = 0;
  for (const auto& w : st.wins) wins += w;
  EXPECT_EQ(wins, rp.current_plan().entries.size());
}

// The server merges the replanner's counters into its own stats and feeds
// it the observed traffic; a burst of requests against a batch-1-priced
// plan makes the regime estimate climb, and whether or not the swap lands
// within this short stream, outputs stay bit-identical to the synchronous
// reference (the pinning contract, end to end).
TEST(Server, ReplannerWiredIntoServingLoop) {
  auto net = small_net();
  core::CostModel model = make_model();
  core::BackendPlan base = analytic_plan(*net, model, 1);

  core::ConvolutionEngine engine(base);
  runtime::SchedulerConfig cfg;
  cfg.threads = 2;
  runtime::BatchScheduler sched(engine, cfg);

  ReplannerConfig rcfg;
  rcfg.max_batch = 8;
  rcfg.window = 4;
  rcfg.hysteresis = 1.5;
  rcfg.min_batches = 2;
  rcfg.cooldown_batches = 2;
  Replanner rp(sched, *net, model, base, rcfg);
  rp.start();

  constexpr int kRequests = 24;
  ServerConfig scfg;
  scfg.policy.max_batch = 8;
  scfg.policy.max_wait = milliseconds(1);
  scfg.queue_capacity = kRequests;
  scfg.block_when_full = true;
  scfg.replanner = &rp;
  Server server(sched, *net, scfg);
  server.start();
  for (int r = 0; r < kRequests; ++r) {
    dnn::Tensor in(1, net->in_c(), net->in_h(), net->in_w());
    in.randomize_item(0, 900 + static_cast<std::uint64_t>(r));
    ASSERT_EQ(server.submit(static_cast<std::uint64_t>(r), std::move(in)),
              Admit::Accepted);
  }
  const ServerStats mid = server.stats();  // merged while running: no crash
  EXPECT_EQ(mid.replan.current_priced_batch, rp.stats().current_priced_batch);
  server.stop();
  rp.stop();

  const std::vector<Completion> done = server.drain_completions();
  ASSERT_EQ(done.size(), static_cast<std::size_t>(kRequests));
  dnn::Tensor ref_in(kRequests, net->in_c(), net->in_h(), net->in_w());
  for (int r = 0; r < kRequests; ++r) {
    dnn::Tensor one(1, net->in_c(), net->in_h(), net->in_w());
    one.randomize_item(0, 900 + static_cast<std::uint64_t>(r));
    std::memcpy(ref_in.item_data(r), one.data(), one.size() * sizeof(float));
  }
  const dnn::Tensor& ref_out = sched.run(*net, ref_in);
  for (const Completion& c : done) {
    EXPECT_EQ(std::memcmp(c.output.data(),
                          ref_out.item_data(static_cast<int>(c.trace.id)),
                          c.output.size() * sizeof(float)),
              0)
        << "request " << c.trace.id;
  }

  // The replanner's counters surface through Server::stats().
  expect_same_stats(server.stats().replan, rp.stats());
}

// ------------------------------------------------------- OverloadGovernor

// Synthetic-time table tests: the whole state machine takes explicit `now`
// arguments, so no real clock or sleeping is involved.

TEST(OverloadGovernor, CoDelEntersAndExitsDropping) {
  GovernorConfig g;
  g.target_sojourn_ms = 5.0;
  g.interval_ms = 100.0;
  OverloadGovernor gov(g);
  const Clock::time_point t0 = Clock::time_point() + milliseconds(1000);
  const auto at = [&](int ms) { return t0 + milliseconds(ms); };
  const auto s = [](double ms) { return ms * 1e-3; };

  // Idle governor admits freely.
  EXPECT_EQ(gov.admit(at(0), 0, kNoDeadline), AdmitVerdict::Admit);

  // Sojourn above target, but not yet for a full interval: still admitting.
  gov.observe_batch(at(0), s(10), 4, 0.0);
  EXPECT_EQ(gov.admit(at(50), 10, kNoDeadline), AdmitVerdict::Admit);
  gov.observe_batch(at(99), s(10), 4, 0.0);
  EXPECT_EQ(gov.admit(at(99), 10, kNoDeadline), AdmitVerdict::Admit);

  // A full interval of continuously-above-target sojourn: dropping engages
  // and the first rejection fires immediately.
  gov.observe_batch(at(101), s(10), 4, 0.0);
  EXPECT_EQ(gov.admit(at(101), 10, kNoDeadline),
            AdmitVerdict::RejectOverload);
  // The control law spaces the next rejection interval/sqrt(2) later;
  // arrivals before that point pass.
  EXPECT_EQ(gov.admit(at(102), 10, kNoDeadline), AdmitVerdict::Admit);

  // One below-target reading proves the standing queue dissolved: exit.
  gov.observe_batch(at(150), s(1), 4, 0.0);
  EXPECT_EQ(gov.admit(at(300), 10, kNoDeadline), AdmitVerdict::Admit);

  const GovernorStats st = gov.stats();
  EXPECT_EQ(st.rejected_overload, 1u);
  EXPECT_EQ(st.drop_intervals, 1u);
  EXPECT_EQ(st.admitted, 5u);
}

TEST(OverloadGovernor, EmptyQueueExitsDroppingAtAdmission) {
  // Wedge regression: under heavy rejection pressure drop_count_ grows
  // until the control law rejects essentially every arrival — and with
  // nothing admitted, no batch ever completes to deliver the below-target
  // reading that exits dropping. An empty queue at an admission point is
  // the admission-side proof the standing queue dissolved.
  GovernorConfig g;
  g.target_sojourn_ms = 5.0;
  g.interval_ms = 100.0;
  OverloadGovernor gov(g);
  const Clock::time_point t0 = Clock::time_point() + milliseconds(1000);
  const auto at = [&](int ms) { return t0 + milliseconds(ms); };
  gov.observe_batch(at(0), 0.010, 4, 0.0);
  gov.observe_batch(at(101), 0.010, 4, 0.0);  // dropping engages
  // Saturate the control law: many rejections shrink the drop spacing.
  for (int k = 0; k < 100; ++k)
    (void)gov.admit(at(200 + k), 10, kNoDeadline);
  EXPECT_EQ(gov.admit(at(400), 10, kNoDeadline),
            AdmitVerdict::RejectOverload);
  // The queue drained: the next arrival must be admitted, not rejected.
  EXPECT_EQ(gov.admit(at(500), 0, kNoDeadline), AdmitVerdict::Admit);
  EXPECT_EQ(gov.admit(at(501), 10, kNoDeadline), AdmitVerdict::Admit);
}

TEST(OverloadGovernor, BriefSpikesNeverTriggerDropping) {
  // Above-target readings interrupted by a below-target one restart the
  // interval clock: batching jitter does not count as overload.
  GovernorConfig g;
  g.target_sojourn_ms = 5.0;
  g.interval_ms = 100.0;
  OverloadGovernor gov(g);
  const Clock::time_point t0 = Clock::time_point() + milliseconds(1000);
  const auto at = [&](int ms) { return t0 + milliseconds(ms); };
  for (int k = 0; k < 10; ++k) {
    gov.observe_batch(at(k * 60), 0.010, 4, 0.0);      // above target
    gov.observe_batch(at(k * 60 + 30), 0.001, 4, 0.0);  // dip below
  }
  EXPECT_EQ(gov.admit(at(700), 10, kNoDeadline), AdmitVerdict::Admit);
  EXPECT_EQ(gov.stats().drop_intervals, 0u);
}

TEST(OverloadGovernor, DoomedDeadlinesRejectedUpFront) {
  GovernorConfig g;
  g.est_item_seconds = 0.010;  // 10 ms per item, as if priced via CostModel
  g.doom_headroom = 1.0;
  OverloadGovernor gov(g);
  const Clock::time_point t0 = Clock::time_point() + milliseconds(1000);
  // 9 queued ahead -> earliest finish is 10 services = 100 ms out. A 50 ms
  // deadline is unreachable; a 200 ms one is fine; no deadline never dooms.
  EXPECT_EQ(gov.admit(t0, 9, t0 + milliseconds(50)),
            AdmitVerdict::RejectDoomed);
  EXPECT_EQ(gov.admit(t0, 9, t0 + milliseconds(200)), AdmitVerdict::Admit);
  EXPECT_EQ(gov.admit(t0, 1000, kNoDeadline), AdmitVerdict::Admit);
  EXPECT_EQ(gov.stats().rejected_doomed, 1u);

  // The EWMA folds observed per-item compute into the estimate.
  gov.observe_batch(t0, 0.0, 4, 0.080);  // 20 ms/item observed
  const double est = gov.stats().est_item_seconds;
  EXPECT_GT(est, 0.010);
  EXPECT_LT(est, 0.020);
}

TEST(OverloadGovernor, LadderDegradesUnderSustainedDropAndRecovers) {
  GovernorConfig g;
  g.target_sojourn_ms = 5.0;
  g.interval_ms = 50.0;
  g.max_tier = 2;
  g.degrade_after_ms = 100.0;
  g.recover_after_ms = 100.0;
  g.cooldown_ms = 1.0;
  std::vector<int> moves;
  OverloadGovernor gov(g, [&](int tier) { moves.push_back(tier); });
  const Clock::time_point t0 = Clock::time_point() + milliseconds(1000);
  const auto at = [&](int ms) { return t0 + milliseconds(ms); };

  gov.observe_batch(at(0), 0.010, 4, 0.0);    // above; interval clock starts
  gov.observe_batch(at(51), 0.010, 4, 0.0);   // dropping; overload clock starts
  gov.observe_batch(at(152), 0.010, 4, 0.0);  // 101 ms of drop -> tier 1
  gov.observe_batch(at(253), 0.010, 4, 0.0);  // another window -> tier 2
  gov.observe_batch(at(300), 0.001, 4, 0.0);  // calm; recovery clock starts
  gov.observe_batch(at(401), 0.001, 4, 0.0);  // 101 ms calm -> tier 1
  gov.observe_batch(at(502), 0.001, 4, 0.0);  // -> tier 0

  EXPECT_EQ(moves, (std::vector<int>{1, 2, 1, 0}));
  const GovernorStats st = gov.stats();
  EXPECT_EQ(st.tier, 0);
  EXPECT_EQ(st.tier_degrades, 2u);
  EXPECT_EQ(st.tier_recoveries, 2u);
}

TEST(OverloadGovernor, SustainedDoomedRejectionDegradesWithoutBatches) {
  // When the capacity estimate rejects every deadline-carrying arrival as
  // doomed, no batch ever completes, so the CoDel dropping state starves.
  // The ladder must still engage off the unbroken rejection streak — a
  // cheaper tier is what would make those deadlines reachable again.
  GovernorConfig g;
  g.est_item_seconds = 1.0;  // learned slow service: 1 s/item
  g.doom_headroom = 1.0;
  g.max_tier = 2;
  g.degrade_after_ms = 100.0;
  g.recover_after_ms = 100.0;
  g.cooldown_ms = 1.0;
  std::vector<int> moves;
  OverloadGovernor gov(g, [&](int tier) { moves.push_back(tier); });
  const Clock::time_point t0 = Clock::time_point() + milliseconds(1000);
  const auto at = [&](int ms) { return t0 + milliseconds(ms); };

  // A 50 ms deadline with 4 queued ahead is hopeless at 1 s/item: every
  // arrival is RejectDoomed, and after 100 ms of unbroken streak the ladder
  // steps down (no observe_batch call ever happens).
  for (int ms = 0; ms <= 260; ms += 20) {
    EXPECT_EQ(gov.admit(at(ms), 4, at(ms + 50)), AdmitVerdict::RejectDoomed);
  }
  EXPECT_EQ(moves, (std::vector<int>{1, 2}));
  EXPECT_EQ(gov.stats().tier_degrades, 2u);

  // An admitted request breaks the streak; calm completions then walk the
  // ladder back up.
  EXPECT_EQ(gov.admit(at(300), 0, kNoDeadline), AdmitVerdict::Admit);
  gov.observe_batch(at(301), 0.001, 4, 0.0);  // calm clock starts
  gov.observe_batch(at(402), 0.001, 4, 0.0);  // -> tier 1
  gov.observe_batch(at(503), 0.001, 4, 0.0);  // -> tier 0
  EXPECT_EQ(moves, (std::vector<int>{1, 2, 1, 0}));
  EXPECT_EQ(gov.stats().tier_recoveries, 2u);
}

TEST(OverloadGovernor, CostModelSeedIsPlausible) {
  auto net = small_net();
  core::CostModel model = make_model();
  const core::BackendPlan plan = analytic_plan(*net, model, 1);
  const double est = estimate_item_seconds(plan, model.machine().freq_ghz);
  EXPECT_GT(est, 0.0);
  EXPECT_LT(est, 10.0);  // a single small-CNN item is far under 10 s
}

// ---------------------------------------------- degradation ladder (live)

TEST(Replanner, TierSwapInstallsCheaperPlanAndRecoversBitIdentical) {
  auto net = small_net();
  core::CostModel model = make_model();
  core::BackendPlan base = analytic_plan(*net, model, 1);

  core::ConvolutionEngine engine(base);
  runtime::SchedulerConfig cfg;
  cfg.threads = 2;
  runtime::BatchScheduler sched(engine, cfg);

  dnn::Tensor in(4, net->in_c(), net->in_h(), net->in_w());
  in.randomize_batch(654, 0.0f, 1.0f);
  const dnn::Tensor& out0 = sched.run(*net, in);
  const std::vector<float> ref(out0.data(), out0.data() + out0.size());

  ReplannerConfig rcfg;
  Replanner rp(sched, *net, model, base, rcfg);
  rp.set_tiers(default_degradation_tiers(base));
  rp.start();

  const auto wait_tier = [&](int tier) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (rp.current_tier() != tier &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(milliseconds(1));
    return rp.current_tier() == tier;
  };

  rp.request_tier(1);
  ASSERT_TRUE(wait_tier(1)) << "tier-1 swap never landed";
  // Within a tier the plan is pinned: repeated runs are bit-identical.
  const dnn::Tensor& a = sched.run(*net, in);
  const std::vector<float> tier1(a.data(), a.data() + a.size());
  const dnn::Tensor& b = sched.run(*net, in);
  ASSERT_EQ(tier1.size(), b.size());
  EXPECT_EQ(
      std::memcmp(tier1.data(), b.data(), tier1.size() * sizeof(float)), 0);

  // Climb back: tier 0 restores the exact base plan, bit for bit.
  rp.request_tier(0);
  ASSERT_TRUE(wait_tier(0)) << "recovery to tier 0 never landed";
  const dnn::Tensor& c = sched.run(*net, in);
  ASSERT_EQ(c.size(), ref.size());
  EXPECT_EQ(std::memcmp(c.data(), ref.data(), ref.size() * sizeof(float)), 0);

  const ReplanStats st = rp.stats();
  EXPECT_EQ(st.current_tier, 0);
  EXPECT_GE(st.tier_swaps, 2u);
  rp.stop();
}

// --------------------------------------------------- chaos acceptance gate

// The ISSUE's acceptance scenario, end to end: a 3x overload burst with
// deterministic injected faults, a governor in front of the queue and the
// degradation ladder wired to the replanner. Every submitted request must
// resolve with exactly one typed outcome (nothing vanishes, nothing
// deadlocks), the ladder must both degrade and recover, and the server must
// shut down cleanly.
TEST(Server, ChaosOverloadEveryRequestResolvesTyped) {
  auto net = small_net();
  core::CostModel model = make_model();
  core::BackendPlan base = analytic_plan(*net, model, 1);

  core::ConvolutionEngine engine(base);
  runtime::FaultInjector injector(runtime::FaultPlan::chaos(42));
  runtime::SchedulerConfig cfg;
  cfg.threads = 2;
  cfg.fault_injector = &injector;
  // Far above any injected stall AND any legit batch time under TSan's
  // ~10x slowdown: the wedges==0 assertion below means "the watchdog never
  // false-positives on slow-but-live batches"; actual wedge detection is
  // pinned by the Watchdog suite.
  cfg.watchdog_timeout_s = 60.0;
  runtime::BatchScheduler sched(engine, cfg);

  ReplannerConfig rcfg;
  Replanner rp(sched, *net, model, base, rcfg);
  rp.set_tiers(default_degradation_tiers(base));
  rp.start();

  GovernorConfig gcfg;
  gcfg.target_sojourn_ms = 10.0;
  gcfg.interval_ms = 30.0;
  gcfg.est_item_seconds =
      estimate_item_seconds(base, model.machine().freq_ghz);
  gcfg.max_tier = 2;
  gcfg.degrade_after_ms = 60.0;
  gcfg.recover_after_ms = 60.0;
  gcfg.cooldown_ms = 20.0;
  OverloadGovernor governor(gcfg,
                            [&](int tier) { rp.request_tier(tier); });

  std::array<std::atomic<std::uint64_t>, kOutcomeCount> delivered{};
  ServerConfig scfg;
  scfg.policy.max_batch = 4;
  scfg.policy.max_wait = milliseconds(1);
  scfg.queue_capacity = 64;
  scfg.block_when_full = false;  // overload sheds, never blocks the client
  scfg.replanner = &rp;
  scfg.governor = &governor;
  scfg.on_complete = [&](Completion&& c) {
    delivered[static_cast<std::size_t>(c.trace.outcome)].fetch_add(1);
  };
  Server server(sched, *net, scfg);
  server.start();

  std::uint64_t submitted = 0, accepted = 0, rejected = 0;
  const auto submit_one = [&](Clock::time_point deadline) {
    dnn::Tensor in(1, net->in_c(), net->in_h(), net->in_w());
    in.randomize_item(0, submitted);
    const Admit a = server.submit(submitted++, std::move(in), deadline);
    if (a == Admit::Accepted) {
      ++accepted;
    } else {
      ASSERT_TRUE(a == Admit::Rejected || a == Admit::RejectedOverload);
      ++rejected;
    }
  };

  // Phase 1 — overload: pump bursts well past capacity until the ladder
  // steps down (generous wall-clock bound; sanitizer builds run slow).
  const auto degrade_by =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (server.stats().governor.tier_degrades == 0 &&
         std::chrono::steady_clock::now() < degrade_by) {
    for (int i = 0; i < 16; ++i)
      submit_one(Clock::now() + milliseconds(250));
    std::this_thread::sleep_for(milliseconds(2));
  }
  EXPECT_GE(server.stats().governor.tier_degrades, 1u)
      << "ladder never degraded";

  // Phase 2 — calm: a trickle lets the queue drain, sojourn falls under
  // target and the ladder climbs back.
  const auto recover_by =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (server.stats().governor.tier_recoveries == 0 &&
         std::chrono::steady_clock::now() < recover_by) {
    submit_one(kNoDeadline);
    std::this_thread::sleep_for(milliseconds(25));
  }
  EXPECT_GE(server.stats().governor.tier_recoveries, 1u)
      << "ladder never recovered";

  server.stop();
  rp.stop();

  // The chaos gate: every submitted request resolved with exactly one typed
  // outcome — completions for everything admitted, rejections for the rest.
  std::uint64_t completions = 0;
  for (const auto& d : delivered) completions += d.load();
  EXPECT_EQ(completions, accepted);
  const ServerStats st = server.stats();
  EXPECT_EQ(st.completed, accepted);
  std::uint64_t resolved = 0;
  for (const auto& o : st.outcomes) resolved += o;
  EXPECT_EQ(resolved, submitted);
  EXPECT_EQ(st.outcomes[static_cast<std::size_t>(Outcome::RejectedOverload)],
            rejected);
  // Faults really were injected, and no batch wedged past the watchdog.
  const runtime::FaultInjector::Stats fs = injector.stats();
  EXPECT_GT(fs.task_stalls + fs.worker_slows + fs.item_failures, 0u);
  EXPECT_EQ(st.watchdog_wedges, 0u);
  // Both controllers' counters surface through Server::stats() whole.
  expect_same_stats(st.governor, governor.stats());
  expect_same_stats(st.replan, rp.stats());
}

}  // namespace
}  // namespace vlacnn::serve
