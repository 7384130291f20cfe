// Runtime subsystem: ThreadPool task queue, deterministic record merging,
// per-stream RNG reproducibility, workspace growth, BatchScheduler's
// pipelined API and per-item error isolation, fault injection and the
// batch watchdog.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "core/conv_engine.hpp"
#include "dnn/exec_context.hpp"
#include "dnn/models.hpp"
#include "runtime/batch_scheduler.hpp"
#include "runtime/fault_injector.hpp"
#include "runtime/thread_pool.hpp"
#include "test_util.hpp"

namespace vlacnn::runtime {
namespace {

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPool, PostedTasksAllRunOnWorkers) {
  ThreadPool pool(3);
  constexpr int kTasks = 64;
  std::atomic<int> ran{0};
  for (int i = 0; i < kTasks; ++i)
    pool.post([&](int worker) {
      EXPECT_GE(worker, 0);
      EXPECT_LT(worker, 3);
      ran.fetch_add(1);
    });
  // post() is non-blocking; tasks drain asynchronously.
  while (pool.pending_tasks() > 0) std::this_thread::yield();
  EXPECT_EQ(ran.load(), kTasks);
}

// The cap is checked before any worker spawns, so cap + 1 starts no thread.
TEST(ThreadPool, ExplicitCountAboveCapThrowsBeforeSpawning) {
  // The message names the check's file relative to the repository root.
  try {
    ThreadPool pool(ThreadPool::kMaxThreads + 1);
    ADD_FAILURE() << "no exception";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find(" at src/runtime/thread_pool.cpp:"),
              std::string::npos)
        << e.what();
  }
  core::ConvolutionEngine engine(core::EnginePolicy::opt6loop());
  SchedulerConfig cfg;
  cfg.threads = ThreadPool::kMaxThreads + 1;
  EXPECT_THROW(BatchScheduler sched(engine, cfg), InvalidArgument);
}

// ------------------------------------------------------------- record merge

TEST(LayerRecords, MergeIsDeterministicAndOrderAware) {
  dnn::LayerRecord a;
  a.name = "conv 8 3x3/1";
  a.items = 3;
  a.flops = 300.0;
  a.cycles = 30;
  a.wall_seconds = 0.5;
  dnn::LayerRecord b = a;
  b.items = 5;
  b.flops = 500.0;
  b.cycles = 50;
  b.wall_seconds = 0.2;
  const auto merged = dnn::merge_layer_records({{a}, {}, {b}});
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].items, 8);
  EXPECT_DOUBLE_EQ(merged[0].flops, 800.0);
  EXPECT_EQ(merged[0].cycles, 80u);
  EXPECT_DOUBLE_EQ(merged[0].wall_seconds, 0.5);  // max: barrier semantics
  // Mismatched layer sequences are rejected.
  dnn::LayerRecord other;
  other.name = "maxpool 2x2/2";
  EXPECT_THROW((void)dnn::merge_layer_records({{a}, {other}}), std::exception);
}

// ------------------------------------------------------------- RNG streams

TEST(RngStreams, StreamsAreInterleavingIndependent) {
  // Draws from stream k must not depend on what other streams have drawn —
  // the regression guard for per-batch-item reproducibility regardless of
  // worker interleaving (Network::next_seed-style derived seeds mix only
  // static identifiers, never execution order).
  Rng s0 = Rng::for_stream(42, 0);
  Rng s1 = Rng::for_stream(42, 1);
  std::vector<std::uint64_t> interleaved;
  for (int i = 0; i < 8; ++i) {
    interleaved.push_back(s0.next_u64());
    (void)s1.next_u64();  // interleave draws from another stream
  }
  Rng fresh = Rng::for_stream(42, 0);
  for (int i = 0; i < 8; ++i)
    EXPECT_EQ(fresh.next_u64(), interleaved[static_cast<std::size_t>(i)]);
  // Distinct streams differ.
  Rng a = Rng::for_stream(42, 0), bstream = Rng::for_stream(42, 1);
  EXPECT_NE(a.next_u64(), bstream.next_u64());
}

TEST(RngStreams, BatchItemValuesIndependentOfBatchSize) {
  dnn::Tensor small(2, 3, 4, 4);
  dnn::Tensor large(6, 3, 4, 4);
  small.randomize_batch(7);
  large.randomize_batch(7);
  for (int b = 0; b < 2; ++b)
    EXPECT_EQ(std::memcmp(small.item_data(b), large.item_data(b),
                          small.item_size() * sizeof(float)),
              0);
  // Items are filled per-stream, so fill order doesn't matter either.
  dnn::Tensor reversed(2, 3, 4, 4);
  reversed.randomize_item(1, 7);
  reversed.randomize_item(0, 7);
  EXPECT_EQ(std::memcmp(reversed.data(), small.data(),
                        small.size() * sizeof(float)),
            0);
}

// -------------------------------------------------------- workspace growth

TEST(ExecContextWorkspace, GrowsGeometricallyAndStaysAligned) {
  vla::VectorEngine eng(512);
  dnn::ExecContext ctx(eng);
  float* p = ctx.workspace(100);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 256, 0u);
  const std::size_t cap0 = ctx.workspace_capacity();
  EXPECT_GE(cap0, 100u);
  // A request within capacity must not reallocate.
  ctx.workspace(cap0);
  EXPECT_EQ(ctx.workspace_capacity(), cap0);
  // A request one past capacity grows at least geometrically (1.5x).
  p = ctx.workspace(cap0 + 1);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 256, 0u);
  EXPECT_GE(ctx.workspace_capacity(), cap0 + cap0 / 2);
  // A sequence of +1 requests reallocates O(log n) times, not n times.
  std::size_t reallocs = 0;
  std::size_t cap = ctx.workspace_capacity();
  for (std::size_t want = cap + 1; want < 200000; ++want) {
    ctx.workspace(want);
    if (ctx.workspace_capacity() != cap) {
      ++reallocs;
      cap = ctx.workspace_capacity();
    }
  }
  EXPECT_LE(reallocs, 40u);
}

// ------------------------------------------------- pipelined submit / wait

TEST(BatchScheduler, SubmitWaitMatchesRunBitwise) {
  auto net = dnn::build_vgg16(32, 4);
  core::ConvolutionEngine engine(core::EnginePolicy::opt6loop());
  SchedulerConfig cfg;
  cfg.threads = 2;
  BatchScheduler sched(engine, cfg);

  dnn::Tensor input(3, net->in_c(), net->in_h(), net->in_w());
  input.randomize_batch(5);
  const dnn::Tensor& ref = sched.run(*net, input);
  std::vector<float> ref_copy(ref.data(), ref.data() + ref.size());
  const auto ref_records = sched.records();

  dnn::Tensor input2(3, net->in_c(), net->in_h(), net->in_w());
  input2.randomize_batch(5);
  const BatchTicket ticket = sched.submit(*net, std::move(input2));
  BatchResult res = sched.wait(ticket);
  ASSERT_EQ(res.output.size(), ref_copy.size());
  EXPECT_EQ(std::memcmp(res.output.data(), ref_copy.data(),
                        ref_copy.size() * sizeof(float)),
            0);
  EXPECT_GT(res.compute_seconds, 0.0);
  ASSERT_EQ(res.records.size(), ref_records.size());
  for (std::size_t i = 0; i < res.records.size(); ++i) {
    EXPECT_EQ(res.records[i].name, ref_records[i].name);
    EXPECT_EQ(res.records[i].algo, ref_records[i].algo);
    EXPECT_EQ(res.records[i].items, ref_records[i].items);
    EXPECT_DOUBLE_EQ(res.records[i].flops, ref_records[i].flops);
  }
}

TEST(BatchScheduler, PipelinedSubmitsCompleteFifoAndCorrect) {
  auto net = dnn::build_vgg16(32, 4);
  core::ConvolutionEngine engine(core::EnginePolicy::opt6loop());
  SchedulerConfig cfg;
  cfg.threads = 2;
  BatchScheduler sched(engine, cfg);

  // Keep kSlots batches in flight: submit k+1 before waiting k, the
  // admission/packing-overlaps-execution pattern the serving layer uses.
  constexpr int kBatches = 5;
  std::vector<std::vector<float>> outputs;
  BatchTicket prev{};
  for (int k = 0; k < kBatches; ++k) {
    dnn::Tensor in(2, net->in_c(), net->in_h(), net->in_w());
    in.randomize_batch(static_cast<std::uint64_t>(100 + k));
    const BatchTicket t = sched.submit(*net, std::move(in));
    EXPECT_EQ(t.id, static_cast<std::uint64_t>(k + 1));  // FIFO ticket ids
    if (prev.id != 0) {
      BatchResult r = sched.wait(prev);
      outputs.emplace_back(r.output.data(),
                           r.output.data() + r.output.size());
    }
    prev = t;
  }
  BatchResult last = sched.wait(prev);
  outputs.emplace_back(last.output.data(),
                       last.output.data() + last.output.size());
  ASSERT_EQ(outputs.size(), static_cast<std::size_t>(kBatches));

  // Each pipelined batch must equal the synchronous run of the same input.
  for (int k = 0; k < kBatches; ++k) {
    dnn::Tensor in(2, net->in_c(), net->in_h(), net->in_w());
    in.randomize_batch(static_cast<std::uint64_t>(100 + k));
    const dnn::Tensor& ref = sched.run(*net, in);
    ASSERT_EQ(outputs[static_cast<std::size_t>(k)].size(), ref.size());
    EXPECT_EQ(std::memcmp(outputs[static_cast<std::size_t>(k)].data(),
                          ref.data(), ref.size() * sizeof(float)),
              0)
        << "batch " << k;
  }
}

TEST(BatchScheduler, TicketsAreSingleUse) {
  auto net = dnn::build_vgg16(32, 4);
  core::ConvolutionEngine engine(core::EnginePolicy::opt6loop());
  BatchScheduler sched(engine, SchedulerConfig{});
  dnn::Tensor in(1, net->in_c(), net->in_h(), net->in_w());
  in.randomize_batch(3);
  const BatchTicket t = sched.submit(*net, std::move(in));
  (void)sched.wait(t);
  EXPECT_THROW((void)sched.wait(t), InvalidArgument);       // already waited
  EXPECT_THROW((void)sched.wait(BatchTicket{}), InvalidArgument);
  EXPECT_THROW((void)sched.wait(BatchTicket{99}), InvalidArgument);  // never issued
}

TEST(BatchScheduler, OutOfOrderWaitAcrossAllSlots) {
  // Tickets complete FIFO but may be COLLECTED in any order: fill every
  // kSlots slot, then wait newest-first. Each result must still carry its
  // own batch's output.
  auto net = dnn::build_vgg16(32, 4);
  core::ConvolutionEngine engine(core::EnginePolicy::opt6loop());
  SchedulerConfig cfg;
  cfg.threads = 2;
  BatchScheduler sched(engine, cfg);

  std::vector<BatchTicket> tickets;
  for (int k = 0; k < BatchScheduler::kSlots; ++k) {
    dnn::Tensor in(2, net->in_c(), net->in_h(), net->in_w());
    in.randomize_batch(static_cast<std::uint64_t>(500 + k));
    tickets.push_back(sched.submit(*net, std::move(in)));
  }
  std::vector<std::vector<float>> outs(tickets.size());
  for (int k = BatchScheduler::kSlots - 1; k >= 0; --k) {
    BatchResult r = sched.wait(tickets[static_cast<std::size_t>(k)]);
    outs[static_cast<std::size_t>(k)].assign(
        r.output.data(), r.output.data() + r.output.size());
  }
  for (int k = 0; k < BatchScheduler::kSlots; ++k) {
    dnn::Tensor in(2, net->in_c(), net->in_h(), net->in_w());
    in.randomize_batch(static_cast<std::uint64_t>(500 + k));
    const dnn::Tensor& ref = sched.run(*net, in);
    const auto& got = outs[static_cast<std::size_t>(k)];
    ASSERT_EQ(got.size(), ref.size()) << k;
    EXPECT_EQ(std::memcmp(got.data(), ref.data(), ref.size() * sizeof(float)),
              0)
        << k;
  }
}

TEST(BatchScheduler, ItemFailuresAreIsolatedPerRequest) {
  // A kernel throwing for every item no longer fails the batch wholesale:
  // wait() returns normally with every item marked failed in item_errors.
  auto net = dnn::build_vgg16(32, 4);
  for (int threads : {1, 2, 4}) {
    core::ConvolutionEngine engine(core::EnginePolicy::opt6loop());
    SchedulerConfig cfg;
    cfg.threads = threads;
    BatchScheduler sched(engine, cfg);
    sched.test_item_hook = [](int layer, int item) {
      if (layer == 1 && item >= 0)
        throw std::runtime_error("injected layer failure");
    };
    dnn::Tensor in(4, net->in_c(), net->in_h(), net->in_w());
    in.randomize_batch(9);
    BatchResult failed = sched.wait(sched.submit(*net, std::move(in)));
    ASSERT_EQ(failed.item_errors.size(), 4u);
    for (int b = 0; b < 4; ++b) {
      ASSERT_NE(failed.item_errors[static_cast<std::size_t>(b)], nullptr)
          << "threads=" << threads << " item " << b;
      EXPECT_THROW(std::rethrow_exception(
                       failed.item_errors[static_cast<std::size_t>(b)]),
                   std::runtime_error);
    }

    // A failed batch must not wedge the scheduler: the next one succeeds.
    sched.test_item_hook = nullptr;
    dnn::Tensor ok(4, net->in_c(), net->in_h(), net->in_w());
    ok.randomize_batch(9);
    BatchResult r = sched.wait(sched.submit(*net, std::move(ok)));
    EXPECT_TRUE(r.item_errors.empty());
    EXPECT_EQ(r.records.size(), net->num_layers());
    EXPECT_GT(r.output.size(), 0u);
  }
}

TEST(BatchScheduler, OneFailedItemLeavesSiblingsBitIdentical) {
  // The per-item isolation pin: item 1 throwing mid-layer fails only its own
  // request — every other item's output is bit-identical to a fault-free
  // sequential forward, and the scheduler keeps serving afterwards.
  auto net = dnn::build_vgg16(32, 4);
  constexpr int kItems = 4;
  const auto make_in = [&] {
    dnn::Tensor in(kItems, net->in_c(), net->in_h(), net->in_w());
    in.randomize_batch(31);
    return in;
  };
  const std::vector<float> ref = test::sequential_forward(
      *net, core::BackendPlan::uniform(core::EnginePolicy::opt6loop()),
      make_in());
  const std::size_t item_size = ref.size() / kItems;
  for (int threads : {1, 2, 4}) {
    core::ConvolutionEngine engine(core::EnginePolicy::opt6loop());
    SchedulerConfig cfg;
    cfg.threads = threads;
    BatchScheduler sched(engine, cfg);
    sched.test_item_hook = [](int layer, int item) {
      if (layer == 1 && item == 1)
        throw std::runtime_error("injected item-1 failure");
    };
    BatchResult res = sched.wait(sched.submit(*net, make_in()));
    ASSERT_EQ(res.item_errors.size(), static_cast<std::size_t>(kItems));
    for (int b = 0; b < kItems; ++b) {
      if (b == 1) {
        EXPECT_NE(res.item_errors[1], nullptr);
        continue;
      }
      ASSERT_EQ(res.item_errors[static_cast<std::size_t>(b)], nullptr)
          << "threads=" << threads << " item " << b << " collaterally failed";
      ASSERT_EQ(res.output.item_size(), item_size);
      EXPECT_EQ(std::memcmp(res.output.item_data(b),
                            ref.data() + static_cast<std::size_t>(b) * item_size,
                            item_size * sizeof(float)),
                0)
          << "threads=" << threads << " item " << b
          << " diverged from the fault-free run";
    }

    // No dangling state: the very next batch is clean and bit-identical.
    sched.test_item_hook = nullptr;
    BatchResult after = sched.wait(sched.submit(*net, make_in()));
    EXPECT_TRUE(after.item_errors.empty());
    ASSERT_EQ(after.output.size(), ref.size());
    EXPECT_EQ(std::memcmp(after.output.data(), ref.data(),
                          ref.size() * sizeof(float)),
              0)
        << "threads=" << threads;
  }
}

TEST(BatchScheduler, BatchFusedFailureFailsOnlyItsChunk) {
  // A batch-fused dispatch (hook item == -1) spans one item chunk: a throw
  // there fails exactly that chunk's items, through item_errors rather than
  // a wait() throw, and the other chunk's items stay bit-identical to a
  // fault-free sequential forward.
  auto net = dnn::build_vgg16(32, 4);
  core::EnginePolicy resident = core::EnginePolicy::fused();
  resident.weight_resident = true;
  constexpr int kItems = 4;
  dnn::Tensor in(kItems, net->in_c(), net->in_h(), net->in_w());
  in.randomize_batch(9);
  const std::vector<float> ref = test::sequential_forward(
      *net, core::BackendPlan::uniform(resident), in);
  const std::size_t item_size = ref.size() / kItems;

  core::ConvolutionEngine engine(resident);
  SchedulerConfig cfg;
  cfg.threads = 2;
  BatchScheduler sched(engine, cfg);
  std::atomic<int> fused_dispatches{0};
  sched.test_item_hook = [&](int, int item) {
    if (item == -1 && fused_dispatches.fetch_add(1) == 0)
      throw std::runtime_error("injected fused failure");
  };
  BatchResult res = sched.wait(sched.submit(*net, std::move(in)));
  ASSERT_GT(fused_dispatches.load(), 0);
  ASSERT_EQ(res.item_errors.size(), static_cast<std::size_t>(kItems));
  // Two workers split four items into chunks {0, 1} and {2, 3}.
  const int failed_chunk = res.item_errors[0] != nullptr ? 0 : 1;
  for (int b = 0; b < kItems; ++b) {
    if (b / 2 == failed_chunk) {
      ASSERT_NE(res.item_errors[static_cast<std::size_t>(b)], nullptr)
          << "item " << b;
      EXPECT_THROW(
          std::rethrow_exception(res.item_errors[static_cast<std::size_t>(b)]),
          std::runtime_error);
      continue;
    }
    ASSERT_EQ(res.item_errors[static_cast<std::size_t>(b)], nullptr)
        << "item " << b << " failed outside the throwing chunk";
    ASSERT_EQ(res.output.item_size(), item_size);
    EXPECT_EQ(std::memcmp(res.output.item_data(b),
                          ref.data() + static_cast<std::size_t>(b) * item_size,
                          item_size * sizeof(float)),
              0)
        << "item " << b << " diverged from the fault-free run";
  }
}

// -------------------------------------------------------- FaultInjector

TEST(FaultInjector, SameSeedSameDecisions) {
  const FaultPlan plan = FaultPlan::chaos(1234);
  FaultInjector a(plan);
  FaultInjector b(plan);
  for (std::uint64_t batch = 0; batch < 20; ++batch)
    for (int layer = 0; layer < 8; ++layer)
      for (int chunk = 0; chunk < 4; ++chunk) {
        EXPECT_EQ(a.task_stall_ms(batch, layer, chunk),
                  b.task_stall_ms(batch, layer, chunk));
        EXPECT_EQ(a.fail_item(batch, layer, chunk),
                  b.fail_item(batch, layer, chunk));
      }
}

TEST(FaultInjector, DecisionsIndependentOfQueryOrder) {
  // Decisions hash (seed, stream, ids) — not call history — so concurrent
  // workers interleaving queries cannot perturb each other's faults.
  const FaultPlan plan = FaultPlan::chaos(77);
  FaultInjector fwd(plan);
  FaultInjector rev(plan);
  std::vector<double> a, b;
  for (int i = 0; i < 64; ++i)
    a.push_back(fwd.task_stall_ms(7, i, 0));
  for (int i = 63; i >= 0; --i)
    b.push_back(rev.task_stall_ms(7, i, 0));
  for (int i = 0; i < 64; ++i)
    EXPECT_EQ(a[static_cast<std::size_t>(i)],
              b[static_cast<std::size_t>(63 - i)]);
}

TEST(FaultInjector, SeedsDiverge) {
  FaultInjector a(FaultPlan::chaos(1));
  FaultInjector b(FaultPlan::chaos(2));
  int differ = 0;
  for (int i = 0; i < 256; ++i)
    differ += a.fail_item(0, 0, i) != b.fail_item(0, 0, i) ? 1 : 0;
  EXPECT_GT(differ, 0);
}

TEST(FaultInjector, ZeroProbabilitiesNeverFire) {
  FaultPlan plan;  // all probabilities default 0
  plan.seed = 99;
  FaultInjector inj(plan);
  for (int i = 0; i < 256; ++i) {
    EXPECT_EQ(inj.task_stall_ms(1, 2, i), 0.0);
    EXPECT_FALSE(inj.fail_item(1, 2, i));
    inj.maybe_fail_item(1, 2, i);  // must not throw
    inj.on_worker_task(i % 4);     // timing-only; no stall at prob 0
  }
  const FaultInjector::Stats st = inj.stats();
  EXPECT_EQ(st.task_stalls, 0u);
  EXPECT_EQ(st.worker_slows, 0u);
  EXPECT_EQ(st.item_failures, 0u);
}

TEST(FaultInjector, MaybeFailItemThrowsAndCounts) {
  FaultPlan plan;
  plan.seed = 5;
  plan.item_fail_prob = 1.0;  // every item fails
  FaultInjector inj(plan);
  EXPECT_THROW(inj.maybe_fail_item(3, 1, 0), FaultInjected);
  EXPECT_THROW(inj.maybe_fail_item(3, 1, 1), FaultInjected);
  EXPECT_EQ(inj.stats().item_failures, 2u);
}

TEST(FaultInjector, InjectedItemFaultsSurfaceAsItemErrors) {
  // End to end through the scheduler: a 100%-item-failure plan fails every
  // request via per-item isolation; the identical run without the injector
  // is clean.
  auto net = dnn::build_vgg16(32, 4);
  FaultPlan plan;
  plan.seed = 11;
  plan.item_fail_prob = 1.0;
  FaultInjector inj(plan);
  core::ConvolutionEngine engine(core::EnginePolicy::opt6loop());
  SchedulerConfig cfg;
  cfg.threads = 2;
  cfg.fault_injector = &inj;
  BatchScheduler sched(engine, cfg);
  dnn::Tensor in(2, net->in_c(), net->in_h(), net->in_w());
  in.randomize_batch(3);
  BatchResult res = sched.wait(sched.submit(*net, std::move(in)));
  ASSERT_EQ(res.item_errors.size(), 2u);
  EXPECT_NE(res.item_errors[0], nullptr);
  EXPECT_NE(res.item_errors[1], nullptr);
  EXPECT_THROW(std::rethrow_exception(res.item_errors[0]), FaultInjected);
  EXPECT_GT(inj.stats().item_failures, 0u);
}

// ------------------------------------------------------------- Watchdog

TEST(Watchdog, WedgedBatchIsCancelledAndSchedulerRecovers) {
  // One task sleeps far past the watchdog timeout: the batch is declared
  // wedged and completes with BatchCancelled instead of blocking the slot
  // ring; the next batch runs clean. The margins are deliberately wide —
  // the truncated net's largest conv is ~1M MACs so every legit task runs
  // in well under a millisecond even under TSan, the timeout is 0.5s, and
  // the injected stall 2.5s — a loaded CI box or TSan's slowdown cannot
  // blur wedged and slow into each other.
  auto net = dnn::build_yolov3_tiny(32, 8);
  core::ConvolutionEngine engine(core::EnginePolicy::opt6loop());
  SchedulerConfig cfg;
  cfg.threads = 2;
  cfg.watchdog_timeout_s = 0.5;
  cfg.watchdog_poll_s = 0.01;
  BatchScheduler sched(engine, cfg);
  std::atomic<bool> armed{true};
  sched.test_item_hook = [&](int layer, int) {
    if (layer == 2 && armed.exchange(false))
      std::this_thread::sleep_for(std::chrono::milliseconds(2500));
  };
  dnn::Tensor in(2, net->in_c(), net->in_h(), net->in_w());
  in.randomize_batch(8);
  const BatchTicket t = sched.submit(*net, std::move(in));
  EXPECT_THROW((void)sched.wait(t), BatchCancelled);
  EXPECT_EQ(sched.watchdog_wedges(), 1u);

  // The stalled task returned and the batch retired: the ring is clean.
  sched.test_item_hook = nullptr;
  dnn::Tensor ok(2, net->in_c(), net->in_h(), net->in_w());
  ok.randomize_batch(8);
  BatchResult r = sched.wait(sched.submit(*net, std::move(ok)));
  EXPECT_TRUE(r.item_errors.empty());
  EXPECT_GT(r.output.size(), 0u);
}

TEST(Watchdog, HealthyTrafficIsNeverCancelled) {
  auto net = dnn::build_vgg16(32, 4);
  core::ConvolutionEngine engine(core::EnginePolicy::opt6loop());
  SchedulerConfig cfg;
  cfg.threads = 2;
  cfg.watchdog_timeout_s = 30.0;  // far above any real batch, even on TSan
  cfg.watchdog_poll_s = 0.002;
  BatchScheduler sched(engine, cfg);
  for (int k = 0; k < 4; ++k) {
    dnn::Tensor in(2, net->in_c(), net->in_h(), net->in_w());
    in.randomize_batch(static_cast<std::uint64_t>(k));
    BatchResult r = sched.wait(sched.submit(*net, std::move(in)));
    EXPECT_TRUE(r.item_errors.empty()) << k;
  }
  EXPECT_EQ(sched.watchdog_wedges(), 0u);
}

TEST(BatchScheduler, SubmitValidatesShapeSynchronously) {
  auto net = dnn::build_vgg16(32, 4);
  core::ConvolutionEngine engine(core::EnginePolicy::opt6loop());
  BatchScheduler sched(engine, SchedulerConfig{});
  dnn::Tensor wrong(1, net->in_c() + 1, net->in_h(), net->in_w());
  EXPECT_THROW((void)sched.submit(*net, std::move(wrong)), InvalidArgument);
}

TEST(BatchScheduler, RecordsAreDeterministicAcrossRuns) {
  auto net = dnn::build_vgg16(32, 4);
  core::ConvolutionEngine engine(core::EnginePolicy::opt3loop());
  SchedulerConfig cfg;
  cfg.threads = 4;
  BatchScheduler sched(engine, cfg);
  dnn::Tensor input(6, net->in_c(), net->in_h(), net->in_w());
  input.randomize_batch(11);

  sched.run(*net, input);
  const auto first = sched.records();
  sched.run(*net, input);
  const auto second = sched.records();
  ASSERT_EQ(first.size(), second.size());
  ASSERT_EQ(first.size(), net->num_layers());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].name, second[i].name);
    EXPECT_EQ(first[i].algo, second[i].algo);
    EXPECT_EQ(first[i].items, 6);
    EXPECT_EQ(second[i].items, 6);
    EXPECT_DOUBLE_EQ(first[i].flops, second[i].flops);
  }
}

}  // namespace
}  // namespace vlacnn::runtime
