// Work-graph executor: bitwise equivalence with a sequential
// Network::forward across models / batch sizes / worker counts / backend
// plans, proof that batches overlap in the graph, and a sleep-injection
// stress test gating that interleaving never changes outputs or merged
// LayerRecord order.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "core/conv_engine.hpp"
#include "dnn/models.hpp"
#include "runtime/batch_scheduler.hpp"
#include "runtime/work_graph.hpp"
#include "test_util.hpp"

namespace vlacnn::runtime {
namespace {

struct SchedRun {
  std::vector<float> output;
  std::vector<dnn::LayerRecord> records;
  ExecStats exec;
};

dnn::Tensor make_input(const dnn::Network& net, int batch) {
  dnn::Tensor in(batch, net.in_c(), net.in_h(), net.in_w());
  in.randomize_batch(4321, 0.0f, 1.0f);
  return in;
}

SchedRun run_sched(dnn::Network& net, const core::EnginePolicy& policy,
                   int batch, int threads,
                   std::function<void(int, int)> hook = nullptr) {
  core::ConvolutionEngine engine(policy);
  SchedulerConfig cfg;
  cfg.threads = threads;
  BatchScheduler sched(engine, cfg);
  sched.test_item_hook = std::move(hook);
  BatchResult r = sched.wait(sched.submit(net, make_input(net, batch)));
  SchedRun out;
  out.output.assign(r.output.data(), r.output.data() + r.output.size());
  out.records = std::move(r.records);
  out.exec = r.exec;
  return out;
}

// Inputs are drawn per item stream (Tensor::randomize_batch), so a batch of
// `items` is the first `items` items of a batch of `ref_items`, and one
// sequential forward of the larger batch references every smaller one.
void expect_prefix_of(const std::vector<float>& got,
                      const std::vector<float>& ref, int items, int ref_items,
                      const std::string& tag) {
  ASSERT_EQ(got.size() * static_cast<std::size_t>(ref_items),
            ref.size() * static_cast<std::size_t>(items))
      << tag;
  EXPECT_EQ(std::memcmp(got.data(), ref.data(), got.size() * sizeof(float)), 0)
      << tag;
}

// Accounting identity across worker counts: same layer order, same backend
// labels, same item/flop totals. Wall times naturally differ.
void expect_same_records(const std::vector<dnn::LayerRecord>& a,
                         const std::vector<dnn::LayerRecord>& b,
                         const std::string& tag) {
  ASSERT_EQ(a.size(), b.size()) << tag;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name) << tag << " layer " << i;
    EXPECT_EQ(a[i].algo, b[i].algo) << tag << " layer " << i;
    EXPECT_EQ(a[i].items, b[i].items) << tag << " layer " << i;
    EXPECT_DOUBLE_EQ(a[i].flops, b[i].flops) << tag << " layer " << i;
  }
}

struct ModelCase {
  const char* tag;
  std::unique_ptr<dnn::Network> (*build)();
};

// VGG16's classifier head (three FC layers and the softmax) on a short
// conv trunk: the FC layers batch-fuse under fc_weight_resident, which the
// 4-layer VGG prefix never reaches.
std::unique_ptr<dnn::Network> build_vgg_head() {
  auto net = std::make_unique<dnn::Network>(3, 32, 32);
  net->add_conv(64, 3, 1, 1, dnn::Activation::Relu, /*bn=*/false);
  net->add_maxpool(2, 2);
  net->add_conv(128, 3, 1, 1, dnn::Activation::Relu, /*bn=*/false);
  net->add_maxpool(2, 2);
  net->add_connected(256, dnn::Activation::Relu);
  net->add_connected(256, dnn::Activation::Relu);
  net->add_connected(10, dnn::Activation::Linear);
  net->add_softmax();
  return net;
}

const ModelCase kModels[] = {
    {"vgg", [] { return dnn::build_vgg16(32, 4); }},
    {"vgg-head", build_vgg_head},
    // Residual-fused yolo: the fused shortcut pins a barrier layer whose
    // output tensor aliases its producer's — the aliasing-hazard case.
    {"yolo-res",
     [] {
       auto net = dnn::build_yolov3(32, 8);
       net->fuse_residuals();
       return net;
     }},
};

TEST(WorkGraph, BitIdenticalToSequentialForwardAcrossModelsBatchesWorkersPlans) {
  struct PolicyCase {
    const char* tag;
    core::EnginePolicy policy;
  };
  core::EnginePolicy resident = core::EnginePolicy::fused();
  resident.weight_resident = true;
  const PolicyCase policies[] = {
      {"opt6loop", core::EnginePolicy::opt6loop()},
      {"fused", core::EnginePolicy::fused()},
      {"fused+resident", resident},
  };
  for (const auto& m : kModels) {
    auto net = m.build();
    for (const auto& p : policies) {
      const std::vector<float> ref = test::sequential_forward(
          *net, core::BackendPlan::uniform(p.policy), make_input(*net, 8));
      // Batches 3 and 5 split unevenly over 2 and 4 workers, and batch 2
      // over 4 workers is two 1-item chunks, which a batch-fused layer
      // declines to the per-item path.
      for (int batch : {1, 2, 3, 4, 5, 8}) {
        // Records are checked against the 1-worker graph run: the merge is
        // canonical, so worker count must not change them.
        const SchedRun one = run_sched(*net, p.policy, batch, 1);
        for (int threads : {1, 2, 4}) {
          const std::string tag = std::string(m.tag) + "/" + p.tag +
                                  " batch=" + std::to_string(batch) +
                                  " threads=" + std::to_string(threads);
          const SchedRun graph =
              threads == 1 ? one : run_sched(*net, p.policy, batch, threads);
          expect_prefix_of(graph.output, ref, batch, 8, tag);
          expect_same_records(graph.records, one.records, tag);
        }
      }
    }
  }
}

// A weight-resident layer runs batch-fused per item chunk, not as one
// barrier task: at batch 8 on 2 workers every layer of VGG16 (no residual
// folds) is 2 compute tasks, and each resident layer — the FC layers
// included — makes one fused dispatch per chunk.
TEST(WorkGraph, WeightResidentLayersRunOneFusedDispatchPerChunk) {
  auto net = dnn::build_vgg16(32);
  core::EnginePolicy resident = core::EnginePolicy::fused();
  resident.weight_resident = true;
  std::mutex mu;
  std::vector<int> fused_dispatches(net->num_layers(), 0);
  const SchedRun run =
      run_sched(*net, resident, 8, 2, [&](int layer, int item) {
        if (item != -1) return;
        std::lock_guard<std::mutex> lock(mu);
        ++fused_dispatches[static_cast<std::size_t>(layer)];
      });
  EXPECT_EQ(run.exec.tasks, 2u * net->num_layers());
  ASSERT_EQ(run.records.size(), net->num_layers());
  int resident_layers = 0, resident_fc = 0;
  for (std::size_t i = 0; i < net->num_layers(); ++i) {
    const bool fused = run.records[i].algo.ends_with("+batch");
    EXPECT_EQ(fused_dispatches[i], fused ? 2 : 0) << "layer " << i;
    EXPECT_EQ(run.records[i].items, 8) << "layer " << i;
    resident_layers += fused ? 1 : 0;
    resident_fc += fused && run.records[i].name == "connected" ? 1 : 0;
  }
  EXPECT_GT(resident_layers, resident_fc);
  EXPECT_GT(resident_fc, 0);
}

TEST(WorkGraph, OverlapStartsBeforePreviousBatchCompletes) {
  auto net = dnn::build_vgg16(32, 4);
  core::ConvolutionEngine engine(core::EnginePolicy::opt6loop());
  SchedulerConfig cfg;
  cfg.threads = 2;
  BatchScheduler sched(engine, cfg);

  // Slow down the first chunk of the LATE layers only: one worker crawls
  // through batch 1's tail while the other drains its own chunks fast and
  // has nothing left of batch 1 to steal — the only work available is
  // batch 2's early layers, which the graph must hand it.
  const int late = static_cast<int>(net->num_layers()) / 2;
  sched.test_item_hook = [late](int layer, int item) {
    if (layer >= late && item >= 0 && item < 2)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
  };

  dnn::Tensor in1(4, net->in_c(), net->in_h(), net->in_w());
  dnn::Tensor in2(4, net->in_c(), net->in_h(), net->in_w());
  in1.randomize_batch(1);
  in2.randomize_batch(2);
  const BatchTicket t1 = sched.submit(*net, std::move(in1));
  const BatchTicket t2 = sched.submit(*net, std::move(in2));
  const BatchResult r1 = sched.wait(t1);
  const BatchResult r2 = sched.wait(t2);

  // Batch 2 must have entered the network before batch 1 left it.
  EXPECT_GT(r2.exec.overlap_task_starts, 0u);
  EXPECT_GT(r2.exec.overlap_first_layer_starts, 0u);
  EXPECT_EQ(r1.exec.overlap_task_starts, 0u);  // nothing older than batch 1
  EXPECT_GT(r1.exec.workers, 1);
  EXPECT_GT(r1.exec.occupancy(), 0.0);
  EXPECT_LE(r1.exec.occupancy(), 1.0);

  // Overlap must not have corrupted either batch.
  sched.test_item_hook = nullptr;
  for (int k = 0; k < 2; ++k) {
    dnn::Tensor in(4, net->in_c(), net->in_h(), net->in_w());
    in.randomize_batch(static_cast<std::uint64_t>(1 + k));
    const BatchResult ref = sched.wait(sched.submit(*net, std::move(in)));
    const BatchResult& got = k == 0 ? r1 : r2;
    ASSERT_EQ(got.output.size(), ref.output.size());
    EXPECT_EQ(std::memcmp(got.output.data(), ref.output.data(),
                          ref.output.size() * sizeof(float)),
              0)
        << "batch " << k;
  }
}

// Batches that share NO tensors build no hazard edges against each other;
// only the launch-time sink-to-sink chain keeps completion FIFO. The fast
// batch here would finish first without it, and retire() would pop (and
// destroy) the wrong, still-executing batch.
TEST(WorkGraph, DisjointKeyBatchesCompleteFifo) {
  ThreadPool pool(4);
  WorkGraph graph(pool);
  std::mutex mu;
  std::vector<int> order;
  int key_a = 0, key_b = 0;

  GraphBatchSpec slow;
  slow.items = 4;
  slow.chunks = 4;
  GraphLayerSpec la;
  la.inputs = {-1};
  la.out_key = &key_a;
  la.run = [](int, int, int, dnn::LayerRecord&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  };
  slow.layers.push_back(la);
  slow.final_read_keys = {&key_a};
  slow.on_done = [&](GraphBatchResult&&) {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(1);
  };

  GraphBatchSpec fast;
  fast.items = 1;
  fast.chunks = 1;
  GraphLayerSpec lb;
  lb.inputs = {-1};
  lb.out_key = &key_b;  // disjoint from key_a: no WAR/WAW edge possible
  lb.run = [](int, int, int, dnn::LayerRecord&) {};
  fast.layers.push_back(lb);
  fast.on_done = [&](GraphBatchResult&&) {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(2);
  };

  graph.launch(std::move(slow));
  graph.launch(std::move(fast));
  graph.drain();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(graph.live_batches(), 0);
}

// launch() must validate the whole spec before registering anything: a
// malformed LATER layer may not leave edges from a live batch's nodes into
// the rejected (destroyed) batch, nor stale live_touch_ entries.
TEST(WorkGraph, RejectsMalformedSpecWithoutTouchingLiveBatches) {
  ThreadPool pool(2);
  WorkGraph graph(pool);
  int key0 = 0, key1 = 0;
  std::atomic<int> completed{0};

  const auto make_valid = [&](int sleep_ms) {
    GraphBatchSpec s;
    s.items = 2;
    s.chunks = 2;
    GraphLayerSpec l0;
    l0.inputs = {-1};
    l0.out_key = &key0;
    l0.run = [sleep_ms](int, int, int, dnn::LayerRecord&) {
      if (sleep_ms > 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    };
    GraphLayerSpec l1;
    l1.inputs = {0};
    l1.out_key = &key1;
    l1.run = [](int, int, int, dnn::LayerRecord&) {};
    s.layers = {l0, l1};
    s.final_read_keys = {&key1};
    s.on_done = [&](GraphBatchResult&& res) {
      if (!res.error) completed.fetch_add(1);
    };
    return s;
  };

  graph.launch(make_valid(3));

  // Layer 0 shares key0 with the live batch (would register cross-batch
  // edges); layer 1 is malformed — the whole spec must be rejected first.
  GraphBatchSpec bad = make_valid(0);
  bad.layers[1].out_key = nullptr;
  EXPECT_THROW(graph.launch(std::move(bad)), InvalidArgument);

  GraphBatchSpec self_input = make_valid(0);
  self_input.layers[1].inputs = {1};  // inputs must precede the layer
  EXPECT_THROW(graph.launch(std::move(self_input)), InvalidArgument);

  // The live batch and a subsequent one on the same keys still run clean.
  graph.launch(make_valid(0));
  graph.drain();
  EXPECT_EQ(completed.load(), 2);
  EXPECT_EQ(graph.live_batches(), 0);
}

// The reviewer scenario end-to-end: BatchScheduler::submit accepts a
// different Network per call, so two in-flight batches may share no tensor
// keys at all. The hook slows only the older batch (items >= 4 exist only
// there), so absent the FIFO sink chain the younger batch would complete
// first. Runs under TSan in CI (job regex includes WorkGraph).
TEST(WorkGraph, DistinctNetworksInFlightRetireFifo) {
  auto net_a = dnn::build_vgg16(32, 4);
  auto net_b = dnn::build_vgg16(32, 4);
  core::ConvolutionEngine engine(core::EnginePolicy::opt6loop());
  SchedulerConfig cfg;
  cfg.threads = 2;
  BatchScheduler sched(engine, cfg);
  sched.test_item_hook = [](int, int item) {
    if (item >= 4) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  };

  dnn::Tensor in_a(8, net_a->in_c(), net_a->in_h(), net_a->in_w());
  dnn::Tensor in_b(2, net_b->in_c(), net_b->in_h(), net_b->in_w());
  in_a.randomize_batch(7);
  in_b.randomize_batch(8);
  const BatchTicket ta = sched.submit(*net_a, std::move(in_a));
  const BatchTicket tb = sched.submit(*net_b, std::move(in_b));
  const BatchResult ra = sched.wait(ta);
  const BatchResult rb = sched.wait(tb);

  // Neither batch may be corrupted by the overlap: both must match a fresh
  // un-overlapped run of the same (network, input).
  sched.test_item_hook = nullptr;
  for (int k = 0; k < 2; ++k) {
    dnn::Network& net = k == 0 ? *net_a : *net_b;
    dnn::Tensor in(k == 0 ? 8 : 2, net.in_c(), net.in_h(), net.in_w());
    in.randomize_batch(static_cast<std::uint64_t>(7 + k));
    const BatchResult ref = sched.wait(sched.submit(net, std::move(in)));
    const BatchResult& got = k == 0 ? ra : rb;
    ASSERT_EQ(got.output.size(), ref.output.size()) << "net " << k;
    EXPECT_EQ(std::memcmp(got.output.data(), ref.output.data(),
                          ref.output.size() * sizeof(float)),
              0)
        << "net " << k;
  }
}

// Random per-chunk delays shake the interleaving; outputs and merged record
// order must not move. Runs under TSan in CI (job regex includes WorkGraph).
TEST(WorkGraphStress, RandomSleepsNeverChangeOutputsOrRecordOrder) {
  core::EnginePolicy resident = core::EnginePolicy::fused();
  resident.weight_resident = true;
  for (const auto& m : kModels) {
    auto net = m.build();
    const std::vector<float> ref = test::sequential_forward(
        *net, core::BackendPlan::uniform(resident), make_input(*net, 6));
    std::atomic<std::uint32_t> salt{0};
    const auto jitter = [&salt](int layer, int item) {
      // Cheap per-call pseudo-random delay, deliberately unsynchronized
      // with the schedule (0-200us).
      std::uint32_t x =
          salt.fetch_add(1, std::memory_order_relaxed) * 2654435761u +
          static_cast<std::uint32_t>(layer * 131 + item * 31);
      x ^= x >> 13;
      std::this_thread::sleep_for(std::chrono::microseconds(x % 200));
    };
    // Batch 1 is one chunk per layer; batch 6 splits unevenly over 4 and 8
    // workers.
    for (int batch : {1, 6}) {
      const SchedRun one = run_sched(*net, resident, batch, 1);
      for (int threads : {1, 2, 4, 8}) {
        for (int round = 0; round < 2; ++round) {
          const std::string tag = std::string(m.tag) +
                                  " batch=" + std::to_string(batch) +
                                  " threads=" + std::to_string(threads) +
                                  " round=" + std::to_string(round);
          const SchedRun got =
              run_sched(*net, resident, batch, threads, jitter);
          expect_prefix_of(got.output, ref, batch, 6, tag);
          expect_same_records(got.records, one.records, tag);
        }
      }
    }
  }
}

}  // namespace
}  // namespace vlacnn::runtime
