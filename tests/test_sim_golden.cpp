// Golden simulated statistics: every TimingStats / CacheStats / prefetcher
// field, the DRAM fills and the TLB misses of one small network under four
// machine configurations, pinned exactly. The simulator's hot paths (cache
// lookup, timing-model issue, address translation) may be restructured for
// speed only if every number here stays bit-identical; a change that moves
// one is a model change and re-pins this table on purpose. On a mismatch
// the test prints the observed table in the literal form used below.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/conv_engine.hpp"
#include "dnn/exec_context.hpp"
#include "dnn/models.hpp"
#include "sim/address_map.hpp"
#include "sim/sim_context.hpp"
#include "vla/vector_engine.hpp"

namespace vlacnn::sim {
namespace {

using Snapshot = std::vector<std::pair<std::string, std::uint64_t>>;

void add_cache(Snapshot& s, const std::string& level, const CacheStats& c) {
  s.emplace_back(level + ".accesses", c.accesses);
  s.emplace_back(level + ".misses", c.misses);
  s.emplace_back(level + ".evictions", c.evictions);
  s.emplace_back(level + ".writebacks", c.writebacks);
  s.emplace_back(level + ".prefetch_fills", c.prefetch_fills);
}

/// Simulates YOLOv3's first four layers at 48x48 (two 3x3 stride-1 convs,
/// one stride-2 conv, one 1x1 conv) from a freshly reset address map and
/// returns every statistic the simulator keeps.
Snapshot simulate(const MachineConfig& machine,
                  const core::EnginePolicy& policy) {
  AddressMap::instance().reset();
  auto net = dnn::build_yolov3(48, 4);
  SimContext sctx(machine);
  vla::VectorEngine eng(sctx);
  dnn::ExecContext ctx(eng);
  core::ConvolutionEngine engine(policy);
  engine.install(ctx);
  dnn::Tensor input(net->in_c(), net->in_h(), net->in_w());
  Rng rng(7);
  input.randomize(rng, 0.0f, 1.0f);
  engine.prepare(*net);
  net->forward(ctx, input);
  sctx.cycles();

  Snapshot s;
  const TimingStats& t = sctx.timing().stats();
  s.emplace_back("timing.cycles", t.cycles);
  s.emplace_back("timing.vector_instructions", t.vector_instructions);
  s.emplace_back("timing.scalar_ops", t.scalar_ops);
  s.emplace_back("timing.elements", t.elements);
  s.emplace_back("timing.flops", t.flops);
  s.emplace_back("timing.vl_sample_count", t.vl_sample_count);
  s.emplace_back("timing.mem_stall_cycles", t.mem_stall_cycles);
  s.emplace_back("timing.issue_stall_cycles", t.issue_stall_cycles);
  const MemorySystem& m = sctx.memory();
  add_cache(s, "l1", m.l1_stats());
  add_cache(s, "l2", m.l2_stats());
  if (const CacheStats* vc = m.vector_cache_stats()) add_cache(s, "vcache", *vc);
  if (const PrefetcherStats* p = m.prefetcher_stats()) {
    s.emplace_back("prefetcher.trained_streams", p->trained_streams);
    s.emplace_back("prefetcher.issued", p->issued);
    s.emplace_back("prefetcher.useful_fills", p->useful_fills);
  }
  s.emplace_back("dram_line_fills", m.dram_line_fills());
  s.emplace_back("tlb_misses", m.tlb_misses());
  AddressMap::instance().reset();
  return s;
}

void expect_snapshot(const Snapshot& got, const Snapshot& want) {
  bool same = got.size() == want.size();
  for (std::size_t i = 0; same && i < got.size(); ++i)
    same = got[i] == want[i];
  if (same) return;
  std::string table;
  for (const auto& [name, value] : got)
    table += "      {\"" + name + "\", " + std::to_string(value) + "},\n";
  ADD_FAILURE() << "simulated statistics moved; observed:\n" << table;
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].first, want[i].first);
    EXPECT_EQ(got[i].second, want[i].second) << got[i].first;
  }
}

TEST(SimGolden, RvvGem5At512BitOpt6) {
  expect_snapshot(simulate(rvv_gem5().with_vlen(512),
                           core::EnginePolicy::opt6loop()),
                  {
                      {"timing.cycles", 25311230},
                      {"timing.vector_instructions", 2113188},
                      {"timing.scalar_ops", 2044815},
                      {"timing.elements", 31355840},
                      {"timing.flops", 50135040},
                      {"timing.vl_sample_count", 1988872},
                      {"timing.mem_stall_cycles", 13661744},
                      {"timing.issue_stall_cycles", 21144347},
                      {"l1.accesses", 1526016},
                      {"l1.misses", 176},
                      {"l1.evictions", 20},
                      {"l1.writebacks", 0},
                      {"l1.prefetch_fills", 0},
                      {"l2.accesses", 309718},
                      {"l2.misses", 53796},
                      {"l2.evictions", 37412},
                      {"l2.writebacks", 32407},
                      {"l2.prefetch_fills", 0},
                      {"vcache.accesses", 525594},
                      {"vcache.misses", 309542},
                      {"vcache.evictions", 309510},
                      {"vcache.writebacks", 128078},
                      {"vcache.prefetch_fills", 0},
                      {"dram_line_fills", 53796},
                      {"tlb_misses", 0},
                  });
}

TEST(SimGolden, RvvGem5At16384BitOpt6) {
  expect_snapshot(simulate(rvv_gem5().with_vlen(16384),
                           core::EnginePolicy::opt6loop()),
                  {
                      {"timing.cycles", 10720056},
                      {"timing.vector_instructions", 174197},
                      {"timing.scalar_ops", 190973},
                      {"timing.elements", 31355840},
                      {"timing.flops", 50135040},
                      {"timing.vl_sample_count", 146916},
                      {"timing.mem_stall_cycles", 12167108},
                      {"timing.issue_stall_cycles", 10345634},
                      {"l1.accesses", 82912},
                      {"l1.misses", 176},
                      {"l1.evictions", 20},
                      {"l1.writebacks", 0},
                      {"l1.prefetch_fills", 0},
                      {"l2.accesses", 309718},
                      {"l2.misses", 55745},
                      {"l2.evictions", 39361},
                      {"l2.writebacks", 33470},
                      {"l2.prefetch_fills", 0},
                      {"vcache.accesses", 509958},
                      {"vcache.misses", 309542},
                      {"vcache.evictions", 309510},
                      {"vcache.writebacks", 128078},
                      {"vcache.prefetch_fills", 0},
                      {"dram_line_fills", 55745},
                      {"tlb_misses", 0},
                  });
}

TEST(SimGolden, RvvGem5At16384BitL2_256MB) {
  // perfbench's rvv16k point: long vectors over a 256 MB L2, whose 4M
  // lines the run touches only sparsely.
  const MachineConfig rvv16k =
      rvv_gem5().with_vlen(16384).with_l2_size(256ull << 20);
  expect_snapshot(simulate(rvv16k, core::EnginePolicy::opt6loop()),
                  {
                      {"timing.cycles", 9190139},
                      {"timing.vector_instructions", 174197},
                      {"timing.scalar_ops", 190973},
                      {"timing.elements", 31355840},
                      {"timing.flops", 50135040},
                      {"timing.vl_sample_count", 146916},
                      {"timing.mem_stall_cycles", 8816768},
                      {"timing.issue_stall_cycles", 8815717},
                      {"l1.accesses", 82912},
                      {"l1.misses", 176},
                      {"l1.evictions", 20},
                      {"l1.writebacks", 0},
                      {"l1.prefetch_fills", 0},
                      {"l2.accesses", 309718},
                      {"l2.misses", 31814},
                      {"l2.evictions", 0},
                      {"l2.writebacks", 0},
                      {"l2.prefetch_fills", 0},
                      {"vcache.accesses", 509958},
                      {"vcache.misses", 309542},
                      {"vcache.evictions", 309510},
                      {"vcache.writebacks", 128078},
                      {"vcache.prefetch_fills", 0},
                      {"dram_line_fills", 31814},
                      {"tlb_misses", 0},
                  });
}

TEST(SimGolden, SveGem5At2048BitWinograd) {
  expect_snapshot(simulate(sve_gem5().with_vlen(2048),
                           core::EnginePolicy::winograd()),
                  {
                      {"timing.cycles", 10932646},
                      {"timing.vector_instructions", 462334},
                      {"timing.scalar_ops", 331374},
                      {"timing.elements", 25901824},
                      {"timing.flops", 34242560},
                      {"timing.vl_sample_count", 434368},
                      {"timing.mem_stall_cycles", 12564884},
                      {"timing.issue_stall_cycles", 10112094},
                      {"l1.accesses", 1091184},
                      {"l1.misses", 333575},
                      {"l1.evictions", 332551},
                      {"l1.writebacks", 97201},
                      {"l1.prefetch_fills", 0},
                      {"l2.accesses", 333575},
                      {"l2.misses", 50692},
                      {"l2.evictions", 34308},
                      {"l2.writebacks", 28224},
                      {"l2.prefetch_fills", 0},
                      {"dram_line_fills", 50692},
                      {"tlb_misses", 0},
                  });
}

TEST(SimGolden, A64fxOpt6) {
  expect_snapshot(simulate(a64fx(), core::EnginePolicy::opt6loop()),
                  {
                      {"timing.cycles", 4053724},
                      {"timing.vector_instructions", 2113188},
                      {"timing.scalar_ops", 2044815},
                      {"timing.elements", 31355840},
                      {"timing.flops", 50135040},
                      {"timing.vl_sample_count", 1988872},
                      {"timing.mem_stall_cycles", 2448763},
                      {"timing.issue_stall_cycles", 0},
                      {"l1.accesses", 2039782},
                      {"l1.misses", 7823},
                      {"l1.evictions", 66104},
                      {"l1.writebacks", 30365},
                      {"l1.prefetch_fills", 58537},
                      {"l2.accesses", 7823},
                      {"l2.misses", 3565},
                      {"l2.evictions", 0},
                      {"l2.writebacks", 0},
                      {"l2.prefetch_fills", 2915},
                      {"prefetcher.trained_streams", 174752},
                      {"prefetcher.issued", 4403832},
                      {"prefetcher.useful_fills", 54268},
                      {"dram_line_fills", 3565},
                      {"tlb_misses", 13910},
                  });
}

}  // namespace
}  // namespace vlacnn::sim
