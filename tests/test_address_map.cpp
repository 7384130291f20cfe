// Deterministic host->simulated address translation.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "sim/address_map.hpp"

namespace vlacnn::sim {
namespace {

class AddressMapTest : public ::testing::Test {
 protected:
  void SetUp() override { AddressMap::instance().reset(); }
  void TearDown() override { AddressMap::instance().reset(); }
};

TEST_F(AddressMapTest, RegisteredRangeTranslatesByOffset) {
  std::vector<float> buf(1024);
  const std::uint64_t base =
      AddressMap::instance().register_range(buf.data(), buf.size() * 4);
  EXPECT_EQ(AddressMap::instance().translate(buf.data()), base);
  EXPECT_EQ(AddressMap::instance().translate(buf.data() + 100), base + 400);
  AddressMap::instance().unregister_range(buf.data());
}

TEST_F(AddressMapTest, DistinctBuffersDoNotOverlap) {
  std::vector<float> a(256), b(256);
  const auto ba = AddressMap::instance().register_range(a.data(), 1024);
  const auto bb = AddressMap::instance().register_range(b.data(), 1024);
  // 4 KiB page rounding plus a guard page between allocations.
  EXPECT_GE(bb > ba ? bb - ba : ba - bb, 4096u);
  AddressMap::instance().unregister_range(a.data());
  AddressMap::instance().unregister_range(b.data());
}

TEST_F(AddressMapTest, SequentialAssignmentIsDeterministic) {
  // Two allocation "runs" with identical order must produce identical
  // simulated bases regardless of host pointer values.
  std::vector<float> a(64), b(64);
  const auto base_a1 = AddressMap::instance().register_range(a.data(), 256);
  const auto base_b1 = AddressMap::instance().register_range(b.data(), 256);
  AddressMap::instance().unregister_range(a.data());
  AddressMap::instance().unregister_range(b.data());
  AddressMap::instance().reset();

  std::vector<float> c(64), d(64);
  const auto base_a2 = AddressMap::instance().register_range(c.data(), 256);
  const auto base_b2 = AddressMap::instance().register_range(d.data(), 256);
  EXPECT_EQ(base_a1, base_a2);
  EXPECT_EQ(base_b1, base_b2);
  AddressMap::instance().unregister_range(c.data());
  AddressMap::instance().unregister_range(d.data());
}

TEST_F(AddressMapTest, UnregisteredPointerGetsStableScratchMapping) {
  float local[4];
  const auto t1 = AddressMap::instance().translate(&local[0]);
  const auto t2 = AddressMap::instance().translate(&local[0]);
  EXPECT_EQ(t1, t2);
  // Scratch region lives far away from registered space.
  EXPECT_GE(t1, 0x4000'0000'0000ULL);
}

TEST_F(AddressMapTest, RaiiRegistrationUnregistersOnDestruction) {
  std::vector<float> buf(128);
  {
    RegisteredRange reg(buf.data(), 512);
    EXPECT_EQ(AddressMap::instance().live_ranges(), 1u);
  }
  EXPECT_EQ(AddressMap::instance().live_ranges(), 0u);
}

TEST_F(AddressMapTest, RaiiMoveTransfersOwnership) {
  std::vector<float> buf(128);
  RegisteredRange a(buf.data(), 512);
  RegisteredRange b = std::move(a);
  EXPECT_EQ(AddressMap::instance().live_ranges(), 1u);
  RegisteredRange c;
  c = std::move(b);
  EXPECT_EQ(AddressMap::instance().live_ranges(), 1u);
}

TEST_F(AddressMapTest, ReRegistrationAtSameHostBaseTranslatesToNewRange) {
  std::vector<float> buf(1024);
  AddressMap& map = AddressMap::instance();
  const auto first = map.register_range(buf.data(), 4096);
  EXPECT_EQ(map.translate(buf.data() + 10), first + 40);
  map.unregister_range(buf.data());
  const auto second = map.register_range(buf.data(), 2048);
  EXPECT_NE(first, second);
  EXPECT_EQ(map.translate(buf.data() + 10), second + 40);
  // Past the new, shorter range the pointer is no longer registered.
  EXPECT_GE(map.translate(buf.data() + 600), 0x4000'0000'0000ULL);
  map.unregister_range(buf.data());
}

TEST_F(AddressMapTest, LaterRegistrationCoversScratchLine) {
  alignas(64) float buf[64] = {};
  AddressMap& map = AddressMap::instance();
  const auto scratch = map.translate(&buf[3]);
  EXPECT_GE(scratch, 0x4000'0000'0000ULL);
  EXPECT_EQ(map.translate(&buf[4]), scratch + 4);
  const auto base = map.register_range(buf, sizeof(buf));
  EXPECT_EQ(map.translate(&buf[3]), base + 12);
  EXPECT_EQ(map.translate(&buf[4]), base + 16);
  map.unregister_range(buf);
  // The line keeps the scratch address it was first given.
  EXPECT_EQ(map.translate(&buf[3]), scratch);
}

TEST_F(AddressMapTest, RegistrationStartingMidLineSplitsTheLine) {
  alignas(64) float buf[32] = {};
  AddressMap& map = AddressMap::instance();
  const auto base = map.register_range(&buf[4], 16 * sizeof(float));
  const auto scratch = map.translate(&buf[0]);
  EXPECT_GE(scratch, 0x4000'0000'0000ULL);
  EXPECT_EQ(map.translate(&buf[5]), base + 4);
  EXPECT_EQ(map.translate(&buf[1]), scratch + 4);
  EXPECT_EQ(map.translate(&buf[4]), base);
  map.unregister_range(&buf[4]);
}

TEST_F(AddressMapTest, NestedRegistrationWinsInsideItsRange) {
  std::vector<float> buf(1024);
  AddressMap& map = AddressMap::instance();
  const auto outer = map.register_range(buf.data(), 4096);
  const auto inner = map.register_range(buf.data() + 256, 1024);
  EXPECT_EQ(map.translate(buf.data() + 10), outer + 40);
  EXPECT_EQ(map.translate(buf.data() + 300), inner + 4 * 44);
  EXPECT_EQ(map.translate(buf.data() + 11), outer + 44);
  map.unregister_range(buf.data() + 256);
  EXPECT_EQ(map.translate(buf.data() + 300), outer + 1200);
  map.unregister_range(buf.data());
}

TEST_F(AddressMapTest, ResetInvalidatesTranslations) {
  std::vector<float> buf(256);
  AddressMap& map = AddressMap::instance();
  const auto base = map.register_range(buf.data(), 1024);
  EXPECT_EQ(map.translate(buf.data() + 1), base + 4);
  map.reset();
  EXPECT_GE(map.translate(buf.data() + 1), 0x4000'0000'0000ULL);
  const auto again = map.register_range(buf.data() + 64, 512);
  EXPECT_EQ(again, base);  // the bump allocator restarted too
  EXPECT_EQ(map.translate(buf.data() + 65), again + 4);
  map.unregister_range(buf.data() + 64);
}

TEST_F(AddressMapTest, ConcurrentTranslateAndRegister) {
  // Each translating thread owns one registered buffer and must always see
  // its own translation while another thread registers and unregisters
  // unrelated ranges (every registration invalidates all cached ranges).
  constexpr int kTranslators = 3;
  std::vector<std::vector<float>> bufs(kTranslators, std::vector<float>(512));
  std::vector<std::uint64_t> bases;
  for (auto& b : bufs)
    bases.push_back(AddressMap::instance().register_range(b.data(), 2048));
  std::atomic<bool> stop{false};
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kTranslators; ++t) {
    threads.emplace_back([&, t] {
      const float* p = bufs[static_cast<std::size_t>(t)].data();
      const std::uint64_t base = bases[static_cast<std::size_t>(t)];
      for (int i = 0; !stop.load() || i < 20000; ++i) {
        const int k = i % 512;
        if (AddressMap::instance().translate(p + k) != base + 4u * k) ++wrong;
      }
    });
  }
  std::vector<float> other(4096);
  for (int i = 0; i < 2000; ++i) {
    float* q = other.data() + (i % 8) * 512;
    AddressMap::instance().register_range(q, 2048);
    AddressMap::instance().translate(q + 1);
    AddressMap::instance().unregister_range(q);
  }
  stop = true;
  for (auto& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0);
  for (auto& b : bufs) AddressMap::instance().unregister_range(b.data());
}

}  // namespace
}  // namespace vlacnn::sim
