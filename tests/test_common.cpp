// Common utilities: deterministic RNG, aligned buffers, table printer, CLI,
// latency percentiles.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/percentile.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"

namespace vlacnn {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_EQ(same, 0);
}

TEST(Rng, FloatsInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const float f = r.next_float();
    ASSERT_GE(f, 0.0f);
    ASSERT_LT(f, 1.0f);
  }
}

TEST(Rng, UniformRespectsBounds) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    const float f = r.uniform(-2.5f, 7.5f);
    ASSERT_GE(f, -2.5f);
    ASSERT_LT(f, 7.5f);
  }
}

TEST(Rng, NormalHasSaneMoments) {
  Rng r(11);
  double sum = 0.0, sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal(1.0f, 2.0f);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 1.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.2);
}

TEST(AlignedBuffer, AlignmentAndSize) {
  AlignedBuffer<float> buf(1000);
  EXPECT_EQ(buf.size(), 1000u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % 256, 0u);
}

TEST(AlignedBuffer, FillAndCopy) {
  AlignedBuffer<float> buf(64, 3.5f);
  for (auto v : buf) ASSERT_EQ(v, 3.5f);
  AlignedBuffer<float> copy = buf;
  copy[0] = -1.0f;
  EXPECT_EQ(buf[0], 3.5f);
  EXPECT_EQ(copy[0], -1.0f);
}

TEST(AlignedBuffer, MoveLeavesSourceEmpty) {
  AlignedBuffer<float> buf(16, 1.0f);
  AlignedBuffer<float> moved = std::move(buf);
  EXPECT_EQ(moved.size(), 16u);
  EXPECT_TRUE(buf.empty());  // NOLINT(bugprone-use-after-move)
}

TEST(AlignedBuffer, ZeroSize) {
  AlignedBuffer<float> buf(0);
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.data(), nullptr);
}

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  const std::string s = t.render("caption");
  EXPECT_NE(s.find("caption"), std::string::npos);
  EXPECT_NE(s.find("longer"), std::string::npos);
  EXPECT_NE(s.find("----"), std::string::npos);
}

TEST(Table, RejectsMismatchedRow) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), InvalidArgument);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(Table::fmt(1.2345, 2), "1.23");
  EXPECT_EQ(Table::fmt_int(-42), "-42");
}

TEST(Percentile, EmptyReturnsZero) {
  EXPECT_EQ(percentile(std::vector<double>{}, 0.5), 0.0);
  EXPECT_EQ(percentile(std::vector<double>{}, 0.0), 0.0);
  EXPECT_EQ(percentile(std::vector<double>{}, 1.0), 0.0);
}

TEST(Percentile, SingleElementIsEveryPercentile) {
  const std::vector<double> v{42.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 42.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 42.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 42.0);
}

TEST(Percentile, InterpolatesBetweenOrderStatistics) {
  const std::vector<double> v{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 40.0);
  // rank 0.5 * 3 = 1.5 -> halfway between 20 and 30.
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 25.0);
  // rank 0.25 * 3 = 0.75 -> 10 + 0.75 * (20 - 10).
  EXPECT_DOUBLE_EQ(percentile(v, 0.25), 17.5);
  // rank 1/3 * 3 = 1 lands exactly on the second order statistic.
  EXPECT_DOUBLE_EQ(percentile(v, 1.0 / 3.0), 20.0);
}

TEST(Percentile, SortsUnsortedInput) {
  const std::vector<double> sorted{10.0, 20.0, 30.0, 40.0};
  const std::vector<double> shuffled{40.0, 10.0, 30.0, 20.0};
  for (double p : {0.0, 0.25, 0.5, 0.9, 1.0})
    EXPECT_DOUBLE_EQ(percentile(shuffled, p), percentile(sorted, p)) << p;
}

TEST(Percentile, RejectsOutOfRangeP) {
  const std::vector<double> v{1.0, 2.0};
  EXPECT_THROW((void)percentile(v, -0.1), InvalidArgument);
  EXPECT_THROW((void)percentile(v, 1.1), InvalidArgument);
}

TEST(Cli, ParsesKeyValueAndFlags) {
  const char* argv[] = {"prog", "--vlen=1024", "--verbose", "pos1",
                        "--scale=0.5"};
  CliArgs args(5, const_cast<char**>(argv));
  EXPECT_EQ(args.get_int("vlen", 0), 1024);
  EXPECT_TRUE(args.get_bool("verbose", false));
  EXPECT_DOUBLE_EQ(args.get_double("scale", 1.0), 0.5);
  EXPECT_EQ(args.get("missing", "dflt"), "dflt");
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "pos1");
}

TEST(Cli, RejectsMalformedNumbers) {
  const char* argv[] = {"prog",       "--input=abc", "--hw=96x", "--empty=",
                        "--rate=0.5s", "--flag",     "--big=99999999999999999999",
                        "--neg=-3",   "--sci=1e-3"};
  CliArgs args(9, const_cast<char**>(argv));
  for (const char* key : {"input", "hw", "empty", "flag", "big"}) {
    EXPECT_THROW((void)args.get_int(key, 0), InvalidArgument) << key;
  }
  EXPECT_THROW((void)args.get_double("rate", 0.0), InvalidArgument);
  try {
    (void)args.get_int("hw", 0);
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("--hw=96x"), std::string::npos);
  }
  EXPECT_EQ(args.get_int("neg", 0), -3);
  EXPECT_DOUBLE_EQ(args.get_double("sci", 0.0), 1e-3);
  EXPECT_EQ(args.get_int("missing", 7), 7);
}

TEST(Cli, RejectsUnknownFlags) {
  const char* argv[] = {"prog", "--figure=fig6", "--quick", "--format=int8",
                        "--check", "pos"};
  const CliArgs args(6, const_cast<char**>(argv));
  EXPECT_NO_THROW(args.require_known({"figure", "quick", "format", "check"}));
  try {
    args.require_known({"figure", "quick", "seed"});
    ADD_FAILURE() << "an unknown flag was accepted";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("--check: unknown flag"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(args.require_known({}), InvalidArgument);
}

}  // namespace
}  // namespace vlacnn
