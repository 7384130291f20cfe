// Functional semantics of the VLA vector engine (no simulator attached):
// strip-mining, every memory-access flavour, arithmetic ops and permutes —
// across several hardware vector lengths.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "test_util.hpp"
#include "vla/vector_engine.hpp"

namespace vlacnn::vla {
namespace {

using test::random_vec;

class VectorEngineTest : public ::testing::TestWithParam<unsigned> {
 protected:
  VectorEngine make() { return VectorEngine(GetParam()); }
};

TEST_P(VectorEngineTest, VlmaxMatchesBits) {
  VectorEngine eng = make();
  EXPECT_EQ(eng.vlmax(), GetParam() / 32);
  EXPECT_EQ(eng.vlen_bits(), GetParam());
}

TEST_P(VectorEngineTest, SetvlGrantsAtMostVlmax) {
  VectorEngine eng = make();
  EXPECT_EQ(eng.setvl(1), 1u);
  EXPECT_EQ(eng.setvl(eng.vlmax()), eng.vlmax());
  EXPECT_EQ(eng.setvl(eng.vlmax() + 100), eng.vlmax());
  EXPECT_EQ(eng.setvl(0), 0u);
}

TEST_P(VectorEngineTest, LoadStoreRoundTrip) {
  VectorEngine eng = make();
  const std::size_t n = eng.vlmax();
  auto src = random_vec(n, 1);
  std::vector<float> dst(n, 0.0f);
  eng.setvl(n);
  eng.vload(3, src.data());
  eng.vstore(3, dst.data());
  EXPECT_EQ(src, dst);
}

TEST_P(VectorEngineTest, PartialStoreOnlyTouchesGvl) {
  VectorEngine eng = make();
  if (eng.vlmax() < 4) GTEST_SKIP();
  const std::size_t n = eng.vlmax();
  auto src = random_vec(n, 2);
  std::vector<float> dst(n, -7.0f);
  eng.setvl(n / 2);
  eng.vload(0, src.data());
  eng.vstore(0, dst.data());
  for (std::size_t i = 0; i < n / 2; ++i) EXPECT_EQ(dst[i], src[i]);
  for (std::size_t i = n / 2; i < n; ++i) EXPECT_EQ(dst[i], -7.0f);
}

TEST_P(VectorEngineTest, StridedLoadStore) {
  VectorEngine eng = make();
  const std::size_t n = eng.vlmax();
  std::vector<float> src(n * 3, 0.0f);
  for (std::size_t i = 0; i < n; ++i) src[3 * i] = static_cast<float>(i) + 1;
  std::vector<float> mid(n, 0.0f);
  eng.setvl(n);
  eng.vload_strided(1, src.data(), 3);
  eng.vstore(1, mid.data());
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(mid[i], static_cast<float>(i) + 1);
}

TEST_P(VectorEngineTest, GatherScatter) {
  VectorEngine eng = make();
  const std::size_t n = eng.vlmax();
  auto base = random_vec(4 * n, 3);
  std::vector<std::int32_t> idx(n);
  for (std::size_t i = 0; i < n; ++i)
    idx[i] = static_cast<std::int32_t>((i * 7) % (4 * n));
  eng.setvl(n);
  eng.vgather(5, base.data(), idx.data());
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_EQ(eng.lane(5, i), base[static_cast<std::size_t>(idx[i])]);
}

TEST_P(VectorEngineTest, ArithmeticOps) {
  VectorEngine eng = make();
  const std::size_t n = eng.vlmax();
  auto a = random_vec(n, 4), b = random_vec(n, 5, 0.5f, 2.0f);
  eng.setvl(n);
  eng.vload(0, a.data());
  eng.vload(1, b.data());

  eng.vadd(2, 0, 1);
  eng.vmul(3, 0, 1);
  eng.vmin(4, 0, 1);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_FLOAT_EQ(eng.lane(2, i), a[i] + b[i]);
    EXPECT_FLOAT_EQ(eng.lane(3, i), a[i] * b[i]);
    EXPECT_FLOAT_EQ(eng.lane(4, i), std::min(a[i], b[i]));
  }
}

TEST_P(VectorEngineTest, ScalarOperandForms) {
  VectorEngine eng = make();
  const std::size_t n = eng.vlmax();
  auto a = random_vec(n, 6);
  eng.setvl(n);
  eng.vload(0, a.data());
  eng.vadd_scalar(1, 0, 2.5f);
  eng.vmul_scalar(2, 0, -3.0f);
  eng.vmax_scalar(3, 0, 0.0f);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_FLOAT_EQ(eng.lane(1, i), a[i] + 2.5f);
    EXPECT_FLOAT_EQ(eng.lane(2, i), a[i] * -3.0f);
    EXPECT_FLOAT_EQ(eng.lane(3, i), std::max(a[i], 0.0f));
  }
}

TEST_P(VectorEngineTest, FmaForms) {
  VectorEngine eng = make();
  const std::size_t n = eng.vlmax();
  auto a = random_vec(n, 7), b = random_vec(n, 8), c = random_vec(n, 9);
  eng.setvl(n);
  eng.vload(0, a.data());
  eng.vload(1, b.data());
  eng.vload(2, c.data());
  eng.vfma(0, 1, 2);  // a += b*c
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_FLOAT_EQ(eng.lane(0, i), a[i] + b[i] * c[i]);
  eng.vload(0, a.data());
  eng.vfma_scalar(0, 1.5f, 1);  // a += 1.5*b
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_FLOAT_EQ(eng.lane(0, i), a[i] + 1.5f * b[i]);
}

TEST_P(VectorEngineTest, Broadcast) {
  VectorEngine eng = make();
  eng.setvl(eng.vlmax());
  eng.vbroadcast(9, 42.0f);
  for (std::size_t i = 0; i < eng.vlmax(); ++i) EXPECT_EQ(eng.lane(9, i), 42.0f);
}

TEST_P(VectorEngineTest, PermuteAndZip) {
  VectorEngine eng = make();
  const std::size_t n = eng.vlmax();
  std::vector<float> a(n);
  for (std::size_t i = 0; i < n; ++i) a[i] = static_cast<float>(i);
  eng.setvl(n);
  eng.vload(0, a.data());

  std::vector<std::int32_t> rev(n);
  for (std::size_t i = 0; i < n; ++i)
    rev[i] = static_cast<std::int32_t>(n - 1 - i);
  eng.vpermute(2, 0, rev.data());
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_EQ(eng.lane(2, i), a[n - 1 - i]);
}

TEST_P(VectorEngineTest, RegisterBoundsChecked) {
  VectorEngine eng = make();
  std::vector<float> buf(eng.vlmax(), 1.0f);
  EXPECT_THROW(eng.vbroadcast(32, 0.0f), InvalidArgument);
  EXPECT_THROW(eng.vbroadcast(-1, 0.0f), InvalidArgument);
  // The inline hot ops keep their register checks.
  EXPECT_THROW(eng.vload(32, buf.data()), InvalidArgument);
  EXPECT_THROW(eng.vstore(32, buf.data()), InvalidArgument);
  EXPECT_THROW(eng.vfma_scalar(32, 1.0f, 0), InvalidArgument);
  EXPECT_THROW(eng.vfma_scalar(0, 1.0f, 32), InvalidArgument);
  EXPECT_THROW(eng.vadd(-1, 0, 1), InvalidArgument);
  EXPECT_EQ(buf, std::vector<float>(eng.vlmax(), 1.0f));
}

INSTANTIATE_TEST_SUITE_P(VectorLengths, VectorEngineTest,
                         ::testing::Values(128u, 512u, 1024u, 2048u, 8192u,
                                           16384u),
                         [](const auto& info) {
                           return "vl" + std::to_string(info.param);
                         });

TEST(VectorEngineEdge, RejectsBadVectorLengths) {
  EXPECT_THROW(VectorEngine(100), InvalidArgument);
  EXPECT_THROW(VectorEngine(64), InvalidArgument);
  EXPECT_THROW(VectorEngine(1 << 20), InvalidArgument);
}

TEST(VectorEngineEdge, FmaRoundsProductAndSumSeparately) {
  // vfma / vfma_scalar model `acc += a * b` with two roundings, never a
  // fused multiply-add: the fp32 bit-identity contracts rely on every
  // kernel translation unit computing the same value. With a = b = 1+2^-12
  // the exact product 1 + 2^-11 + 2^-24 rounds (ties to even) to 1 + 2^-11,
  // so c + a*b is 0 while fmaf keeps the 2^-24 residue.
  const float a = 1.0f + std::ldexp(1.0f, -12);
  const float c = -(1.0f + std::ldexp(1.0f, -11));
  ASSERT_EQ(std::fmaf(a, a, c), std::ldexp(1.0f, -24));
  VectorEngine eng(512);
  eng.setvl(eng.vlmax());
  eng.vbroadcast(1, a);
  eng.vbroadcast(2, a);
  eng.vbroadcast(3, c);
  eng.vfma_scalar(3, a, 1);
  eng.vbroadcast(4, c);
  eng.vfma(4, 1, 2);
  for (std::size_t l = 0; l < eng.vlmax(); ++l) {
    EXPECT_EQ(eng.lane(3, l), 0.0f) << "vfma_scalar lane " << l;
    EXPECT_EQ(eng.lane(4, l), 0.0f) << "vfma lane " << l;
  }
}

TEST(VectorEngineEdge, TailResidueClassesRoundTrip) {
  // Property: copying n elements via strip-mined setvl loops is exact for
  // every residue class of n mod VLMAX.
  VectorEngine eng(512);
  const std::size_t vlmax = eng.vlmax();
  for (std::size_t n = 1; n <= 3 * vlmax + 1; ++n) {
    auto src = random_vec(n, 100 + n);
    std::vector<float> dst(n, 0.0f);
    for (std::size_t i = 0; i < n;) {
      const std::size_t vl = eng.setvl(n - i);
      eng.vload(0, src.data() + i);
      eng.vstore(0, dst.data() + i);
      i += vl;
    }
    ASSERT_EQ(src, dst) << "n=" << n;
  }
}

}  // namespace
}  // namespace vlacnn::vla
