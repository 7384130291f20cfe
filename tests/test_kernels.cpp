// Auxiliary convolutional-layer kernels: VLA versions vs scalar references.

#include <gtest/gtest.h>

#include <vector>

#include "dnn/kernels.hpp"
#include "test_util.hpp"

namespace vlacnn::dnn {
namespace {

using test::allclose;
using test::random_vec;

class KernelsTest : public ::testing::TestWithParam<unsigned> {
 protected:
  vla::VectorEngine engine() { return vla::VectorEngine(GetParam()); }
  // Sizes chosen to exercise both full strips and tails.
  static constexpr int kChannels = 5;
  static constexpr int kSpatial = 77;
  static constexpr std::size_t kN = kChannels * kSpatial;
};

TEST_P(KernelsTest, Fill) {
  auto eng = engine();
  std::vector<float> got(kN, -1.0f);
  fill_cpu(eng, kN, 2.5f, got.data());
  EXPECT_EQ(got, std::vector<float>(kN, 2.5f));
}

TEST_P(KernelsTest, Copy) {
  auto eng = engine();
  auto src = random_vec(kN, 1);
  std::vector<float> got(kN, 0.0f);
  copy_cpu(eng, kN, src.data(), got.data());
  EXPECT_EQ(got, src);
}

TEST_P(KernelsTest, Normalize) {
  auto eng = engine();
  auto x = random_vec(kN, 2);
  auto want = x;
  auto mean = random_vec(kChannels, 3, -0.5f, 0.5f);
  auto var = random_vec(kChannels, 4, 0.5f, 2.0f);
  normalize_cpu(eng, x.data(), mean.data(), var.data(), kChannels, kSpatial);
  normalize_ref(want.data(), mean.data(), var.data(), kChannels, kSpatial);
  EXPECT_TRUE(allclose(x.data(), want.data(), kN, 1e-5f, 1e-6f));
}

TEST_P(KernelsTest, AddBias) {
  auto eng = engine();
  auto x = random_vec(kN, 5);
  auto want = x;
  auto bias = random_vec(kChannels, 6);
  add_bias(eng, x.data(), bias.data(), kChannels, kSpatial);
  add_bias_ref(want.data(), bias.data(), kChannels, kSpatial);
  EXPECT_EQ(x, want);
}

TEST_P(KernelsTest, ScaleBias) {
  auto eng = engine();
  auto x = random_vec(kN, 7);
  auto want = x;
  auto scale = random_vec(kChannels, 8, 0.5f, 1.5f);
  scale_bias(eng, x.data(), scale.data(), kChannels, kSpatial);
  scale_bias_ref(want.data(), scale.data(), kChannels, kSpatial);
  EXPECT_EQ(x, want);
}

TEST_P(KernelsTest, ActivationsMatchReference) {
  for (auto act : {Activation::Linear, Activation::Relu, Activation::Leaky,
                   Activation::Logistic}) {
    auto eng = engine();
    auto x = random_vec(kN, 9, -3.0f, 3.0f);
    auto want = x;
    activate_array(eng, x.data(), kN, act);
    activate_ref(want.data(), kN, act);
    EXPECT_TRUE(allclose(x.data(), want.data(), kN, 1e-5f, 1e-6f))
        << to_string(act);
  }
}

TEST_P(KernelsTest, LeakySemantics) {
  auto eng = engine();
  std::vector<float> x = {-10.0f, -1.0f, 0.0f, 1.0f, 10.0f};
  activate_array(eng, x.data(), x.size(), Activation::Leaky);
  EXPECT_FLOAT_EQ(x[0], -1.0f);
  EXPECT_FLOAT_EQ(x[1], -0.1f);
  EXPECT_FLOAT_EQ(x[2], 0.0f);
  EXPECT_FLOAT_EQ(x[3], 1.0f);
  EXPECT_FLOAT_EQ(x[4], 10.0f);
}

TEST_P(KernelsTest, Axpy) {
  auto eng = engine();
  auto x = random_vec(kN, 10);
  auto y = random_vec(kN, 11);
  auto want = y;
  axpy_cpu(eng, kN, 2.0f, x.data(), y.data());
  for (std::size_t i = 0; i < kN; ++i) want[i] += 2.0f * x[i];
  EXPECT_TRUE(allclose(y.data(), want.data(), kN, 1e-6f, 1e-6f));
}

INSTANTIATE_TEST_SUITE_P(VectorLengths, KernelsTest,
                         ::testing::Values(128u, 512u, 2048u, 16384u),
                         [](const auto& info) {
                           return "vl" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace vlacnn::dnn
