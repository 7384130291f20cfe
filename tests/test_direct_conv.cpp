// Direct (im2col-free) VLA convolution vs references.

#include <gtest/gtest.h>

#include <vector>

#include "dnn/direct_conv.hpp"
#include "test_util.hpp"

namespace vlacnn::dnn {
namespace {

using test::allclose;
using test::random_vec;

struct Shape {
  int c, hw, oc, k, s, p;
};

class DirectConvTest
    : public ::testing::TestWithParam<std::tuple<unsigned, Shape>> {};

TEST_P(DirectConvTest, MatchesReference) {
  const auto [vlen, sh] = GetParam();
  ConvDesc d;
  d.in_c = sh.c;
  d.in_h = d.in_w = sh.hw;
  d.out_c = sh.oc;
  d.ksize = sh.k;
  d.stride = sh.s;
  d.pad = sh.p;
  d.validate();

  auto input = random_vec(static_cast<std::size_t>(d.in_c) * d.in_h * d.in_w, 1);
  auto weights = random_vec(static_cast<std::size_t>(d.weight_count()), 2);
  std::vector<float> want(static_cast<std::size_t>(d.out_c) * d.out_h() *
                              d.out_w(),
                          0.0f);
  std::vector<float> got = want;
  test::conv_direct_ref(d, input.data(), weights.data(), want.data());

  vla::VectorEngine eng(vlen);
  direct_conv_vla(eng, d, input.data(), weights.data(), got.data());
  EXPECT_TRUE(allclose(want.data(), got.data(), got.size(), 1e-4f, 1e-4f));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DirectConvTest,
    ::testing::Combine(::testing::Values(512u, 2048u),
                       ::testing::Values(Shape{3, 12, 4, 1, 1, 0},   // 1x1
                                         Shape{4, 10, 2, 3, 1, 1},   // 3x3/s1
                                         Shape{4, 10, 2, 3, 2, 1},   // 3x3/s2
                                         Shape{2, 9, 3, 5, 1, 2},    // 5x5
                                         Shape{1, 6, 1, 3, 1, 0})),  // no pad
    [](const auto& info) {
      const Shape s = std::get<1>(info.param);
      return "vl" + std::to_string(std::get<0>(info.param)) + "_c" +
             std::to_string(s.c) + "_k" + std::to_string(s.k) + "_s" +
             std::to_string(s.s) + "_p" + std::to_string(s.p);
    });

TEST(DirectConvSem, AccumulatesIntoOutput) {
  ConvDesc d;
  d.in_c = 1;
  d.in_h = d.in_w = 4;
  d.out_c = 1;
  d.ksize = 1;
  d.stride = 1;
  d.pad = 0;
  auto input = random_vec(16, 3);
  float w = 2.0f;
  std::vector<float> out(16, 5.0f);
  vla::VectorEngine eng(512);
  direct_conv_vla(eng, d, input.data(), &w, out.data());
  for (int i = 0; i < 16; ++i)
    EXPECT_FLOAT_EQ(out[static_cast<std::size_t>(i)],
                    5.0f + 2.0f * input[static_cast<std::size_t>(i)]);
}

TEST(DirectConvSem, MatchesIm2colGemmPath) {
  ConvDesc d;
  d.in_c = 8;
  d.in_h = d.in_w = 14;
  d.out_c = 6;
  d.ksize = 3;
  d.stride = 1;
  d.pad = 1;
  auto input = random_vec(static_cast<std::size_t>(d.in_c) * 14 * 14, 7);
  auto weights = random_vec(static_cast<std::size_t>(d.weight_count()), 8);
  std::vector<float> via_direct(static_cast<std::size_t>(d.out_c) * 14 * 14, 0.0f);
  std::vector<float> via_ref = via_direct;
  vla::VectorEngine eng(1024);
  direct_conv_vla(eng, d, input.data(), weights.data(), via_direct.data());
  test::conv_direct_ref(d, input.data(), weights.data(), via_ref.data());
  EXPECT_TRUE(allclose(via_ref.data(), via_direct.data(), via_ref.size(),
                       1e-4f, 1e-4f));
}

}  // namespace
}  // namespace vlacnn::dnn
