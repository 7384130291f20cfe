#include "dnn/models.hpp"

#include <cstdio>

#include "common/error.hpp"

namespace vlacnn::dnn {

namespace {

/// Builder wrapper that stops adding layers once the truncation limit is
/// reached (mirrors simulating only a network prefix in gem5).
class TruncatedBuilder {
 public:
  TruncatedBuilder(Network& net, int max_layers)
      : net_(net), max_layers_(max_layers) {}

  [[nodiscard]] bool full() const {
    return max_layers_ >= 0 &&
           static_cast<int>(net_.num_layers()) >= max_layers_;
  }

  int conv(int out_c, int k, int s, int pad,
           Activation act = Activation::Leaky, bool bn = true) {
    if (full()) return -1;
    return net_.add_conv(out_c, k, s, pad, act, bn);
  }
  void maxpool(int size, int stride) {
    if (!full()) net_.add_maxpool(size, stride);
  }
  void route(const std::vector<int>& from) {
    if (!full()) net_.add_route(from);
  }
  void shortcut(int from) {
    if (!full()) net_.add_shortcut(from, Activation::Linear);
  }
  void upsample() {
    if (!full()) net_.add_upsample();
  }
  void connected(int out_n, Activation act) {
    if (!full()) net_.add_connected(out_n, act);
  }
  void softmax() {
    if (!full()) net_.add_softmax();
  }
  void yolo() {
    if (!full()) net_.add_yolo();
  }

  [[nodiscard]] int last() const { return static_cast<int>(net_.num_layers()) - 1; }

 private:
  Network& net_;
  int max_layers_;
};

/// One Darknet-53 residual block: 1x1 bottleneck, 3x3 expand, shortcut.
void residual_block(TruncatedBuilder& b, int channels) {
  const int anchor = b.last();
  b.conv(channels / 2, 1, 1, 0);
  b.conv(channels, 3, 1, 1);
  if (!b.full()) b.shortcut(anchor);
}

}  // namespace

std::unique_ptr<Network> build_yolov3(int input_hw, int max_layers,
                                      std::uint64_t seed) {
  VLACNN_REQUIRE(input_hw % 32 == 0 || max_layers > 0,
                 "full YOLOv3 needs input divisible by 32");
  auto net = std::make_unique<Network>(3, input_hw, input_hw, seed);
  TruncatedBuilder b(*net, max_layers);

  // ---- Darknet-53 backbone (layers 0..74) ----
  b.conv(32, 3, 1, 1);        // 0
  b.conv(64, 3, 2, 1);        // 1
  residual_block(b, 64);      // 2,3,4
  b.conv(128, 3, 2, 1);       // 5
  for (int i = 0; i < 2; ++i) residual_block(b, 128);   // 6..11
  b.conv(256, 3, 2, 1);       // 12
  for (int i = 0; i < 8; ++i) residual_block(b, 256);   // 13..36
  b.conv(512, 3, 2, 1);       // 37
  for (int i = 0; i < 8; ++i) residual_block(b, 512);   // 38..61
  b.conv(1024, 3, 2, 1);      // 62
  for (int i = 0; i < 4; ++i) residual_block(b, 1024);  // 63..74

  // ---- detection head, scale 1 (stride 32) ----
  b.conv(512, 1, 1, 0);   // 75
  b.conv(1024, 3, 1, 1);  // 76
  b.conv(512, 1, 1, 0);   // 77
  b.conv(1024, 3, 1, 1);  // 78
  const int l79 = b.conv(512, 1, 1, 0);   // 79
  b.conv(1024, 3, 1, 1);  // 80
  b.conv(255, 1, 1, 0, Activation::Linear, false);  // 81
  b.yolo();               // 82

  // ---- scale 2 (stride 16) ----
  b.route({l79});         // 83
  b.conv(256, 1, 1, 0);   // 84
  b.upsample();           // 85
  if (!b.full()) b.route({b.last(), 61});  // 86: concat with backbone L61
  b.conv(256, 1, 1, 0);   // 87
  b.conv(512, 3, 1, 1);   // 88
  b.conv(256, 1, 1, 0);   // 89
  b.conv(512, 3, 1, 1);   // 90
  const int l91 = b.conv(256, 1, 1, 0);   // 91
  b.conv(512, 3, 1, 1);   // 92
  b.conv(255, 1, 1, 0, Activation::Linear, false);  // 93
  b.yolo();               // 94

  // ---- scale 3 (stride 8) ----
  b.route({l91});         // 95
  b.conv(128, 1, 1, 0);   // 96
  b.upsample();           // 97
  if (!b.full()) b.route({b.last(), 36});  // 98: concat with backbone L36
  b.conv(128, 1, 1, 0);   // 99
  b.conv(256, 3, 1, 1);   // 100
  b.conv(128, 1, 1, 0);   // 101
  b.conv(256, 3, 1, 1);   // 102
  b.conv(128, 1, 1, 0);   // 103
  b.conv(256, 3, 1, 1);   // 104
  b.conv(255, 1, 1, 0, Activation::Linear, false);  // 105
  b.yolo();               // 106

  return net;
}

std::unique_ptr<Network> build_yolov3_tiny(int input_hw, int max_layers,
                                           std::uint64_t seed) {
  auto net = std::make_unique<Network>(3, input_hw, input_hw, seed);
  TruncatedBuilder b(*net, max_layers);

  b.conv(16, 3, 1, 1);    // 0
  b.maxpool(2, 2);        // 1
  b.conv(32, 3, 1, 1);    // 2
  b.maxpool(2, 2);        // 3
  b.conv(64, 3, 1, 1);    // 4
  b.maxpool(2, 2);        // 5
  b.conv(128, 3, 1, 1);   // 6
  b.maxpool(2, 2);        // 7
  const int l8 = b.conv(256, 3, 1, 1);  // 8
  b.maxpool(2, 2);        // 9
  b.conv(512, 3, 1, 1);   // 10
  b.maxpool(2, 1);        // 11 (stride-1 pool keeps size)
  b.conv(1024, 3, 1, 1);  // 12
  const int l13 = b.conv(256, 1, 1, 0);  // 13
  b.conv(512, 3, 1, 1);   // 14
  b.conv(255, 1, 1, 0, Activation::Linear, false);  // 15
  b.yolo();               // 16
  b.route({l13});         // 17
  b.conv(128, 1, 1, 0);   // 18
  b.upsample();           // 19
  if (!b.full()) b.route({b.last(), l8});  // 20
  b.conv(256, 3, 1, 1);   // 21
  b.conv(255, 1, 1, 0, Activation::Linear, false);  // 22
  b.yolo();               // 23

  return net;
}

std::unique_ptr<Network> build_vgg16(int input_hw, int max_layers,
                                     std::uint64_t seed) {
  VLACNN_REQUIRE(input_hw % 32 == 0 || max_layers > 0,
                 "full VGG16 needs input divisible by 32");
  auto net = std::make_unique<Network>(3, input_hw, input_hw, seed);
  TruncatedBuilder b(*net, max_layers);
  const auto relu = Activation::Relu;

  const int widths[5] = {64, 128, 256, 512, 512};
  const int depth[5] = {2, 2, 3, 3, 3};
  for (int block = 0; block < 5; ++block) {
    for (int i = 0; i < depth[block]; ++i)
      b.conv(widths[block], 3, 1, 1, relu, /*bn=*/false);
    b.maxpool(2, 2);
  }
  b.connected(4096, relu);
  b.connected(4096, relu);
  b.connected(1000, Activation::Linear);
  b.softmax();
  return net;
}

std::unique_ptr<Network> build_yolov3_prefix_20(int input_hw,
                                                std::uint64_t seed) {
  // First 20 layers contain 15 convolutional layers (paper §VI-B).
  auto net = build_yolov3(input_hw, 20, seed);
  VLACNN_ASSERT(net->num_layers() == 20, "prefix truncation mismatch");
  VLACNN_ASSERT(net->num_conv_layers() == 15, "conv count mismatch (want 15)");
  return net;
}

std::unique_ptr<Network> build_yolov3_first4conv(int input_hw,
                                                 std::uint64_t seed) {
  // Layers 0..3 are conv,conv,conv,conv (the 4th residual add is layer 4).
  auto net = build_yolov3(input_hw, 4, seed);
  VLACNN_ASSERT(net->num_conv_layers() == 4, "conv count mismatch (want 4)");
  return net;
}

int model_input_hw(const std::string& model, int requested_hw) {
  if (model == "vgg" || model == "yolo")
    return requested_hw % 32 == 0 ? requested_hw : 64;
  return requested_hw;
}

void warn_if_input_resized(const std::string& model, int requested_hw) {
  const int hw = model_input_hw(model, requested_hw);
  if (hw != requested_hw)
    std::fprintf(stderr,
                 "warning: --model=%s needs --input divisible by 32; "
                 "using %d instead of the requested %d\n",
                 model.c_str(), hw, requested_hw);
}

std::unique_ptr<Network> build_model(const std::string& model,
                                     int requested_hw, int max_layers,
                                     std::uint64_t seed) {
  const int hw = model_input_hw(model, requested_hw);
  if (model == "vgg") return build_vgg16(hw, max_layers, seed);
  if (model == "yolo") return build_yolov3(hw, max_layers, seed);
  VLACNN_REQUIRE(model == "tiny", "unknown model (tiny|vgg|yolo): " + model);
  return build_yolov3_tiny(hw, max_layers, seed);
}

}  // namespace vlacnn::dnn
