#pragma once

#include <memory>
#include <string>

#include "dnn/network.hpp"

namespace vlacnn::dnn {

/// Model zoo: the three network models the paper evaluates, reconstructed
/// from their Darknet .cfg definitions with deterministic synthetic weights.
///
/// `input_hw` scales the input resolution (must be divisible by 32 for the
/// full models; the paper's Darknet runs resize the 768×576 image to the
/// network input of 608×608). `max_layers` truncates the model to its first
/// N layers — the paper simulates "YOLOv3 (first 20 layers)" and
/// "YOLOv3 (first 4 conv layers)" prefixes to bound gem5 time; we do the
/// same to bound simulation time.

/// YOLOv3: 107 layers, 75 convolutional (Darknet-53 backbone + 3-scale
/// detection head). Conv ordinals match the paper's Table IV "L" numbering.
std::unique_ptr<Network> build_yolov3(int input_hw = 608, int max_layers = -1,
                                      std::uint64_t seed = 1234);

/// YOLOv3-tiny: 24 layers, 13 convolutional.
std::unique_ptr<Network> build_yolov3_tiny(int input_hw = 416,
                                           int max_layers = -1,
                                           std::uint64_t seed = 1234);

/// VGG16: 13 convolutional + 5 maxpool + 3 fully-connected + softmax.
std::unique_ptr<Network> build_vgg16(int input_hw = 224, int max_layers = -1,
                                     std::uint64_t seed = 1234);

/// Truncation helper: the first `n` layers of YOLOv3 such that exactly the
/// paper's workloads are reproduced (20 layers -> 15 conv; 4 conv layers).
std::unique_ptr<Network> build_yolov3_prefix_20(int input_hw = 608,
                                                std::uint64_t seed = 1234);
std::unique_ptr<Network> build_yolov3_first4conv(int input_hw = 608,
                                                 std::uint64_t seed = 1234);

/// The input resolution the named model ("tiny" | "vgg" | "yolo") will
/// actually be built at: the full models need a multiple of 32 and fall back
/// to 64 otherwise; tiny accepts anything. Harnesses compare this against
/// the requested size and warn instead of silently serving a different
/// resolution.
int model_input_hw(const std::string& model, int requested_hw);

/// Prints the one canonical stderr warning when model_input_hw() will
/// adjust `requested_hw` — call before build_model() in any harness taking
/// --model/--input flags so the rounding is never silent.
void warn_if_input_resized(const std::string& model, int requested_hw);

/// Builds "tiny" | "vgg" | "yolo" at model_input_hw(model, requested_hw),
/// truncated to its first `max_layers` layers (-1: all of them). Throws
/// InvalidArgument for an unknown model name.
std::unique_ptr<Network> build_model(const std::string& model,
                                     int requested_hw, int max_layers = -1,
                                     std::uint64_t seed = 1234);

}  // namespace vlacnn::dnn
