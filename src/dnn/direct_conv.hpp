#pragma once

#include "dnn/conv_desc.hpp"
#include "vla/vector_engine.hpp"

namespace vlacnn::dnn {

/// VLA direct convolution (no im2col): vectorizes along the output row, so
/// every memory access is unit-stride for stride-1 layers.
///
/// The paper's background (§II-B) notes that "the Direct algorithm is
/// better for 1x1 kernel sizes": it avoids materializing the K x N im2col
/// matrix entirely — for 1x1 that matrix equals the input, and for small
/// channel counts the im2col traffic dominates. This kernel completes the
/// algorithm portfolio so the per-layer selector (core/selector.hpp) can
/// reproduce the paper's "no one-size-fits-all" conclusion.
///
/// Supports stride 1 and 2, any kernel size/padding. Accumulates into
/// `output`, which must be zeroed by the caller (same contract as GEMM).
void direct_conv_vla(vla::VectorEngine& eng, const ConvDesc& d,
                     const float* input, const float* weights, float* output);

}  // namespace vlacnn::dnn
