#include "dnn/layers.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "dnn/im2col.hpp"
#include "dnn/kernels.hpp"

namespace vlacnn::dnn {

// -------------------------------------------------------------------- Layer

int Layer::prepare_batch(const std::vector<const Tensor*>& inputs) {
  VLACNN_REQUIRE(!inputs.empty(), "layer has no inputs");
  for (const Tensor* t : inputs)
    VLACNN_REQUIRE(t != nullptr, "layer input missing");
  const int n = inputs[0]->n();
  for (const Tensor* t : inputs)
    VLACNN_REQUIRE(t->n() == n, "layer inputs disagree on batch size");
  if (output_.n() != n)
    output_.reshape(n, output_.c(), output_.h(), output_.w());
  return n;
}

void Layer::forward(ExecContext& ctx,
                    const std::vector<const Tensor*>& inputs) {
  const int n = prepare_batch(inputs);
  for (int b = 0; b < n; ++b) forward_item(ctx, inputs, b);
}

// ---------------------------------------------------------------- ConvLayer

ConvLayer::ConvLayer(const ConvDesc& desc, std::uint64_t weight_seed)
    : desc_(desc) {
  desc_.validate();
  output_.reshape(desc_.out_c, desc_.out_h(), desc_.out_w());

  const auto wn = static_cast<std::size_t>(desc_.weight_count());
  weights_.resize(wn);
  biases_.resize(static_cast<std::size_t>(desc_.out_c));
  bn_scales_.resize(static_cast<std::size_t>(desc_.out_c));
  bn_mean_.resize(static_cast<std::size_t>(desc_.out_c));
  bn_var_.resize(static_cast<std::size_t>(desc_.out_c));

  // He-style scaling keeps activations O(1) through deep stacks so that the
  // 75-conv YOLOv3 forward pass stays in a numerically healthy range.
  Rng rng(weight_seed);
  const float scale = std::sqrt(2.0f / static_cast<float>(desc_.gemm_k()));
  for (std::size_t i = 0; i < wn; ++i) weights_[i] = rng.normal(0.0f, scale);
  for (int i = 0; i < desc_.out_c; ++i) {
    biases_[static_cast<std::size_t>(i)] = rng.uniform(-0.1f, 0.1f);
    bn_scales_[static_cast<std::size_t>(i)] = rng.uniform(0.9f, 1.1f);
    bn_mean_[static_cast<std::size_t>(i)] = rng.uniform(-0.05f, 0.05f);
    bn_var_[static_cast<std::size_t>(i)] = rng.uniform(0.8f, 1.2f);
  }
  w_reg_ = sim::RegisteredRange(weights_.data(), wn * sizeof(float));
  b_reg_ = sim::RegisteredRange(biases_.data(), biases_.size() * sizeof(float));
  s_reg_ = sim::RegisteredRange(bn_scales_.data(), bn_scales_.size() * sizeof(float));
  m_reg_ = sim::RegisteredRange(bn_mean_.data(), bn_mean_.size() * sizeof(float));
  v_reg_ = sim::RegisteredRange(bn_var_.data(), bn_var_.size() * sizeof(float));
}

std::string ConvLayer::name() const {
  return "conv " + std::to_string(desc_.out_c) + " " +
         std::to_string(desc_.ksize) + "x" + std::to_string(desc_.ksize) + "/" +
         std::to_string(desc_.stride);
}

void run_im2col_gemm(ExecContext& ctx, const ConvDesc& d, const float* input,
                     const float* weights, float* output, const GemmFn& gemm) {
  vla::VectorEngine& eng = ctx.engine();
  const int m = d.gemm_m(), k = d.gemm_k(), n = d.gemm_n();
  fill_cpu(eng, static_cast<std::size_t>(m) * n, 0.0f, output);
  const float* b_matrix = nullptr;
  if (d.ksize == 1 && d.stride == 1 && d.pad == 0) {
    // Darknet skips im2col entirely for 1x1/s1 convolutions.
    b_matrix = input;
  } else {
    float* ws = ctx.workspace(static_cast<std::size_t>(k) * n);
    if (ctx.vectorize_aux_kernels) {
      im2col_vla(eng, d, input, ws);
    } else {
      im2col_ref(d, input, ws);
      // Scalar im2col: ~2 ops per expanded element plus the buffer write
      // traffic (the unvectorized baseline pays for this too).
      eng.scalar_ops(static_cast<std::uint64_t>(k) * n * 2);
      eng.scalar_mem(ws, static_cast<std::size_t>(k) * n * sizeof(float),
                     true);
    }
    b_matrix = ws;
  }
  VLACNN_REQUIRE(static_cast<bool>(gemm),
                 "ExecContext has no GEMM implementation");
  gemm(eng, m, n, k, 1.0f, weights, k, b_matrix, n, output, n);
}

void ConvLayer::forward_item(ExecContext& ctx,
                             const std::vector<const Tensor*>& inputs, int b) {
  VLACNN_REQUIRE(inputs.size() == (residual_from_ >= 0 ? 2u : 1u) &&
                     inputs[0] != nullptr,
                 "conv input count mismatch");
  const Tensor& in = *inputs[0];
  VLACNN_REQUIRE(in.c() == desc_.in_c && in.h() == desc_.in_h &&
                     in.w() == desc_.in_w,
                 "conv input shape mismatch");
  const float* in_b = in.item_data(b);
  float* out_b = output_.item_data(b);
  const std::size_t out_elems = output_.item_size();
  vla::VectorEngine& eng = ctx.engine();

  const float* skip_b = nullptr;
  if (residual_from_ >= 0) {
    VLACNN_REQUIRE(inputs[1] != nullptr &&
                       inputs[1]->item_size() == out_elems,
                   "fused residual shape mismatch");
    skip_b = inputs[1]->item_data(b);
  }

  // Epilogue of this layer: what a fusing backend applies on the output
  // tile in registers. Logistic is a scalar transcendental no backend
  // vectorizes — hand the backend Linear and apply it as a post-pass. The
  // fused residual add sits after the activation, so it is only handed to
  // the backend when the activation itself fuses.
  EpilogueDesc epi;
  epi.batch_norm = desc_.batch_norm;
  if (desc_.batch_norm) {
    epi.bn_mean = bn_mean_.data();
    epi.bn_var = bn_var_.data();
    epi.bn_scale = bn_scales_.data();
  }
  epi.bias = biases_.data();
  const bool act_fusable = desc_.act != Activation::Logistic;
  epi.act = act_fusable ? desc_.act : Activation::Linear;
  const bool post_fusable = residual_act_ != Activation::Logistic;
  if (skip_b != nullptr && act_fusable) {
    epi.residual = skip_b;
    epi.residual_act = post_fusable ? residual_act_ : Activation::Linear;
  }

  ConvStatus status = ConvStatus::Declined;
  if (ctx.conv_backend)
    status = ctx.conv_backend(ctx, desc_, in_b, weights_.data(), out_b, epi);
  if (status == ConvStatus::Declined) {
    run_im2col_gemm(ctx, desc_, in_b, weights_.data(), out_b, ctx.gemm);
    status = ConvStatus::Ran;
  }

  if (status == ConvStatus::RanFused) {
    // BN/bias (and any vectorizable activation) already applied in-kernel.
    if (!act_fusable) {
      activate_array(eng, out_b, out_elems, desc_.act);
      if (skip_b != nullptr) {
        // The backend skipped the residual (it must follow the activation).
        axpy_cpu(eng, out_elems, 1.0f, skip_b, out_b);
        activate_array(eng, out_b, out_elems, residual_act_);
      }
    } else if (epi.residual != nullptr && !post_fusable) {
      activate_array(eng, out_b, out_elems, residual_act_);
    }
    return;
  }

  const int spatial = desc_.out_h() * desc_.out_w();
  if (ctx.vectorize_aux_kernels) {
    if (desc_.batch_norm) {
      normalize_cpu(eng, out_b, bn_mean_.data(), bn_var_.data(), desc_.out_c,
                    spatial);
      scale_bias(eng, out_b, bn_scales_.data(), desc_.out_c, spatial);
    }
    add_bias(eng, out_b, biases_.data(), desc_.out_c, spatial);
    activate_array(eng, out_b, out_elems, desc_.act);
  } else {
    if (desc_.batch_norm) {
      normalize_ref(out_b, bn_mean_.data(), bn_var_.data(), desc_.out_c,
                    spatial);
      scale_bias_ref(out_b, bn_scales_.data(), desc_.out_c, spatial);
    }
    add_bias_ref(out_b, biases_.data(), desc_.out_c, spatial);
    activate_ref(out_b, out_elems, desc_.act);
    // Charge the scalar work of the unvectorized kernels.
    eng.scalar_ops(out_elems * (desc_.batch_norm ? 6 : 3));
  }
  if (skip_b != nullptr) {
    // Unfused residual post-pass: the exact ShortcutLayer op sequence (the
    // copy is implicit — the sum lands in this layer's output tensor).
    axpy_cpu(eng, out_elems, 1.0f, skip_b, out_b);
    activate_array(eng, out_b, out_elems, residual_act_);
  }
}

bool ConvLayer::forward_batch(ExecContext& ctx,
                              const std::vector<const Tensor*>& inputs,
                              int begin, int end) {
  if (!ctx.conv_batch) return false;
  VLACNN_REQUIRE(inputs.size() == (residual_from_ >= 0 ? 2u : 1u) &&
                     inputs[0] != nullptr,
                 "conv input count mismatch");
  const Tensor& in = *inputs[0];
  VLACNN_REQUIRE(0 <= begin && begin <= end && end <= in.n(),
                 "batch-fused item range out of bounds");
  const int nb = end - begin;
  if (nb < 2) return false;
  VLACNN_REQUIRE(in.c() == desc_.in_c && in.h() == desc_.in_h &&
                     in.w() == desc_.in_w,
                 "conv input shape mismatch");
  const std::size_t out_elems = output_.item_size();
  if (residual_from_ >= 0)
    VLACNN_REQUIRE(inputs[1] != nullptr && inputs[1]->item_size() == out_elems,
                   "fused residual shape mismatch");

  // Same epilogue the per-item path hands a fusing backend, EXCEPT the
  // residual: its addend offsets are per item, so the add (which must
  // follow the activation) runs as a per-item post-pass below — the exact
  // op sequence of the unfused shortcut, hence bit-identical either way.
  EpilogueDesc epi;
  epi.batch_norm = desc_.batch_norm;
  if (desc_.batch_norm) {
    epi.bn_mean = bn_mean_.data();
    epi.bn_var = bn_var_.data();
    epi.bn_scale = bn_scales_.data();
  }
  epi.bias = biases_.data();
  const bool act_fusable = desc_.act != Activation::Logistic;
  epi.act = act_fusable ? desc_.act : Activation::Linear;

  const ConvStatus status =
      ctx.conv_batch(ctx, desc_, in.item_data(begin), in.item_size(),
                     weights_.data(), output_.item_data(begin), out_elems, nb,
                     epi);
  if (status == ConvStatus::Declined) return false;
  VLACNN_REQUIRE(status == ConvStatus::RanFused,
                 "batch-fused conv must apply the epilogue in-kernel");

  vla::VectorEngine& eng = ctx.engine();
  for (int b = begin; b < end; ++b) {
    float* out_b = output_.item_data(b);
    if (!act_fusable) activate_array(eng, out_b, out_elems, desc_.act);
    if (residual_from_ >= 0) {
      axpy_cpu(eng, out_elems, 1.0f, inputs[1]->item_data(b), out_b);
      activate_array(eng, out_b, out_elems, residual_act_);
    }
  }
  return true;
}

// ------------------------------------------------------------- MaxPoolLayer

MaxPoolLayer::MaxPoolLayer(int in_c, int in_h, int in_w, int size, int stride)
    : in_c_(in_c), in_h_(in_h), in_w_(in_w), size_(size), stride_(stride),
      pad_(size - 1) {
  VLACNN_REQUIRE(size >= 1 && stride >= 1, "bad pool params");
  output_.reshape(in_c, out_h(), out_w());
}

std::string MaxPoolLayer::name() const {
  return "maxpool " + std::to_string(size_) + "x" + std::to_string(size_) +
         "/" + std::to_string(stride_);
}

double MaxPoolLayer::flops() const {
  return static_cast<double>(output_.item_size()) * size_ * size_;
}

void MaxPoolLayer::forward_item(ExecContext& ctx,
                                const std::vector<const Tensor*>& inputs,
                                int b) {
  VLACNN_REQUIRE(inputs.size() == 1, "maxpool expects one input");
  const Tensor& in = *inputs[0];
  const float* in_b = in.item_data(b);
  float* out_b = output_.item_data(b);
  vla::VectorEngine& eng = ctx.engine();
  const int oh = out_h(), ow = out_w();
  const int w_offset = -pad_ / 2, h_offset = -pad_ / 2;

  for (int c = 0; c < in_c_; ++c) {
    const float* in_chan = in_b + static_cast<std::size_t>(c) * in_h_ * in_w_;
    for (int y = 0; y < oh; ++y) {
      float* out_row = out_b + (static_cast<std::size_t>(c) * oh + y) * ow;
      for (int x = 0; x < ow; ++x) {
        float best = -std::numeric_limits<float>::max();
        for (int ky = 0; ky < size_; ++ky) {
          const int iy = y * stride_ + ky + h_offset;
          if (iy < 0 || iy >= in_h_) continue;
          for (int kx = 0; kx < size_; ++kx) {
            const int ix = x * stride_ + kx + w_offset;
            if (ix < 0 || ix >= in_w_) continue;
            best = std::max(best,
                            in_chan[static_cast<std::size_t>(iy) * in_w_ + ix]);
          }
        }
        out_row[x] = best;
      }
      // Bulk-charge the scalar comparisons and the row traffic.
      eng.scalar_ops(static_cast<std::uint64_t>(ow) * size_ * size_);
      eng.scalar_mem(out_row, static_cast<std::size_t>(ow) * sizeof(float), true);
      eng.scalar_mem(in_chan + static_cast<std::size_t>(
                                   std::min(y * stride_, in_h_ - 1)) * in_w_,
                     static_cast<std::size_t>(in_w_) * sizeof(float), false);
    }
  }
}

// --------------------------------------------------------------- RouteLayer

RouteLayer::RouteLayer(std::vector<int> from, int out_c, int h, int w)
    : from_(std::move(from)) {
  VLACNN_REQUIRE(!from_.empty(), "route needs at least one source");
  output_.reshape(out_c, h, w);
}

void RouteLayer::forward_item(ExecContext& ctx,
                              const std::vector<const Tensor*>& inputs,
                              int b) {
  vla::VectorEngine& eng = ctx.engine();
  float* out_b = output_.item_data(b);
  std::size_t offset = 0;
  for (const Tensor* t : inputs) {
    VLACNN_REQUIRE(t != nullptr, "route input missing");
    copy_cpu(eng, t->item_size(), t->item_data(b), out_b + offset);
    offset += t->item_size();
  }
  VLACNN_REQUIRE(offset == output_.item_size(), "route size mismatch");
}

// ------------------------------------------------------------ ShortcutLayer

ShortcutLayer::ShortcutLayer(int from, int c, int h, int w, Activation act)
    : from_(from), act_(act) {
  output_.reshape(c, h, w);
}

int ShortcutLayer::prepare_batch(const std::vector<const Tensor*>& inputs) {
  if (producer_ == nullptr) return Layer::prepare_batch(inputs);
  // Fused into the producing conv: the values live in the producer's output
  // tensor (already reshaped by its own prepare_batch); don't grow ours.
  VLACNN_REQUIRE(!inputs.empty() && inputs[0] != nullptr,
                 "shortcut input missing");
  return inputs[0]->n();
}

void ShortcutLayer::forward_item(ExecContext& ctx,
                                 const std::vector<const Tensor*>& inputs,
                                 int b) {
  if (producer_ != nullptr) return;  // add ran in the producer's epilogue
  VLACNN_REQUIRE(inputs.size() == 2, "shortcut expects two inputs");
  const Tensor& prev = *inputs[0];
  const Tensor& skip = *inputs[1];
  const std::size_t elems = output_.item_size();
  VLACNN_REQUIRE(prev.item_size() == elems && skip.item_size() == elems,
                 "shortcut shape mismatch");
  vla::VectorEngine& eng = ctx.engine();
  float* out_b = output_.item_data(b);
  copy_cpu(eng, elems, prev.item_data(b), out_b);
  axpy_cpu(eng, elems, 1.0f, skip.item_data(b), out_b);
  activate_array(eng, out_b, elems, act_);
}

// ------------------------------------------------------------ UpsampleLayer

UpsampleLayer::UpsampleLayer(int c, int in_h, int in_w) {
  output_.reshape(c, in_h * 2, in_w * 2);
  gather_idx_.resize(static_cast<std::size_t>(in_w) * 2);
  for (int x = 0; x < in_w * 2; ++x)
    gather_idx_[static_cast<std::size_t>(x)] = x / 2;
}

void UpsampleLayer::forward_item(ExecContext& ctx,
                                 const std::vector<const Tensor*>& inputs,
                                 int b) {
  VLACNN_REQUIRE(inputs.size() == 1, "upsample expects one input");
  const Tensor& in = *inputs[0];
  const float* in_b = in.item_data(b);
  float* out_b = output_.item_data(b);
  vla::VectorEngine& eng = ctx.engine();
  const int ow = output_.w(), oh = output_.h();
  const int iw = in.w(), ih = in.h();
  for (int c = 0; c < output_.c(); ++c) {
    for (int y = 0; y < oh; ++y) {
      const float* src =
          in_b + (static_cast<std::size_t>(c) * ih + y / 2) * iw;
      float* dst = out_b + (static_cast<std::size_t>(c) * oh + y) * ow;
      for (int x = 0; x < ow;) {
        const std::size_t vl = eng.setvl(static_cast<std::size_t>(ow - x));
        eng.vgather(0, src, gather_idx_.data() + x);
        eng.vstore(0, dst + x);
        eng.scalar_ops(2);
        x += static_cast<int>(vl);
      }
    }
  }
}

// ----------------------------------------------------------- ConnectedLayer

ConnectedLayer::ConnectedLayer(int in_n, int out_n, Activation act,
                               std::uint64_t seed)
    : in_n_(in_n), out_n_(out_n), act_(act) {
  VLACNN_REQUIRE(in_n > 0 && out_n > 0, "bad connected dims");
  output_.reshape(out_n, 1, 1);
  weights_.resize(static_cast<std::size_t>(in_n) * out_n);
  biases_.resize(static_cast<std::size_t>(out_n));
  Rng rng(seed);
  const float scale = std::sqrt(2.0f / static_cast<float>(in_n));
  // Weights are stored transposed (in_n × out_n) so the layer runs as a
  // row-vector GEMM x(1×K)·W^T(K×N) on the installed microkernel, which
  // vectorizes along the output dimension. Logical weight (o, i) keeps the
  // same RNG draw as the historical out_n × in_n layout.
  for (int o = 0; o < out_n; ++o)
    for (int i = 0; i < in_n; ++i)
      weights_[static_cast<std::size_t>(i) * out_n + o] =
          rng.normal(0.0f, scale);
  for (auto& b : biases_) b = rng.uniform(-0.1f, 0.1f);
  w_reg_ = sim::RegisteredRange(weights_.data(), weights_.size() * sizeof(float));
  b_reg_ = sim::RegisteredRange(biases_.data(), biases_.size() * sizeof(float));
}

void ConnectedLayer::forward_item(ExecContext& ctx,
                                  const std::vector<const Tensor*>& inputs,
                                  int b) {
  VLACNN_REQUIRE(inputs.size() == 1, "connected expects one input");
  const Tensor& in = *inputs[0];
  VLACNN_REQUIRE(in.item_size() == static_cast<std::size_t>(in_n_),
                 "connected input size mismatch");
  VLACNN_REQUIRE(static_cast<bool>(ctx.gemm),
                 "ExecContext has no GEMM implementation");
  const float* in_b = in.item_data(b);
  float* out_b = output_.item_data(b);
  vla::VectorEngine& eng = ctx.engine();
  // out(1×N) += x(1×K) · W^T(K×N): the same microkernel that runs the conv
  // layers, so FC layers inherit its blocking and packing.
  fill_cpu(eng, static_cast<std::size_t>(out_n_), 0.0f, out_b);
  ctx.gemm(eng, 1, out_n_, in_n_, 1.0f, in_b, in_n_, weights_.data(), out_n_,
           out_b, out_n_);
  apply_bias_act(eng, out_b);
}

void ConnectedLayer::apply_bias_act(vla::VectorEngine& eng, float* out_b) {
  constexpr vla::Vreg kAcc = 0, kB = 1;
  for (int i = 0; i < out_n_;) {
    const std::size_t vl = eng.setvl(static_cast<std::size_t>(out_n_ - i));
    eng.vload(kAcc, out_b + i);
    eng.vload(kB, biases_.data() + i);
    eng.vadd(kAcc, kAcc, kB);
    eng.vstore(kAcc, out_b + i);
    eng.scalar_ops(2);
    i += static_cast<int>(vl);
  }
  activate_array(eng, out_b, static_cast<std::size_t>(out_n_), act_);
}

bool ConnectedLayer::forward_batch(ExecContext& ctx,
                                   const std::vector<const Tensor*>& inputs,
                                   int begin, int end) {
  VLACNN_REQUIRE(inputs.size() == 1, "connected expects one input");
  const Tensor& in = *inputs[0];
  VLACNN_REQUIRE(0 <= begin && begin <= end && end <= in.n(),
                 "batch-fused item range out of bounds");
  const int nb = end - begin;
  if (nb < 2) return false;
  VLACNN_REQUIRE(in.item_size() == static_cast<std::size_t>(in_n_),
                 "connected input size mismatch");
  VLACNN_REQUIRE(static_cast<bool>(ctx.gemm),
                 "ExecContext has no GEMM implementation");
  vla::VectorEngine& eng = ctx.engine();
  // Batch items are contiguous (item stride == in_n_), so the item range IS
  // a GEMM A matrix: out(nb×N) += X(nb×K) · W^T(K×N). One call streams the
  // weight matrix once for the range — and with M = nb > 1 the 6-loop packs
  // each B panel and reuses it across every item's row — where the
  // per-item GEMV re-streams all K×N weights per item. The per-element
  // k-accumulation order is that of the M=1 call, so outputs are
  // bit-identical to the forward_item loop.
  float* out = output_.item_data(begin);
  fill_cpu(eng, static_cast<std::size_t>(nb) * out_n_, 0.0f, out);
  ctx.gemm(eng, nb, out_n_, in_n_, 1.0f, in.item_data(begin), in_n_,
           weights_.data(), out_n_, out, out_n_);
  for (int b = begin; b < end; ++b) apply_bias_act(eng, output_.item_data(b));
  return true;
}

// ------------------------------------------------------------- SoftmaxLayer

SoftmaxLayer::SoftmaxLayer(int c, int h, int w) { output_.reshape(c, h, w); }

void SoftmaxLayer::forward_item(ExecContext& ctx,
                                const std::vector<const Tensor*>& inputs,
                                int b) {
  VLACNN_REQUIRE(inputs.size() == 1, "softmax expects one input");
  const Tensor& in = *inputs[0];
  const std::size_t elems = output_.item_size();
  VLACNN_REQUIRE(in.item_size() == elems, "softmax size mismatch");
  const float* in_b = in.item_data(b);
  float* out_b = output_.item_data(b);
  vla::VectorEngine& eng = ctx.engine();
  float maxv = -std::numeric_limits<float>::max();
  for (std::size_t i = 0; i < elems; ++i) maxv = std::max(maxv, in_b[i]);
  double sum = 0.0;
  for (std::size_t i = 0; i < elems; ++i) {
    out_b[i] = std::exp(in_b[i] - maxv);
    sum += static_cast<double>(out_b[i]);
  }
  const float inv = static_cast<float>(1.0 / sum);
  for (std::size_t i = 0; i < elems; ++i) out_b[i] *= inv;
  eng.scalar_ops(elems * 6);
  eng.scalar_mem(out_b, elems * sizeof(float), true);
}

// ---------------------------------------------------------------- YoloLayer

YoloLayer::YoloLayer(int c, int h, int w) { output_.reshape(c, h, w); }

void YoloLayer::forward_item(ExecContext& ctx,
                             const std::vector<const Tensor*>& inputs, int b) {
  VLACNN_REQUIRE(inputs.size() == 1, "yolo expects one input");
  copy_cpu(ctx.engine(), inputs[0]->item_size(), inputs[0]->item_data(b),
           output_.item_data(b));
}

}  // namespace vlacnn::dnn
