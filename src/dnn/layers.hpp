#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "dnn/conv_desc.hpp"
#include "dnn/exec_context.hpp"
#include "dnn/tensor.hpp"

namespace vlacnn::dnn {

/// Base class of all network layers. Inputs are resolved by the Network and
/// passed to forward(); each layer owns its output tensor.
///
/// Layers are batched: inputs may carry a batch dimension N, and the output
/// is reshaped to match. The per-item kernel lives in forward_item(), which
/// touches only item `b`'s slice of the inputs and output — that contract is
/// what lets the runtime::BatchScheduler run items of one layer concurrently
/// on different worker threads (each with its own ExecContext) without
/// synchronization. Weights are written once at construction and read-only
/// during forward passes.
class Layer {
 public:
  /// How this layer's output becomes ready to its consumers in a work-graph
  /// execution (runtime::WorkGraph):
  ///  * PerItem — forward_item(b) reads only item `b` of each input and
  ///    writes only item `b` of the output, so item b is consumable as soon
  ///    as it is computed; downstream per-item work may start before the
  ///    rest of the batch exists.
  ///  * Barrier — the layer must observe ALL items of its inputs before any
  ///    work and publishes all output items at once: a sync point in the
  ///    graph. Declared by layers whose execution couples items (a fused
  ///    residual's epilogue reads a whole earlier tensor snapshot). A
  ///    batch-fused (weight-resident) layer stays PerItem: forward_batch
  ///    covers an item range, so each of the scheduler's item chunks runs
  ///    one fused kernel over its own items.
  enum class Readiness { PerItem, Barrier };

  virtual ~Layer() = default;

  /// Readiness shape of this layer (see Readiness). Defaults to PerItem —
  /// the forward_item contract below is exactly the per-item guarantee.
  [[nodiscard]] virtual Readiness readiness() const {
    return Readiness::PerItem;
  }

  /// Whole-batch forward: prepare_batch() + forward_item() for every item in
  /// order. Batch-1 numerics are bit-identical to the historical
  /// single-image path (same code, same operation order).
  void forward(ExecContext& ctx, const std::vector<const Tensor*>& inputs);

  /// Validates the batched inputs and reshapes the output tensor to their
  /// common batch size (preserving the per-item CHW shape). Returns the
  /// batch size. Must be called (directly or via forward()) before
  /// forward_item(); it is NOT thread-safe and runs on the scheduler thread.
  /// Virtual so a fused-away layer (see ShortcutLayer) can skip reshaping
  /// the output tensor it no longer owns the values of.
  virtual int prepare_batch(const std::vector<const Tensor*>& inputs);

  /// Computes batch item `b` of the output from item `b` of each input.
  virtual void forward_item(ExecContext& ctx,
                            const std::vector<const Tensor*>& inputs,
                            int b) = 0;

  /// Batch-fused forward of items [begin, end): computes them in ONE kernel
  /// dispatch (the weight-resident execution path — each weight panel is
  /// streamed once for the range instead of once per item). Like
  /// forward_item it touches only its own items, so disjoint ranges may run
  /// concurrently on different ExecContexts; the scheduler hands each item
  /// chunk its own range. Returns false when the layer (or the installed
  /// backend) has no batch-fused form, or the range holds fewer than two
  /// items; the caller then falls back to the per-item contract above. Must
  /// be bit-identical to the forward_item loop over the same items, for
  /// any range. Requires prepare_batch() first.
  virtual bool forward_batch(ExecContext& ctx,
                             const std::vector<const Tensor*>& inputs,
                             int begin, int end) {
    (void)ctx;
    (void)inputs;
    (void)begin;
    (void)end;
    return false;
  }

  /// Indices of the layers whose outputs this layer consumes; -1 denotes the
  /// network input. Default: the previous layer.
  [[nodiscard]] virtual std::vector<int> input_indices() const {
    return {self_index_ - 1};
  }

  [[nodiscard]] virtual std::string name() const = 0;
  /// Multiply-add FLOPs per batch item.
  [[nodiscard]] virtual double flops() const { return 0.0; }
  /// Virtual so a fused-away layer can alias its producer's tensor.
  [[nodiscard]] virtual const Tensor& output() const { return output_; }
  [[nodiscard]] virtual Tensor& output() { return output_; }

  void set_self_index(int i) { self_index_ = i; }

 protected:
  Tensor output_;
  int self_index_ = -1;
};

/// Convolutional layer: im2col + GEMM (or the ExecContext's convolution
/// override, e.g. Winograd), then batch-norm / bias / activation — exactly
/// the Darknet kernel sequence the paper profiles (§II-B).
class ConvLayer final : public Layer {
 public:
  ConvLayer(const ConvDesc& desc, std::uint64_t weight_seed);

  void forward_item(ExecContext& ctx, const std::vector<const Tensor*>& inputs,
                    int b) override;
  bool forward_batch(ExecContext& ctx,
                     const std::vector<const Tensor*>& inputs, int begin,
                     int end) override;
  /// A fused residual pins a sync point: the epilogue add consumes the skip
  /// tensor, and the work-graph treats that read as whole-tensor so the
  /// ordering against the shortcut source never depends on item-level
  /// interleaving.
  [[nodiscard]] Readiness readiness() const override {
    return residual_from_ >= 0 ? Readiness::Barrier : Readiness::PerItem;
  }
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] double flops() const override {
    // A fused residual moves the shortcut's add into this layer's epilogue.
    return desc_.flops() +
           (residual_from_ >= 0 ? static_cast<double>(output_.item_size())
                                : 0.0);
  }
  [[nodiscard]] std::vector<int> input_indices() const override {
    if (residual_from_ < 0) return {self_index_ - 1};
    return {self_index_ - 1, residual_from_};
  }

  /// Folds a following shortcut layer into this convolution: the skip
  /// tensor (layer `from`'s output) is added element-wise after this
  /// layer's activation, then `post_act` is applied — the exact Darknet
  /// shortcut sequence, expressed through EpilogueDesc so fusing backends
  /// apply it on the output tile in registers. Installed by
  /// Network::fuse_residuals().
  void fuse_residual(int from, Activation post_act) {
    residual_from_ = from;
    residual_act_ = post_act;
  }
  [[nodiscard]] bool has_fused_residual() const { return residual_from_ >= 0; }

  [[nodiscard]] const ConvDesc& desc() const { return desc_; }
  [[nodiscard]] const float* weights() const { return weights_.data(); }
  [[nodiscard]] float* mutable_weights() { return weights_.data(); }

 private:
  ConvDesc desc_;
  int residual_from_ = -1;  // fused shortcut source layer; -1 = none
  Activation residual_act_ = Activation::Linear;
  AlignedBuffer<float> weights_;  // out_c × in_c × k × k
  AlignedBuffer<float> biases_;
  AlignedBuffer<float> bn_scales_;
  AlignedBuffer<float> bn_mean_;
  AlignedBuffer<float> bn_var_;
  sim::RegisteredRange w_reg_, b_reg_, s_reg_, m_reg_, v_reg_;
};

/// Max-pooling layer (Darknet semantics: pad = (size-1)/2 style windows,
/// -FLT_MAX identity).
class MaxPoolLayer final : public Layer {
 public:
  MaxPoolLayer(int in_c, int in_h, int in_w, int size, int stride);

  void forward_item(ExecContext& ctx, const std::vector<const Tensor*>& inputs,
                    int b) override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] double flops() const override;

  [[nodiscard]] int out_h() const { return (in_h_ + pad_ - size_) / stride_ + 1; }
  [[nodiscard]] int out_w() const { return (in_w_ + pad_ - size_) / stride_ + 1; }

 private:
  int in_c_, in_h_, in_w_, size_, stride_, pad_;
};

/// Channel-concatenation (Darknet "route") layer.
class RouteLayer final : public Layer {
 public:
  RouteLayer(std::vector<int> from, int out_c, int h, int w);

  void forward_item(ExecContext& ctx, const std::vector<const Tensor*>& inputs,
                    int b) override;
  [[nodiscard]] std::vector<int> input_indices() const override { return from_; }
  [[nodiscard]] std::string name() const override { return "route"; }

 private:
  std::vector<int> from_;
};

/// Residual addition (Darknet "shortcut") layer: out = prev + layers[from].
///
/// When Network::fuse_residuals() folds the add into the producing conv
/// layer's epilogue, this layer becomes a zero-cost alias: forward_item is a
/// no-op and output() returns the producer's tensor (downstream layers keep
/// referencing this layer's index unchanged).
class ShortcutLayer final : public Layer {
 public:
  ShortcutLayer(int from, int c, int h, int w, Activation act);

  int prepare_batch(const std::vector<const Tensor*>& inputs) override;
  void forward_item(ExecContext& ctx, const std::vector<const Tensor*>& inputs,
                    int b) override;
  [[nodiscard]] std::vector<int> input_indices() const override {
    return {self_index_ - 1, from_};
  }
  [[nodiscard]] std::string name() const override {
    return producer_ != nullptr ? "shortcut(fused)" : "shortcut";
  }
  [[nodiscard]] double flops() const override {
    // Fused: the add is accounted in the producing conv layer.
    return producer_ != nullptr ? 0.0
                                : static_cast<double>(output_.item_size());
  }
  [[nodiscard]] const Tensor& output() const override {
    return producer_ != nullptr ? producer_->output() : output_;
  }
  [[nodiscard]] Tensor& output() override {
    return producer_ != nullptr ? producer_->output() : output_;
  }

  [[nodiscard]] int from() const { return from_; }
  [[nodiscard]] Activation activation() const { return act_; }
  /// Marks this layer fused into `producer` (the preceding conv layer).
  void set_fused_into(Layer* producer) { producer_ = producer; }
  [[nodiscard]] bool fused() const { return producer_ != nullptr; }

 private:
  int from_;
  Activation act_;
  Layer* producer_ = nullptr;  // non-null once fused into the conv before it
};

/// Nearest-neighbour 2x upsampling.
class UpsampleLayer final : public Layer {
 public:
  UpsampleLayer(int c, int in_h, int in_w);

  void forward_item(ExecContext& ctx, const std::vector<const Tensor*>& inputs,
                    int b) override;
  [[nodiscard]] std::string name() const override { return "upsample"; }

 private:
  AlignedBuffer<std::int32_t> gather_idx_;  // per-output-row source indices
};

/// Fully connected layer (Darknet "connected").
class ConnectedLayer final : public Layer {
 public:
  ConnectedLayer(int in_n, int out_n, Activation act, std::uint64_t seed);

  void forward_item(ExecContext& ctx, const std::vector<const Tensor*>& inputs,
                    int b) override;
  bool forward_batch(ExecContext& ctx,
                     const std::vector<const Tensor*>& inputs, int begin,
                     int end) override;
  [[nodiscard]] std::string name() const override { return "connected"; }
  [[nodiscard]] double flops() const override {
    return 2.0 * in_n_ * static_cast<double>(out_n_);
  }
  [[nodiscard]] const float* weights() const { return weights_.data(); }
  [[nodiscard]] int in_n() const { return in_n_; }
  [[nodiscard]] int out_n() const { return out_n_; }

 private:
  /// Bias add + activation of one item's output row (shared by the
  /// per-item and batch-fused paths so the op sequence cannot drift).
  void apply_bias_act(vla::VectorEngine& eng, float* out_b);

  int in_n_, out_n_;
  Activation act_;
  AlignedBuffer<float> weights_;  // in_n × out_n row-major (transposed for
                                  // the 1×N GEMV through ctx.gemm)
  AlignedBuffer<float> biases_;
  sim::RegisteredRange w_reg_, b_reg_;
};

/// Softmax over the flattened input (per batch item).
class SoftmaxLayer final : public Layer {
 public:
  SoftmaxLayer(int c, int h, int w);
  void forward_item(ExecContext& ctx, const std::vector<const Tensor*>& inputs,
                    int b) override;
  [[nodiscard]] std::string name() const override { return "softmax"; }
};

/// YOLO detection head. For this performance study it forwards its input
/// unchanged (box decoding contributes negligible time and is excluded, as
/// in the paper's kernel breakdown); it exists so the model zoo preserves
/// YOLOv3's 107-layer structure.
class YoloLayer final : public Layer {
 public:
  YoloLayer(int c, int h, int w);
  void forward_item(ExecContext& ctx, const std::vector<const Tensor*>& inputs,
                    int b) override;
  [[nodiscard]] std::string name() const override { return "yolo"; }
};

/// The canonical unfused convolution pipeline: fill, im2col into the
/// context workspace (skipped for 1x1/s1, scalar when vectorize_aux is
/// off), then `gemm` — the raw convolution only; BN/bias/activation remain
/// the caller's concern. The single definition shared by ConvLayer's base
/// path and the plan-compiled GEMM backends, so the op sequence (and with
/// it the bit-identical dispatch contract) cannot drift between them.
void run_im2col_gemm(ExecContext& ctx, const ConvDesc& d, const float* input,
                     const float* weights, float* output, const GemmFn& gemm);

}  // namespace vlacnn::dnn
