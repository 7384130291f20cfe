#pragma once

#include <memory>
#include <string>

#include "dnn/exec_context.hpp"
#include "gemm/blocking.hpp"
#include "gemm/gemm_naive.hpp"
#include "gemm/gemm_opt3.hpp"
#include "gemm/gemm_opt6.hpp"
#include "gemm/gemm_ref.hpp"

namespace vlacnn::gemm {

/// The GEMM implementations the paper compares (§IV-A, §VI).
enum class GemmVariant {
  Naive,     ///< Fig. 1 — scalar Darknet baseline
  Opt3Loop,  ///< Fig. 2 — vectorized + reordered + unrolled
  Opt6Loop,  ///< Fig. 3 — BLIS-like blocked + packed + prefetched
};

inline const char* to_string(GemmVariant v) {
  switch (v) {
    case GemmVariant::Naive: return "naive";
    case GemmVariant::Opt3Loop: return "opt-3loop";
    case GemmVariant::Opt6Loop: return "opt-6loop";
  }
  return "?";
}

/// Adapts a shared Gemm6 to the dnn::GemmFn interface.
/// core::ConvolutionEngine::install shares one instance between this
/// adapter and the instance's conv_fused entry.
inline dnn::GemmFn wrap_gemm6(std::shared_ptr<Gemm6> impl) {
  return [impl = std::move(impl)](vla::VectorEngine& eng, int M, int N, int K,
                                  float alpha, const float* A, int lda,
                                  const float* B, int ldb, float* C,
                                  int ldc) {
    (*impl)(eng, M, N, K, alpha, A, lda, B, ldb, C, ldc);
  };
}

/// Builds a dnn::GemmFn for the given variant. For Opt6Loop, block sizes
/// default to the BLIS heuristic for `machine` (pass std::nullopt-like
/// default-constructed BlockSizes with tune=true) or use the given blocks.
///
/// Each call materializes fresh algorithm state (notably the Opt6Loop
/// packing buffers), so every ExecContext gets its own instance and
/// contexts can run forward passes concurrently.
inline dnn::GemmFn make_gemm_fn(GemmVariant v, const Opt3Config& o3 = {},
                                const Opt6Config& o6 = {}) {
  switch (v) {
    case GemmVariant::Naive:
      return [](vla::VectorEngine& eng, int M, int N, int K, float alpha,
                const float* A, int lda, const float* B, int ldb, float* C,
                int ldc) {
        gemm_naive(eng, M, N, K, alpha, A, lda, B, ldb, C, ldc);
      };
    case GemmVariant::Opt3Loop:
      return [o3](vla::VectorEngine& eng, int M, int N, int K, float alpha,
                  const float* A, int lda, const float* B, int ldb, float* C,
                  int ldc) {
        gemm_opt3(eng, o3, M, N, K, alpha, A, lda, B, ldb, C, ldc);
      };
    case GemmVariant::Opt6Loop:
      return wrap_gemm6(std::make_shared<Gemm6>(o6));
  }
  return {};
}

}  // namespace vlacnn::gemm
