#include "gemm/gemm_opt3.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace vlacnn::gemm {

namespace {
constexpr int kMaxAccRegs = 30;  // v0..v29 accumulators, v30 = B row
constexpr vla::Vreg kVB = 30;

/// The 3-loop body, compiled once per alpha case so that neither the alpha
/// test nor the register-spill test sits in the per-FMA loop.
template <bool kScaled>
void gemm_opt3_body(vla::VectorEngine& eng, int unroll, int M, int N, int K,
                    float alpha, const float* A, int lda, const float* B,
                    int ldb, float* C, int ldc) {
  const int in_regs = std::min(unroll, kMaxAccRegs);

  for (int j = 0; j < N;) {
    const auto gvl = static_cast<int>(eng.setvl(static_cast<std::size_t>(N - j)));
    eng.scalar_ops(2);  // strip-mine bookkeeping
    for (int i = 0; i < M; i += unroll) {
      const int rows = std::min(unroll, M - i);
      const int reg_rows = std::min(rows, in_regs);
      eng.scalar_ops(3);  // i-loop bookkeeping + address setup

      // Load the C tile into vector accumulators (v0..v(reg_rows-1)).
      for (int u = 0; u < reg_rows; ++u)
        eng.vload(u, C + static_cast<std::size_t>(i + u) * ldc + j);

      for (int k = 0; k < K; ++k) {
        eng.vload(kVB, B + static_cast<std::size_t>(k) * ldb + j);
        eng.scalar_ops(2);  // k-loop bookkeeping
        const auto a_at = [&](int u) {
          const float* a_ptr = A + static_cast<std::size_t>(i + u) * lda + k;
          eng.scalar_mem(a_ptr, sizeof(float), false);
          float a = *a_ptr;
          if constexpr (kScaled) {  // paper: skip the multiply when ALPHA == 1
            a *= alpha;
            eng.scalar_ops(1);
          }
          return a;
        };
        for (int u = 0; u < reg_rows; ++u) eng.vfma_scalar(u, a_at(u), kVB);
        for (int u = reg_rows; u < rows; ++u) {
          // Spilled accumulator: round-trips through memory every FMA.
          const float a = a_at(u);
          float* crow = C + static_cast<std::size_t>(i + u) * ldc + j;
          eng.vload(31, crow);
          eng.vfma_scalar(31, a, kVB);
          eng.vstore(31, crow);
        }
      }

      for (int u = 0; u < reg_rows; ++u)
        eng.vstore(u, C + static_cast<std::size_t>(i + u) * ldc + j);
    }
    j += gvl;
  }
}
}  // namespace

void gemm_opt3(vla::VectorEngine& eng, const Opt3Config& cfg, int M, int N,
               int K, float alpha, const float* A, int lda, const float* B,
               int ldb, float* C, int ldc) {
  VLACNN_REQUIRE(cfg.unroll_factor >= 1 && cfg.unroll_factor <= 64,
                 "unroll factor out of range");
  if (alpha != 1.0f)
    gemm_opt3_body<true>(eng, cfg.unroll_factor, M, N, K, alpha, A, lda, B,
                         ldb, C, ldc);
  else
    gemm_opt3_body<false>(eng, cfg.unroll_factor, M, N, K, alpha, A, lda, B,
                          ldb, C, ldc);
}

}  // namespace vlacnn::gemm
