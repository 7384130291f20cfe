#include "gemm/gemm_opt3.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace vlacnn::gemm {

namespace {
constexpr int kMaxAccRegs = 30;  // v0..v29 accumulators, v30 = B row
constexpr vla::Vreg kVB = 30;

/// The k-loop of a tile whose rows exceed the 30 accumulators, kept as
/// per-instruction calls because the `unroll` ablation measures exactly
/// these spills: each surplus row round-trips through memory every FMA.
void spilled_k_loop(vla::VectorEngine& eng, int rows, int reg_rows, int K,
                    float alpha, const float* A, int lda, const float* B,
                    int ldb, float* C, int ldc) {
  for (int k = 0; k < K; ++k) {
    eng.vload(kVB, B + static_cast<std::size_t>(k) * ldb);
    eng.scalar_ops(2);  // k-loop bookkeeping
    for (int u = 0; u < rows; ++u) {
      const float* a_ptr = A + static_cast<std::size_t>(u) * lda + k;
      eng.scalar_mem(a_ptr, sizeof(float), false);
      float a = *a_ptr;
      if (alpha != 1.0f) {  // paper: skip the multiply when ALPHA == 1
        a *= alpha;
        eng.scalar_ops(1);
      }
      if (u < reg_rows) {
        eng.vfma_scalar(u, a, kVB);
      } else {
        float* crow = C + static_cast<std::size_t>(u) * ldc;
        eng.vload(31, crow);
        eng.vfma_scalar(31, a, kVB);
        eng.vstore(31, crow);
      }
    }
  }
}
}  // namespace

void gemm_opt3(vla::VectorEngine& eng, const Opt3Config& cfg, int M, int N,
               int K, float alpha, const float* A, int lda, const float* B,
               int ldb, float* C, int ldc) {
  VLACNN_REQUIRE(cfg.unroll_factor >= 1 && cfg.unroll_factor <= 64,
                 "unroll factor out of range");
  const int unroll = cfg.unroll_factor;
  const int in_regs = std::min(unroll, kMaxAccRegs);

  for (int j = 0; j < N;) {
    const auto gvl = static_cast<int>(eng.setvl(static_cast<std::size_t>(N - j)));
    eng.scalar_ops(2);  // strip-mine bookkeeping
    for (int i = 0; i < M; i += unroll) {
      const int rows = std::min(unroll, M - i);
      const int reg_rows = std::min(rows, in_regs);
      eng.scalar_ops(3);  // i-loop bookkeeping + address setup
      const float* a_tile = A + static_cast<std::size_t>(i) * lda;
      float* c_tile = C + static_cast<std::size_t>(i) * ldc + j;

      // Load the C tile into vector accumulators (v0..v(reg_rows-1)).
      for (int u = 0; u < reg_rows; ++u)
        eng.vload(u, c_tile + static_cast<std::size_t>(u) * ldc);

      if (rows == reg_rows)
        eng.vfma_vf_tile({.first = 0, .rows = rows, .vb = kVB, .kc = K,
                          .b = B + j, .b_step = ldb, .a = a_tile,
                          .a_row_bytes = static_cast<std::size_t>(lda) *
                                         sizeof(float),
                          .alpha = alpha});
      else
        spilled_k_loop(eng, rows, reg_rows, K, alpha, a_tile, lda, B + j, ldb,
                       c_tile, ldc);

      for (int u = 0; u < reg_rows; ++u)
        eng.vstore(u, c_tile + static_cast<std::size_t>(u) * ldc);
    }
    j += gvl;
  }
}

}  // namespace vlacnn::gemm
