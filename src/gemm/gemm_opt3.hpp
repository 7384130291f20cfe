#pragma once

#include "vla/vector_engine.hpp"

namespace vlacnn::gemm {

/// Tuning knobs of the optimized 3-loop GEMM (paper Fig. 2).
struct Opt3Config {
  /// Rows of C accumulated simultaneously in vector registers. The paper
  /// tunes this to 16 (no gain beyond 16 on RVV; 32 spills and loses ~15%).
  int unroll_factor = 16;
};

/// Optimized 3-loop GEMM (paper Fig. 2): the N loop is strip-mined by the
/// granted vector length (vsetvl), the M loop is unrolled by
/// `unroll_factor` with one vector accumulator per row, and the K loop
/// broadcasts A elements into vector-scalar FMAs over a single B row load.
/// Loop order (j, i, k) maximizes reuse of the loaded B vector and keeps all
/// memory accesses unit-stride.
///
/// Accumulators live in v0..v29; B occupies v30. If `unroll_factor`
/// exceeds the 30 available accumulators, the surplus rows are spilled:
/// each spilled accumulator is re-loaded and re-stored around every FMA,
/// reproducing the register-spilling slowdown the paper observed at 32.
void gemm_opt3(vla::VectorEngine& eng, const Opt3Config& cfg, int M, int N,
               int K, float alpha, const float* A, int lda, const float* B,
               int ldb, float* C, int ldc);

}  // namespace vlacnn::gemm
