// Optimized single-precision GEMM — the repository's stand-in for the Intel
// MKL sgemm the paper leans on. Goto-style blocked algorithm: B and A panels
// are packed into contiguous, zero-padded buffers, each transpose case
// reading its source contiguously; a register-tiled MR×NR micro-kernel runs
// over full panels only (fringes are handled by padding on pack and
// clipping on write-back). The register tile belongs to the dispatched SIMD
// tier (simd::KernelTable::gemm_mr/gemm_nr: 12×32 on AVX-512, 6×16 on AVX2,
// 4×16 on scalar), sized so the whole tile stays in vector registers for a
// k-panel (docs/simd.md, "GEMM register tile").
//
// Three properties distinguish it from a textbook blocked GEMM:
//
//  * Fused epilogues: an epilogue descriptor (bias add, bias+sigmoid,
//    dsigmoid multiply) is applied at micro-kernel write-back on the last
//    k-panel, while the C tile is still cache-hot, replacing the separate
//    full-matrix elementwise pass the training step would otherwise make.
//    The beta scaling of C is folded into the first k-panel's write-back the
//    same way (no serial pre-pass over C).
//  * Persistent packing workspaces: packing buffers come from a per-thread
//    arena (la/pack_arena.hpp) that is grown once and reused, so steady-state
//    training performs zero heap allocations inside GEMM.
//  * A packed-once B operand: PackedB holds op(B) already in the panels one
//    tier's micro-kernel reads, and its gemm() entry skips B's pack step.
//    Serving packs each model version's weights once (core::PackedEncoder)
//    instead of on every batch; the panels hold the same values in the same
//    k order, so results are bit-identical to the per-call path.
//  * 2-D tile parallelism: C is partitioned into an (ic, jc) grid of disjoint
//    tiles, one per thread where the shape allows, in near-equal bands of
//    whole register tiles along the longer dimension, so the grid covers the
//    thread count even when one dimension is skinny (the gemm_tn gradient
//    products have m = hidden size). Each C element is written by exactly
//    one thread and its k-accumulation order is fixed by the kc blocking
//    alone — not by the register tile, the packing or the split — so results
//    are bit-identical for any SIMD tier, thread count and tile decomposition;
//    the parity and determinism tests depend on that.
#pragma once

#include "la/matrix.hpp"
#include "la/simd/dispatch.hpp"
#include "util/aligned.hpp"

namespace deepphi::la {

enum class Trans { kNo, kYes };

/// Elementwise operation fused into the GEMM write-back. With D = alpha ·
/// op(A)·op(B) + beta · C accumulated in registers/cache:
///   kNone:            C = D
///   kBiasAdd:         C = D + bias[col]
///   kBiasSigmoid:     C = sigmoid(D + bias[col])
///   kDsigmoidMul:     C = D ⊙ act ⊙ (1 − act)
///   kBiasDsigmoidMul: C = (D + bias[col]) ⊙ act ⊙ (1 − act)
enum class EpilogueOp : std::uint8_t {
  kNone,
  kBiasAdd,
  kBiasSigmoid,
  kDsigmoidMul,
  kBiasDsigmoidMul,
};

/// Epilogue descriptor. Holds non-owning pointers: `bias` (per-column, size
/// n) and `act` (same shape as C) must outlive the GEMM call. Call sites may
/// fuse only operations whose operands are already final when the GEMM runs —
/// an epilogue must not read C's previous contents beyond the beta term, and
/// `act` must not alias C.
struct GemmEpilogue {
  EpilogueOp op = EpilogueOp::kNone;
  const Vector* bias = nullptr;  // kBiasAdd / kBiasSigmoid / kBiasDsigmoidMul
  const Matrix* act = nullptr;   // kDsigmoidMul / kBiasDsigmoidMul

  static GemmEpilogue none() { return {}; }
  static GemmEpilogue bias_add(const Vector& bias) {
    return {EpilogueOp::kBiasAdd, &bias, nullptr};
  }
  static GemmEpilogue bias_sigmoid(const Vector& bias) {
    return {EpilogueOp::kBiasSigmoid, &bias, nullptr};
  }
  static GemmEpilogue dsigmoid_mul(const Matrix& act) {
    return {EpilogueOp::kDsigmoidMul, nullptr, &act};
  }
  static GemmEpilogue bias_dsigmoid_mul(const Vector& bias, const Matrix& act) {
    return {EpilogueOp::kBiasDsigmoidMul, &bias, &act};
  }
};

/// C = alpha · op(A) · op(B) + beta · C.
/// op(A) is m×k, op(B) is k×n, C is m×n; shapes are validated.
void gemm(Trans trans_a, Trans trans_b, float alpha, const Matrix& a,
          const Matrix& b, float beta, Matrix& c);

/// Same, with `epilogue` applied at write-back (see EpilogueOp).
void gemm(Trans trans_a, Trans trans_b, float alpha, const Matrix& a,
          const Matrix& b, float beta, Matrix& c, const GemmEpilogue& epilogue);

/// C = alpha · A·B + beta · C.
inline void gemm_nn(float alpha, const Matrix& a, const Matrix& b, float beta,
                    Matrix& c) {
  gemm(Trans::kNo, Trans::kNo, alpha, a, b, beta, c);
}
inline void gemm_nn(float alpha, const Matrix& a, const Matrix& b, float beta,
                    Matrix& c, const GemmEpilogue& epilogue) {
  gemm(Trans::kNo, Trans::kNo, alpha, a, b, beta, c, epilogue);
}

/// C = alpha · A·Bᵀ + beta · C. (Forward pass: activations × weightsᵀ.)
inline void gemm_nt(float alpha, const Matrix& a, const Matrix& b, float beta,
                    Matrix& c) {
  gemm(Trans::kNo, Trans::kYes, alpha, a, b, beta, c);
}
inline void gemm_nt(float alpha, const Matrix& a, const Matrix& b, float beta,
                    Matrix& c, const GemmEpilogue& epilogue) {
  gemm(Trans::kNo, Trans::kYes, alpha, a, b, beta, c, epilogue);
}

/// C = alpha · Aᵀ·B + beta · C. (Gradients: deltasᵀ × activations.)
inline void gemm_tn(float alpha, const Matrix& a, const Matrix& b, float beta,
                    Matrix& c) {
  gemm(Trans::kYes, Trans::kNo, alpha, a, b, beta, c);
}
inline void gemm_tn(float alpha, const Matrix& a, const Matrix& b, float beta,
                    Matrix& c, const GemmEpilogue& epilogue) {
  gemm(Trans::kYes, Trans::kNo, alpha, a, b, beta, c, epilogue);
}

/// Cache-blocking parameters, exposed for tests and the granularity
/// ablation (bench_gemm_blocking). The register micro-tile is not among
/// them: it comes from the dispatched tier's KernelTable. kc alone fixes
/// each C element's accumulation order, so changing it changes results;
/// mc and nc only move work between caches. mc = 120 = 10·lcm(12, 6, 4)
/// fills every tier's A micro-panels.
struct GemmBlocking {
  Index mc = 120;   // rows of A packed at once
  Index kc = 256;   // shared dimension panel
  Index nc = 1024;  // cols of B packed at once
};

/// op(B) packed once into the nr-column panels gemm() packs per call: the
/// bound tier's nr at the default GemmBlocking{} kc, for all n columns. The
/// panels are tied to the tier bound at construction, so the gemm() entry
/// below throws util::Error under any other tier. Immutable; move-only.
/// Under phi::DryRun it keeps only the shape.
class PackedB {
 public:
  PackedB() = default;
  PackedB(Trans trans, const Matrix& b);

  Index rows() const { return k_; }  ///< k of op(B)
  Index cols() const { return n_; }  ///< n of op(B)
  simd::Tier tier() const { return tier_; }
  /// k-panel p (rows [p·kc, p·kc + kc_eff) of op(B)) starts at
  /// panels() + p·kc·padded_cols(); within it the nr-column panel holding
  /// column j starts j·kc_eff floats in.
  const float* panels() const { return panels_.get(); }
  Index padded_cols() const { return padded_cols_; }

 private:
  Index k_ = 0;
  Index n_ = 0;
  Index padded_cols_ = 0;
  simd::Tier tier_ = simd::Tier::kScalar;
  util::AlignedBuffer<float> panels_;
};

/// C = alpha · op(A) · B + beta · C at the default blocking, B packed once.
/// Bit-identical to gemm() on the matrix B was packed from; same accounting.
void gemm(Trans trans_a, float alpha, const Matrix& a, const PackedB& b,
          float beta, Matrix& c, const GemmEpilogue& epilogue);

/// GEMM with explicit blocking (tests sweep this; the default entry uses
/// GemmBlocking{}).
void gemm_blocked(Trans trans_a, Trans trans_b, float alpha, const Matrix& a,
                  const Matrix& b, float beta, Matrix& c,
                  const GemmBlocking& blocking);

/// GEMM with explicit blocking and a fused epilogue.
void gemm_blocked(Trans trans_a, Trans trans_b, float alpha, const Matrix& a,
                  const Matrix& b, float beta, Matrix& c,
                  const GemmBlocking& blocking, const GemmEpilogue& epilogue);

}  // namespace deepphi::la
