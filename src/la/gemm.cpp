#include "la/gemm.hpp"

#include <algorithm>
#include <cmath>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "la/pack_arena.hpp"
#include "la/simd/dispatch.hpp"
#include "la/simd/vec_ops.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "phi/kernel_stats.hpp"

namespace deepphi::la {

namespace {

constexpr Index MR = simd::kMR;
constexpr Index NR = simd::kNR;

// op(M)(i, j) under the trans flag. Only used in packing; the micro-kernel
// reads packed panels.
inline float op_elem(const Matrix& m, Trans t, Index i, Index j) {
  return t == Trans::kNo ? m(i, j) : m(j, i);
}

// Packs the mc×kc block of op(A) starting at (ic, pc) into MR-row panels:
// panel p holds rows [p·MR, p·MR+MR) stored k-major, zero-padded past mc.
void pack_a(const Matrix& a, Trans ta, Index ic, Index pc, Index mc, Index kc,
            float* buf) {
  const Index panels = (mc + MR - 1) / MR;
  for (Index p = 0; p < panels; ++p) {
    const Index i0 = p * MR;
    float* dst = buf + p * kc * MR;
    for (Index kk = 0; kk < kc; ++kk) {
      for (Index i = 0; i < MR; ++i) {
        const Index ii = i0 + i;
        dst[kk * MR + i] =
            ii < mc ? op_elem(a, ta, ic + ii, pc + kk) : 0.0f;
      }
    }
  }
}

// Packs the kc×nc block of op(B) starting at (pc, jc) into NR-column panels:
// panel p holds columns [p·NR, p·NR+NR) stored k-major, zero-padded past nc.
void pack_b(const Matrix& b, Trans tb, Index pc, Index jc, Index kc, Index nc,
            float* buf) {
  const Index panels = (nc + NR - 1) / NR;
  for (Index p = 0; p < panels; ++p) {
    const Index j0 = p * NR;
    float* dst = buf + p * kc * NR;
    for (Index kk = 0; kk < kc; ++kk) {
      for (Index j = 0; j < NR; ++j) {
        const Index jj = j0 + j;
        dst[kk * NR + j] =
            jj < nc ? op_elem(b, tb, pc + kk, jc + jj) : 0.0f;
      }
    }
  }
}

// Serial blocked GEMM over the C tile [row_begin, row_end) × [col_begin,
// col_end). `a_buf` and `b_buf` are caller-provided packing buffers sized for
// the blocking. Beta is folded into the first k-panel's write-back and the
// epilogue into the last one's, so the tile is touched exactly once per
// k-panel and never in a separate elementwise pass. The MR×NR micro-kernel
// itself lives in the dispatch layer (src/la/simd/), one explicit-intrinsics
// instantiation per ISA tier and EpilogueOp; `micro` is the bound function
// pointer for this call's epilogue.
void gemm_tile(Trans ta, Trans tb, float alpha, float beta, const Matrix& a,
               const Matrix& b, Matrix& c, Index row_begin, Index row_end,
               Index col_begin, Index col_end, Index k, const GemmBlocking& bl,
               float* a_buf, float* b_buf, const GemmEpilogue& ep,
               simd::KernelTable::GemmMicroFn micro) {
  const float* bias_base = ep.bias != nullptr ? ep.bias->data() : nullptr;
  const Matrix* act = ep.act;
  const Index act_ld = act != nullptr ? act->cols() : 0;
  const Index ldc = c.cols();
  for (Index jc = col_begin; jc < col_end; jc += bl.nc) {
    const Index nc_eff = std::min(bl.nc, col_end - jc);
    for (Index pc = 0; pc < k; pc += bl.kc) {
      const Index kc_eff = std::min(bl.kc, k - pc);
      const bool first_k = pc == 0;
      const bool last_k = pc + kc_eff == k;
      pack_b(b, tb, pc, jc, kc_eff, nc_eff, b_buf);
      for (Index ic = row_begin; ic < row_end; ic += bl.mc) {
        const Index mc_eff = std::min(bl.mc, row_end - ic);
        pack_a(a, ta, ic, pc, mc_eff, kc_eff, a_buf);
        for (Index jr = 0; jr < nc_eff; jr += NR) {
          const float* bp = b_buf + (jr / NR) * kc_eff * NR;
#ifndef NDEBUG
          // B-panel rows feed the aligned vector loads; each panel starts a
          // kc_eff·NR·4 = 64·kc_eff byte multiple past the aligned base.
          simd::check_panel_alignment(b_buf, bp);
#endif
          const Index c0 = jc + jr;
          const float* bias = bias_base != nullptr ? bias_base + c0 : nullptr;
          for (Index ir = 0; ir < mc_eff; ir += MR) {
            const float* ap = a_buf + (ir / MR) * kc_eff * MR;
            const Index r0 = ic + ir;
            const float* act_p =
                act != nullptr ? act->data() + r0 * act_ld + c0 : nullptr;
            micro(ap, bp, kc_eff, alpha, beta, first_k, last_k, bias, act_p,
                  act_ld, c.row(r0) + c0, ldc, std::min(MR, mc_eff - ir),
                  std::min(NR, nc_eff - jr));
          }
        }
      }
    }
  }
}

// Degenerate case (k == 0 or alpha == 0): no accumulation loop runs, so the
// beta scaling and the epilogue are applied in one standalone parallel pass.
void apply_beta_epilogue(Matrix& c, float beta, const GemmEpilogue& ep) {
  const Index rows = c.rows();
  const Index cols = c.cols();
  const float* bias = ep.bias != nullptr ? ep.bias->data() : nullptr;
#pragma omp parallel for schedule(static)
  for (Index r = 0; r < rows; ++r) {
    float* crow = c.row(r);
    const float* arow =
        ep.act != nullptr ? ep.act->row(r) : nullptr;
    for (Index j = 0; j < cols; ++j) {
      float v = beta == 0.0f ? 0.0f : beta * crow[j];
      switch (ep.op) {
        case EpilogueOp::kNone:
          break;
        case EpilogueOp::kBiasAdd:
          v += bias[j];
          break;
        case EpilogueOp::kBiasSigmoid:
          v = simd::sigmoid_scalar(v + bias[j]);
          break;
        case EpilogueOp::kDsigmoidMul:
          v *= arow[j] * (1.0f - arow[j]);
          break;
        case EpilogueOp::kBiasDsigmoidMul:
          v = (v + bias[j]) * arow[j] * (1.0f - arow[j]);
          break;
      }
      crow[j] = v;
    }
  }
}

// Per-element loop-class cost of a *fused* epilogue. Fused epilogues carry
// no C traffic — the tile is cache-hot at write-back — only the flops and
// the streamed reads of `act`. Recorded only when run_blocked actually fuses;
// the degenerate path records record_beta_epilogue_pass instead.
void record_epilogue(const GemmEpilogue& ep, Index m, Index n) {
  if (ep.op != EpilogueOp::kNone) {
    static obs::Counter& fused = obs::counter("gemm.fused_epilogues");
    fused.add();
  }
  switch (ep.op) {
    case EpilogueOp::kNone:
      return;
    case EpilogueOp::kBiasAdd:
      phi::record(phi::epilogue_contribution(m * n, 1.0, 0.0));
      return;
    case EpilogueOp::kBiasSigmoid:
      phi::record(phi::epilogue_contribution(m * n, 9.0, 0.0));
      return;
    case EpilogueOp::kDsigmoidMul:
      phi::record(phi::epilogue_contribution(m * n, 3.0, 1.0));
      return;
    case EpilogueOp::kBiasDsigmoidMul:
      phi::record(phi::epilogue_contribution(m * n, 4.0, 1.0));
      return;
  }
}

// Cost of the standalone apply_beta_epilogue pass (ka == 0 / alpha == 0):
// unlike the fused write-back it streams the full C matrix — a C read per
// element when beta != 0, always a C write — so it is plain loop work, not a
// fused epilogue. Its kernel launch is already carried by gemm_contribution
// (one parallel region per gemm_blocked call on every path).
void record_beta_epilogue_pass(const GemmEpilogue& ep, float beta, Index m,
                               Index n) {
  double flops = beta == 0.0f ? 0.0 : 1.0;
  double reads = beta == 0.0f ? 0.0 : 1.0;
  switch (ep.op) {
    case EpilogueOp::kNone:
      break;
    case EpilogueOp::kBiasAdd:
      flops += 1.0;
      break;
    case EpilogueOp::kBiasSigmoid:
      flops += 9.0;
      break;
    case EpilogueOp::kDsigmoidMul:
      flops += 3.0;
      reads += 1.0;
      break;
    case EpilogueOp::kBiasDsigmoidMul:
      flops += 4.0;
      reads += 1.0;
      break;
  }
  phi::KernelStats s = phi::loop_contribution(m * n, flops, reads, 1.0);
  s.kernel_launches = 0;
  phi::record(s);
}

// Grid decomposition + parallel tile loop. The per-epilogue codegen now
// lives behind the dispatched micro-kernel pointer, selected once per call.
void run_blocked(Trans trans_a, Trans trans_b, float alpha, const Matrix& a,
                 const Matrix& b, float beta, Matrix& c, const GemmBlocking& bl,
                 const GemmEpilogue& ep, Index m, Index n, Index k) {
  const simd::KernelTable& tab = simd::active();
  const simd::KernelTable::GemmMicroFn micro =
      tab.gemm_micro[static_cast<int>(ep.op)];
  // 2-D (ic, jc) tile grid over C. Tiles start at the cache-blocking size and
  // are split — at register-tile granularity, preferring the dimension with
  // more room — until the grid covers the thread count, so skinny products
  // (gemm_tn gradients with small m) still use every core. The decomposition
  // never changes results: tiles are disjoint and each element's
  // k-accumulation order is fixed by bl.kc alone.
  int max_threads = 1;
#ifdef _OPENMP
  max_threads = omp_get_max_threads();
#endif
  Index tile_m = std::min(bl.mc, m);
  Index tile_n = std::min(bl.nc, n);
  auto grid_size = [&] {
    return ((m + tile_m - 1) / tile_m) * ((n + tile_n - 1) / tile_n);
  };
  while (grid_size() < max_threads && (tile_m > MR || tile_n > NR)) {
    // Split only a dimension that can still shrink: halving a tile already at
    // its register-tile floor returns it unchanged, so picking it would spin
    // forever (e.g. tile_m == MR with NR < tile_n < 2·NR).
    if (tile_m > MR && (tile_n <= NR || tile_m / MR >= tile_n / NR)) {
      tile_m = std::max<Index>(MR, (tile_m / 2 + MR - 1) / MR * MR);
    } else {
      tile_n = std::max<Index>(NR, (tile_n / 2 + NR - 1) / NR * NR);
    }
  }
  const Index grid_m = (m + tile_m - 1) / tile_m;
  const Index grid_n = (n + tile_n - 1) / tile_n;
  const Index tiles = grid_m * grid_n;

  // Per-thread packing space: one arena allocation holding the A panel (at
  // offset 0) and the B panel (at the next 64-byte boundary).
  const Index a_buf_elems = (bl.mc + MR - 1) / MR * MR * bl.kc;
  const Index b_buf_elems = (bl.nc + NR - 1) / NR * NR * bl.kc;
  const std::size_t a_span =
      (static_cast<std::size_t>(a_buf_elems) + 15) / 16 * 16;
  const std::size_t arena_elems = a_span + static_cast<std::size_t>(b_buf_elems);

#pragma omp parallel
  {
    int nthreads = 1, tid = 0;
#ifdef _OPENMP
    nthreads = omp_get_num_threads();
    tid = omp_get_thread_num();
#endif
    if (tid < tiles) {
      float* buf = pack_arena(arena_elems);
      float* a_buf = buf;
      float* b_buf = buf + a_span;
      // Both panels sit on 64-byte boundaries (arena base + a_span, a
      // multiple of 16 floats) — the aligned-load contract of the vector
      // micro-kernels.
      simd::check_panel_alignment(a_buf, b_buf);
      for (Index t = tid; t < tiles; t += nthreads) {
        const Index tr = t / grid_n;
        const Index tc = t % grid_n;
        const Index row_begin = tr * tile_m;
        const Index row_end = std::min(row_begin + tile_m, m);
        const Index col_begin = tc * tile_n;
        const Index col_end = std::min(col_begin + tile_n, n);
        gemm_tile(trans_a, trans_b, alpha, beta, a, b, c, row_begin, row_end,
                  col_begin, col_end, k, bl, a_buf, b_buf, ep, micro);
      }
    }
  }
}

}  // namespace

void gemm_blocked(Trans trans_a, Trans trans_b, float alpha, const Matrix& a,
                  const Matrix& b, float beta, Matrix& c,
                  const GemmBlocking& bl, const GemmEpilogue& ep) {
  DEEPPHI_PROFILE_SCOPE("gemm");
  const Index m = trans_a == Trans::kNo ? a.rows() : a.cols();
  const Index ka = trans_a == Trans::kNo ? a.cols() : a.rows();
  const Index kb = trans_b == Trans::kNo ? b.rows() : b.cols();
  const Index n = trans_b == Trans::kNo ? b.cols() : b.rows();
  DEEPPHI_CHECK_MSG(ka == kb, "gemm inner dims: op(A) is " << m << "x" << ka
                                                           << ", op(B) is " << kb
                                                           << "x" << n);
  DEEPPHI_CHECK_MSG(c.rows() == m && c.cols() == n,
                    "gemm C must be " << m << "x" << n << ", got " << c.rows()
                                      << "x" << c.cols());
  DEEPPHI_CHECK_MSG(bl.mc > 0 && bl.kc > 0 && bl.nc > 0, "non-positive blocking");
  if (ep.op == EpilogueOp::kBiasAdd || ep.op == EpilogueOp::kBiasSigmoid ||
      ep.op == EpilogueOp::kBiasDsigmoidMul) {
    DEEPPHI_CHECK_MSG(ep.bias != nullptr && ep.bias->size() == n,
                      "epilogue bias must have size " << n);
  }
  if (ep.op == EpilogueOp::kDsigmoidMul ||
      ep.op == EpilogueOp::kBiasDsigmoidMul) {
    // A Matrix owns its storage exclusively, so distinct objects never
    // alias — and under phi::DryRun neither has a data pointer to compare.
    DEEPPHI_CHECK_MSG(ep.act != nullptr && ep.act->rows() == m &&
                          ep.act->cols() == n && ep.act != &c,
                      "epilogue act must be a distinct " << m << "x" << n
                                                         << " matrix");
  }
  phi::record(phi::gemm_contribution(m, n, ka));
  if (m == 0 || n == 0) return;

  if (ka == 0 || alpha == 0.0f) {
    record_beta_epilogue_pass(ep, beta, m, n);
    if (phi::dry_run()) return;
    apply_beta_epilogue(c, beta, ep);
    return;
  }

  record_epilogue(ep, m, n);
  if (phi::dry_run()) return;
  run_blocked(trans_a, trans_b, alpha, a, b, beta, c, bl, ep, m, n, ka);
}

void gemm_blocked(Trans trans_a, Trans trans_b, float alpha, const Matrix& a,
                  const Matrix& b, float beta, Matrix& c,
                  const GemmBlocking& bl) {
  gemm_blocked(trans_a, trans_b, alpha, a, b, beta, c, bl, GemmEpilogue{});
}

void gemm(Trans trans_a, Trans trans_b, float alpha, const Matrix& a,
          const Matrix& b, float beta, Matrix& c) {
  gemm_blocked(trans_a, trans_b, alpha, a, b, beta, c, GemmBlocking{},
               GemmEpilogue{});
}

void gemm(Trans trans_a, Trans trans_b, float alpha, const Matrix& a,
          const Matrix& b, float beta, Matrix& c, const GemmEpilogue& ep) {
  gemm_blocked(trans_a, trans_b, alpha, a, b, beta, c, GemmBlocking{}, ep);
}

}  // namespace deepphi::la
