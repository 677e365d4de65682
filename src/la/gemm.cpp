#include "la/gemm.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

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

// Packing. A kc×width block of op(A)ᵀ or op(B) is stored as w-wide panels
// (w = the tile's MR for A, NR for B): panel p holds columns [p·w, p·w+w) of
// the block k-major — element (kk, j) at kk·w + j — zero-padded past width.
// The four transpose cases come down to two source layouts, each read
// contiguously: a source row runs either along the panel width (op(A) = Aᵀ,
// op(B) = B) or along k (op(A) = A, op(B) = Bᵀ). `src` points at the block's
// first element and `ld` is the source's leading dimension.

// Source element (kk, j) at src[kk·ld + j]: each k step of a panel is one
// contiguous run of a source row.
void pack_rows_along_width(const float* src, Index ld, Index kc, Index width,
                           Index w, float* buf) {
  for (Index j0 = 0; j0 < width; j0 += w) {
    const Index cols = std::min(w, width - j0);
    float* dst = buf + j0 * kc;
    for (Index kk = 0; kk < kc; ++kk) {
      const float* s = src + kk * ld + j0;
      float* d = dst + kk * w;
      std::copy_n(s, cols, d);
      std::fill(d + cols, d + w, 0.0f);
    }
  }
}

// Source element (kk, j) at src[j·ld + kk] — each panel column is one
// contiguous run of a source row — is the dispatched
// simd::KernelTable::pack_along_k, which transposes in registers.

// Packs the mc×kc block of op(A) at (ic, pc) into the tier's mr-row panels.
void pack_a(const Matrix& a, Trans ta, Index ic, Index pc, Index mc, Index kc,
            const simd::KernelTable& tab, float* buf) {
  if (ta == Trans::kNo) {
    tab.pack_along_k(a.data() + ic * a.cols() + pc, a.cols(), kc, mc,
                     tab.gemm_mr, buf);
  } else {
    pack_rows_along_width(a.data() + pc * a.cols() + ic, a.cols(), kc, mc,
                          tab.gemm_mr, buf);
  }
}

// Packs the kc×nc block of op(B) at (pc, jc) into the tier's nr-column
// panels.
void pack_b(const Matrix& b, Trans tb, Index pc, Index jc, Index kc, Index nc,
            const simd::KernelTable& tab, float* buf) {
  if (tb == Trans::kNo) {
    pack_rows_along_width(b.data() + pc * b.cols() + jc, b.cols(), kc, nc,
                          tab.gemm_nr, buf);
  } else {
    tab.pack_along_k(b.data() + jc * b.cols() + pc, b.cols(), kc, nc,
                     tab.gemm_nr, buf);
  }
}

// Serial blocked GEMM over the C tile [row_begin, row_end) × [col_begin,
// col_end). `a_buf` and `b_buf` are caller-provided packing buffers sized for
// the blocking and `tab`'s register tile; with `packed_b` set, B's panels
// are read from it instead of packed from `b` into b_buf. Beta is folded
// into the first k-panel's write-back and the epilogue into the last one's,
// so the tile is touched exactly once per k-panel and never in a separate
// elementwise pass.
// The MR×NR micro-kernel itself lives in the dispatch layer (src/la/simd/),
// one explicit-intrinsics instantiation per ISA tier and EpilogueOp; `tab`
// is the bound tier's table.
void gemm_tile(Trans ta, Trans tb, float alpha, float beta, const Matrix& a,
               const Matrix* b, const PackedB* packed_b, Matrix& c,
               Index row_begin, Index row_end, Index col_begin, Index col_end,
               Index k, const GemmBlocking& bl, float* a_buf, float* b_buf,
               const GemmEpilogue& ep, const simd::KernelTable& tab) {
  const simd::KernelTable::GemmMicroFn micro =
      tab.gemm_micro[static_cast<int>(ep.op)];
  const Index mr = tab.gemm_mr;
  const Index nr = tab.gemm_nr;
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
      const float* b_block = b_buf;
      if (packed_b != nullptr) {
        b_block = packed_b->panels() + pc * packed_b->padded_cols() +
                  jc * kc_eff;
      } else {
        pack_b(*b, tb, pc, jc, kc_eff, nc_eff, tab, b_buf);
      }
      for (Index ic = row_begin; ic < row_end; ic += bl.mc) {
        const Index mc_eff = std::min(bl.mc, row_end - ic);
        pack_a(a, ta, ic, pc, mc_eff, kc_eff, tab, a_buf);
        for (Index jr = 0; jr < nc_eff; jr += nr) {
          const float* bp = b_block + jr * kc_eff;
#ifndef NDEBUG
          // B-panel rows feed the aligned vector loads; each panel starts a
          // kc_eff·nr·4 byte multiple of 64 past the aligned base.
          simd::check_panel_alignment(b_block, bp);
#endif
          const Index c0 = jc + jr;
          const float* bias = bias_base != nullptr ? bias_base + c0 : nullptr;
          for (Index ir = 0; ir < mc_eff; ir += mr) {
            const float* ap = a_buf + ir * kc_eff;
            const Index r0 = ic + ir;
            const float* act_p =
                act != nullptr ? act->data() + r0 * act_ld + c0 : nullptr;
            micro(ap, bp, kc_eff, alpha, beta, first_k, last_k, bias, act_p,
                  act_ld, c.row(r0) + c0, ldc, std::min(mr, mc_eff - ir),
                  std::min(nr, nc_eff - jr));
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

// Products of fewer flops than this run on the calling thread. On a 4-core
// AVX-512 host (bench_micro_kernels BM_GemmSmall, 1 vs 3 threads) a team
// saved at most 2.1 µs a call up to 0.5 MFLOP when the host was idle, and
// lost at 16³ and 32³; beside four busy processes the same calls took 3–16×
// longer on the team, each fork waiting on a descheduled thread. From 2²⁰
// flops (128×64×64, or a 1-row 576→1024 encode) the team saved 3.6–175 µs
// a call idle. Every training GEMM of perfbench is above it.
constexpr double kSerialFlops = 1 << 20;

// Grid decomposition + parallel tile loop over the table bound at the call
// (its register tile sizes the grid, the arena and the packing).
void run_blocked(Trans trans_a, Trans trans_b, float alpha, const Matrix& a,
                 const Matrix* b, const PackedB* packed_b, float beta,
                 Matrix& c, const GemmBlocking& bl, const GemmEpilogue& ep,
                 Index m, Index n, Index k) {
  const simd::KernelTable& tab = simd::active();
  const Index mr = tab.gemm_mr;
  const Index nr = tab.gemm_nr;
  // 2-D (ic, jc) tile grid over C: one tile per thread where the shape
  // allows, in near-equal bands of whole register tiles. A row band packs
  // its own copy of op(B) and a column band its own copy of op(A), so the
  // longer dimension is split first and the other only when it has too few
  // register tiles to give every thread one. Skinny products (gemm_tn
  // gradients with small m) still use every core. The decomposition never
  // changes results: tiles are disjoint and each element's k-accumulation
  // order is fixed by bl.kc alone. Below kSerialFlops the product is one
  // tile on the calling thread, and above it the team is never wider than
  // the tile grid.
  Index threads = 1;
#ifdef _OPENMP
  if (2.0 * static_cast<double>(m) * static_cast<double>(n) *
          static_cast<double>(k) >=
      kSerialFlops)
    threads = omp_get_max_threads();
#endif
  const Index row_tiles = (m + mr - 1) / mr;
  const Index col_tiles = (n + nr - 1) / nr;
  Index split_m = 1, split_n = 1;
  if (m >= n) {
    split_m = std::min(threads, row_tiles);
    split_n = std::min(threads / split_m, col_tiles);
  } else {
    split_n = std::min(threads, col_tiles);
    split_m = std::min(threads / split_n, row_tiles);
  }
  const Index tile_m = (row_tiles + split_m - 1) / split_m * mr;
  const Index tile_n = (col_tiles + split_n - 1) / split_n * nr;
  const Index grid_m = (m + tile_m - 1) / tile_m;
  const Index grid_n = (n + tile_n - 1) / tile_n;
  const Index tiles = grid_m * grid_n;

  // Per-thread packing space: one arena allocation holding the A panel (at
  // offset 0) and the B panel (at the next 64-byte boundary).
  const Index a_buf_elems = (bl.mc + mr - 1) / mr * mr * bl.kc;
  const Index b_buf_elems = (bl.nc + nr - 1) / nr * nr * bl.kc;
  const std::size_t a_span =
      (static_cast<std::size_t>(a_buf_elems) + 15) / 16 * 16;
  const std::size_t arena_elems = a_span + static_cast<std::size_t>(b_buf_elems);

#pragma omp parallel num_threads(static_cast<int>(tiles)) if (tiles > 1)
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
        gemm_tile(trans_a, trans_b, alpha, beta, a, b, packed_b, c,
                  row_begin, row_end, col_begin, col_end, k, bl, a_buf, b_buf,
                  ep, tab);
      }
    }
  }
}

// True when `x` and `y` may overlap in memory. A RowView borrows another
// matrix's rows, so distinct objects can share storage and the ranges are
// compared; under phi::DryRun neither has storage, and only the same object
// is caught.
bool shares_storage(const Matrix& x, const Matrix& y) {
  if (&x == &y) return true;
  if (x.data() == nullptr || y.data() == nullptr || x.empty() || y.empty())
    return false;
  const std::less<const float*> before;
  return before(x.data(), y.data() + y.size()) &&
         before(y.data(), x.data() + x.size());
}

// The body both gemm entries share once op(B) is k×n: argument checks,
// accounting, the degenerate beta/epilogue pass, then the blocked product
// with B packed per call from `b`, or read from `packed_b`.
void gemm_checked(Trans trans_a, Trans trans_b, float alpha, const Matrix& a,
                  const Matrix* b, const PackedB* packed_b, Index kb, Index n,
                  float beta, Matrix& c, const GemmBlocking& bl,
                  const GemmEpilogue& ep) {
  DEEPPHI_PROFILE_SCOPE("gemm");
  const Index m = trans_a == Trans::kNo ? a.rows() : a.cols();
  const Index ka = trans_a == Trans::kNo ? a.cols() : a.rows();
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
    DEEPPHI_CHECK_MSG(ep.act != nullptr && ep.act->rows() == m &&
                          ep.act->cols() == n && !shares_storage(*ep.act, c),
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
  run_blocked(trans_a, trans_b, alpha, a, b, packed_b, beta, c, bl, ep, m, n,
              ka);
}

}  // namespace

PackedB::PackedB(Trans trans, const Matrix& b) {
  const simd::KernelTable& tab = simd::active();
  const GemmBlocking bl;
  const Index nr = tab.gemm_nr;
  // gemm_tile finds column jc's panel at jc·kc_eff into a k-panel, which
  // holds when every jc it visits is a multiple of nr.
  DEEPPHI_CHECK_MSG(bl.nc % nr == 0, "default nc " << bl.nc
                                                   << " is not a multiple of "
                                                   << "nr " << nr);
  tier_ = tab.tier;
  k_ = trans == Trans::kNo ? b.rows() : b.cols();
  n_ = trans == Trans::kNo ? b.cols() : b.rows();
  padded_cols_ = (n_ + nr - 1) / nr * nr;
  if (phi::dry_run() || k_ == 0 || n_ == 0) return;
  panels_ =
      util::make_aligned<float>(static_cast<std::size_t>(k_ * padded_cols_));
  for (Index pc = 0; pc < k_; pc += bl.kc)
    pack_b(b, trans, pc, 0, std::min(bl.kc, k_ - pc), n_, tab,
           panels_.get() + pc * padded_cols_);
}

void gemm(Trans trans_a, float alpha, const Matrix& a, const PackedB& b,
          float beta, Matrix& c, const GemmEpilogue& ep) {
  DEEPPHI_CHECK_MSG(b.tier() == simd::active_tier(),
                    "gemm operand B was packed for the "
                        << simd::tier_name(b.tier()) << " tier, but "
                        << simd::tier_name(simd::active_tier())
                        << " is bound");
  gemm_checked(trans_a, Trans::kNo, alpha, a, nullptr, &b, b.rows(), b.cols(),
               beta, c, GemmBlocking{}, ep);
}

void gemm_blocked(Trans trans_a, Trans trans_b, float alpha, const Matrix& a,
                  const Matrix& b, float beta, Matrix& c,
                  const GemmBlocking& bl, const GemmEpilogue& ep) {
  const Index kb = trans_b == Trans::kNo ? b.rows() : b.cols();
  const Index n = trans_b == Trans::kNo ? b.cols() : b.rows();
  gemm_checked(trans_a, trans_b, alpha, a, &b, nullptr, kb, n, beta, c, bl, ep);
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
