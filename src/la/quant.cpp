#include "la/quant.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "la/elementwise.hpp"
#include "la/simd/dispatch.hpp"
#include "phi/kernel_stats.hpp"
#include "util/error.hpp"

namespace deepphi::la::quant {

namespace {

constexpr Index kParallelThreshold = 1 << 14;

Index groups_for(Index cols, Index group) {
  return (cols + group - 1) / group;
}

/// Round-to-nearest used everywhere codes are produced. Quantization runs in
/// scalar code only (never per-tier vector code), so its rounding mode is a
/// file-local choice, not part of the cross-tier parity contract.
std::int32_t round_code(float v) {
  return static_cast<std::int32_t>(std::lround(v));
}

}  // namespace

void check_group(Index group) {
  DEEPPHI_CHECK_MSG(group > 0 && group % kGroupAlign == 0 && group <= kMaxGroup,
                    "quantization group must be a positive multiple of "
                        << kGroupAlign << " no larger than " << kMaxGroup
                        << ", got " << group);
}

QuantizedWeights QuantizedWeights::allocate(Index rows, Index cols,
                                            Index group) {
  check_group(group);
  DEEPPHI_CHECK_MSG(rows > 0 && cols > 0,
                    "quantized weights need positive dims, got " << rows << "x"
                                                                 << cols);
  QuantizedWeights q;
  q.rows_ = rows;
  q.cols_ = cols;
  q.group_ = group;
  q.groups_ = groups_for(cols, group);
  const std::size_t ncodes =
      static_cast<std::size_t>(rows) * static_cast<std::size_t>(q.padded_cols());
  const std::size_t nscales =
      static_cast<std::size_t>(rows) * static_cast<std::size_t>(q.groups_);
  q.codes_ = util::make_aligned<std::int8_t>(ncodes);
  q.scales_ = util::make_aligned<float>(nscales);
  q.wsums_ = util::make_aligned<std::int32_t>(nscales);
  std::memset(q.codes_.get(), 0, ncodes);
  std::memset(q.scales_.get(), 0, nscales * sizeof(float));
  std::memset(q.wsums_.get(), 0, nscales * sizeof(std::int32_t));
  return q;
}

QuantizedWeights QuantizedWeights::quantize(const Matrix& w, Index group) {
  QuantizedWeights q = allocate(w.rows(), w.cols(), group);
  for (Index r = 0; r < q.rows_; ++r) {
    const float* src = w.row(r);
    std::int8_t* dst = q.codes(r);
    float* sc = q.scales(r);
    std::int32_t* ws = q.wsums_.get() + r * q.groups_;
    for (Index g = 0; g < q.groups_; ++g) {
      const Index c0 = g * group;
      const Index len = std::min(group, q.cols_ - c0);
      float amax = 0.0f;
      for (Index j = 0; j < len; ++j)
        amax = std::max(amax, std::fabs(src[c0 + j]));
      // amax == 0 keeps scale 0 and all-zero codes: the group dequantizes to
      // exactly 0 and contributes nothing to the dot.
      const float scale = amax / static_cast<float>(kWeightMaxCode);
      sc[g] = scale;
      std::int32_t sum = 0;
      if (scale > 0.0f) {
        for (Index j = 0; j < len; ++j) {
          const std::int32_t code = std::clamp(
              round_code(src[c0 + j] / scale), -kWeightMaxCode, kWeightMaxCode);
          dst[c0 + j] = static_cast<std::int8_t>(code);
          sum += code;
        }
      }
      ws[g] = sum;  // zero padding contributes 0 by construction
    }
  }
  return q;
}

void QuantizedWeights::rebuild_wsums() {
  for (Index r = 0; r < rows_; ++r) {
    const std::int8_t* src = codes(r);
    std::int32_t* ws = wsums_.get() + r * groups_;
    for (Index g = 0; g < groups_; ++g) {
      const Index c0 = g * group_;
      std::int32_t sum = 0;
      for (Index j = 0; j < group_; ++j) {
        const std::int32_t code = src[c0 + j];
        DEEPPHI_CHECK_MSG(code >= -kWeightMaxCode && code <= kWeightMaxCode,
                          "weight code " << code << " at row " << r
                                         << " out of [-127, 127]");
        DEEPPHI_CHECK_MSG(c0 + j < cols_ || code == 0,
                          "nonzero code in the zero-padded tail of row " << r);
        sum += code;
      }
      ws[g] = sum;
    }
  }
}

Matrix QuantizedWeights::dequantize() const {
  Matrix w(rows_, cols_);
  for (Index r = 0; r < rows_; ++r) {
    const std::int8_t* src = codes(r);
    const float* sc = scales(r);
    float* dst = w.row(r);
    for (Index c = 0; c < cols_; ++c)
      dst[c] = sc[c / group_] * static_cast<float>(src[c]);
  }
  return w;
}

void QuantizedActivations::quantize(const Matrix& x, Index group) {
  check_group(group);
  DEEPPHI_CHECK_MSG(x.rows() > 0 && x.cols() > 0,
                    "cannot quantize an empty activation batch");
  rows_ = x.rows();
  cols_ = x.cols();
  group_ = group;
  groups_ = groups_for(cols_, group);
  // ~4 scalar ops per element (range scan + divide/round/clamp), one float
  // read, one code byte written.
  phi::record(phi::loop_contribution(rows_ * cols_, 4.0, 1.0, 0.25));
  if (phi::dry_run()) return;
  const Index ncodes = rows_ * padded_cols();
  if (ncodes > code_capacity_) {
    codes_ = util::make_aligned<std::uint8_t>(static_cast<std::size_t>(ncodes));
    code_capacity_ = ncodes;
  }
  if (rows_ > row_capacity_) {
    scales_ = util::make_aligned<float>(static_cast<std::size_t>(rows_));
    zps_ = util::make_aligned<std::int32_t>(static_cast<std::size_t>(rows_));
    row_capacity_ = rows_;
  }
  const Index pad = padded_cols();
  for (Index r = 0; r < rows_; ++r) {
    const float* src = x.row(r);
    std::uint8_t* dst = codes_.get() + r * pad;
    // Row range anchored at 0 so the zero point is always representable;
    // per-row so codes are independent of batch composition.
    float lo = 0.0f, hi = 0.0f;
    for (Index c = 0; c < cols_; ++c) {
      lo = std::min(lo, src[c]);
      hi = std::max(hi, src[c]);
    }
    float scale = (hi - lo) / static_cast<float>(kActivationMaxCode);
    if (scale <= 0.0f) scale = 1.0f;  // all-zero row: codes collapse to zp
    const std::int32_t zp =
        std::clamp(round_code(-lo / scale), 0, kActivationMaxCode);
    for (Index c = 0; c < cols_; ++c) {
      const std::int32_t code =
          std::clamp(round_code(src[c] / scale) + zp, 0, kActivationMaxCode);
      dst[c] = static_cast<std::uint8_t>(code);
    }
    if (pad > cols_) std::memset(dst + cols_, 0, static_cast<std::size_t>(pad - cols_));
    scales_.get()[r] = scale;
    zps_.get()[r] = zp;
  }
}

void encode_sigmoid(const QuantizedActivations& xq, const QuantizedWeights& w,
                    const Vector& bias, Matrix& out) {
  DEEPPHI_CHECK_MSG(!w.empty(), "encode_sigmoid on empty weights");
  DEEPPHI_CHECK_MSG(xq.cols() == w.cols(),
                    "activation dim " << xq.cols() << " != weight cols "
                                      << w.cols());
  DEEPPHI_CHECK_MSG(xq.group() == w.group(),
                    "activation group " << xq.group() << " != weight group "
                                        << w.group());
  DEEPPHI_CHECK_MSG(bias.size() == w.rows(), "bias size " << bias.size()
                                                          << " != units "
                                                          << w.rows());
  const Index batch = xq.rows();
  const Index units = w.rows();
  if (out.rows() != batch || out.cols() != units)
    out = Matrix::uninitialized(batch, units);

  // Same shape-only accounting as the float path: the int8 GEMM does the
  // 2mnk multiply-accumulate work of its float counterpart (in integer), and
  // the per-element a_scale multiply rides the write-back like a fused
  // epilogue.
  phi::record(phi::gemm_contribution(batch, units, w.cols()));
  phi::record(phi::epilogue_contribution(batch * units, 1.0, 0.0));
  if (phi::dry_run()) {
    bias_sigmoid(out, bias);  // records its own pass, then returns dry
    return;
  }

  const simd::KernelTable& tab = simd::active();
  const Index groups = w.groups();
  const Index group = w.group();
  // Weight-stationary: each weight row (codes + scales + sums, the large
  // operand) is loaded once and streamed against every activation row, which
  // stays L2-resident for serving-sized batches.
  const bool big = batch * w.padded_cols() >= kParallelThreshold;
#pragma omp parallel for if (big) schedule(static)
  for (Index n = 0; n < units; ++n) {
    const std::int8_t* wrow = w.codes(n);
    const float* sc = w.scales(n);
    const std::int32_t* ws = w.wsums(n);
    for (Index m = 0; m < batch; ++m) {
      const float dot = tab.quant_dot(xq.codes(m), wrow, sc, ws, groups, group,
                                      xq.zero_point(m));
      out(m, n) = xq.scale(m) * dot;
    }
  }
  bias_sigmoid(out, bias);
}

}  // namespace deepphi::la::quant
