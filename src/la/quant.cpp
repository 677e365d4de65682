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

/// Round-to-nearest, half away from zero, for weight codes. The dispatched
/// activation quantizer (simd quantize_row) reproduces the same rounding.
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

static_assert(kActivationMaxCode == simd::kQuantMaxActivationCode,
              "the quantize_row kernel clamps to the activation code range");
static_assert(2 * kActivationMaxCode * kWeightMaxCode * kMaxGroup <
                  (std::int64_t{1} << 31),
              "the int8 micro-kernel's corrected group sums must fit int32");

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
  std::memset(q.codes_.get(), 0, ncodes);
  std::memset(q.scales_.get(), 0, nscales * sizeof(float));
  return q;
}

void QuantizedWeights::pack_panels() {
  const Index tiles =
      (rows_ + simd::kQuantTileUnits - 1) / simd::kQuantTileUnits;
  constexpr Index pu = simd::kQuantPanelUnits;
  panels_ = tiles * (simd::kQuantTileUnits / pu);
  const Index kp = padded_cols();
  const std::size_t ncodes = static_cast<std::size_t>(panels_ * pu * kp);
  const std::size_t nsums = static_cast<std::size_t>(panels_ * pu * groups_);
  panel_codes_ = util::make_aligned<std::int8_t>(ncodes);
  panel_scales_ = util::make_aligned<float>(nsums);
  panel_wsums_ = util::make_aligned<std::int32_t>(nsums);
  std::memset(panel_codes_.get(), 0, ncodes);
  std::memset(panel_scales_.get(), 0, nsums * sizeof(float));
  std::memset(panel_wsums_.get(), 0, nsums * sizeof(std::int32_t));
  for (Index r = 0; r < rows_; ++r) {
    const Index p = r / pu;
    const Index u = r % pu;
    // Code (r, k) sits in k-step k / 4 of its panel, at byte 4u + k % 4.
    std::int8_t* pc = panel_codes_.get() + p * pu * kp;
    const std::int8_t* src = codes(r);
    for (Index k = 0; k < kp; k += 4)
      std::memcpy(pc + k * pu + 4 * u, src + k, 4);
    const Index at = p * pu * groups_ + u;
    for (Index g = 0; g < groups_; ++g) {
      std::int32_t sum = 0;  // zero padding contributes 0 by construction
      for (Index j = 0; j < group_; ++j) sum += src[g * group_ + j];
      panel_scales_.get()[at + g * pu] = scales(r)[g];
      panel_wsums_.get()[at + g * pu] = sum;
    }
  }
}

QuantizedWeights QuantizedWeights::quantize(const Matrix& w, Index group) {
  QuantizedWeights q = allocate(w.rows(), w.cols(), group);
  for (Index r = 0; r < q.rows_; ++r) {
    const float* src = w.row(r);
    std::int8_t* dst = q.codes_.get() + r * q.padded_cols();
    float* sc = q.scales_.get() + r * q.groups_;
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
      if (scale > 0.0f) {
        for (Index j = 0; j < len; ++j)
          dst[c0 + j] = static_cast<std::int8_t>(std::clamp(
              round_code(src[c0 + j] / scale), -kWeightMaxCode, kWeightMaxCode));
      }
    }
  }
  q.pack_panels();
  return q;
}

QuantizedWeights QuantizedWeights::from_planes(Index rows, Index cols,
                                               Index group,
                                               const float* scales,
                                               const std::int8_t* codes) {
  QuantizedWeights q = allocate(rows, cols, group);
  const Index kp = q.padded_cols();
  std::memcpy(q.scales_.get(), scales,
              sizeof(float) * static_cast<std::size_t>(rows * q.groups_));
  std::memcpy(q.codes_.get(), codes, static_cast<std::size_t>(rows * kp));
  for (Index r = 0; r < rows; ++r) {
    const std::int8_t* src = q.codes(r);
    for (Index c = 0; c < kp; ++c) {
      const std::int32_t code = src[c];
      DEEPPHI_CHECK_MSG(code >= -kWeightMaxCode && code <= kWeightMaxCode,
                        "weight code " << code << " at row " << r
                                       << " out of [-127, 127]");
      DEEPPHI_CHECK_MSG(c < cols || code == 0,
                        "nonzero code in the zero-padded tail of row " << r);
    }
  }
  q.pack_panels();
  return q;
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
  const simd::KernelTable& tab = simd::active();
  const Index pad = padded_cols();
  for (Index r = 0; r < rows_; ++r)
    tab.quantize_row(x.row(r), cols_, pad, codes_.get() + r * pad,
                     scales_.get() + r, zps_.get() + r);
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
  const Index mr = tab.quant_mr;
  const Index groups = w.groups();
  const Index group = w.group();
  const Index ldx = xq.padded_cols();
  constexpr Index pu = simd::kQuantPanelUnits;
  constexpr Index tile_units = simd::kQuantTileUnits;
  const Index tiles = w.panels() * pu / tile_units;
  // Unit tiles outside, row tiles inside: a tile's two panels stay in L1
  // while every activation row streams past them. Each output belongs to
  // one tile, so the split over threads cannot change its bits.
  const bool big = batch * w.padded_cols() >= kParallelThreshold;
#pragma omp parallel for if (big) schedule(static)
  for (Index t = 0; t < tiles; ++t) {
    const Index u0 = t * tile_units;
    const Index p0 = u0 / pu;
    const std::int8_t* panels = w.panel_codes() + p0 * pu * w.padded_cols();
    const float* scales = w.panel_scales() + p0 * pu * groups;
    const std::int32_t* wsums = w.panel_wsums() + p0 * pu * groups;
    const Index nu = std::min(tile_units, units - u0);
    for (Index m0 = 0; m0 < batch; m0 += mr)
      tab.quant_micro(xq.codes(m0), ldx, xq.scales_from(m0),
                      xq.zero_points_from(m0), panels, scales, wsums, groups,
                      group, out.row(m0) + u0, units, std::min(mr, batch - m0),
                      nu);
  }
  bias_sigmoid(out, bias);
}

}  // namespace deepphi::la::quant
