// Int8 quantized inference: groupwise symmetric weights, per-row dynamic
// activations, and the fused dequantize + sigmoid forward pass
// (docs/serving.md "Precision", docs/simd.md "Int8 kernel tier").
//
// Weights are quantized offline, per (row, group): scale = max|w|/127 over
// each `group`-wide slice of the row, codes = round(w/scale) in [-127, 127].
// Rows are zero-padded to a multiple of the group size and the group size is
// a multiple of 64 bytes, so the k-loop of the int8 micro-kernel never needs
// a tail. At construction the weights are also packed, once, into the panel
// plane the micro-kernel reads (la/simd/dispatch.hpp, kQuantPanelUnits):
// units in panels of 16, each 4-byte k-step of a panel holding its 16
// units' codes side by side, plus per-panel scales and each group's code sum
// (wsum), which turns the activation zero point into a precomputed integer
// correction. The weights are immutable, so the plane can never go stale.
//
// Activations are quantized dynamically, per ROW: an asymmetric u8 mapping
// code = round(x/scale) + zp with codes clamped to [0, 127]. Two deliberate
// choices here:
//  * per-row (not per-batch) ranges, so a row's codes never depend on which
//    neighbors the serving batcher coalesced it with — served-int8 output is
//    bitwise identical to encoding the row alone (pinned in
//    tests/quant_test.cpp);
//  * 7-bit codes (max 127, not 255), so the AVX2 maddubs emulation of
//    vpdpbusd cannot saturate its s16 pair sums (see vec_ops.hpp).
//
// The forward pass is a blocked int8 GEMM that computes, per output (m, n):
//   pre = a_scale[m] * sum_g w_scale[n][g] * (acc_g - zp[m] * wsum[n][g])
//   out = sigmoid(pre + bias[n])
// with acc_g the exact int32 group dot and the groups folded by fma in
// ascending order. Integer accumulation is exact on every dispatch tier and
// each output's float sequence is the same on every tier, so int8 encode is
// bitwise identical across tiers and thread counts — same contract as the
// float kernels, enforced by the same kind of parity suite.
#pragma once

#include <cstdint>

#include "la/matrix.hpp"
#include "util/aligned.hpp"

namespace deepphi::la::quant {

/// Group sizes must be multiples of this many code bytes (one cache line =
/// one full 512-bit vector), which is what lets the int8 micro-kernel skip
/// tail handling at every vector width.
inline constexpr Index kGroupAlign = 64;

/// Default quantization group: one cache line of codes per scale.
inline constexpr Index kDefaultGroup = 64;

/// Largest allowed group. 2 * 127 * 127 * 65536 < 2^31, so neither a
/// group's int32 accumulator nor its zero-point-corrected sum
/// acc - zp * wsum can overflow, even at the code extremes.
inline constexpr Index kMaxGroup = 65536;

/// Activation codes live in [0, kActivationMaxCode]; weight codes in
/// [-kWeightMaxCode, kWeightMaxCode].
inline constexpr int kActivationMaxCode = 127;
inline constexpr int kWeightMaxCode = 127;

/// Throws util::Error unless `group` is a legal group size for `cols`-wide
/// rows (positive, multiple of kGroupAlign, <= kMaxGroup).
void check_group(Index group);

/// Groupwise symmetric int8 weights for one layer, rows = output units,
/// cols = input units (the same hidden x visible orientation the float
/// models store), plus their packed panel plane. Immutable after
/// construction; move-only (owns aligned planes).
class QuantizedWeights {
 public:
  QuantizedWeights() = default;
  QuantizedWeights(QuantizedWeights&&) noexcept = default;
  QuantizedWeights& operator=(QuantizedWeights&&) noexcept = default;
  QuantizedWeights(const QuantizedWeights&) = delete;
  QuantizedWeights& operator=(const QuantizedWeights&) = delete;

  /// Quantizes a dense rows x cols float matrix.
  static QuantizedWeights quantize(const Matrix& w, Index group = kDefaultGroup);

  /// Builds weights from their stored planes (the DPQE reader): `scales` is
  /// rows x groups floats and `codes` rows x padded_cols bytes, row-major.
  /// Throws util::Error on a bad geometry, a code outside [-127, 127] or a
  /// nonzero padding byte; then sums the code groups and packs the panels.
  static QuantizedWeights from_planes(Index rows, Index cols, Index group,
                                      const float* scales,
                                      const std::int8_t* codes);

  Index rows() const { return rows_; }
  Index cols() const { return cols_; }
  Index group() const { return group_; }
  /// Groups per row.
  Index groups() const { return groups_; }
  /// groups() * group() — the zero-padded row stride in code bytes.
  Index padded_cols() const { return groups_ * group_; }
  bool empty() const { return rows_ == 0; }

  const std::int8_t* codes(Index r) const {
    return codes_.get() + r * padded_cols();
  }
  const float* scales(Index r) const { return scales_.get() + r * groups_; }

  /// The panel plane: panels() panels of 16 units, an even count so every
  /// 32-unit micro-tile is whole (units past rows() are zero). Panel p's
  /// codes start at panel_codes() + p * padded_cols() * 16, its scales and
  /// code sums at panel_scales()/panel_wsums() + p * groups() * 16.
  Index panels() const { return panels_; }
  const std::int8_t* panel_codes() const { return panel_codes_.get(); }
  const float* panel_scales() const { return panel_scales_.get(); }
  const std::int32_t* panel_wsums() const { return panel_wsums_.get(); }

  /// Reconstructs the float weights (scale * code) — accuracy evaluation and
  /// round-trip tests.
  Matrix dequantize() const;

 private:
  /// Zeroed planes of the given geometry.
  static QuantizedWeights allocate(Index rows, Index cols, Index group);
  /// Builds the panel plane from the row-major planes, summing each group's
  /// codes as it goes.
  void pack_panels();

  Index rows_ = 0;
  Index cols_ = 0;
  Index group_ = 0;
  Index groups_ = 0;
  Index panels_ = 0;
  util::AlignedBuffer<std::int8_t> codes_;
  util::AlignedBuffer<float> scales_;
  util::AlignedBuffer<std::int8_t> panel_codes_;
  util::AlignedBuffer<float> panel_scales_;
  util::AlignedBuffer<std::int32_t> panel_wsums_;
};

/// Per-row dynamically quantized activations. A reusable workspace: call
/// quantize() per batch; buffers grow monotonically and are reused.
class QuantizedActivations {
 public:
  QuantizedActivations() = default;
  QuantizedActivations(QuantizedActivations&&) noexcept = default;
  QuantizedActivations& operator=(QuantizedActivations&&) noexcept = default;
  QuantizedActivations(const QuantizedActivations&) = delete;
  QuantizedActivations& operator=(const QuantizedActivations&) = delete;

  /// Quantizes each row of x (batch x cols) to u8 codes in [0, 127],
  /// zero-padding rows to a multiple of `group` code bytes, with the
  /// dispatched quantize_row kernel. Row ranges are computed independently
  /// per row (see the header comment).
  void quantize(const Matrix& x, Index group);

  Index rows() const { return rows_; }
  Index cols() const { return cols_; }
  Index group() const { return group_; }
  Index groups() const { return groups_; }
  Index padded_cols() const { return groups_ * group_; }

  const std::uint8_t* codes(Index r) const {
    return codes_.get() + r * padded_cols();
  }
  /// Dequantization scale of row r: x ~ scale * (code - zero_point).
  float scale(Index r) const { return scales_.get()[r]; }
  std::int32_t zero_point(Index r) const { return zps_.get()[r]; }
  /// Row r's scale and zero point, followed by the next rows'.
  const float* scales_from(Index r) const { return scales_.get() + r; }
  const std::int32_t* zero_points_from(Index r) const { return zps_.get() + r; }

 private:
  Index rows_ = 0;
  Index cols_ = 0;
  Index group_ = 0;
  Index groups_ = 0;
  Index code_capacity_ = 0;
  Index row_capacity_ = 0;
  util::AlignedBuffer<std::uint8_t> codes_;
  util::AlignedBuffer<float> scales_;
  util::AlignedBuffer<std::int32_t> zps_;
};

/// The quantized forward pass: out = sigmoid(a_scale * (int8 GEMM) + bias),
/// out is xq.rows() x w.rows(). xq must have been quantized with w's group
/// size and xq.cols() == w.cols(). Runs the dispatched int8 micro-kernel
/// over 32-unit tiles of w's panel plane (each tile stays in L1 while every
/// row tile streams past it; threads split the unit tiles); the bias +
/// sigmoid epilogue reuses the parity-pinned la::bias_sigmoid kernel, so
/// the whole pass is bitwise tier- and thread-independent.
void encode_sigmoid(const QuantizedActivations& xq, const QuantizedWeights& w,
                    const Vector& bias, Matrix& out);

}  // namespace deepphi::la::quant
