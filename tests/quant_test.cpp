// Int8 quantized inference suite (docs/serving.md "Precision",
// docs/simd.md "Int8 kernel tier").
//
// Pins the three contracts of the quantized path:
//  * cross-tier parity — the int8 micro-kernel, the activation quantizer
//    and the whole QuantizedEncoder forward are BITWISE identical on every
//    dispatched tier (integer accumulation is exact; each output's float
//    combine is the same sequence everywhere);
//  * numerics — quantize/dequantize round-trip error is bounded by half a
//    code step, and int8 encode output stays within a documented tolerance
//    of fp32 (the same delta bench_quant reports);
//  * serving equivalence — per-ROW dynamic activation quantization makes a
//    served row's int8 output bitwise equal to encoding that row alone, no
//    matter how the batcher coalesced it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/layer_stack.hpp"
#include "core/model_io.hpp"
#include "core/quantized_encoder.hpp"
#include "core/sparse_autoencoder.hpp"
#include "la/quant.hpp"
#include "la/simd/dispatch.hpp"
#include "phi/kernel_stats.hpp"
#include "pinned_hash.hpp"
#include "scratch_dir.hpp"
#include "serve/inference_server.hpp"
#include "serve/model_registry.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace deepphi {
namespace {

std::vector<la::simd::Tier> available_tiers() {
  std::vector<la::simd::Tier> tiers;
  for (int t = 0; t < la::simd::kNumTiers; ++t) {
    const auto tier = static_cast<la::simd::Tier>(t);
    if (la::simd::tier_available(tier)) tiers.push_back(tier);
  }
  return tiers;
}

// Forces a tier for one scope; restores the startup binding on exit.
struct ForcedTier {
  explicit ForcedTier(la::simd::Tier t) {
    EXPECT_TRUE(la::simd::force_tier(t));
  }
  ~ForcedTier() { la::simd::reset_tier(); }
  ForcedTier(const ForcedTier&) = delete;
  ForcedTier& operator=(const ForcedTier&) = delete;
};

bool bitwise_equal(const la::Matrix& a, const la::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<std::size_t>(a.size())) == 0;
}

la::Matrix random_matrix(la::Index rows, la::Index cols, std::uint64_t seed,
                         float lo = -1.0f, float hi = 1.0f) {
  util::Rng rng(seed);
  la::Matrix m = la::Matrix::uninitialized(rows, cols);
  for (la::Index i = 0; i < m.size(); ++i)
    m.data()[i] = static_cast<float>(rng.uniform(lo, hi));
  return m;
}

/// Reference for one output of the int8 micro-kernel before the a_scale
/// multiply: int64 accumulation (a superset of any tier's exact int32 group
/// arithmetic) and the fixed fma combine in ascending group order. Every
/// tier must match this bitwise.
float ref_quant_dot(const std::uint8_t* xq, const std::int8_t* wq,
                    const float* scales, std::int64_t groups,
                    std::int64_t group, std::int32_t zp) {
  float r = 0.0f;
  for (std::int64_t g = 0; g < groups; ++g) {
    std::int64_t acc = 0;
    std::int64_t wsum = 0;
    for (std::int64_t j = 0; j < group; ++j) {
      acc += static_cast<std::int64_t>(xq[g * group + j]) *
             static_cast<std::int64_t>(wq[g * group + j]);
      wsum += wq[g * group + j];
    }
    const std::int64_t s = acc - static_cast<std::int64_t>(zp) * wsum;
    r = std::fma(scales[g], static_cast<float>(s), r);
  }
  return r;
}

/// Random operands of the int8 micro-kernel: weights built from random code
/// planes, and `rows` activation rows of codes, scales and zero points.
/// `extremes` draws every code from the ends of its range.
struct QuantTileInput {
  la::quant::QuantizedWeights w;
  la::Index rows = 0;
  std::vector<std::uint8_t> x;  // rows x w.padded_cols(), zero-padded
  std::vector<float> a_scale;
  std::vector<std::int32_t> zp;
};

QuantTileInput random_tile_input(la::Index rows, la::Index units,
                                 la::Index cols, la::Index group,
                                 std::uint64_t seed, bool extremes = false) {
  util::Rng rng(seed);
  const la::Index padded = (cols + group - 1) / group * group;
  const la::Index groups = padded / group;
  std::vector<std::int8_t> codes(static_cast<std::size_t>(units * padded), 0);
  std::vector<float> scales(static_cast<std::size_t>(units * groups));
  for (la::Index u = 0; u < units; ++u)
    for (la::Index c = 0; c < cols; ++c)
      codes[static_cast<std::size_t>(u * padded + c)] =
          static_cast<std::int8_t>(
              extremes ? (rng.uniform() < 0.5 ? -127 : 127)
                       : static_cast<int>(rng.uniform(-127.0, 127.999)));
  for (float& v : scales) v = static_cast<float>(rng.uniform(1e-4, 0.05));
  QuantTileInput in;
  in.w = la::quant::QuantizedWeights::from_planes(units, cols, group,
                                                  scales.data(), codes.data());
  in.rows = rows;
  in.x.assign(static_cast<std::size_t>(rows * padded), 0);
  for (la::Index r = 0; r < rows; ++r) {
    for (la::Index c = 0; c < cols; ++c)
      in.x[static_cast<std::size_t>(r * padded + c)] =
          static_cast<std::uint8_t>(
              extremes ? (rng.uniform() < 0.5 ? 0 : 127)
                       : static_cast<int>(rng.uniform(0.0, 127.999)));
    in.a_scale.push_back(static_cast<float>(rng.uniform(1e-3, 0.1)));
    // The first rows pin both ends of the zero-point range.
    in.zp.push_back(
        r == 0   ? 0
        : r == 1 ? 127
                 : static_cast<std::int32_t>(rng.uniform(0.0, 127.999)));
  }
  return in;
}

/// The bound tier's micro-kernel over every tile of the product, in row
/// tiles of `rows_per_call` rows (<= quant_mr), the way encode_sigmoid tiles
/// it; row-major rows x units.
std::vector<float> run_quant_micro(const QuantTileInput& in,
                                   la::Index rows_per_call) {
  const la::simd::KernelTable& tab = la::simd::active();
  const la::quant::QuantizedWeights& w = in.w;
  const la::Index units = w.rows();
  const la::Index kp = w.padded_cols();
  constexpr la::Index pu = la::simd::kQuantPanelUnits;
  std::vector<float> out(static_cast<std::size_t>(in.rows * units), -1.0f);
  for (la::Index u0 = 0; u0 < units; u0 += la::simd::kQuantTileUnits) {
    const la::Index p0 = u0 / pu;
    for (la::Index m0 = 0; m0 < in.rows; m0 += rows_per_call)
      tab.quant_micro(in.x.data() + m0 * kp, kp, in.a_scale.data() + m0,
                      in.zp.data() + m0, w.panel_codes() + p0 * pu * kp,
                      w.panel_scales() + p0 * pu * w.groups(),
                      w.panel_wsums() + p0 * pu * w.groups(), w.groups(),
                      w.group(), out.data() + m0 * units + u0, units,
                      std::min(rows_per_call, in.rows - m0),
                      std::min(la::simd::kQuantTileUnits, units - u0));
  }
  return out;
}

/// Counts outputs of every tier and every row-tile height that differ from
/// a_scale * ref_quant_dot bit for bit.
void expect_micro_matches_reference(const QuantTileInput& in,
                                    const std::string& what) {
  const la::quant::QuantizedWeights& w = in.w;
  const la::Index kp = w.padded_cols();
  std::vector<float> expect;
  for (la::Index m = 0; m < in.rows; ++m)
    for (la::Index n = 0; n < w.rows(); ++n)
      expect.push_back(
          in.a_scale[static_cast<std::size_t>(m)] *
          ref_quant_dot(in.x.data() + m * kp, w.codes(n), w.scales(n),
                        w.groups(), w.group(),
                        in.zp[static_cast<std::size_t>(m)]));
  for (la::simd::Tier t : available_tiers()) {
    ForcedTier forced(t);
    for (la::Index rows = 1; rows <= la::simd::active().quant_mr; ++rows) {
      const std::vector<float> got = run_quant_micro(in, rows);
      int wrong = 0;
      for (std::size_t i = 0; i < got.size(); ++i)
        wrong += std::memcmp(&got[i], &expect[i], sizeof(float)) != 0;
      EXPECT_EQ(wrong, 0) << la::simd::tier_name(t) << " " << what
                          << ", row tiles of " << rows;
    }
  }
}

// ---------------------------------------------------------------------------
// Kernel-level parity: every output of the int8 micro-kernel, row and unit
// fringes included, equals the int64 reference on every tier.

TEST(QuantDot, EveryTierExportsTheKernel) {
  for (la::simd::Tier t : available_tiers()) {
    ForcedTier forced(t);
    const la::simd::KernelTable& tab = la::simd::active();
    EXPECT_NE(tab.quant_micro, nullptr) << la::simd::tier_name(t);
    EXPECT_NE(tab.quantize_row, nullptr) << la::simd::tier_name(t);
    EXPECT_GT(tab.quant_mr, 0) << la::simd::tier_name(t);
  }
}

TEST(QuantDot, MatchesInt64ReferenceOnEveryTier) {
  // 25 rows leave a fringe at every row-tile height up to 12; 37 units are
  // one whole 32-unit tile and a ragged one; the 5 missing inputs leave a
  // zero-padded group tail.
  for (const la::Index group : {64, 128, 192}) {
    for (const la::Index groups : {1, 2, 3, 7}) {
      const QuantTileInput in = random_tile_input(
          25, 37, groups * group - 5, group,
          static_cast<std::uint64_t>(group * 100 + groups));
      expect_micro_matches_reference(
          in, "group=" + std::to_string(group) +
                  " groups=" + std::to_string(groups));
    }
  }
  for (const la::Index units : {1, 16, 17, 64})
    expect_micro_matches_reference(
        random_tile_input(13, units, 100, 64,
                          static_cast<std::uint64_t>(units)),
        "units=" + std::to_string(units));
}

TEST(QuantDot, CodeExtremesCannotSaturateTheAvx2Emulation) {
  // All-extreme codes maximize the s16 pair sums the AVX2 maddubs emulation
  // forms: 127*127*2 = 32258 < 32767. Bitwise agreement here pins that the
  // 7-bit activation bound keeps the emulation exact.
  expect_micro_matches_reference(random_tile_input(5, 40, 1024, 256, 99, true),
                                 "extreme codes");
}

// ---------------------------------------------------------------------------
// Quantization numerics.

TEST(QuantizedWeights, RejectsBadGroups) {
  EXPECT_THROW(la::quant::check_group(0), util::Error);
  EXPECT_THROW(la::quant::check_group(63), util::Error);
  EXPECT_THROW(la::quant::check_group(96), util::Error);
  EXPECT_THROW(la::quant::check_group(la::quant::kMaxGroup + 64), util::Error);
  EXPECT_NO_THROW(la::quant::check_group(64));
  EXPECT_NO_THROW(la::quant::check_group(65536));
}

TEST(QuantizedWeights, DequantizeWithinHalfStepPerGroup) {
  const la::Matrix w = random_matrix(9, 130, 42, -0.8f, 0.8f);
  const la::quant::QuantizedWeights q = la::quant::QuantizedWeights::quantize(w);
  EXPECT_EQ(q.rows(), 9);
  EXPECT_EQ(q.cols(), 130);
  EXPECT_EQ(q.groups(), 3);
  EXPECT_EQ(q.padded_cols(), 192);
  const la::Matrix recon = q.dequantize();
  for (la::Index r = 0; r < w.rows(); ++r)
    for (la::Index c = 0; c < w.cols(); ++c) {
      const float scale = q.scales(r)[c / q.group()];
      EXPECT_LE(std::fabs(w(r, c) - recon(r, c)), 0.5f * scale + 1e-7f)
          << "(" << r << "," << c << ")";
    }
}

TEST(QuantizedWeights, ZeroPaddingAndCodeSumsAreConsistent) {
  // 21 units: a whole 16-unit panel and a ragged one.
  const la::Matrix w = random_matrix(21, 70, 7);
  const la::quant::QuantizedWeights q = la::quant::QuantizedWeights::quantize(w);
  constexpr la::Index pu = la::simd::kQuantPanelUnits;
  for (la::Index r = 0; r < q.rows(); ++r) {
    for (la::Index c = q.cols(); c < q.padded_cols(); ++c)
      EXPECT_EQ(q.codes(r)[c], 0) << "padding must stay zero";
    const la::Index at = (r / pu) * pu * q.groups() + r % pu;
    for (la::Index g = 0; g < q.groups(); ++g) {
      std::int32_t sum = 0;
      for (la::Index j = 0; j < q.group(); ++j)
        sum += q.codes(r)[g * q.group() + j];
      EXPECT_EQ(q.panel_wsums()[at + g * pu], sum) << "unit " << r;
      EXPECT_EQ(q.panel_scales()[at + g * pu], q.scales(r)[g]) << "unit " << r;
    }
  }
}

TEST(QuantizedActivations, CodesInRangeAndWithinHalfStep) {
  const la::Matrix x = random_matrix(6, 67, 13, -2.0f, 3.0f);
  la::quant::QuantizedActivations q;
  q.quantize(x, 64);
  EXPECT_EQ(q.rows(), 6);
  EXPECT_EQ(q.padded_cols(), 128);
  for (la::Index r = 0; r < q.rows(); ++r) {
    const float scale = q.scale(r);
    const std::int32_t zp = q.zero_point(r);
    EXPECT_GT(scale, 0.0f);
    EXPECT_GE(zp, 0);
    EXPECT_LE(zp, la::quant::kActivationMaxCode);
    for (la::Index c = 0; c < q.cols(); ++c) {
      const int code = q.codes(r)[c];
      EXPECT_GE(code, 0);
      EXPECT_LE(code, la::quant::kActivationMaxCode);
      const float recon = scale * static_cast<float>(code - zp);
      // Half a step, plus one step of slack for the zero point's own
      // rounding (the zp shift is itself rounded to an integer code).
      EXPECT_LE(std::fabs(x(r, c) - recon), 1.5f * scale) << r << "," << c;
    }
  }
}

TEST(QuantizedActivations, RowCodesIndependentOfBatchNeighbors) {
  const la::Matrix big = random_matrix(8, 64, 21);
  la::Matrix one(1, 64);
  std::copy(big.row(3), big.row(3) + 64, one.row(0));
  la::quant::QuantizedActivations qa, qb;
  qa.quantize(big, 64);
  qb.quantize(one, 64);
  EXPECT_EQ(qa.scale(3), qb.scale(0));
  EXPECT_EQ(qa.zero_point(3), qb.zero_point(0));
  EXPECT_EQ(std::memcmp(qa.codes(3), qb.codes(0), 64), 0);
}

/// The activation quantizer as it was written before it became a dispatched
/// kernel: the scalar reference every tier must match bit for bit.
void ref_quantize_row(const float* x, la::Index cols, std::uint8_t* codes,
                      float& scale_out, std::int32_t& zp_out) {
  float lo = 0.0f, hi = 0.0f;
  for (la::Index c = 0; c < cols; ++c) {
    lo = std::min(lo, x[c]);
    hi = std::max(hi, x[c]);
  }
  float scale = (hi - lo) / 127.0f;
  if (scale <= 0.0f) scale = 1.0f;
  const std::int32_t zp =
      std::clamp(static_cast<std::int32_t>(std::lround(-lo / scale)), 0, 127);
  for (la::Index c = 0; c < cols; ++c)
    codes[c] = static_cast<std::uint8_t>(std::clamp(
        static_cast<std::int32_t>(std::lround(x[c] / scale)) + zp, 0, 127));
  scale_out = scale;
  zp_out = zp;
}

TEST(QuantizedActivations, VectorQuantizerMatchesScalarReference) {
  // 200 random batches of ragged widths and ranges. Every fourth batch has a
  // row spanning [-27, 100] exactly, so scale is 1 and its half-integer
  // values are exact .5 ties; others add -0.0, an all-zero row and a NaN
  // (which quantizes like 0).
  util::Rng rng(2024);
  for (int batch = 0; batch < 200; ++batch) {
    const auto cols = static_cast<la::Index>(1 + rng.uniform() * 300);
    const la::Index rows = 1 + batch % 5;
    const float span = static_cast<float>(rng.uniform(0.01, 50.0));
    la::Matrix x =
        random_matrix(rows, cols, 500 + static_cast<std::uint64_t>(batch),
                      -span * static_cast<float>(rng.uniform()), span);
    if (batch % 4 == 0 && cols >= 2) {
      for (la::Index c = 0; c < cols; ++c)
        x(0, c) = -27.0f + 0.5f * static_cast<float>(c % 255);
      x(0, 0) = -27.0f;
      x(0, 1) = 100.0f;
    }
    if (batch % 5 == 1) x(rows - 1, 0) = -0.0f;
    if (batch % 7 == 2)
      for (la::Index c = 0; c < cols; ++c) x(rows - 1, c) = 0.0f;
    if (batch % 11 == 3) x(0, cols - 1) = std::nanf("");
    const la::Index padded = (cols + 63) / 64 * 64;
    std::vector<std::uint8_t> want(static_cast<std::size_t>(padded), 0);
    for (la::simd::Tier t : available_tiers()) {
      ForcedTier forced(t);
      la::quant::QuantizedActivations q;
      q.quantize(x, 64);
      for (la::Index r = 0; r < rows; ++r) {
        float scale = 0;
        std::int32_t zp = 0;
        ref_quantize_row(x.row(r), cols, want.data(), scale, zp);
        EXPECT_EQ(std::memcmp(&scale, &q.scales_from(r)[0], sizeof scale), 0)
            << la::simd::tier_name(t) << " batch " << batch << " row " << r;
        EXPECT_EQ(q.zero_point(r), zp)
            << la::simd::tier_name(t) << " batch " << batch << " row " << r;
        EXPECT_EQ(std::memcmp(q.codes(r), want.data(),
                              static_cast<std::size_t>(padded)),
                  0)
            << la::simd::tier_name(t) << " batch " << batch << " row " << r;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Forward pass: accuracy vs fp32, parity across tiers, batch invariance.

TEST(QuantizedEncoder, EncodeStaysCloseToFp32) {
  // The documented serving tolerance (docs/serving.md): int8 sigmoid outputs
  // within 0.05 of fp32 everywhere, within 0.02 on average. bench_quant
  // reports the same delta; this bound keeps it honest.
  const core::SparseAutoencoder sae(core::SaeConfig{96, 48}, 5);
  const auto q = core::QuantizedEncoder::from(sae);
  const la::Matrix x = random_matrix(32, 96, 17, 0.0f, 1.0f);
  la::Matrix y32, y8;
  sae.encode(x, y32);
  q->encode(x, y8);
  ASSERT_EQ(y8.rows(), 32);
  ASSERT_EQ(y8.cols(), 48);
  double mean = 0, worst = 0;
  for (la::Index i = 0; i < y32.size(); ++i) {
    const double d = std::fabs(static_cast<double>(y32.data()[i]) -
                               static_cast<double>(y8.data()[i]));
    mean += d;
    worst = std::max(worst, d);
  }
  mean /= static_cast<double>(y32.size());
  EXPECT_LT(worst, 0.05);
  EXPECT_LT(mean, 0.02);
}

TEST(QuantizedEncoder, EncodeBitwiseIdenticalAcrossTiers) {
  // Odd dims force padded fringes in both weight and activation planes.
  const core::SparseAutoencoder sae(core::SaeConfig{67, 33}, 3);
  const auto q = core::QuantizedEncoder::from(sae);
  const la::Matrix x = random_matrix(5, 67, 29, 0.0f, 1.0f);
  la::Matrix reference;
  {
    ForcedTier forced(la::simd::Tier::kScalar);
    q->encode(x, reference);
  }
  for (la::simd::Tier t : available_tiers()) {
    ForcedTier forced(t);
    la::Matrix out;
    q->encode(x, out);
    EXPECT_TRUE(bitwise_equal(out, reference)) << la::simd::tier_name(t);
  }
}

TEST(QuantizedEncoder, RowOutputIndependentOfBatch) {
  const core::SparseAutoencoder sae(core::SaeConfig{64, 16}, 9);
  const auto q = core::QuantizedEncoder::from(sae);
  const la::Matrix batch = random_matrix(7, 64, 31, 0.0f, 1.0f);
  la::Matrix batched;
  q->encode(batch, batched);
  for (la::Index r = 0; r < batch.rows(); ++r) {
    la::Matrix one(1, 64), out;
    std::copy(batch.row(r), batch.row(r) + 64, one.row(0));
    q->encode(one, out);
    EXPECT_EQ(std::memcmp(out.row(0), batched.row(r), sizeof(float) * 16), 0)
        << "row " << r;
  }
}

TEST(QuantizedEncoder, FromRejectsDoubleQuantizationAndBadGroup) {
  const core::SparseAutoencoder sae(core::SaeConfig{64, 16}, 2);
  const auto q = core::QuantizedEncoder::from(sae);
  EXPECT_THROW(core::QuantizedEncoder::from(*q), util::Error);
  EXPECT_THROW(core::QuantizedEncoder::from(sae, 63), util::Error);
}

TEST(QuantizedEncoder, DescribeNamesTheFormat) {
  const core::StackedAutoencoder stack({64, 32, 16}, core::SaeConfig{}, 4);
  const auto q = core::QuantizedEncoder::from(stack);
  EXPECT_EQ(q->input_dim(), 64);
  EXPECT_EQ(q->output_dim(), 16);
  EXPECT_EQ(q->layers(), 2u);
  EXPECT_NE(q->describe().find("Int8 Quantized Encoder"), std::string::npos);
  EXPECT_NE(q->describe().find("2 layers"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Results pinned across versions. The parity tests above compare tiers with
// each other; these hashes pin actual int8 encode outputs, recorded with the
// per-(row, unit) dot kernel that preceded the blocked int8 GEMM, on every
// tier at 1 and 4 threads. Units 1000 and 37 are ragged against 16- and
// 32-unit panels, 100 inputs leave a zero-padded group tail, and the row
// counts straddle every tier's row tile.

void randomize(la::Vector& v, std::uint64_t seed) {
  util::Rng rng(seed);
  for (la::Index i = 0; i < v.size(); ++i)
    v[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
}

std::string int8_encode_hash() {
  test::Fnv1a hash;
  std::uint64_t seed = 1;
  auto encode_rows = [&](const core::Encoder& model, la::Index group,
                         std::initializer_list<la::Index> row_counts) {
    const auto q = core::QuantizedEncoder::from(model, group);
    for (const la::Index rows : row_counts) {
      la::Matrix out;
      q->encode(random_matrix(rows, model.input_dim(), ++seed, 0.0f, 1.0f),
                out);
      hash.add(out);
    }
  };
  for (const la::Index group : {64, 128}) {
    for (const la::Index inputs : {576, 100}) {
      for (const la::Index units : {1024, 1000, 37}) {
        core::SparseAutoencoder sae(core::SaeConfig{inputs, units}, ++seed);
        randomize(sae.b1(), ++seed);
        encode_rows(sae, group, {1, 5, 12, 13, 64, 65, 200});
      }
    }
    core::StackedAutoencoder stack({100, 64, 37}, core::SaeConfig{}, ++seed);
    core::Dbn dbn({576, 100, 37}, core::RbmConfig{}, ++seed);
    for (std::size_t k = 0; k < 2; ++k) {
      randomize(stack.layer(k).b1(), ++seed);
      randomize(dbn.layer(k).c(), ++seed);
    }
    encode_rows(stack, group, {1, 13, 65});
    encode_rows(dbn, group, {1, 13, 65});
  }
  return hash.hex();
}

TEST(Quant, EncodeMatchesPinnedParentHashes) {
  const std::string kInt8Encode = "0x5ce4c47a1af82216";
  test::for_each_tier_and_thread_count([&](const std::string& where) {
    EXPECT_EQ(int8_encode_hash(), kInt8Encode) << "int8 encode, " << where;
  });
}

// ---------------------------------------------------------------------------
// Serving equivalence through the batcher.

TEST(QuantizedServing, ServedRowsBitwiseEqualSingleRowEncode) {
  const core::StackedAutoencoder stack({48, 24, 12}, core::SaeConfig{}, 6);
  const std::shared_ptr<const core::QuantizedEncoder> q =
      core::QuantizedEncoder::from(stack);
  const la::Matrix inputs = random_matrix(24, 48, 37, 0.0f, 1.0f);

  serve::ModelRegistry registry;
  registry.add_shared("q", q);
  EXPECT_EQ(registry.info("q").precision, "int8");
  serve::ServeConfig cfg;
  cfg.max_batch = 8;
  cfg.max_delay_s = 0.02;  // force multi-row coalescing
  serve::InferenceServer server(registry, cfg);

  std::vector<std::future<serve::Reply>> futures;
  for (la::Index r = 0; r < inputs.rows(); ++r)
    futures.push_back(server.submit(
        "q", std::vector<float>(inputs.row(r), inputs.row(r) + 48)));
  for (la::Index r = 0; r < inputs.rows(); ++r) {
    const std::vector<float> served =
        futures[static_cast<std::size_t>(r)].get().row;
    la::Matrix one(1, 48), direct;
    std::copy(inputs.row(r), inputs.row(r) + 48, one.row(0));
    q->encode(one, direct);
    ASSERT_EQ(served.size(), 12u);
    EXPECT_EQ(std::memcmp(served.data(), direct.row(0), sizeof(float) * 12), 0)
        << "row " << r;
  }
  server.shutdown();
  EXPECT_GT(server.stats().batches, 0);
}

TEST(QuantizedServing, Fp32ServerReportsFp32) {
  serve::ModelRegistry registry;
  registry.add_shared("sae", std::make_shared<core::SparseAutoencoder>(
                                 core::SaeConfig{16, 8}, 1));
  serve::InferenceServer server(registry, serve::ServeConfig{});
  EXPECT_EQ(server.registry().info("sae").precision, "fp32");
  server.shutdown();
}

// ---------------------------------------------------------------------------
// model_io round trip and corrupt-file handling.

class QuantIoTest : public ::testing::Test {
 protected:
  std::string path(const std::string& name) { return scratch_.file(name); }
  static std::string slurp(const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
  }

  const test::ScratchDir scratch_;
};

TEST_F(QuantIoTest, RoundTripsByteForByte) {
  const core::StackedAutoencoder stack({70, 40, 20}, core::SaeConfig{}, 8);
  const auto q = core::QuantizedEncoder::from(stack, 128);
  core::save_model(*q, path("rt.dpqe"));
  EXPECT_EQ(model_io::load_any(path("rt.dpqe")).magic, "DPQE");

  const auto loaded = core::load_quantized(path("rt.dpqe"));
  EXPECT_EQ(loaded->input_dim(), q->input_dim());
  EXPECT_EQ(loaded->output_dim(), q->output_dim());
  EXPECT_EQ(loaded->group(), 128);
  core::save_model(*loaded, path("rt2.dpqe"));
  EXPECT_EQ(slurp(path("rt.dpqe")), slurp(path("rt2.dpqe")));

  const la::Matrix x = random_matrix(6, 70, 41, 0.0f, 1.0f);
  la::Matrix a, b;
  q->encode(x, a);
  loaded->encode(x, b);
  EXPECT_TRUE(bitwise_equal(a, b));
}

TEST_F(QuantIoTest, LoadAnyDispatchesOnTheMagic) {
  const core::SparseAutoencoder sae(core::SaeConfig{32, 8}, 2);
  const auto q = core::QuantizedEncoder::from(sae);
  core::save_model(*q, path("any.dpqe"));
  model_io::LoadedModel any = model_io::load_any(path("any.dpqe"));
  EXPECT_EQ(any.magic, "DPQE");
  EXPECT_STREQ(serve::encoder_precision(*any.model), "int8");
  std::unique_ptr<core::Encoder> loaded = std::move(any.model);
  ASSERT_NE(loaded, nullptr);
  EXPECT_NE(dynamic_cast<core::QuantizedEncoder*>(loaded.get()), nullptr);
  la::Matrix a, b;
  const la::Matrix x = random_matrix(3, 32, 43, 0.0f, 1.0f);
  loaded->encode(x, a);
  q->encode(x, b);
  EXPECT_TRUE(bitwise_equal(a, b));
}

TEST_F(QuantIoTest, RejectsTruncatedFiles) {
  // Magic only: the typed loader must fail before reading garbage.
  std::ofstream(path("t1.dpqe"), std::ios::binary) << "DPQE";
  EXPECT_THROW(model_io::load_any(path("t1.dpqe")), std::exception);

  // Valid header, payload cut mid-layer.
  const core::SparseAutoencoder sae(core::SaeConfig{64, 16}, 3);
  const auto q = core::QuantizedEncoder::from(sae);
  core::save_model(*q, path("full.dpqe"));
  const std::string bytes = slurp(path("full.dpqe"));
  std::ofstream(path("t2.dpqe"), std::ios::binary)
      << bytes.substr(0, bytes.size() / 2);
  EXPECT_THROW(core::load_quantized(path("t2.dpqe")), util::Error);
}

TEST_F(QuantIoTest, RejectsCorruptHeaderFields) {
  const core::SparseAutoencoder sae(core::SaeConfig{64, 16}, 3);
  const auto q = core::QuantizedEncoder::from(sae);
  core::save_model(*q, path("base.dpqe"));
  std::string bytes = slurp(path("base.dpqe"));
  // Bytes 8..16 are the i64 layer count; blow it up.
  bytes[8] = '\xff';
  bytes[9] = '\x7f';
  std::ofstream(path("badlayers.dpqe"), std::ios::binary) << bytes;
  try {
    core::load_quantized(path("badlayers.dpqe"));
    FAIL() << "implausible layer count must throw";
  } catch (const util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("implausible layer count"),
              std::string::npos);
  }

  // Bytes 16..24 are the i64 group; make it non-multiple-of-64.
  bytes = slurp(path("base.dpqe"));
  bytes[16] = 7;
  std::ofstream(path("badgroup.dpqe"), std::ios::binary) << bytes;
  try {
    core::load_quantized(path("badgroup.dpqe"));
    FAIL() << "invalid group must throw";
  } catch (const util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("invalid quantization group"),
              std::string::npos);
  }
}

TEST_F(QuantIoTest, RejectsLayerDimsTheFileCannotHold) {
  // Header of a 1024x4096 layer (group 64) followed by 16 payload bytes.
  std::string bytes = "DPQE";
  const std::uint32_t version = 1;
  bytes.append(reinterpret_cast<const char*>(&version), sizeof(version));
  for (const std::int64_t field : {std::int64_t{1}, std::int64_t{64},
                                   std::int64_t{1024}, std::int64_t{4096}})
    bytes.append(reinterpret_cast<const char*>(&field), sizeof(field));
  bytes.append(16, '\0');
  std::ofstream(path("lie.dpqe"), std::ios::binary) << bytes;
  try {
    model_io::load_any(path("lie.dpqe"));
    FAIL() << "a layer larger than the file must throw";
  } catch (const util::Error& e) {
    // Bias and per-group scales as floats, then 1024 x 4096 int8 codes.
    const std::string declared =
        std::to_string(4 * (1024 + 1024 * 64) + 1024 * 4096);
    EXPECT_NE(std::string(e.what()).find("declares " + declared),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("only 16 are left"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(QuantIoTest, MutatedFilesLoadOrThrowTypedErrors) {
  // Two layers with ragged inputs (70 and 40 of 128-byte rows), so both code
  // planes carry zero padding.
  const core::StackedAutoencoder stack({70, 40, 20}, core::SaeConfig{}, 8);
  const auto q = core::QuantizedEncoder::from(stack, 128);
  core::save_model(*q, path("mut.dpqe"));
  const std::string bytes = slurp(path("mut.dpqe"));
  auto loads = [&](const std::string& mutated) {
    std::ofstream(path("mutated.dpqe"), std::ios::binary) << mutated;
    try {
      model_io::load_any(path("mutated.dpqe"));
      return true;
    } catch (const util::Error&) {
      return false;
    }
  };

  // Header and plane boundaries: magic, version, layer count, group, then
  // per layer its two dims, bias, scales and codes. Also where each region
  // of the code planes starts, for the byte flips below.
  std::vector<std::size_t> cuts = {0, 2, 4, 8, 16, 24};
  struct Plane {
    std::size_t begin;
    la::Index units, cols, padded;
  };
  std::vector<Plane> planes;
  std::size_t at = 24;
  for (std::size_t k = 0; k < q->layers(); ++k) {
    const la::quant::QuantizedWeights& w = q->layer(k).w;
    at += 8;
    cuts.push_back(at);
    at += 8;
    cuts.push_back(at);
    at += 4 * static_cast<std::size_t>(w.rows());
    cuts.push_back(at);
    at += 4 * static_cast<std::size_t>(w.rows() * w.groups());
    cuts.push_back(at);
    planes.push_back({at, w.rows(), w.cols(), w.padded_cols()});
    at += static_cast<std::size_t>(w.rows() * w.padded_cols());
    cuts.push_back(at);
  }
  ASSERT_EQ(at, bytes.size());
  for (const std::size_t cut : cuts) {
    for (const std::size_t len : {cut - 1, cut, cut + 1}) {
      if (cut == 0 && len != 0) continue;
      if (len >= bytes.size()) continue;
      EXPECT_FALSE(loads(bytes.substr(0, len))) << "truncated at " << len;
    }
  }

  // Seeded byte flips inside the code planes: a value in [-127, 127] at a
  // real input loads; -128 anywhere, or anything nonzero in the padding,
  // must be rejected.
  util::Rng rng(77);
  int loaded = 0, rejected = 0;
  for (int i = 0; i < 300; ++i) {
    const Plane& p = planes[static_cast<std::size_t>(i) % planes.size()];
    const auto u = static_cast<la::Index>(rng.uniform() *
                                          static_cast<double>(p.units));
    const auto c = static_cast<la::Index>(rng.uniform() *
                                          static_cast<double>(p.padded));
    const auto value = static_cast<std::int8_t>(rng.uniform(-128.0, 127.999));
    std::string mutated = bytes;
    mutated[p.begin + static_cast<std::size_t>(u * p.padded + c)] =
        static_cast<char>(value);
    const bool ok = loads(mutated);
    const bool legal = value != -128 && (c < p.cols || value == 0);
    EXPECT_EQ(ok, legal) << "code " << int{value} << " at unit " << u
                         << ", byte " << c;
    (ok ? loaded : rejected) += 1;
  }
  EXPECT_GT(loaded, 0);
  EXPECT_GT(rejected, 0);
}

TEST_F(QuantIoTest, UnknownMagicListsEveryKnownOne) {
  std::ofstream(path("bogus.bin"), std::ios::binary)
      << "XXXXdefinitely not a checkpoint";
  try {
    model_io::load_any(path("bogus.bin"));
    FAIL() << "unknown magic must throw";
  } catch (const util::Error& e) {
    const std::string what = e.what();
    for (const char* magic : {"DPAE", "DPRB", "DPSA", "DPDB", "DPQE"})
      EXPECT_NE(what.find(magic), std::string::npos) << magic;
  }
}

// ---------------------------------------------------------------------------
// Accounting: model == measure — encode() run dry on a shape-only batch
// records exactly the work of a real encode.

phi::KernelStats encode_stats(const core::QuantizedEncoder& q,
                              const la::Matrix& x) {
  la::Matrix out;
  phi::KernelStats stats;
  phi::StatsScope scope(stats);
  q.encode(x, out);
  return stats;
}

TEST(QuantAccounting, ModelEqualsMeasureSingleLayer) {
  const core::SparseAutoencoder sae(core::SaeConfig{96, 40}, 11);
  const auto q = core::QuantizedEncoder::from(sae);
  const phi::KernelStats measured =
      encode_stats(*q, random_matrix(24, 96, 47, 0.0f, 1.0f));
  phi::DryRun dry;
  const phi::KernelStats modeled = encode_stats(*q, la::Matrix(24, 96));
  EXPECT_TRUE(measured == modeled)
      << "measured:\n" << measured.to_string() << "\nmodeled:\n"
      << modeled.to_string();
  EXPECT_EQ(measured.gemm_flops, 2.0 * 24 * 40 * 96);
}

TEST(QuantAccounting, ModelEqualsMeasureLayerChain) {
  const core::StackedAutoencoder stack({80, 48, 24}, core::SaeConfig{}, 13);
  const auto q = core::QuantizedEncoder::from(stack);
  const phi::KernelStats measured =
      encode_stats(*q, random_matrix(16, 80, 53, 0.0f, 1.0f));
  phi::DryRun dry;
  const phi::KernelStats modeled = encode_stats(*q, la::Matrix(16, 80));
  EXPECT_TRUE(measured == modeled)
      << "measured:\n" << measured.to_string() << "\nmodeled:\n"
      << modeled.to_string();
  EXPECT_EQ(measured.gemm_flops, 2.0 * 16 * (48 * 80 + 24 * 48));
}

}  // namespace
}  // namespace deepphi
