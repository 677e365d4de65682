// Int8 quantized inference suite (docs/serving.md "Precision",
// docs/simd.md "Int8 kernel tier").
//
// Pins the three contracts of the quantized path:
//  * cross-tier parity — quant_dot and the whole QuantizedEncoder forward
//    are BITWISE identical on every dispatched tier (integer accumulation is
//    exact; the float combine is a fixed scalar sequence);
//  * numerics — quantize/dequantize round-trip error is bounded by half a
//    code step, and int8 encode output stays within a documented tolerance
//    of fp32 (the same delta bench_quant reports);
//  * serving equivalence — per-ROW dynamic activation quantization makes a
//    served row's int8 output bitwise equal to encoding that row alone, no
//    matter how the batcher coalesced it.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/model_io.hpp"
#include "core/quantized_encoder.hpp"
#include "core/sparse_autoencoder.hpp"
#include "la/quant.hpp"
#include "la/simd/dispatch.hpp"
#include "phi/kernel_stats.hpp"
#include "serve/inference_server.hpp"
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

/// Reference for the dispatched kernel: int64 accumulation (a superset of
/// any tier's exact int32 group arithmetic) and the same fixed scalar fma
/// combine. Every tier must match this bitwise.
float ref_quant_dot(const std::uint8_t* xq, const std::int8_t* wq,
                    const float* scales, const std::int32_t* wsum,
                    std::int64_t groups, std::int64_t group, std::int32_t zp) {
  float r = 0.0f;
  for (std::int64_t g = 0; g < groups; ++g) {
    std::int64_t acc = 0;
    for (std::int64_t j = 0; j < group; ++j)
      acc += static_cast<std::int64_t>(xq[g * group + j]) *
             static_cast<std::int64_t>(wq[g * group + j]);
    const std::int64_t s =
        acc - static_cast<std::int64_t>(zp) * static_cast<std::int64_t>(wsum[g]);
    r = std::fma(scales[g], static_cast<float>(s), r);
  }
  return r;
}

struct QuantDotInput {
  std::vector<std::uint8_t> xq;
  std::vector<std::int8_t> wq;
  std::vector<float> scales;
  std::vector<std::int32_t> wsums;
};

QuantDotInput random_quant_input(std::int64_t groups, std::int64_t group,
                                 std::uint64_t seed, bool extremes = false) {
  util::Rng rng(seed);
  QuantDotInput in;
  in.xq.resize(static_cast<std::size_t>(groups * group));
  in.wq.resize(static_cast<std::size_t>(groups * group));
  for (auto& v : in.xq)
    v = static_cast<std::uint8_t>(
        extremes ? (rng.uniform() < 0.5 ? 0 : 127)
                 : static_cast<int>(rng.uniform(0.0, 127.999)));
  for (auto& v : in.wq)
    v = static_cast<std::int8_t>(
        extremes ? (rng.uniform() < 0.5 ? -127 : 127)
                 : static_cast<int>(rng.uniform(-127.0, 127.999)));
  in.scales.resize(static_cast<std::size_t>(groups));
  in.wsums.resize(static_cast<std::size_t>(groups));
  for (std::int64_t g = 0; g < groups; ++g) {
    in.scales[static_cast<std::size_t>(g)] =
        static_cast<float>(rng.uniform(1e-4, 0.05));
    std::int32_t sum = 0;
    for (std::int64_t j = 0; j < group; ++j)
      sum += in.wq[static_cast<std::size_t>(g * group + j)];
    in.wsums[static_cast<std::size_t>(g)] = sum;
  }
  return in;
}

// ---------------------------------------------------------------------------
// Kernel-level parity.

TEST(QuantDot, EveryTierExportsTheKernel) {
  for (la::simd::Tier t : available_tiers()) {
    ForcedTier forced(t);
    EXPECT_NE(la::simd::active().quant_dot, nullptr)
        << la::simd::tier_name(t);
  }
}

TEST(QuantDot, MatchesInt64ReferenceOnEveryTier) {
  for (const std::int64_t group : {64, 128, 192}) {
    for (const std::int64_t groups : {1, 2, 3, 7}) {
      const QuantDotInput in = random_quant_input(
          groups, group, static_cast<std::uint64_t>(group * 100 + groups));
      for (const std::int32_t zp : {0, 37, 127}) {
        const float expect =
            ref_quant_dot(in.xq.data(), in.wq.data(), in.scales.data(),
                          in.wsums.data(), groups, group, zp);
        for (la::simd::Tier t : available_tiers()) {
          ForcedTier forced(t);
          const float got = la::simd::active().quant_dot(
              in.xq.data(), in.wq.data(), in.scales.data(), in.wsums.data(),
              groups, group, zp);
          EXPECT_EQ(std::memcmp(&got, &expect, sizeof(float)), 0)
              << la::simd::tier_name(t) << " group=" << group
              << " groups=" << groups << " zp=" << zp << " got=" << got
              << " want=" << expect;
        }
      }
    }
  }
}

TEST(QuantDot, CodeExtremesCannotSaturateTheAvx2Emulation) {
  // All-extreme codes maximize the s16 pair sums the AVX2 maddubs emulation
  // forms: 127*127*2 = 32258 < 32767. Bitwise agreement here pins that the
  // 7-bit activation bound keeps the emulation exact.
  const std::int64_t groups = 4, group = 256;
  const QuantDotInput in = random_quant_input(groups, group, 99, true);
  const float expect =
      ref_quant_dot(in.xq.data(), in.wq.data(), in.scales.data(),
                    in.wsums.data(), groups, group, 127);
  for (la::simd::Tier t : available_tiers()) {
    ForcedTier forced(t);
    const float got = la::simd::active().quant_dot(
        in.xq.data(), in.wq.data(), in.scales.data(), in.wsums.data(), groups,
        group, 127);
    EXPECT_EQ(std::memcmp(&got, &expect, sizeof(float)), 0)
        << la::simd::tier_name(t);
  }
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
  const la::Matrix w = random_matrix(5, 70, 7);
  const la::quant::QuantizedWeights q = la::quant::QuantizedWeights::quantize(w);
  for (la::Index r = 0; r < q.rows(); ++r) {
    for (la::Index c = q.cols(); c < q.padded_cols(); ++c)
      EXPECT_EQ(q.codes(r)[c], 0) << "padding must stay zero";
    for (la::Index g = 0; g < q.groups(); ++g) {
      std::int32_t sum = 0;
      for (la::Index j = 0; j < q.group(); ++j)
        sum += q.codes(r)[g * q.group() + j];
      EXPECT_EQ(q.wsums(r)[g], sum);
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
// Serving equivalence through the batcher.

TEST(QuantizedServing, ServedRowsBitwiseEqualSingleRowEncode) {
  const core::StackedAutoencoder stack({48, 24, 12}, core::SaeConfig{}, 6);
  const auto q = core::QuantizedEncoder::from(stack);
  const la::Matrix inputs = random_matrix(24, 48, 37, 0.0f, 1.0f);

  serve::ServeConfig cfg;
  cfg.max_batch = 8;
  cfg.max_delay_s = 0.02;  // force multi-row coalescing
  serve::InferenceServer server(*q, cfg);
  EXPECT_STREQ(server.precision(), "int8");

  std::vector<std::future<serve::Reply>> futures;
  for (la::Index r = 0; r < inputs.rows(); ++r)
    futures.push_back(server.submit(inputs.row(r), inputs.cols()));
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
  const core::SparseAutoencoder sae(core::SaeConfig{16, 8}, 1);
  serve::InferenceServer server(sae, serve::ServeConfig{});
  EXPECT_STREQ(server.precision(), "fp32");
  server.shutdown();
}

// ---------------------------------------------------------------------------
// model_io round trip and corrupt-file handling.

class QuantIoTest : public ::testing::Test {
 protected:
  std::string path(const std::string& name) {
    return testing::TempDir() + "/" + name;
  }
  static std::string slurp(const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
  }
};

TEST_F(QuantIoTest, RoundTripsByteForByte) {
  const core::StackedAutoencoder stack({70, 40, 20}, core::SaeConfig{}, 8);
  const auto q = core::QuantizedEncoder::from(stack, 128);
  core::save_model(*q, path("rt.dpqe"));
  EXPECT_EQ(model_io::sniff_magic(path("rt.dpqe")), "DPQE");

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
  EXPECT_EQ(any.precision, "int8");
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
