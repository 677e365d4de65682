// Fused GEMM epilogues vs unfused GEMM + elementwise pass, measured for REAL
// (wall time on this machine) at the paper's Fig. 7 layer shapes. The fused
// write-back applies bias+sigmoid while the C tile is cache-hot; the unfused
// path streams C through memory a second time, which is what the fusion
// eliminates.
#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "la/elementwise.hpp"
#include "la/gemm.hpp"
#include "la/simd/dispatch.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace deepphi;

la::Matrix random_matrix(la::Index rows, la::Index cols, std::uint64_t seed) {
  util::Rng rng(seed);
  la::Matrix m = la::Matrix::uninitialized(rows, cols);
  for (la::Index i = 0; i < m.size(); ++i)
    m.data()[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  return m;
}

la::Vector random_vector(la::Index n, std::uint64_t seed) {
  util::Rng rng(seed);
  la::Vector v = la::Vector::uninitialized(n);
  for (la::Index i = 0; i < n; ++i)
    v[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

using bench::best_of;

}  // namespace

int bench_main(int argc, char** argv) {
  using namespace deepphi;
  util::Options options = util::Options::parse(argc, argv);
  bench::declare_common_flags(options);
  options.declare("batch", "SAE mini-batch rows", "1000");
  options.declare("reps", "timing repetitions", "3");
  options.declare("max_hidden", "skip Fig. 7 layers wider than this", "4096");
  options.validate();

  const la::Index batch = options.get_int("batch");
  const int reps = static_cast<int>(options.get_int("reps"));
  const la::Index max_hidden = options.get_int("max_hidden");

  bench::banner(
      "GEMM epilogue fusion (real wall time on this machine)",
      "Forward pass y = sigmoid(x*W^T + b) at Fig. 7 layer shapes: fused "
      "bias+sigmoid at GEMM write-back vs a separate elementwise pass.");

  struct Shape {
    la::Index visible, hidden;
  };
  const Shape shapes[] = {
      {576, 1024}, {1024, 2048}, {1024, 4096}, {2048, 8192}, {4096, 16384}};

  util::Table table({"visible", "hidden", "unfused_ms", "fused_ms", "speedup"});
  for (const Shape& s : shapes) {
    if (s.hidden > max_hidden) continue;
    la::Matrix x = random_matrix(batch, s.visible, 1);
    la::Matrix w = random_matrix(s.hidden, s.visible, 2);
    la::Vector b = random_vector(s.hidden, 3);
    la::Matrix y(batch, s.hidden);

    const double unfused = best_of(reps, [&] {
      la::gemm_nt(1.0f, x, w, 0.0f, y);
      la::bias_sigmoid(y, b);
    });
    const double fused = best_of(reps, [&] {
      la::gemm_nt(1.0f, x, w, 0.0f, y, la::GemmEpilogue::bias_sigmoid(b));
    });

    table.add_row({std::to_string(s.visible), std::to_string(s.hidden),
                   util::Table::cell(unfused * 1e3),
                   util::Table::cell(fused * 1e3),
                   util::Table::cell(unfused / fused)});
  }
  bench::emit(options, table, bench::Clock::kMeasured);

  // Second table: the same fused forward pass pinned to each SIMD tier this
  // CPU can run, with the scalar tier of the same shape as the baseline.
  util::Table tier_table(
      {"tier", "visible", "hidden", "fused_ms", "speedup_vs_scalar"});
  for (const Shape& s : shapes) {
    if (s.hidden > max_hidden) continue;
    la::Matrix x = random_matrix(batch, s.visible, 1);
    la::Matrix w = random_matrix(s.hidden, s.visible, 2);
    la::Vector b = random_vector(s.hidden, 3);
    la::Matrix y(batch, s.hidden);
    double scalar_s = 0;  // scalar (tier 0) always runs first, so this is set
    for (int t = 0; t < la::simd::kNumTiers; ++t) {
      const auto tier = static_cast<la::simd::Tier>(t);
      if (!la::simd::tier_available(tier)) continue;
      la::simd::force_tier(tier);
      const double fused = best_of(reps, [&] {
        la::gemm_nt(1.0f, x, w, 0.0f, y, la::GemmEpilogue::bias_sigmoid(b));
      });
      la::simd::reset_tier();
      if (tier == la::simd::Tier::kScalar) scalar_s = fused;
      tier_table.add_row({la::simd::tier_name(tier), std::to_string(s.visible),
                          std::to_string(s.hidden),
                          util::Table::cell(fused * 1e3),
                          util::Table::cell(scalar_s / fused)});
    }
  }
  bench::emit(options, tier_table, bench::Clock::kMeasured);
  return 0;
}

int main(int argc, char** argv) {
  return deepphi::bench::guarded_main(argc, argv, bench_main);
}
