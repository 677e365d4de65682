// Ablation of the GEMM cache-blocking parameters — the engineering beneath
// the paper's "MKL" rung, measured for REAL (wall time on this machine).
// Shows why packed panels exist: degenerate blockings collapse toward the
// naive triple loop's throughput.
#include <cstdio>

#include "baseline/naive_gemm.hpp"
#include "bench_common.hpp"
#include "la/gemm.hpp"
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

double time_blocked(const la::Matrix& a, const la::Matrix& b, la::Matrix& c,
                    const la::GemmBlocking& bl, int reps) {
  // Warm-up + best-of-reps (robust on a shared machine).
  la::gemm_blocked(la::Trans::kNo, la::Trans::kNo, 1.0f, a, b, 0.0f, c, bl);
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    util::Timer t;
    la::gemm_blocked(la::Trans::kNo, la::Trans::kNo, 1.0f, a, b, 0.0f, c, bl);
    best = std::min(best, t.seconds());
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace deepphi;
  util::Options options = util::Options::parse(argc, argv);
  bench::declare_common_flags(options);
  options.declare("n", "square matrix size", "384");
  options.declare("reps", "timing repetitions", "3");
  options.validate();

  const la::Index n = options.get_int("n");
  const int reps = static_cast<int>(options.get_int("reps"));

  bench::banner("GEMM blocking ablation (real wall time on this machine)",
                "Cache-blocking parameters of the packed GEMM vs the naive "
                "loop.");

  la::Matrix a = random_matrix(n, n, 1);
  la::Matrix b = random_matrix(n, n, 2);
  la::Matrix c(n, n);
  const double flops = 2.0 * n * n * n;

  util::Table table({"variant", "mc/kc/nc", "GF_per_s"});
  struct Case {
    const char* label;
    la::GemmBlocking bl;
  };
  const Case cases[] = {
      {"default", {128, 256, 1024}},
      {"small blocks", {16, 16, 64}},
      {"tall kc", {128, 1024, 1024}},
      {"tiny kc (repacks constantly)", {128, 8, 1024}},
      {"huge (no L2 blocking)", {4096, 4096, 4096}},
  };
  for (const Case& cs : cases) {
    const double secs = time_blocked(a, b, c, cs.bl, reps);
    table.add_row({cs.label,
                   std::to_string(cs.bl.mc) + "/" + std::to_string(cs.bl.kc) +
                       "/" + std::to_string(cs.bl.nc),
                   util::Table::cell(flops / secs / 1e9)});
  }
  {
    util::Timer t;
    baseline::naive_gemm(la::Trans::kNo, la::Trans::kNo, 1.0f, a, b, 0.0f, c);
    table.add_row({"naive triple loop", "-", util::Table::cell(flops / t.seconds() / 1e9)});
  }
  bench::emit(options, table, bench::Clock::kMeasured);
  return 0;
}
