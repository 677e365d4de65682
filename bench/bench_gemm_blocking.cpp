// Ablation of the GEMM cache-blocking parameters — the engineering beneath
// the paper's "MKL" rung, measured for REAL (wall time on this machine) at
// the five GEMM call sites of one SAE training step of Fig. 7's first
// network (576→1024 at batch 1000, the benchmark's sae_fig7 workload), each
// against this host's FMA peak.
// Shows why packed panels exist: degenerate blockings collapse toward the
// naive triple loop's throughput.
#include <cstdio>
#include <string>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "baseline/naive_gemm.hpp"
#include "bench_common.hpp"
#include "la/gemm.hpp"
#include "util/rng.hpp"

namespace {

using namespace deepphi;

la::Matrix random_matrix(la::Index rows, la::Index cols, std::uint64_t seed) {
  util::Rng rng(seed);
  la::Matrix m = la::Matrix::uninitialized(rows, cols);
  for (la::Index i = 0; i < m.size(); ++i)
    m.data()[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  return m;
}

// One GEMM call site of the SAE step: C (m×n) = op(A)·op(B) with op(A) m×k.
struct CallSite {
  const char* name;
  la::Index m, n, k;
  la::Trans ta, tb;
  la::Matrix a, b, c;

  CallSite(const char* label, la::Index rows, la::Index cols, la::Index inner,
           la::Trans trans_a, la::Trans trans_b, std::uint64_t seed)
      : name(label), m(rows), n(cols), k(inner), ta(trans_a), tb(trans_b),
        a(ta == la::Trans::kNo ? random_matrix(m, k, seed)
                               : random_matrix(k, m, seed)),
        b(tb == la::Trans::kNo ? random_matrix(k, n, seed + 1)
                               : random_matrix(n, k, seed + 1)),
        c(m, n) {}

  double flops() const { return 2.0 * m * n * k; }
};

const char* trans_name(la::Trans ta, la::Trans tb) {
  if (ta == la::Trans::kNo) return tb == la::Trans::kNo ? "nn" : "nt";
  return tb == la::Trans::kNo ? "tn" : "tt";
}

}  // namespace

int bench_main(int argc, char** argv) {
  using namespace deepphi;
  util::Options options = util::Options::parse(argc, argv);
  bench::declare_common_flags(options);
  options.declare("reps", "timing repetitions", "3");
  options.validate();

  const la::Index batch = 1000, visible = 576, hidden = 1024;
  const int reps = static_cast<int>(options.get_int("reps"));
  int threads = 1;
#ifdef _OPENMP
  threads = omp_get_max_threads();
#endif

  bench::banner("GEMM blocking ablation (real wall time on this machine)",
                "Cache-blocking parameters of the packed GEMM at the five "
                "GEMM call sites of one SAE step, against the FMA peak.");

  using la::Trans;
  std::vector<CallSite> sites;
  sites.emplace_back("y = x W1^T", batch, hidden, visible, Trans::kNo,
                     Trans::kYes, 1);
  sites.emplace_back("z = y W2^T", batch, visible, hidden, Trans::kNo,
                     Trans::kYes, 3);
  sites.emplace_back("gW2 = d2^T y", visible, hidden, batch, Trans::kYes,
                     Trans::kNo, 5);
  sites.emplace_back("back = d2 W2", batch, hidden, visible, Trans::kNo,
                     Trans::kNo, 7);
  sites.emplace_back("gW1 = back^T x", hidden, visible, batch, Trans::kYes,
                     Trans::kNo, 9);
  double step_flops = 0;
  for (const CallSite& s : sites) step_flops += s.flops();

  const double peak = bench::fma_peak_gflops(threads);
  const std::string peak_cell = util::Table::cell(peak);
  auto pct = [peak](double gflops) {
    return util::Table::cell(100.0 * gflops / peak);
  };

  // Per call site at the default blocking.
  util::Table sites_table({"call_site", "trans", "m", "n", "k", "ms", "GF_s",
                           "peak_gflops", "pct_peak"});
  for (CallSite& s : sites) {
    const double secs = bench::best_of(reps, [&] {
      la::gemm(s.ta, s.tb, 1.0f, s.a, s.b, 0.0f, s.c);
    });
    const double gflops = s.flops() / secs / 1e9;
    sites_table.add_row({s.name, trans_name(s.ta, s.tb), std::to_string(s.m),
                         std::to_string(s.n), std::to_string(s.k),
                         util::Table::cell(secs * 1e3),
                         util::Table::cell(gflops), peak_cell, pct(gflops)});
  }
  bench::emit(options, sites_table, bench::Clock::kMeasured);

  // Blocking variants over the whole step (the five calls in sequence).
  util::Table table({"variant", "mc/kc/nc", "step_ms", "GF_s", "peak_gflops",
                     "pct_peak"});
  struct Case {
    const char* label;
    la::GemmBlocking bl;
  };
  const la::GemmBlocking def{};
  const Case cases[] = {
      {"default", def},
      {"half mc", {def.mc / 2, def.kc, def.nc}},
      {"double mc", {def.mc * 2, def.kc, def.nc}},
      {"quadruple mc", {def.mc * 4, def.kc, def.nc}},
      {"half nc", {def.mc, def.kc, def.nc / 2}},
      {"double nc", {def.mc, def.kc, def.nc * 2}},
      {"small blocks", {16, 16, 64}},
      {"tall kc", {def.mc, 1024, def.nc}},
      {"tiny kc (repacks constantly)", {def.mc, 8, def.nc}},
      {"huge (no L2 blocking)", {4096, 4096, 4096}},
  };
  for (const Case& cs : cases) {
    const double secs = bench::best_of(reps, [&] {
      for (CallSite& s : sites)
        la::gemm_blocked(s.ta, s.tb, 1.0f, s.a, s.b, 0.0f, s.c, cs.bl);
    });
    const double gflops = step_flops / secs / 1e9;
    table.add_row({cs.label,
                   std::to_string(cs.bl.mc) + "/" + std::to_string(cs.bl.kc) +
                       "/" + std::to_string(cs.bl.nc),
                   util::Table::cell(secs * 1e3), util::Table::cell(gflops),
                   peak_cell, pct(gflops)});
  }
  {
    util::Timer t;
    for (CallSite& s : sites)
      baseline::naive_gemm(s.ta, s.tb, 1.0f, s.a, s.b, 0.0f, s.c);
    const double secs = t.seconds();
    const double gflops = step_flops / secs / 1e9;
    table.add_row({"naive triple loop", "-", util::Table::cell(secs * 1e3),
                   util::Table::cell(gflops), peak_cell, pct(gflops)});
  }
  bench::emit(options, table, bench::Clock::kMeasured);
  return 0;
}

int main(int argc, char** argv) {
  return deepphi::bench::guarded_main(argc, argv, bench_main);
}
