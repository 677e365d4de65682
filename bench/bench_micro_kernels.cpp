// Micro-benchmarks (google-benchmark, real wall time on THIS machine) of the
// compute kernels: the optimized blocked GEMM vs the naive triple loop, the
// fused vs unfused elementwise sequences, sampling, transpose, reductions,
// the along-k GEMM packer and the u8 shard decode, and small GEMMs around
// the serial cut-off.
// These measure the actual library (not the simulator) — the analogue of the
// per-kernel engineering the paper's §IV describes.
//
// Beyond the google-benchmark registrations this driver also times the
// dispatched GEMM per SIMD tier (scalar / avx2 / avx512, whichever this CPU
// can run) at the paper's Fig. 7 layer shapes and emits the table through
// bench::emit, so --json produces a deepphi.bench.v1 document with a
// speedup_vs_scalar column per tier. google-benchmark's own flags
// (--benchmark_filter=... etc.) pass through; everything else is parsed by
// util::Options.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "baseline/naive_gemm.hpp"
#include "bench_common.hpp"
#include "la/elementwise.hpp"
#include "la/gemm.hpp"
#include "la/reduce.hpp"
#include "la/simd/dispatch.hpp"
#include "la/transpose.hpp"
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

void BM_GemmBlocked(benchmark::State& state) {
  const la::Index n = state.range(0);
  la::Matrix a = random_matrix(n, n, 1);
  la::Matrix b = random_matrix(n, n, 2);
  la::Matrix c(n, n);
  for (auto _ : state) {
    la::gemm_nn(1.0f, a, b, 0.0f, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GF/s"] = benchmark::Counter(
      2.0 * n * n * n * state.iterations() / 1e9, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmBlocked)->Arg(64)->Arg(128)->Arg(256)->Arg(384);

// Same kernel pinned to one dispatch tier; registered from main() once per
// tier this CPU can actually run, named BM_GemmBlocked<scalar> etc.
void BM_GemmBlockedTier(benchmark::State& state, la::simd::Tier tier) {
  const la::Index n = state.range(0);
  la::Matrix a = random_matrix(n, n, 1);
  la::Matrix b = random_matrix(n, n, 2);
  la::Matrix c(n, n);
  la::simd::force_tier(tier);
  for (auto _ : state) {
    la::gemm_nn(1.0f, a, b, 0.0f, c);
    benchmark::DoNotOptimize(c.data());
  }
  la::simd::reset_tier();
  state.counters["GF/s"] = benchmark::Counter(
      2.0 * n * n * n * state.iterations() / 1e9, benchmark::Counter::kIsRate);
}

void BM_GemmNaive(benchmark::State& state) {
  const la::Index n = state.range(0);
  la::Matrix a = random_matrix(n, n, 1);
  la::Matrix b = random_matrix(n, n, 2);
  la::Matrix c(n, n);
  for (auto _ : state) {
    baseline::naive_gemm(la::Trans::kNo, la::Trans::kNo, 1.0f, a, b, 0.0f, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GF/s"] = benchmark::Counter(
      2.0 * n * n * n * state.iterations() / 1e9, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmNaive)->Arg(64)->Arg(128)->Arg(256);

void BM_GemmForwardShape(benchmark::State& state) {
  // The training hot product: batch x visible times (hidden x visible)^T.
  const la::Index batch = state.range(0);
  la::Matrix x = random_matrix(batch, 1024, 3);
  la::Matrix w = random_matrix(512, 1024, 4);
  la::Matrix y(batch, 512);
  for (auto _ : state) {
    la::gemm_nt(1.0f, x, w, 0.0f, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.counters["GF/s"] = benchmark::Counter(
      2.0 * batch * 1024 * 512 * state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmForwardShape)->Arg(64)->Arg(256);

// y = x·Wᵀ at m × n × k, below and above la::gemm's 2²⁰-flop serial
// cut-off (la/gemm.cpp): 16³ and 32³, pca_vs_autoencoder's batch-128
// layers, a 1-row 576→1024 serve encode, and rbm_stream's v·Wᵀ at batch 64
// and 200. Run it at OMP_NUM_THREADS=1 and at the team size, idle and
// beside busy processes, to see where the fork pays.
void BM_GemmSmall(benchmark::State& state) {
  const la::Index m = state.range(0), n = state.range(1), k = state.range(2);
  la::Matrix x = random_matrix(m, k, 3);
  la::Matrix w = random_matrix(n, k, 4);
  la::Matrix y(m, n);
  for (auto _ : state) {
    la::gemm_nt(1.0f, x, w, 0.0f, y);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.counters["GF/s"] = benchmark::Counter(
      2.0 * m * n * k * state.iterations() / 1e9, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmSmall)
    ->Args({16, 16, 16})
    ->Args({32, 32, 32})
    ->Args({128, 4, 64})
    ->Args({128, 32, 64})
    ->Args({128, 64, 64})
    ->Args({1, 1024, 576})
    ->Args({128, 64, 128})
    ->Args({64, 64, 576})
    ->Args({200, 64, 576});

void BM_ElementwiseUnfused(benchmark::State& state) {
  const la::Index n = state.range(0);
  la::Matrix m = random_matrix(n, 512, 5);
  la::Vector bias(512);
  for (auto _ : state) {
    la::add_row_broadcast(m, bias);
    la::sigmoid_inplace(m);
    benchmark::DoNotOptimize(m.data());
  }
}
BENCHMARK(BM_ElementwiseUnfused)->Arg(64)->Arg(512);

void BM_ElementwiseFused(benchmark::State& state) {
  const la::Index n = state.range(0);
  la::Matrix m = random_matrix(n, 512, 5);
  la::Vector bias(512);
  for (auto _ : state) {
    la::bias_sigmoid(m, bias);
    benchmark::DoNotOptimize(m.data());
  }
}
BENCHMARK(BM_ElementwiseFused)->Arg(64)->Arg(512);

// rows × cols means; the sizes straddle the kernel's parallel threshold
// (la/elementwise.cpp), 200×64 is rbm_stream's hidden layer. Run it at
// OMP_NUM_THREADS=1 and at the team size to see where splitting rows pays.
void BM_SampleBernoulli(benchmark::State& state) {
  const la::Index rows = state.range(0), cols = state.range(1);
  la::Matrix mean = random_matrix(rows, cols, 6);
  for (la::Index i = 0; i < mean.size(); ++i)
    mean.data()[i] = 0.5f + 0.4f * mean.data()[i];
  la::Matrix out(rows, cols);
  util::Rng rng(7);
  std::uint64_t step = 0;
  for (auto _ : state) {
    la::sample_bernoulli(mean, out, rng.split(step++));
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * mean.size());
}
BENCHMARK(BM_SampleBernoulli)
    ->Args({16, 64})
    ->Args({32, 64})
    ->Args({64, 64})
    ->Args({128, 64})
    ->Args({200, 64})
    ->Args({64, 512})
    ->Args({512, 512});

// The along-k GEMM packer (KernelTable::pack_along_k) on a rows × kc block
// into the bound tier's A panels (arg 2 = 0, gemm_mr wide) or B panels
// (arg 2 = 1, gemm_nr wide): 120 rows is one mc block of rbm_stream's
// v1·Wᵀ, 64 its Wᵀ.
void BM_PackAlongK(benchmark::State& state) {
  const la::Index rows = state.range(0), kc = state.range(1);
  const la::simd::KernelTable& tab = la::simd::active();
  const la::Index w = state.range(2) == 0 ? tab.gemm_mr : tab.gemm_nr;
  const la::Matrix src = random_matrix(rows, kc, 10);
  std::vector<float> buf(static_cast<std::size_t>((rows + w - 1) / w * w * kc));
  for (auto _ : state) {
    tab.pack_along_k(src.data(), kc, kc, rows, w, buf.data());
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetBytesProcessed(state.iterations() * rows * kc *
                          static_cast<std::int64_t>(sizeof(float)));
}
BENCHMARK(BM_PackAlongK)
    ->Args({120, 256, 0})
    ->Args({64, 256, 1})
    ->Args({1024, 256, 1});

// The u8 → float shard decode (KernelTable::decode_u8) of rows × 576
// bytes: 10000 rows is one rbm_stream chunk.
void BM_DecodeU8(benchmark::State& state) {
  const la::Index n = state.range(0) * 576;
  std::vector<std::uint8_t> src(static_cast<std::size_t>(n));
  for (la::Index i = 0; i < n; ++i)
    src[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i * 131);
  std::vector<float> dst(static_cast<std::size_t>(n));
  const auto decode = la::simd::active().decode_u8;
  for (auto _ : state) {
    decode(src.data(), dst.data(), n);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(state.iterations() * n);
}
BENCHMARK(BM_DecodeU8)->Arg(200)->Arg(10000);

void BM_Transpose(benchmark::State& state) {
  const la::Index n = state.range(0);
  la::Matrix a = random_matrix(n, n, 8);
  la::Matrix t(n, n);
  for (auto _ : state) {
    la::transpose(a, t);
    benchmark::DoNotOptimize(t.data());
  }
}
BENCHMARK(BM_Transpose)->Arg(256)->Arg(1024);

// rows × cols column sums around the kernel's parallel threshold
// (la/reduce.cpp): rbm_stream's hidden and visible layers, then SAE-sized.
void BM_ColSum(benchmark::State& state) {
  la::Matrix m = random_matrix(state.range(0), state.range(1), 9);
  la::Vector out(state.range(1));
  for (auto _ : state) {
    la::col_sum(m, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * m.size());
}
BENCHMARK(BM_ColSum)
    ->Args({200, 64})
    ->Args({64, 576})
    ->Args({128, 576})
    ->Args({200, 576})
    ->Args({256, 1024})
    ->Args({2048, 1024});

// Σ (a − b)² of a rows × 576 reconstruction: rbm_stream's batch (200) and
// sae_fig7's (1000). la::ordered_sum cuts both into 2¹⁵-element chunks, each
// folded by KernelTable::sq_diff8.
void BM_SumSqDiff(benchmark::State& state) {
  const la::Matrix a = random_matrix(state.range(0), 576, 11);
  const la::Matrix b = random_matrix(state.range(0), 576, 12);
  for (auto _ : state) benchmark::DoNotOptimize(la::sum_sq_diff(a, b));
  state.SetItemsProcessed(state.iterations() * a.size());
}
BENCHMARK(BM_SumSqDiff)->Arg(200)->Arg(1000);

// Times the dispatched GEMM forward product y = x*W^T per SIMD tier at the
// paper's Fig. 7 layer shapes and emits a table with a speedup_vs_scalar
// column (the scalar tier row of the same shape is the baseline; the row
// whose tier equals the startup dispatch gets dispatched=yes) and each
// tier's share of this host's FMA peak at that tier's vector width.
void emit_tier_table(const util::Options& options) {
  const la::Index batch = options.get_int("batch");
  const int reps = static_cast<int>(options.get_int("reps"));
  const la::Index max_hidden = options.get_int("max_hidden");
  struct Shape {
    la::Index visible, hidden;
  };
  const Shape shapes[] = {
      {576, 1024}, {1024, 2048}, {1024, 4096}, {2048, 8192}, {4096, 16384}};

  int threads = 1;
#ifdef _OPENMP
  threads = omp_get_max_threads();
#endif
  double peak[la::simd::kNumTiers] = {};
  for (int t = 0; t < la::simd::kNumTiers; ++t) {
    const auto tier = static_cast<la::simd::Tier>(t);
    if (!la::simd::force_tier(tier)) continue;
    peak[t] = bench::fma_peak_gflops(threads);
  }
  la::simd::reset_tier();

  const la::simd::Tier dispatched = la::simd::active_tier();
  util::Table table({"tier", "dispatched", "visible", "hidden", "gemm_ms",
                     "GF_s", "speedup_vs_scalar", "peak_gflops",
                     "pct_peak"});
  for (const Shape& s : shapes) {
    if (s.hidden > max_hidden) continue;
    la::Matrix x = random_matrix(batch, s.visible, 1);
    la::Matrix w = random_matrix(s.hidden, s.visible, 2);
    la::Matrix y(batch, s.hidden);
    const double flops = 2.0 * static_cast<double>(batch) *
                         static_cast<double>(s.visible) *
                         static_cast<double>(s.hidden);
    double scalar_s = 0;  // scalar (tier 0) always runs first, so this is set
    for (int t = 0; t < la::simd::kNumTiers; ++t) {
      const auto tier = static_cast<la::simd::Tier>(t);
      if (!la::simd::tier_available(tier)) continue;
      la::simd::force_tier(tier);
      const double sec =
          bench::best_of(reps, [&] { la::gemm_nt(1.0f, x, w, 0.0f, y); });
      la::simd::reset_tier();
      if (tier == la::simd::Tier::kScalar) scalar_s = sec;
      const double gflops = flops / sec / 1e9;
      table.add_row({la::simd::tier_name(tier),
                     tier == dispatched ? "yes" : "no",
                     std::to_string(s.visible), std::to_string(s.hidden),
                     util::Table::cell(sec * 1e3), util::Table::cell(gflops),
                     util::Table::cell(scalar_s / sec),
                     util::Table::cell(peak[t]),
                     util::Table::cell(100.0 * gflops / peak[t])});
    }
  }
  bench::emit(options, table, bench::Clock::kMeasured);
}

}  // namespace

int bench_main(int argc, char** argv) {
  using namespace deepphi;
  // google-benchmark owns the --benchmark* flags; everything else goes to
  // util::Options (BENCHMARK_MAIN would abort on --json=...).
  std::vector<char*> gb_args{argv[0]};
  std::vector<const char*> opt_args{argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark", 11) == 0)
      gb_args.push_back(argv[i]);
    else
      opt_args.push_back(argv[i]);
  }
  int gb_argc = static_cast<int>(gb_args.size());
  benchmark::Initialize(&gb_argc, gb_args.data());

  util::Options options = util::Options::parse(
      static_cast<int>(opt_args.size()), opt_args.data());
  deepphi::bench::declare_common_flags(options);
  options.declare("batch", "mini-batch rows for the per-tier Fig. 7 table",
                  "256");
  options.declare("reps", "timing repetitions for the per-tier table", "3");
  options.declare("max_hidden", "skip Fig. 7 layers wider than this", "4096");
  options.declare("help", "print usage");
  if (options.has("help")) {
    std::printf("%s", options.help("bench_micro_kernels").c_str());
    return 0;
  }
  options.validate();

  for (int t = 0; t < la::simd::kNumTiers; ++t) {
    const auto tier = static_cast<la::simd::Tier>(t);
    if (!la::simd::tier_available(tier)) continue;
    const std::string name =
        std::string("BM_GemmBlocked<") + la::simd::tier_name(tier) + ">";
    benchmark::RegisterBenchmark(name.c_str(), BM_GemmBlockedTier, tier)
        ->Arg(256);
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  deepphi::bench::banner(
      "micro_kernels",
      "Dispatched GEMM per SIMD tier (real wall time on this machine) at "
      "Fig. 7 layer shapes; speedup_vs_scalar compares each tier against "
      "the forced-scalar kernel on the same shape.");
  emit_tier_table(options);
  return 0;
}

int main(int argc, char** argv) {
  return deepphi::bench::guarded_main(argc, argv, bench_main);
}
