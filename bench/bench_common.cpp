#include "bench_common.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <future>
#include <sstream>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "la/simd/dispatch.hpp"
#include "util/error.hpp"
#include "util/json_writer.hpp"
#include "util/rng.hpp"

namespace deepphi::bench {

namespace {

// Per-process accumulator for --json output. Benches are single-threaded
// drivers, so plain statics are fine; `g_tables` grows across emit() calls
// and the file is rewritten each time so multi-table benches (e.g. Fig. 7's
// SAE + RBM tables) end up with every table in one document.
std::string g_bench_title = "bench";
std::string g_precision = "fp32";
struct EmittedTable {
  util::Table table;
  Clock clock;
};
std::vector<EmittedTable> g_tables;

// Emits a cell as a JSON number when it round-trips cleanly as a double,
// else as a string. Keeps downstream tooling from re-parsing "128" or
// "3.75" out of strings while leaving labels like "sae" alone.
void write_cell(util::JsonWriter& w, const std::string& cell) {
  if (!cell.empty()) {
    char* end = nullptr;
    const double v = std::strtod(cell.c_str(), &end);
    if (end == cell.c_str() + cell.size()) {
      w.value(v);
      return;
    }
  }
  w.value(cell);
}

void write_json(const std::string& path) {
  std::ostringstream os;
  util::JsonWriter w(os);
  w.begin_object();
  w.member("schema", "deepphi.bench.v1");
  w.member("bench", g_bench_title);
  // The dispatch tier that real (non-simulated) kernel timings in this
  // document ran on; per-tier tables additionally carry a tier column.
  w.member("simd_tier", la::simd::tier_name(la::simd::active_tier()));
  // Numeric precision of the bench's primary workload ("fp32" unless the
  // bench says otherwise via set_precision — e.g. "int8" for bench_quant).
  w.member("precision", g_precision);
  w.key("tables");
  w.begin_array();
  for (const auto& [table, clock] : g_tables) {
    w.begin_object();
    w.member("clock", clock_name(clock));
    w.key("columns");
    w.begin_array();
    for (const std::string& col : table.header()) w.value(col);
    w.end_array();
    w.key("rows");
    w.begin_array();
    for (const auto& row : table.data()) {
      w.begin_array();
      for (const std::string& cell : row) write_cell(w, cell);
      w.end_array();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  DEEPPHI_CHECK_MSG(w.done(), "bench json document left incomplete");
  std::ofstream out(path, std::ios::trunc);
  DEEPPHI_CHECK_MSG(out.good(), "cannot open --json path '" << path << "'");
  out << os.str() << "\n";
  DEEPPHI_CHECK_MSG(out.good(), "write to --json path '" << path << "' failed");
}

// Independent FMA chains, enough to cover FMA latency on two ports. Each
// returns a value derived from every accumulator so nothing is elided. The
// unroll pragmas keep the chains in registers at -O2.
constexpr int kChains = 12;

#if defined(__x86_64__) || defined(__i386__)
__attribute__((target("avx512f"))) float fma_chains_avx512(std::int64_t iters) {
  __m512 acc[kChains];
  for (int j = 0; j < kChains; ++j) acc[j] = _mm512_set1_ps(0.01f * j);
  const __m512 a = _mm512_set1_ps(0.5f), b = _mm512_set1_ps(0.5f);
  for (std::int64_t i = 0; i < iters; ++i)
#pragma GCC unroll 12
    for (int j = 0; j < kChains; ++j) acc[j] = _mm512_fmadd_ps(acc[j], a, b);
  __m512 s = acc[0];
  for (int j = 1; j < kChains; ++j) s = _mm512_add_ps(s, acc[j]);
  alignas(64) float out[16];
  _mm512_store_ps(out, s);
  float total = 0;
  for (float v : out) total += v;
  return total;
}

__attribute__((target("avx2,fma"))) float fma_chains_avx2(std::int64_t iters) {
  __m256 acc[kChains];
  for (int j = 0; j < kChains; ++j) acc[j] = _mm256_set1_ps(0.01f * j);
  const __m256 a = _mm256_set1_ps(0.5f), b = _mm256_set1_ps(0.5f);
  for (std::int64_t i = 0; i < iters; ++i)
#pragma GCC unroll 12
    for (int j = 0; j < kChains; ++j) acc[j] = _mm256_fmadd_ps(acc[j], a, b);
  __m256 s = acc[0];
  for (int j = 1; j < kChains; ++j) s = _mm256_add_ps(s, acc[j]);
  alignas(32) float out[8];
  _mm256_store_ps(out, s);
  float total = 0;
  for (float v : out) total += v;
  return total;
}
#endif

float fma_chains_scalar(std::int64_t iters) {
  float acc[kChains];
  for (int j = 0; j < kChains; ++j) acc[j] = 0.01f * j;
  for (std::int64_t i = 0; i < iters; ++i)
#pragma GCC unroll 12
    for (int j = 0; j < kChains; ++j) acc[j] = std::fma(acc[j], 0.5f, 0.5f);
  float s = 0;
  for (float v : acc) s += v;
  return s;
}

// One thread's chains at a vector width of `lanes` floats.
float fma_chains(int lanes, std::int64_t iters) {
#if defined(__x86_64__) || defined(__i386__)
  if (lanes == 16) return fma_chains_avx512(iters);
  if (lanes == 8) return fma_chains_avx2(iters);
#endif
  return fma_chains_scalar(iters);
}

std::vector<float> row_of(const la::Matrix& m, la::Index r) {
  return std::vector<float>(m.row(r), m.row(r) + m.cols());
}

}  // namespace

double fma_peak_gflops(int threads) {
  const la::simd::Tier tier = la::simd::active_tier();
  const int lanes = tier == la::simd::Tier::kAvx512 ? 16
                    : tier == la::simd::Tier::kAvx2 ? 8
                                                    : 1;
  const std::int64_t iters = lanes == 1 ? 2'000'000 : 4'000'000;
  double best = 0;
  volatile float sink = 0;
  for (int rep = 0; rep < 5; ++rep) {
    util::Timer t;
#pragma omp parallel num_threads(threads)
    {
      const float v = fma_chains(lanes, iters);
      if (v == 12345.0f) sink = v;
    }
    const double flops =
        2.0 * kChains * lanes * static_cast<double>(iters) * threads;
    best = std::max(best, flops / t.seconds() / 1e9);
  }
  (void)sink;
  return best;
}

void banner(const std::string& title, const std::string& description) {
  g_bench_title = title;
  std::printf("================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("%s\n", description.c_str());
  std::printf("Paper: Jin et al., \"Training Large Scale Deep Neural Networks on\n"
              "the Intel Xeon Phi Many-core Coprocessor\", IPDPSW 2014.\n");
  std::printf(
      "Each table names its clock: simulated (the calibrated machine\n"
      "model; the Phi is discontinued hardware, see DESIGN.md section 2),\n"
      "measured (wall time on this host) or deterministic (untimed).\n");
  std::printf("================================================================\n");
}

double host_run_seconds(const phi::KernelStats& total_stats,
                        const phi::MachineSpec& spec, int threads) {
  phi::KernelStats compute = total_stats;
  compute.h2d_bytes = 0;
  compute.d2h_bytes = 0;
  compute.transfers = 0;
  return phi::CostModel(spec).evaluate(compute, threads).compute_s();
}

const char* clock_name(Clock clock) {
  switch (clock) {
    case Clock::kSimulated: return "simulated";
    case Clock::kMeasured: return "measured";
    case Clock::kDeterministic: return "deterministic";
  }
  return "?";
}

phi::KernelStats sae_step_stats(la::Index visible, la::Index hidden,
                                la::Index batch, core::OptLevel level) {
  const core::TrainerConfig config{
      .batch_size = batch, .chunk_examples = batch, .level = level};
  return core::dry_train(core::SaeConfig{visible, hidden}, config, batch)
      .per_chunk_compute_stats();
}

phi::KernelStats gradient_stats(const core::SparseAutoencoder& model,
                                la::Index rows) {
  phi::KernelStats stats;
  phi::StatsScope scope(stats);
  phi::DryRun dry;
  core::SparseAutoencoder::Workspace ws;
  core::AeGradients grads;
  model.gradient(la::Matrix(rows, model.visible()), ws, grads, /*fused=*/true);
  return stats;
}

phi::KernelStats gradient_stats(const core::Rbm& model, la::Index rows) {
  phi::KernelStats stats;
  phi::StatsScope scope(stats);
  phi::DryRun dry;
  core::Rbm::Workspace ws;
  core::RbmGradients grads;
  model.gradient(la::Matrix(rows, model.visible()), ws, grads, util::Rng(0),
                 /*fused=*/true);
  return stats;
}

void emit(const util::Options& options, const util::Table& table,
          Clock clock) {
  std::printf("clock: %s\n%s\n", clock_name(clock), table.to_text().c_str());
  if (options.has("csv")) {
    const std::string path = options.get_string("csv");
    table.write_csv(path);
    std::printf("(csv written to %s)\n", path.c_str());
  }
  if (options.has("json")) {
    const std::string path = options.get_string("json");
    g_tables.push_back({table, clock});
    write_json(path);
    std::printf("(json written to %s)\n", path.c_str());
  }
}

void set_precision(const std::string& precision) { g_precision = precision; }

void declare_common_flags(util::Options& options) {
  options.declare("csv", "also write the result table to this CSV path");
  options.declare("json",
                  "also write all result tables to this path as JSON "
                  "(schema deepphi.bench.v1)");
}

la::Matrix random_rows(la::Index rows, la::Index dim, std::uint64_t seed,
                       std::uint64_t stream) {
  util::Rng rng(seed, stream);
  la::Matrix m(rows, dim);
  for (la::Index i = 0; i < m.size(); ++i) m.data()[i] = rng.uniform_float();
  return m;
}

double closed_loop(serve::InferenceServer& server, const std::string& model,
                   const la::Matrix& inputs, double seconds) {
  constexpr std::size_t kWindow = 512;
  std::deque<std::future<serve::Reply>> outstanding;
  const util::Timer timer;
  std::int64_t sent = 0;
  while (timer.seconds() < seconds) {
    while (outstanding.size() >= kWindow) {
      outstanding.front().get();
      outstanding.pop_front();
    }
    outstanding.push_back(
        server.submit(model, row_of(inputs, sent++ % inputs.rows())));
  }
  for (auto& f : outstanding) f.get();
  return static_cast<double>(sent) / timer.seconds();
}

void open_loop(serve::InferenceServer& server, const std::string& model,
               const la::Matrix& inputs, const std::vector<double>& arrivals) {
  std::vector<std::future<serve::Reply>> futures;
  futures.reserve(arrivals.size());
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(arrivals[i])));
    futures.push_back(server.submit(
        model, row_of(inputs, static_cast<la::Index>(i) % inputs.rows())));
  }
  for (auto& f : futures) f.get();
}

}  // namespace deepphi::bench
