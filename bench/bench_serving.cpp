// Serving-side companion to Fig. 9: throughput and latency vs the coalesced
// batch size of the inference server.
//
// Fig. 9 shows training time falling by ~2/3 as the mini-batch grows — skinny
// GEMMs cannot fill a many-core machine. The same economics govern serving:
// dispatching one request at a time (max_batch=1) pays the full per-batch
// overhead and runs a 1-row GEMM per request, while dynamic micro-batching
// amortizes both. This bench measures the real wall-clock serving path
// (RequestQueue -> batcher -> ThreadPool -> Encoder::encode), not the cost
// model:
//
//   * saturation sweep — a closed-loop client keeps a fixed window of
//     requests outstanding; throughput at max_batch in {1, 8, 64} should show
//     batching winning by >= 3x at the top of the sweep;
//   * moderate-load probe — an open-loop Poisson stream at a fraction of the
//     batched capacity; p95 latency should stay near max_delay plus one
//     batch's compute time.
#include <chrono>
#include <cstdio>
#include <deque>
#include <future>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/stacked_autoencoder.hpp"
#include "serve/inference_server.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"

namespace {

using namespace deepphi;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

la::Matrix random_rows(la::Index rows, la::Index dim, std::uint64_t seed) {
  util::Rng rng(seed, /*stream=*/0xBE7C);
  la::Matrix m(rows, dim);
  for (la::Index i = 0; i < m.size(); ++i) m.data()[i] = rng.uniform_float();
  return m;
}

struct SaturationPoint {
  double throughput = 0;  // completed requests / s
  serve::ServerStats stats;
};

/// Closed loop: keep `window` requests outstanding for `seconds`, then
/// drain. Requests pile up in the queue while a batch computes, which is
/// exactly what gives the batcher something to coalesce.
SaturationPoint run_saturation(const core::Encoder& model, la::Index max_batch,
                               double seconds, const la::Matrix& inputs) {
  serve::ServeConfig cfg;
  cfg.max_batch = max_batch;
  cfg.max_delay_s = 1e-3;
  cfg.queue_capacity = 4096;
  serve::InferenceServer server(model, cfg);

  std::deque<std::future<serve::Reply>> window;
  const std::size_t window_size = 512;
  const double start = now_s();
  la::Index next = 0;
  std::int64_t sent = 0;
  while (now_s() - start < seconds) {
    while (window.size() >= window_size) {
      window.front().get();
      window.pop_front();
    }
    window.push_back(server.submit(inputs.row(next), inputs.cols()));
    next = (next + 1) % inputs.rows();
    ++sent;
  }
  for (auto& f : window) f.get();
  const double wall = now_s() - start;
  server.shutdown();

  SaturationPoint p;
  p.stats = server.stats();
  p.throughput = static_cast<double>(p.stats.completed) / wall;
  return p;
}

/// Open loop at `rate` req/s: latency under moderate load, where the
/// deadline flush (not queue pressure) decides when batches dispatch.
serve::ServerStats run_moderate(const core::Encoder& model, double rate,
                                double seconds, const la::Matrix& inputs) {
  serve::ServeConfig cfg;
  cfg.max_batch = 64;
  cfg.max_delay_s = 1e-3;
  cfg.queue_capacity = 4096;
  serve::InferenceServer server(model, cfg);

  std::vector<std::future<serve::Reply>> futures;
  futures.reserve(static_cast<std::size_t>(rate * seconds) + 1);
  const auto start = std::chrono::steady_clock::now();
  la::Index next = 0;
  for (std::size_t i = 0; static_cast<double>(i) < rate * seconds; ++i) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(static_cast<double>(i) /
                                                  rate)));
    futures.push_back(server.submit(inputs.row(next), inputs.cols()));
    next = (next + 1) % inputs.rows();
  }
  for (auto& f : futures) f.get();
  server.shutdown();
  return server.stats();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace deepphi;
  util::Options options = util::Options::parse(argc, argv);
  bench::declare_common_flags(options);
  options.declare("seconds", "measurement window per configuration", "0.4");
  options.declare("dims", "encoder stack sizes", "256,128,64");
  options.validate();

  bench::banner(
      "Serving — impact of the coalesced batch size",
      "Fig. 9's batch-size lesson on the inference serving path: real "
      "wall-clock throughput/latency of InferenceServer vs max_batch.");

  const double seconds = options.get_double("seconds");
  std::vector<la::Index> dims;
  for (const std::string& d : util::split(options.get_string("dims"), ','))
    dims.push_back(static_cast<la::Index>(util::parse_double(d)));
  DEEPPHI_CHECK_MSG(dims.size() >= 2, "--dims needs at least two sizes");

  const core::StackedAutoencoder model(dims, core::SaeConfig{}, /*seed=*/7);
  const la::Matrix inputs = random_rows(1024, model.input_dim(), 7);
  std::printf("model: %s, closed-loop window 512, %.2fs per point\n\n",
              model.describe().c_str(), seconds);

  util::Table table({"max_batch", "throughput_rps", "mean_coalesce", "p50_ms",
                     "p95_ms", "speedup_vs_1"});
  double base = 0;
  for (la::Index max_batch : {1, 8, 64}) {
    const SaturationPoint p =
        run_saturation(model, max_batch, seconds, inputs);
    if (max_batch == 1) base = p.throughput;
    table.add_row({util::Table::cell(static_cast<long long>(max_batch)),
                   util::Table::cell(p.throughput),
                   util::Table::cell(p.stats.mean_batch_size),
                   util::Table::cell(p.stats.latency.p50_s * 1e3),
                   util::Table::cell(p.stats.latency.p95_s * 1e3),
                   util::Table::cell(p.throughput / base)});
  }
  bench::emit(options, table, bench::Clock::kMeasured);

  // Moderate load: a quarter of the batched saturation capacity, capped so
  // the probe stays far from overload even on a slow machine.
  const SaturationPoint cap = run_saturation(model, 64, seconds, inputs);
  const double rate = std::min(cap.throughput * 0.25, 10000.0);
  const serve::ServerStats m = run_moderate(model, rate, seconds, inputs);
  const double bound_ms =
      1.0 +
      (m.batches > 0 ? m.total_compute_s / static_cast<double>(m.batches) : 0) *
          1e3;
  std::printf("\nmoderate load: %.0f req/s open-loop, max_delay=1ms\n",
              rate);
  util::Table probe({"rate_rps", "p50_ms", "p95_ms",
                     "delay_plus_compute_ms"});
  probe.add_row({util::Table::cell(rate),
                 util::Table::cell(m.latency.p50_s * 1e3),
                 util::Table::cell(m.latency.p95_s * 1e3),
                 util::Table::cell(bound_ms)});
  bench::emit(options, probe, bench::Clock::kMeasured);
  return 0;
}
