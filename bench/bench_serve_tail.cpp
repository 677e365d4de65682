// Tail-latency observability cost: the lock-free histogram recorder vs the
// retired sort-under-mutex LatencyRecorder.
//
// Before this bench's subject existed, LatencyRecorder buffered raw samples
// and summary() sorted a copy under the same mutex record() took — so a
// stats poller stalled every serving worker for the duration of an
// O(n log n) sort. The histogram inverts the costs: record() is a handful
// of relaxed atomics, summary() an O(buckets) scan. Three measurements:
//
//   * record — uncontended single-thread record() ns/op, both recorders;
//   * contended — aggregate record throughput of several writer threads
//     while a poller keeps requesting summaries (the live-endpoint regime);
//     the histogram is required to win by >= 5x here;
//   * serving probe — open-loop p99 through the real InferenceServer with
//     and without a concurrent stats poller scraping /stats.json-equivalent
//     renders, showing the endpoint does not perturb the tail it reports.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/layer_stack.hpp"
#include "obs/histogram.hpp"
#include "serve/inference_server.hpp"
#include "serve/model_registry.hpp"
#include "serve/stats_server.hpp"
#include "util/rng.hpp"

namespace {

using namespace deepphi;

/// The retired implementation, replicated as the baseline: raw samples in a
/// bounded buffer, quantiles by sorting a copy — all under one mutex.
class MutexLatencyRecorder {
 public:
  explicit MutexLatencyRecorder(std::size_t max_samples = 1u << 20)
      : max_samples_(max_samples) {
    samples_.reserve(max_samples_);
  }

  void record(double seconds) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (samples_.size() < max_samples_) {
      samples_.push_back(seconds);
    } else {
      samples_[next_++ % max_samples_] = seconds;  // overwrite oldest
    }
    ++count_;
  }

  serve::LatencySummary summary() const {
    std::lock_guard<std::mutex> lock(mutex_);
    serve::LatencySummary s;
    s.count = count_;
    if (samples_.empty()) return s;
    std::vector<double> sorted(samples_);  // copy + sort under the mutex
    std::sort(sorted.begin(), sorted.end());
    double sum = 0;
    for (const double v : sorted) sum += v;
    const auto q = [&sorted](double p) {
      const auto rank = static_cast<std::size_t>(std::max<std::int64_t>(
          1, static_cast<std::int64_t>(
                 std::ceil(p * static_cast<double>(sorted.size())))));
      return sorted[rank - 1];
    };
    s.mean_s = sum / static_cast<double>(sorted.size());
    s.p50_s = q(0.50);
    s.p95_s = q(0.95);
    s.p99_s = q(0.99);
    s.max_s = sorted.back();
    return s;
  }

 private:
  mutable std::mutex mutex_;
  std::size_t max_samples_;
  std::size_t next_ = 0;
  std::int64_t count_ = 0;
  std::vector<double> samples_;
};

/// The poller's read: a full summary of everything recorded so far.
serve::LatencySummary summary_of(const obs::Histogram& histogram) {
  return serve::summarize(histogram.snapshot());
}
serve::LatencySummary summary_of(const MutexLatencyRecorder& recorder) {
  return recorder.summary();
}

std::vector<double> sample_values(int n) {
  util::Rng rng(11, /*stream=*/0x7A11);
  std::vector<double> v(static_cast<std::size_t>(n));
  for (double& x : v) x = 1e-4 * (1.0 + rng.uniform());
  return v;
}

/// Uncontended ns per record().
template <typename Recorder>
double record_ns(Recorder& recorder, const std::vector<double>& values,
                 int reps) {
  const double best = bench::best_of(reps, [&] {
    for (const double v : values) recorder.record(v);
  });
  return best / static_cast<double>(values.size()) * 1e9;
}

/// Aggregate record throughput (records/s) of `writers` threads pushing
/// `values` each, while one poller thread requests a summary every
/// `poll_interval_ms` (0 = no poller).
template <typename Recorder>
double contended_throughput(Recorder& recorder, int writers,
                            const std::vector<double>& values,
                            double poll_interval_ms) {
  // Warm the buffer so every poll pays the full-summary cost from the start.
  for (const double v : values) recorder.record(v);

  std::atomic<bool> stop{false};
  std::thread poller;
  if (poll_interval_ms > 0) {
    poller = std::thread([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        (void)summary_of(recorder);
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(poll_interval_ms));
      }
    });
  }

  util::Timer timer;
  std::vector<std::thread> threads;
  for (int w = 0; w < writers; ++w) {
    threads.emplace_back([&recorder, &values] {
      for (const double v : values) recorder.record(v);
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall = timer.seconds();
  stop.store(true, std::memory_order_relaxed);
  if (poller.joinable()) poller.join();
  return static_cast<double>(writers) * static_cast<double>(values.size()) /
         wall;
}

/// Open-loop serving probe; when `poll_hz` > 0 a side thread renders the
/// stats endpoint bodies at that frequency while requests flow.
serve::ServerStats serve_probe(serve::ModelRegistry& registry, double rate,
                               double seconds, const la::Matrix& inputs,
                               double poll_hz) {
  serve::InferenceServer server(
      registry, {.max_batch = 64, .max_delay_s = 1e-3, .queue_capacity = 4096});

  std::atomic<bool> stop{false};
  std::thread poller;
  if (poll_hz > 0) {
    poller = std::thread([&stop, poll_hz] {
      serve::StatsServerConfig stats_cfg;
      stats_cfg.port = 0;
      serve::StatsServer stats(stats_cfg);
      while (!stop.load(std::memory_order_relaxed)) {
        (void)stats.render_stats_json();
        (void)stats.render_metrics();
        std::this_thread::sleep_for(
            std::chrono::duration<double>(1.0 / poll_hz));
      }
    });
  }

  std::vector<double> arrivals;
  for (std::size_t i = 0; static_cast<double>(i) < rate * seconds; ++i)
    arrivals.push_back(static_cast<double>(i) / rate);
  bench::open_loop(server, "default", inputs, arrivals);
  server.shutdown();
  stop.store(true, std::memory_order_relaxed);
  if (poller.joinable()) poller.join();
  return server.stats();
}

}  // namespace

int bench_main(int argc, char** argv) {
  using namespace deepphi;
  util::Options options = util::Options::parse(argc, argv);
  bench::declare_common_flags(options);
  options.declare("records", "records per thread in the recorder benches",
                  "200000");
  options.declare("writers", "writer threads in the contended bench", "4");
  options.declare("poll-ms",
                  "summary poll interval in the contended bench (ms)", "10");
  options.declare("reps", "best-of repetitions for the ns/op rows", "5");
  options.declare("seconds", "open-loop serving probe duration", "0.4");
  options.declare("poll-hz", "stats poll frequency in the serving probe",
                  "20");
  options.validate();

  bench::banner(
      "Serving tail-latency observability cost",
      "Lock-free histogram recorder vs the retired sort-under-mutex "
      "LatencyRecorder: record() ns/op, contended throughput under a stats "
      "poller, and open-loop p99 with a live stats endpoint scraping.");

  const int records = static_cast<int>(options.get_int("records"));
  const int writers = static_cast<int>(options.get_int("writers"));
  const double poll_ms = options.get_double("poll-ms");
  const int reps = static_cast<int>(options.get_int("reps"));
  const std::vector<double> values = sample_values(records);

  // --- record(): uncontended cost per sample -------------------------------
  obs::Histogram hist_recorder;
  MutexLatencyRecorder mutex_recorder;
  const double hist_ns = record_ns(hist_recorder, values, reps);
  const double mutex_ns = record_ns(mutex_recorder, values, reps);
  util::Table record_table(
      {"recorder", "record_ns", "speedup_vs_mutex"});
  record_table.add_row({util::Table::cell("mutex_sort"),
                        util::Table::cell(mutex_ns),
                        util::Table::cell(1.0)});
  record_table.add_row({util::Table::cell("histogram"),
                        util::Table::cell(hist_ns),
                        util::Table::cell(mutex_ns / hist_ns)});
  bench::emit(options, record_table, bench::Clock::kMeasured);

  // --- contended: writers vs a polling reader ------------------------------
  std::printf("\ncontended: %d writers x %d records, summary poll every "
              "%.0fms\n", writers, records, poll_ms);
  obs::Histogram hist_contended;
  MutexLatencyRecorder mutex_contended;
  const double mutex_rps =
      contended_throughput(mutex_contended, writers, values, poll_ms);
  const double hist_rps =
      contended_throughput(hist_contended, writers, values, poll_ms);
  const double speedup = hist_rps / mutex_rps;
  util::Table contended_table(
      {"recorder", "records_per_s", "speedup_vs_mutex"});
  contended_table.add_row({util::Table::cell("mutex_sort"),
                           util::Table::cell(mutex_rps),
                           util::Table::cell(1.0)});
  contended_table.add_row({util::Table::cell("histogram"),
                           util::Table::cell(hist_rps),
                           util::Table::cell(speedup)});
  bench::emit(options, contended_table, bench::Clock::kMeasured);
  std::printf("histogram records %.1fx faster under polling "
              "(acceptance floor: 5x)\n", speedup);

  // --- serving probe: does a live stats poller move the p99? ---------------
  const double seconds = options.get_double("seconds");
  const double poll_hz = options.get_double("poll-hz");
  const auto model = std::make_shared<const core::StackedAutoencoder>(
      std::vector<la::Index>{256, 128, 64}, core::SaeConfig{}, /*seed=*/7);
  serve::ModelRegistry registry;
  registry.add_shared("default", model);
  const la::Matrix inputs =
      bench::random_rows(1024, model->input_dim(), 7, /*stream=*/0x7A12);
  // Rate the probe at a quarter of saturation wouldn't be stable across
  // machines for a short probe; a fixed moderate rate keeps it comparable.
  const double rate = 2000.0;
  std::printf("\nserving probe: %s, %.0f req/s open-loop for %.2fs\n",
              model->describe().c_str(), rate, seconds);
  const serve::ServerStats quiet =
      serve_probe(registry, rate, seconds, inputs, 0.0);
  const serve::ServerStats polled =
      serve_probe(registry, rate, seconds, inputs, poll_hz);
  util::Table probe_table({"stats_poller", "p50_ms", "p95_ms", "p99_ms"});
  probe_table.add_row({util::Table::cell("off"),
                       util::Table::cell(quiet.latency.p50_s * 1e3),
                       util::Table::cell(quiet.latency.p95_s * 1e3),
                       util::Table::cell(quiet.latency.p99_s * 1e3)});
  probe_table.add_row({util::Table::cell(poll_hz),
                       util::Table::cell(polled.latency.p50_s * 1e3),
                       util::Table::cell(polled.latency.p95_s * 1e3),
                       util::Table::cell(polled.latency.p99_s * 1e3)});
  bench::emit(options, probe_table, bench::Clock::kMeasured);
  return 0;
}

int main(int argc, char** argv) {
  return deepphi::bench::guarded_main(argc, argv, bench_main);
}
