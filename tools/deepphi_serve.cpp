// deepphi_serve — batched inference serving of one or many checkpoints.
//
// Each --model flag registers one checkpoint (DPAE / DPRB / DPSA / DPDB /
// DPQE, magic-sniffed through model_io::load_any) in a serve::ModelRegistry,
// stands up one multi-model serve::InferenceServer over the registry, and
// drives it with an open-loop request stream fanned across the models:
// either a synthetic arrival process at a given rate (Poisson by default)
// or a replayed trace of arrival offsets. Prints per-model and aggregate
// latency/throughput summaries and can write "deepphi.serve.v1" JSONL
// telemetry (per-batch coalesce size, queue wait, compute time, and the
// end-to-end latency quantiles).
//
//   # one model, 2000 req/s Poisson for 4000 requests
//   deepphi_serve --model=stack.dpsa --rate=2000 --requests=4000
//
//   # two tenants with latency budgets (ms) and SLO-aware adaptive batching
//   deepphi_serve --model small=sae.dpae:5 --model big=dbn.dpdb:20
//
//   # pin the classic static size-or-deadline flush for comparison
//   deepphi_serve --model small=sae.dpae:5 --batching=static
//
//   # hot-swap control plane: stats endpoint + admin routes
//   deepphi_serve --model small=sae.dpae --stats-port=0 --stats-linger-s=5
//   curl "127.0.0.1:$PORT/admin/swap?model=small&path=/abs/new.dpae"
//
//   # int8 quantized serving (on-the-fly, or from a deepphi_quantize .dpqe)
//   deepphi_serve --model=sae.dpae --precision=int8 --rate=5000
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/model_io.hpp"
#include "data/binary_io.hpp"
#include "data/idx_io.hpp"
#include "la/simd/dispatch.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/telemetry.hpp"
#include "serve/inference_server.hpp"
#include "serve/model_registry.hpp"
#include "serve/stats_server.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"

namespace {

using namespace deepphi;

/// One --model flag: `name=path[:budget_ms]`, or the deprecated bare-path
/// form which serves under the name "default".
struct ModelSpec {
  std::string name;
  std::string path;
  double budget_s = 0;
};

std::vector<ModelSpec> parse_model_specs(const util::Options& options) {
  const double default_budget_s = options.get_double("budget-ms") / 1e3;
  std::vector<ModelSpec> specs;
  for (const std::string& value : options.get_repeated("model")) {
    ModelSpec spec;
    spec.budget_s = default_budget_s;
    const std::size_t eq = value.find('=');
    if (eq == std::string::npos) {
      DEEPPHI_CHECK_MSG(specs.empty(),
                        "the bare-path --model form serves a single model; "
                        "use --model NAME=PATH[:BUDGET_MS] to serve several");
      std::fprintf(stderr,
                   "deepphi_serve: --model=PATH without a name is deprecated; "
                   "use --model default=%s (serving it as 'default')\n",
                   value.c_str());
      spec.name = "default";
      spec.path = value;
      specs.push_back(std::move(spec));
      return specs;
    }
    spec.name = value.substr(0, eq);
    spec.path = value.substr(eq + 1);
    // An optional :BUDGET_MS suffix — only split when the tail is numeric,
    // so paths with colons stay intact.
    const std::size_t colon = spec.path.rfind(':');
    if (colon != std::string::npos && colon + 1 < spec.path.size()) {
      const std::string tail = spec.path.substr(colon + 1);
      char* end = nullptr;
      const double budget_ms = std::strtod(tail.c_str(), &end);
      if (end != nullptr && *end == '\0') {
        DEEPPHI_CHECK_MSG(budget_ms >= 0, "--model " << value
                                                     << ": budget must be "
                                                        ">= 0 ms");
        spec.budget_s = budget_ms / 1e3;
        spec.path = spec.path.substr(0, colon);
      }
    }
    DEEPPHI_CHECK_MSG(!spec.name.empty() && !spec.path.empty(),
                      "--model " << value
                                 << ": expected NAME=PATH[:BUDGET_MS]");
    specs.push_back(std::move(spec));
  }
  return specs;
}

/// Arrival offsets (seconds from stream start), one request each.
std::vector<double> build_schedule(const util::Options& options) {
  std::vector<double> arrivals;
  if (options.has("trace")) {
    const std::string path = options.get_string("trace");
    std::ifstream in(path);
    DEEPPHI_CHECK_MSG(in.good(), "cannot open trace '" << path << "'");
    std::string line;
    double prev = 0;
    int lineno = 0;
    while (std::getline(in, line)) {
      ++lineno;
      const std::string t = util::trim(line);
      if (t.empty() || t[0] == '#') continue;
      const double at = util::parse_double(t);
      DEEPPHI_CHECK_MSG(at >= prev, "trace '" << path << "' line " << lineno
                                              << ": offsets must be "
                                                 "non-decreasing");
      arrivals.push_back(at);
      prev = at;
    }
    DEEPPHI_CHECK_MSG(!arrivals.empty(),
                      "trace '" << path << "' contains no arrivals");
    return arrivals;
  }

  const auto requests = static_cast<std::size_t>(options.get_int("requests"));
  const double rate = options.get_double("rate");
  DEEPPHI_CHECK_MSG(rate > 0, "--rate must be > 0, got " << rate);
  const std::string kind = options.get_string("arrivals");
  util::Rng rng(static_cast<std::uint64_t>(options.get_int("seed")),
                /*stream=*/0xA221);
  arrivals.reserve(requests);
  double t = 0;
  for (std::size_t i = 0; i < requests; ++i) {
    if (kind == "poisson") {
      // Exponential inter-arrivals: -ln(U)/rate.
      double u = rng.uniform();
      while (u <= 0) u = rng.uniform();
      t += -std::log(u) / rate;
    } else if (kind == "uniform") {
      t += 1.0 / rate;
    } else {
      throw util::Error("unknown --arrivals '" + kind + "' (poisson|uniform)");
    }
    arrivals.push_back(t);
  }
  return arrivals;
}

/// Request payload rows: a real dataset when given, else uniform noise of
/// the model's input dimension (throughput does not depend on the values).
la::Matrix build_inputs(const util::Options& options, la::Index dim,
                        std::size_t count) {
  if (options.has("data") || options.has("idx")) {
    data::Dataset dataset =
        options.has("data")
            ? data::load_dataset(options.get_string("data"))
            : data::load_idx_images(options.get_string("idx"));
    DEEPPHI_CHECK_MSG(dataset.dim() == dim,
                      "dataset dim " << dataset.dim()
                                     << " != model input dim " << dim);
    la::Matrix rows(static_cast<la::Index>(count), dim);
    la::Matrix one(1, dim);
    for (std::size_t i = 0; i < count; ++i) {
      dataset.copy_batch(static_cast<la::Index>(i) % dataset.size(), 1, one);
      std::copy(one.row(0), one.row(0) + dim,
                rows.row(static_cast<la::Index>(i)));
    }
    return rows;
  }
  util::Rng rng(static_cast<std::uint64_t>(options.get_int("seed")),
                /*stream=*/0x1D47);
  la::Matrix rows(static_cast<la::Index>(count), dim);
  for (la::Index i = 0; i < rows.size(); ++i)
    rows.data()[i] = rng.uniform_float();
  return rows;
}

int run(int argc, char** argv) {
  util::Options options = util::Options::parse(argc, argv);
  options.declare("model",
                  "NAME=PATH[:BUDGET_MS] — registers one checkpoint "
                  "(.dpae/.dprb/.dpsa/.dpdb/.dpqe) to serve; repeat the flag "
                  "for multi-model serving. A bare PATH (deprecated) serves "
                  "one model as 'default'");
  options.declare("budget-ms",
                  "default per-model end-to-end latency budget (SLO) when a "
                  "--model flag names none; 0 = no budget (static batching)",
                  "0");
  options.declare("batching",
                  "auto | adaptive | static. auto/adaptive re-decide flush "
                  "deadline + batch cap per batch from live p95/p99 against "
                  "the model's budget; static pins --max-batch/--max-delay-ms",
                  "auto");
  options.declare("rate", "synthetic open-loop arrival rate, requests/s",
                  "2000");
  options.declare("requests", "synthetic requests to send", "4000");
  options.declare("arrivals", "synthetic arrival process: poisson | uniform",
                  "poisson");
  options.declare("trace",
                  "replay arrival offsets (seconds, one per line) from this "
                  "file instead of generating them");
  options.declare("data", "request payloads from this DPDS dataset");
  options.declare("idx", "request payloads from this IDX3 image file");
  options.declare("max-batch", "largest coalesced batch", "64");
  options.declare("max-delay-ms",
                  "deadline flush: max queue wait before a partial batch "
                  "dispatches", "2");
  options.declare("workers", "compute worker threads shared by all models",
                  "1");
  options.declare("queue-cap",
                  "per-model request queue capacity (backpressure bound)",
                  "1024");
  options.declare("shed-fraction",
                  "admission control: shed submits once queue depth reaches "
                  "this fraction of capacity; 1 disables the early shed", "1");
  options.declare("seed", "random seed (arrivals and synthetic payloads)",
                  "42");
  options.declare("precision",
                  "serving precision: auto | fp32 | int8. auto serves each "
                  "checkpoint as stored; int8 quantizes float checkpoints "
                  "on the fly (see docs/serving.md)", "auto");
  options.declare("stats-port",
                  "serve live stats over HTTP on 127.0.0.1:<port> "
                  "(/metrics Prometheus text, /stats.json deepphi.stats.v1, "
                  "/admin/models, /admin/swap hot-swap endpoint); "
                  "0 picks a free port");
  options.declare("stats-port-file",
                  "write the bound stats port to this file "
                  "(for --stats-port=0 in scripts)");
  options.declare("stats-linger-s",
                  "keep the stats endpoint up this many seconds after the "
                  "request stream drains, so pollers can scrape the final "
                  "state", "0");
  options.declare("telemetry",
                  "write deepphi.serve.v1 JSONL (per-batch + summary) to "
                  "this path");
  options.declare("profile",
                  "write a Chrome-trace JSON of the serving timeline to this "
                  "path");
  options.declare("help", "print usage");
  if (options.has("help")) {
    std::printf("%s", options.help("deepphi_serve").c_str());
    return 0;
  }
  options.validate();
  DEEPPHI_CHECK_MSG(options.has("model"),
                    "--model NAME=PATH[:BUDGET_MS] is required");

  if (options.has("profile")) {
    obs::set_thread_name("main");
    obs::Profiler::enable(true);
  }

  const std::string batching = options.get_string("batching");
  DEEPPHI_CHECK_MSG(
      batching == "auto" || batching == "adaptive" || batching == "static",
      "unknown --batching '" << batching << "' (auto|adaptive|static)");
  const std::string precision = options.get_string("precision");
  DEEPPHI_CHECK_MSG(
      precision == "auto" || precision == "fp32" || precision == "int8",
      "unknown --precision '" << precision << "' (auto|fp32|int8)");

  const std::vector<ModelSpec> specs = parse_model_specs(options);
  serve::ModelRegistry registry;
  for (const ModelSpec& spec : specs) {
    model_io::LoadedModel loaded = model_io::load_any(spec.path);
    const bool loaded_int8 = loaded.precision == "int8";
    if (precision == "int8" && !loaded_int8) {
      loaded.model = core::QuantizedEncoder::from(*loaded.model);
      loaded.precision = "int8";
    } else if (precision == "fp32") {
      DEEPPHI_CHECK_MSG(!loaded_int8,
                        "--precision=fp32 cannot serve int8 checkpoint '"
                            << spec.path
                            << "'; re-serve the original float model");
    }
    const std::string describe = loaded.model->describe();
    registry.add(spec.name, std::move(loaded), spec.budget_s);
    const serve::ModelInfo info = registry.info(spec.name);
    std::printf("serving %s: %s [%s]%s", spec.name.c_str(), describe.c_str(),
                info.precision.c_str(),
                spec.budget_s > 0 ? "" : "\n");
    if (spec.budget_s > 0)
      std::printf(" budget=%.1fms\n", spec.budget_s * 1e3);
  }

  const std::vector<double> schedule = build_schedule(options);
  // Round-robin fan-out: request i goes to model i % M, payloads drawn per
  // model so mixed input dimensions coexist in one stream.
  const std::size_t n_models = specs.size();
  std::vector<la::Matrix> inputs;
  inputs.reserve(n_models);
  for (std::size_t m = 0; m < n_models; ++m) {
    const std::size_t count =
        (schedule.size() + n_models - 1 - m) / n_models;
    inputs.push_back(build_inputs(options,
                                  registry.info(specs[m].name).input_dim,
                                  std::max<std::size_t>(count, 1)));
  }

  std::unique_ptr<obs::TelemetrySink> telemetry;
  serve::ServeConfig cfg;
  cfg.max_batch = options.get_int("max-batch");
  cfg.max_delay_s = options.get_double("max-delay-ms") / 1000.0;
  cfg.workers = static_cast<unsigned>(options.get_int("workers"));
  cfg.queue_capacity = static_cast<std::size_t>(options.get_int("queue-cap"));
  cfg.shed_fraction = options.get_double("shed-fraction");
  cfg.adaptive = batching != "static";
  if (options.has("telemetry")) {
    std::string model_names;
    for (const ModelSpec& spec : specs)
      model_names += (model_names.empty() ? "" : ",") + spec.name;
    telemetry =
        std::make_unique<obs::TelemetrySink>(options.get_string("telemetry"));
    using obs::TelemetryField;
    telemetry->emit_run_header(
        "deepphi_serve",
        {TelemetryField::str("models", model_names),
         TelemetryField::str("precision", precision),
         TelemetryField::str("batching", batching),
         TelemetryField::str("simd_tier",
                             la::simd::tier_name(la::simd::active_tier())),
         TelemetryField::integer("requests",
                                 static_cast<std::int64_t>(schedule.size())),
         TelemetryField::num("rate", options.get_double("rate")),
         TelemetryField::str("arrivals",
                             options.has("trace") ? "trace"
                                                  : options.get_string(
                                                        "arrivals"))});
    cfg.telemetry = telemetry.get();
  }
  serve::InferenceServer server(registry, cfg);

  std::unique_ptr<serve::StatsServer> stats_http;
  if (options.has("stats-port")) {
    serve::StatsServerConfig stats_cfg;
    stats_cfg.port = options.get_int("stats-port");
    stats_cfg.server = &server;  // enables /admin/models and /admin/swap
    stats_http = std::make_unique<serve::StatsServer>(stats_cfg);
    std::printf("stats: http://127.0.0.1:%d "
                "(/metrics, /stats.json, /admin/models, /admin/swap)\n",
                stats_http->port());
    if (options.has("stats-port-file")) {
      std::ofstream port_file(options.get_string("stats-port-file"));
      port_file << stats_http->port() << "\n";
      DEEPPHI_CHECK_MSG(port_file.good(),
                        "cannot write --stats-port-file '"
                            << options.get_string("stats-port-file") << "'");
    }
  }

  std::printf(
      "config: max_batch=%lld max_delay=%.3fms queue_cap=%zu workers=%u "
      "batching=%s, %zu requests over %.2fs (offered %.0f req/s, %zu "
      "model%s)\n",
      static_cast<long long>(cfg.max_batch), cfg.max_delay_s * 1e3,
      cfg.queue_capacity, std::max(1u, cfg.workers), batching.c_str(),
      schedule.size(), schedule.back(),
      static_cast<double>(schedule.size()) / std::max(1e-9, schedule.back()),
      n_models, n_models == 1 ? "" : "s");

  // Open loop: arrivals fire on the wall clock whether or not earlier
  // requests finished — exactly the regime where batching either absorbs the
  // load or backpressure sheds it.
  std::vector<std::future<serve::Reply>> futures;
  futures.reserve(schedule.size());
  std::vector<std::size_t> cursor(n_models, 0);
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(schedule[i])));
    const std::size_t m = i % n_models;
    const la::Matrix& rows = inputs[m];
    const auto r = static_cast<la::Index>(
        cursor[m]++ % static_cast<std::size_t>(rows.rows()));
    futures.push_back(server.submit(
        specs[m].name,
        std::vector<float>(rows.row(r), rows.row(r) + rows.cols())));
  }
  std::int64_t ok = 0, errors = 0;
  for (auto& f : futures) {
    try {
      f.get();
      ++ok;
    } catch (const std::exception&) {
      ++errors;
    }
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  server.shutdown();

  const serve::ServerStats stats = server.stats();
  std::printf("\n--- serving summary ---\n");
  std::printf("requests: %lld ok, %lld rejected/failed (%.1f%% shed)\n",
              static_cast<long long>(ok), static_cast<long long>(errors),
              100.0 * static_cast<double>(errors) /
                  static_cast<double>(std::max<std::int64_t>(ok + errors, 1)));
  std::printf("throughput: %.0f req/s completed (offered %.0f req/s)\n",
              static_cast<double>(stats.completed) / std::max(1e-9, wall),
              static_cast<double>(schedule.size()) /
                  std::max(1e-9, schedule.back()));
  std::printf("batches: %lld dispatched, mean coalesce %.1f rows (max %lld)\n",
              static_cast<long long>(stats.batches), stats.mean_batch_size,
              static_cast<long long>(cfg.max_batch));
  std::printf("queue: peak depth %zu of %zu\n", stats.peak_queue_depth,
              cfg.queue_capacity);
  std::printf("latency: mean %.2fms  p50 %.2fms  p95 %.2fms  p99 %.2fms  "
              "max %.2fms\n",
              stats.latency.mean_s * 1e3, stats.latency.p50_s * 1e3,
              stats.latency.p95_s * 1e3, stats.latency.p99_s * 1e3,
              stats.latency.max_s * 1e3);
  std::printf("compute: %.3fs total encode time (%.1f%% of %.2fs wall)\n",
              stats.total_compute_s, 100.0 * stats.total_compute_s / wall,
              wall);

  std::printf("\n--- per-model ---\n");
  std::printf("%-16s %4s %5s %9s %9s %7s %7s %9s %8s %8s %9s\n", "model",
              "ver", "prec", "ok", "rejected", "shed", "batches", "mean_coal",
              "p50_ms", "p99_ms", "budget_ms");
  for (const serve::ModelInfo& info : server.registry().list()) {
    const serve::ServerStats s = server.stats(info.name);
    const bool slo_known = info.budget_s > 0 && s.completed > 0;
    std::printf("%-16s %4llu %5s %9lld %9lld %7lld %7lld %9.1f %8.2f %8.2f "
                "%9.1f%s\n",
                info.name.c_str(),
                static_cast<unsigned long long>(info.version),
                info.precision.c_str(), static_cast<long long>(s.completed),
                static_cast<long long>(s.rejected),
                static_cast<long long>(s.shed),
                static_cast<long long>(s.batches), s.mean_batch_size,
                s.latency.p50_s * 1e3, s.latency.p99_s * 1e3,
                info.budget_s * 1e3,
                !slo_known ? ""
                : s.latency.p99_s <= info.budget_s ? "  [slo met]"
                                                   : "  [slo MISSED]");
  }

  // Per-stage latency breakdown from the registry histograms (queue wait /
  // collect / compute / scatter plus the end-to-end serve.latency).
  std::printf("\n--- stage latency (ms) ---\n");
  std::printf("%-18s %9s %8s %8s %8s %8s %8s\n", "stage", "count", "mean",
              "p50", "p95", "p99", "max");
  for (const obs::HistogramSample& h : obs::metrics::snapshot_histograms()) {
    if (h.name.rfind("serve.", 0) != 0 || h.snapshot.count == 0) continue;
    if (h.name.rfind("serve.model.", 0) == 0) continue;  // per-model table ^
    const serve::LatencySummary s = serve::summarize(h.snapshot);
    std::printf("%-18s %9lld %8.3f %8.3f %8.3f %8.3f %8.3f\n",
                h.name.c_str() + 6, static_cast<long long>(s.count),
                s.mean_s * 1e3, s.p50_s * 1e3, s.p95_s * 1e3, s.p99_s * 1e3,
                s.max_s * 1e3);
  }
  std::printf("\n--- metrics ---\n");
  for (const obs::MetricSample& m : obs::metrics::snapshot()) {
    if (m.kind == obs::MetricSample::Kind::kHistogram) continue;
    if (m.value == 0) continue;
    std::printf("  %-28s %.6g\n", m.name.c_str(), m.value);
  }

  if (options.has("profile")) {
    const std::string path = options.get_string("profile");
    obs::Profiler::write_chrome_json(path);
    std::printf("profile written to %s\n", path.c_str());
  }
  if (telemetry) {
    telemetry->flush();
    std::printf("telemetry: %lld records written to %s\n",
                static_cast<long long>(telemetry->records_written()),
                options.get_string("telemetry").c_str());
  }
  if (stats_http) {
    const double linger = options.get_double("stats-linger-s");
    if (linger > 0) {
      std::printf("stats: endpoint stays up %.1fs for final scrapes...\n",
                  linger);
      std::fflush(stdout);
      std::this_thread::sleep_for(std::chrono::duration<double>(linger));
    }
    std::printf("stats: answered %lld HTTP requests on port %d\n",
                static_cast<long long>(stats_http->requests_served()),
                stats_http->port());
    stats_http->stop();
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "deepphi_serve: %s\n", e.what());
    std::fprintf(stderr, "run with --help for usage\n");
    return 1;
  }
}
