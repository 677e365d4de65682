// deepphi_top — live terminal dashboard for a deepphi_serve stats endpoint.
//
// Polls /stats.json (the deepphi.stats.v1 record served by
// `deepphi_serve --stats-port=...`) and redraws a compact top-style view:
// the rolling-window rate and tail quantiles, a per-model row for every
// `serve.model.<name>.*` series (multi-model serving), the per-stage latency
// table, and the non-zero counters/gauges.
//
//   deepphi_serve --model=m.dpsa --rate=2000 --stats-port=9100 &
//   deepphi_top --port=9100                      # 1 Hz dashboard until ^C
//   deepphi_top --port=9100 --count=1 --raw      # one poll, raw JSON dump
//   deepphi_top --port-file=stats.port --count=3 # port from --stats-port-file
//
//   # one-shot GET of any endpoint path (admin control plane without curl)
//   deepphi_top --port=9100 --get=/admin/models
//   deepphi_top --port=9100 --get='/admin/swap?model=small&path=/abs/new.dpae'
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <thread>

#include "util/error.hpp"
#include "util/http_listener.hpp"
#include "util/json_reader.hpp"
#include "util/options.hpp"
#include "util/string_util.hpp"

namespace {

using namespace deepphi;

int read_port_file(const std::string& path, int retries) {
  for (int attempt = 0;; ++attempt) {
    std::ifstream in(path);
    std::string line;
    if (in.good() && std::getline(in, line) && !util::trim(line).empty())
      return static_cast<int>(util::parse_int(util::trim(line)));
    DEEPPHI_CHECK_MSG(attempt < retries,
                      "port file '" << path << "' not readable after "
                                    << retries << " attempts");
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
}

std::string fetch_with_retries(const std::string& host, int port,
                               const std::string& path, int retries) {
  for (int attempt = 0;; ++attempt) {
    try {
      return util::http_get(host, port, path);
    } catch (const std::exception&) {
      if (attempt >= retries) throw;
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
  }
}

void print_histogram_row(const std::string& name, const util::JsonValue& h) {
  std::printf("  %-24s %9.0f %8.3f %8.3f %8.3f %8.3f %8.3f\n", name.c_str(),
              h.at("count").as_number(), h.at("mean").as_number() * 1e3,
              h.at("p50").as_number() * 1e3, h.at("p95").as_number() * 1e3,
              h.at("p99").as_number() * 1e3, h.at("max").as_number() * 1e3);
}

/// Model names minted into `serve.model.<name>.*` series by the server.
std::set<std::string> model_names(const util::JsonValue& stats) {
  static constexpr const char kPrefix[] = "serve.model.";
  static constexpr std::size_t kPrefixLen = sizeof(kPrefix) - 1;
  std::set<std::string> names;
  for (const char* section : {"counters", "gauges", "histograms"}) {
    if (!stats.has(section)) continue;
    for (const auto& [name, v] : stats.at(section).as_object()) {
      if (name.rfind(kPrefix, 0) != 0) continue;
      const std::size_t dot = name.find('.', kPrefixLen);
      if (dot != std::string::npos)
        names.insert(name.substr(kPrefixLen, dot - kPrefixLen));
    }
  }
  return names;
}

void render_model_rows(const util::JsonValue& stats) {
  const std::set<std::string> names = model_names(stats);
  if (names.empty()) return;
  const util::JsonValue& counters = stats.at("counters");
  const util::JsonValue& gauges = stats.at("gauges");
  const util::JsonValue& histograms = stats.at("histograms");
  const auto counter = [&](const std::string& key) {
    return counters.has(key) ? counters.at(key).as_number() : 0.0;
  };
  const auto gauge = [&](const std::string& key) {
    return gauges.has(key) ? gauges.at(key).as_number() : 0.0;
  };
  std::printf("\n  %-16s %4s %9s %7s %7s %6s %7s %9s %8s %8s %9s\n", "model",
              "ver", "requests", "shed", "batches", "queue", "batch*",
              "delay*ms", "p50_ms", "p99_ms", "budget_ms");
  for (const std::string& name : names) {
    const std::string p = "serve.model." + name + ".";
    double p50 = 0, p99 = 0;
    if (histograms.has(p + "latency")) {
      const util::JsonValue& h = histograms.at(p + "latency");
      p50 = h.at("p50").as_number() * 1e3;
      p99 = h.at("p99").as_number() * 1e3;
    }
    std::printf(
        "  %-16s %4.0f %9.0f %7.0f %7.0f %6.0f %7.0f %9.3f %8.3f %8.3f "
        "%9.1f\n",
        name.c_str(), gauge(p + "version"), counter(p + "requests"),
        counter(p + "shed"), counter(p + "batches"),
        gauge(p + "queue_depth"), gauge(p + "decided_batch"),
        gauge(p + "decided_delay_ms"), p50, p99, gauge(p + "budget_ms"));
  }
  std::printf("  (* = live adaptive-batcher decision; see docs/serving.md)\n");
}

void render(const util::JsonValue& stats, const std::string& host, int port,
            std::int64_t poll) {
  std::printf("deepphi_top — %s:%d   uptime %.1fs   poll #%lld\n",
              host.c_str(), port, stats.at("uptime_s").as_number(),
              static_cast<long long>(poll));

  const util::JsonValue& w = stats.at("window");
  std::printf(
      "window (last %.0fs of %.0f): %0.f req  %.1f req/s  "
      "p50 %.3fms  p95 %.3fms  p99 %.3fms\n",
      w.at("covered_s").as_number(),
      w.at("interval_s").as_number() * w.at("intervals").as_number(),
      w.at("count").as_number(), w.at("rate_rps").as_number(),
      w.at("p50_s").as_number() * 1e3, w.at("p95_s").as_number() * 1e3,
      w.at("p99_s").as_number() * 1e3);

  render_model_rows(stats);

  // Per-model series render as table rows above; keep the raw dumps to the
  // process-wide names.
  const auto is_model_series = [](const std::string& name) {
    return name.rfind("serve.model.", 0) == 0;
  };
  std::printf("\n  %-24s %9s %8s %8s %8s %8s %8s\n", "histogram (ms)", "count",
              "mean", "p50", "p95", "p99", "max");
  for (const auto& [name, h] : stats.at("histograms").as_object())
    if (!is_model_series(name)) print_histogram_row(name, h);

  std::printf("\n  counters:");
  for (const auto& [name, v] : stats.at("counters").as_object())
    if (v.as_number() != 0 && !is_model_series(name))
      std::printf("  %s=%.0f", name.c_str(), v.as_number());
  std::printf("\n  gauges:");
  for (const auto& [name, v] : stats.at("gauges").as_object())
    if (v.as_number() != 0 && !is_model_series(name))
      std::printf("  %s=%.4g", name.c_str(), v.as_number());
  std::printf("\n");
}

int run(int argc, char** argv) {
  util::Options options = util::Options::parse(argc, argv);
  options.declare("host", "stats endpoint host (dotted IPv4)", "127.0.0.1");
  options.declare("port", "stats endpoint port (deepphi_serve --stats-port)");
  options.declare("port-file",
                  "read the port from this file (written by deepphi_serve "
                  "--stats-port-file); retried until it appears");
  options.declare("interval-ms", "poll period", "1000");
  options.declare("count", "stop after this many polls (0 = until ^C)", "0");
  options.declare("raw", "dump the raw /stats.json body instead of the "
                  "dashboard");
  options.declare("no-clear", "append frames instead of clearing the screen");
  options.declare("connect-retries",
                  "initial connection attempts, 200ms apart (covers server "
                  "start-up)", "25");
  options.declare("get",
                  "one-shot GET of this endpoint path (e.g. /admin/models or "
                  "/admin/swap?model=NAME&path=CKPT); prints the body and "
                  "exits");
  options.declare("out", "also write the last /stats.json body to this file");
  options.declare("metrics-out",
                  "after the last poll, fetch /metrics once and write the "
                  "Prometheus text to this file");
  options.declare("help", "print usage");
  if (options.has("help")) {
    std::printf("%s", options.help("deepphi_top").c_str());
    return 0;
  }
  options.validate();
  DEEPPHI_CHECK_MSG(options.has("port") || options.has("port-file"),
                    "--port=<n> or --port-file=<path> is required");

  const std::string host = options.get_string("host");
  const int retries = options.get_int("connect-retries");
  const int port = options.has("port")
                       ? options.get_int("port")
                       : read_port_file(options.get_string("port-file"),
                                        retries);
  if (options.has("get")) {
    std::fputs(
        fetch_with_retries(host, port, options.get_string("get"), retries)
            .c_str(),
        stdout);
    return 0;
  }

  const std::int64_t count = options.get_int("count");
  const auto interval =
      std::chrono::milliseconds(options.get_int("interval-ms"));
  const bool raw = options.has("raw");
  const bool clear = !options.has("no-clear") && !raw;

  std::string body;
  for (std::int64_t poll = 1; count == 0 || poll <= count; ++poll) {
    // Retries only cover the first poll (server still starting); after that
    // a dead endpoint should fail fast.
    body = fetch_with_retries(host, port, "/stats.json",
                              poll == 1 ? retries : 0);
    if (raw) {
      std::fputs(body.c_str(), stdout);
    } else {
      const util::JsonValue stats = util::parse_json(body);
      if (clear) std::printf("\033[H\033[2J");
      render(stats, host, port, poll);
    }
    std::fflush(stdout);
    if (count == 0 || poll < count) std::this_thread::sleep_for(interval);
  }
  if (options.has("out")) {
    std::ofstream out(options.get_string("out"));
    out << body;
    DEEPPHI_CHECK_MSG(out.good(), "cannot write --out '"
                                      << options.get_string("out") << "'");
  }
  if (options.has("metrics-out")) {
    std::ofstream out(options.get_string("metrics-out"));
    out << util::http_get(host, port, "/metrics");
    DEEPPHI_CHECK_MSG(out.good(), "cannot write --metrics-out '"
                                      << options.get_string("metrics-out")
                                      << "'");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "deepphi_top: %s\n", e.what());
    std::fprintf(stderr, "run with --help for usage\n");
    return 1;
  }
}
