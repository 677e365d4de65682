// Multi-tenant SLO bench: static vs adaptive batching across two models with
// different latency budgets served from ONE registry-backed InferenceServer.
//
// The scenario the adaptive batcher exists for: a small model under a tight
// end-to-end budget shares the server with a big model under a loose one.
// The static batcher has a single flush deadline; tuning it for the big
// model's GEMM efficiency (Fig. 9: many-core throughput needs filled
// batches) burns the small model's entire budget in queue wait, and tuning
// it for the small model starves the big model's batches. The adaptive
// batcher decides per model per batch from live rolling-window p95/p99
// evidence, so each lane spends ITS budget and no one else's.
//
// Both scenarios run the same bursty Poisson open-loop arrivals (deterministic
// schedule: seeded exponential gaps, rate modulated 1.6x/0.4x in alternating
// 100ms phases) against the same two registered models:
//
//   tight — StackedAutoencoder 64-32, budget  6 ms, higher rate
//   loose — StackedAutoencoder 256-128-64, budget 25 ms, lower rate
//
// static   : one shared max_delay tuned for coalescing (8 ms)
// adaptive : per-model decisions from each lane's budget
//
// The committed snapshot (BENCH_serve_registry.json) must show slo_met = 0
// for the tight lane under static and slo_met = 1 for every lane under
// adaptive — the acceptance line prints the verdict.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/layer_stack.hpp"
#include "serve/inference_server.hpp"
#include "serve/model_registry.hpp"
#include "util/rng.hpp"

namespace {

using namespace deepphi;

/// One served tenant: a model, its SLO, and its open-loop arrival rate.
struct Tenant {
  std::string name;
  std::shared_ptr<const core::Encoder> model;
  double budget_s = 0;
  double rate_rps = 0;
  la::Matrix inputs;
};

/// Deterministic bursty Poisson arrivals: exponential inter-arrival gaps at
/// `rate`, modulated 1.6x / 0.4x in alternating 100 ms phases so the batcher
/// sees both rushes and lulls inside one rolling window.
std::vector<double> bursty_schedule(double rate, double seconds,
                                    std::uint64_t seed) {
  util::Rng rng(seed, /*stream=*/0x5E11);
  std::vector<double> arrivals;
  double now = 0;
  while (true) {
    const bool burst = std::fmod(now, 0.2) < 0.1;
    const double r = rate * (burst ? 1.6 : 0.4);
    now += -std::log(1.0 - rng.uniform()) / r;
    if (now >= seconds) return arrivals;
    arrivals.push_back(now);
  }
}

struct LaneResult {
  serve::ServerStats stats;
  serve::BatchDecision last;
};

/// Runs one scenario — both tenants against one server — and returns the
/// per-lane lifetime stats. `adaptive` toggles the policy; everything else
/// (models, budgets, arrival schedules) is identical across scenarios.
std::map<std::string, LaneResult> run_scenario(
    const std::vector<Tenant>& tenants, bool adaptive, double static_delay_s,
    double seconds, unsigned workers) {
  serve::ModelRegistry registry;
  for (const Tenant& t : tenants)
    registry.add_shared(t.name, t.model, t.budget_s);

  serve::InferenceServer server(registry, {.max_batch = 64,
                                           .max_delay_s = static_delay_s,
                                           .queue_capacity = 4096,
                                           .workers = workers,
                                           .adaptive = adaptive});

  // One open-loop submitter thread per tenant, each on its own seeded
  // schedule.
  std::vector<std::thread> submitters;
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    submitters.emplace_back([&, i] {
      const Tenant& t = tenants[i];
      bench::open_loop(server, t.name, t.inputs,
                       bursty_schedule(t.rate_rps, seconds, /*seed=*/17 + i));
    });
  }
  for (std::thread& t : submitters) t.join();

  std::map<std::string, LaneResult> results;
  for (const Tenant& t : tenants)
    results[t.name] = {server.stats(t.name), server.last_decision(t.name)};
  server.shutdown();
  return results;
}

}  // namespace

int bench_main(int argc, char** argv) {
  using namespace deepphi;
  util::Options options = util::Options::parse(argc, argv);
  bench::declare_common_flags(options);
  options.declare("seconds", "open-loop duration per scenario", "1.5");
  options.declare("static-delay-ms",
                  "the static scenario's shared flush deadline", "8");
  options.declare("tight-budget-ms", "small model's latency SLO", "6");
  options.declare("loose-budget-ms", "big model's latency SLO", "25");
  options.declare("tight-rate", "small model's arrival rate (req/s)", "1200");
  options.declare("loose-rate", "big model's arrival rate (req/s)", "500");
  options.declare("workers", "shared compute pool size", "2");
  options.validate();

  bench::banner(
      "Multi-tenant serving: static vs SLO-aware adaptive batching",
      "Two models with different latency budgets share one registry-backed "
      "server under identical bursty Poisson arrivals. The static batcher's "
      "single flush deadline (tuned for batch fill) blows the tight budget; "
      "the adaptive batcher re-decides delay and batch cap per model per "
      "batch from rolling-window p95/p99 and holds every lane inside its "
      "SLO.");

  const double seconds = options.get_double("seconds");
  const double static_delay_s = options.get_double("static-delay-ms") * 1e-3;
  const unsigned workers =
      static_cast<unsigned>(options.get_int("workers"));

  std::vector<Tenant> tenants;
  {
    Tenant tight;
    tight.name = "tight";
    tight.model = std::make_shared<core::StackedAutoencoder>(
        std::vector<la::Index>{64, 32}, core::SaeConfig{}, /*seed=*/5);
    tight.budget_s = options.get_double("tight-budget-ms") * 1e-3;
    tight.rate_rps = options.get_double("tight-rate");
    tight.inputs =
        bench::random_rows(512, tight.model->input_dim(), 5, /*stream=*/0x5E10);
    Tenant loose;
    loose.name = "loose";
    loose.model = std::make_shared<core::StackedAutoencoder>(
        std::vector<la::Index>{256, 128, 64}, core::SaeConfig{}, /*seed=*/6);
    loose.budget_s = options.get_double("loose-budget-ms") * 1e-3;
    loose.rate_rps = options.get_double("loose-rate");
    loose.inputs =
        bench::random_rows(512, loose.model->input_dim(), 6, /*stream=*/0x5E10);
    tenants.push_back(std::move(tight));
    tenants.push_back(std::move(loose));
  }

  for (const Tenant& t : tenants)
    std::printf("%s: %s  budget %.0fms  %.0f req/s bursty\n", t.name.c_str(),
                t.model->describe().c_str(), t.budget_s * 1e3, t.rate_rps);
  std::printf("open-loop %.2fs per scenario, %u shared workers, static "
              "deadline %.0fms\n\n",
              seconds, workers, static_delay_s * 1e3);

  util::Table table({"policy", "model", "budget_ms", "requests", "mean_batch",
                     "decided_delay_ms", "p50_ms", "p99_ms", "slo_met"});
  std::map<std::string, double> p99_ms;  // "<policy>.<model>" -> p99
  for (const bool adaptive : {false, true}) {
    const char* policy = adaptive ? "adaptive" : "static";
    const std::map<std::string, LaneResult> lanes =
        run_scenario(tenants, adaptive, static_delay_s, seconds, workers);
    for (const Tenant& t : tenants) {
      const LaneResult& lane = lanes.at(t.name);
      const double p99 = lane.stats.latency.p99_s * 1e3;
      p99_ms[std::string(policy) + "." + t.name] = p99;
      table.add_row({util::Table::cell(policy), util::Table::cell(t.name),
                     util::Table::cell(t.budget_s * 1e3),
                     util::Table::cell(lane.stats.completed),
                     util::Table::cell(lane.stats.mean_batch_size),
                     util::Table::cell(lane.last.max_delay_s * 1e3),
                     util::Table::cell(lane.stats.latency.p50_s * 1e3),
                     util::Table::cell(p99),
                     util::Table::cell(p99 <= t.budget_s * 1e3 ? 1 : 0)});
    }
  }
  bench::emit(options, table, bench::Clock::kMeasured);

  const double tight_budget_ms = tenants[0].budget_s * 1e3;
  const bool static_misses = p99_ms["static.tight"] > tight_budget_ms;
  const bool adaptive_holds = p99_ms["adaptive.tight"] <= tight_budget_ms;
  std::printf(
      "\nacceptance: tight lane (budget %.0fms) — static p99 %.3fms (%s), "
      "adaptive p99 %.3fms (%s)\n",
      tight_budget_ms, p99_ms["static.tight"],
      static_misses ? "MISSES" : "unexpectedly met", p99_ms["adaptive.tight"],
      adaptive_holds ? "holds" : "MISSED");
  return 0;
}

int main(int argc, char** argv) {
  return deepphi::bench::guarded_main(argc, argv, bench_main);
}
