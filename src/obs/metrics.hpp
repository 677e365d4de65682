// Process-wide metrics registry: named monotonic counters and gauges that
// absorb the ad-hoc per-subsystem counters (fused epilogues, pool tasks,
// chunks loaded) into one queryable surface.
//
// Hot-path contract:
//  * Registration (obs::counter("gemm.fused_epilogues")) takes a mutex once;
//    call sites cache the returned reference in a function-local static, so
//    the steady state is a single relaxed fetch_add.
//  * Handles are never invalidated: metric storage is a deque behind the
//    registry and lives for the process lifetime.
//  * set_enabled(false) turns every add()/set() into one relaxed load and an
//    early return — cheap enough to leave instrumentation compiled in.
//
// Counters are monotonic (add only); gauges are last-write-wins doubles
// (ring-buffer occupancy, current batch rate). snapshot() copies both out
// for telemetry records and tests.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/histogram.hpp"

namespace deepphi::obs {

namespace metrics {
/// Globally arms/disarms metric updates (reads still work). On by default.
void set_enabled(bool on);
bool enabled();
}  // namespace metrics

class Counter {
 public:
  void add(std::int64_t delta = 1) {
    if (!metrics::enabled()) return;
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  std::atomic<std::int64_t> value_{0};
};

class Gauge {
 public:
  void set(double v) {
    if (!metrics::enabled()) return;
    value_.store(v, std::memory_order_relaxed);
  }
  /// Keeps the running maximum (e.g. peak ring occupancy).
  void set_max(double v);
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  std::atomic<double> value_{0.0};
};

/// Returns the counter registered under `name`, creating it on first use.
/// The reference is valid for the process lifetime. Typical call-site idiom:
///   static obs::Counter& c = obs::counter("pool.tasks");
///   c.add();
Counter& counter(const std::string& name);

/// Likewise for gauges. A name registers as exactly one metric kind
/// (conflicting re-registration throws util::Error).
Gauge& gauge(const std::string& name);

/// Likewise for histograms (see obs/histogram.hpp). record() on the returned
/// reference is lock-free; storage lives for the process lifetime.
Histogram& histogram(const std::string& name);

struct MetricSample {
  std::string name;
  enum class Kind { kCounter, kGauge, kHistogram } kind;
  double value;  // counters widen to double; histograms report their count
};

/// Full-fidelity registry view of one histogram (quantiles, buckets).
struct HistogramSample {
  std::string name;
  HistogramSnapshot snapshot;
};

namespace metrics {
/// Copies out every registered metric, sorted by name. Histograms appear
/// with their count as the value; use snapshot_histograms() for quantiles.
std::vector<MetricSample> snapshot();

/// Copies out every registered histogram (buckets and all), sorted by name.
std::vector<HistogramSample> snapshot_histograms();
}  // namespace metrics

}  // namespace deepphi::obs
