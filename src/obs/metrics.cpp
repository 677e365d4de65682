#include "obs/metrics.hpp"

#include <algorithm>
#include <list>
#include <memory>
#include <mutex>

#include "util/error.hpp"

namespace deepphi::obs {

namespace {

std::atomic<bool> g_metrics_enabled{true};

struct Entry {
  Entry(std::string n, MetricSample::Kind k) : name(std::move(n)), kind(k) {
    if (kind == MetricSample::Kind::kHistogram)
      histogram = std::make_unique<Histogram>();
  }
  std::string name;
  MetricSample::Kind kind;
  Counter counter;
  Gauge gauge;
  // Heap-allocated: a histogram is ~40 KB of buckets, which counters and
  // gauges should not pay for.
  std::unique_ptr<Histogram> histogram;
};

struct RegistryState {
  std::mutex mutex;
  // list: stable addresses as it grows, and no move requirement on the
  // atomic-holding Entry.
  std::list<Entry> entries;
};

RegistryState& state() {
  static RegistryState* s = new RegistryState;  // leaked: outlives statics
  return *s;
}

Entry& find_or_create(const std::string& name, MetricSample::Kind kind) {
  RegistryState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  for (Entry& e : s.entries) {
    if (e.name == name) {
      DEEPPHI_CHECK_MSG(e.kind == kind,
                        "metric '" << name << "' already registered as a "
                                   << (e.kind == MetricSample::Kind::kCounter
                                           ? "counter"
                                       : e.kind == MetricSample::Kind::kGauge
                                           ? "gauge"
                                           : "histogram"));
      return e;
    }
  }
  s.entries.emplace_back(name, kind);
  return s.entries.back();
}

}  // namespace

namespace metrics {

void set_enabled(bool on) {
  g_metrics_enabled.store(on, std::memory_order_relaxed);
}

bool enabled() { return g_metrics_enabled.load(std::memory_order_relaxed); }

std::vector<MetricSample> snapshot() {
  RegistryState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  std::vector<MetricSample> out;
  out.reserve(s.entries.size());
  for (const Entry& e : s.entries) {
    double v = 0;
    switch (e.kind) {
      case MetricSample::Kind::kCounter:
        v = static_cast<double>(e.counter.value());
        break;
      case MetricSample::Kind::kGauge:
        v = e.gauge.value();
        break;
      case MetricSample::Kind::kHistogram:
        v = static_cast<double>(e.histogram->count());
        break;
    }
    out.push_back(MetricSample{e.name, e.kind, v});
  }
  std::sort(out.begin(), out.end(),
            [](const MetricSample& a, const MetricSample& b) {
              return a.name < b.name;
            });
  return out;
}

std::vector<HistogramSample> snapshot_histograms() {
  RegistryState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  std::vector<HistogramSample> out;
  for (const Entry& e : s.entries) {
    if (e.kind != MetricSample::Kind::kHistogram) continue;
    out.push_back(HistogramSample{e.name, e.histogram->snapshot()});
  }
  std::sort(out.begin(), out.end(),
            [](const HistogramSample& a, const HistogramSample& b) {
              return a.name < b.name;
            });
  return out;
}

}  // namespace metrics

void Gauge::set_max(double v) {
  if (!metrics::enabled()) return;
  double cur = value_.load(std::memory_order_relaxed);
  while (v > cur &&
         !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

Counter& counter(const std::string& name) {
  return find_or_create(name, MetricSample::Kind::kCounter).counter;
}

Gauge& gauge(const std::string& name) {
  return find_or_create(name, MetricSample::Kind::kGauge).gauge;
}

Histogram& histogram(const std::string& name) {
  return *find_or_create(name, MetricSample::Kind::kHistogram).histogram;
}

}  // namespace deepphi::obs
