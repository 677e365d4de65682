// Lock-free log-bucketed latency histograms (HDR-style) — the live-quantile
// substrate the serving tier reports through.
//
// Why not a raw-sample buffer (the serving tier's first recorder): sorting
// 2^20 samples under the mutex record() needs stalls every worker behind
// any summary poll. A histogram inverts the costs: record() is a handful of
// relaxed atomic
// operations on fixed storage (no mutex, no allocation — safe in the
// per-request hot path), and quantiles become an O(buckets) scan over a
// snapshot, so a 1 Hz stats poller observes tails without perturbing them.
//
// Bucketing: log2 octaves split into 128 linear sub-buckets. A value's bucket
// is read straight out of its IEEE-754 bits (exponent + top 7 mantissa bits),
// so indexing is branch-light and exact. Bucket width is at most 1/128 of the
// value (~0.78% relative); reporting the bucket midpoint keeps any quantile
// within ~0.4% of the exact sorted-sample answer, and always within one
// bucket (~1%). The range [2^-30 s, 2^10 s] ≈ [0.93 ns, 17 min] covers
// everything a serving stage can plausibly take; out-of-range values clamp
// into the first/last bucket and are still counted.
//
// Snapshots are plain data: mergeable (sum across replicas or stages) and
// subtractable (cumulative "now" minus cumulative "then" = the interval's
// delta), which is what RollingWindow builds its live p50/p95/p99 views from.
//
// Histograms register in the metrics registry beside counters and gauges:
//   static obs::Histogram& h = obs::histogram("serve.stage.compute");
//   h.record(seconds);
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <limits>
#include <vector>

namespace deepphi::obs {

/// Point-in-time copy of a Histogram: plain data, cheap to merge, subtract,
/// and query. `count`/`sum`/`min`/`max` are tracked exactly; quantiles are
/// bucket-resolved (≤ ~1% relative error, see header comment).
struct HistogramSnapshot {
  std::int64_t count = 0;
  double sum = 0;
  double min = 0;  // exact smallest recorded value (0 when count == 0)
  double max = 0;  // exact largest recorded value
  std::vector<std::int64_t> buckets;  // dense, Histogram::kBucketCount wide

  double mean() const { return count > 0 ? sum / static_cast<double>(count) : 0; }

  /// Bucket-midpoint quantile, q in [0, 1]; 0 when empty. Clamped to the
  /// observed [min, max] so edge quantiles of narrow distributions are exact.
  double quantile(double q) const;

  /// Elementwise accumulate `other` into this snapshot.
  void merge(const HistogramSnapshot& other);

  /// Delta of two cumulative snapshots of the SAME histogram: what was
  /// recorded after `earlier` was taken. min/max are bucket-resolved (the
  /// exact extremes of just the interval are not recoverable).
  HistogramSnapshot since(const HistogramSnapshot& earlier) const;

  /// Sum over buckets (== count unless the snapshot raced an in-flight
  /// record(); equal again once writers quiesce).
  std::int64_t bucket_total() const;
};

class Histogram {
 public:
  static constexpr int kSubBits = 7;                   // 128 sub-buckets/octave
  static constexpr int kSubBuckets = 1 << kSubBits;
  static constexpr int kMinExp = -30;                  // 2^-30 s ≈ 0.93 ns
  static constexpr int kMaxExp = 10;                   // 2^10 s ≈ 17 min
  static constexpr int kBucketCount = (kMaxExp - kMinExp) * kSubBuckets;

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  /// Lock-free: one relaxed fetch_add on the bucket, one on count, one on
  /// sum, plus two (rarely-retrying) relaxed CAS loops for min/max. No mutex,
  /// no allocation — safe from any number of threads in the request path.
  void record(double v);

  std::int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }

  /// Copies the whole histogram out (relaxed loads). Safe to call while
  /// other threads keep recording; in-flight records may or may not appear.
  HistogramSnapshot snapshot() const;

  /// Zeroes everything (like Counter::reset: not atomic with respect to
  /// concurrent record() calls — callers quiesce writers first).
  void reset();

  /// Bucket geometry, exposed for exposition formats and tests.
  static int bucket_index(double v);
  static double bucket_lower(int index);
  static double bucket_upper(int index);
  static double bucket_mid(int index);

 private:
  std::atomic<std::int64_t> count_{0};
  std::atomic<double> sum_{0};
  // +inf sentinel until the first record; snapshot() reports 0 when empty.
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{0};
  std::array<std::atomic<std::int64_t>, kBucketCount> buckets_{};
};

/// Ring of cumulative snapshots of one histogram, one per elapsed interval —
/// the live view: window() covers roughly the last `intervals × interval_s`
/// seconds, and old traffic expires as the ring turns over. advance() is
/// driven by the reader (the stats endpoint polls, tests pass synthetic
/// clocks); the class itself is NOT thread-safe — serialize advance()/window()
/// externally (serve::StatsServer holds them behind its mutex).
class RollingWindow {
 public:
  RollingWindow(const Histogram& source, double interval_s,
                std::size_t intervals);

  /// Rotates in zero or more interval boundaries up to `now_s` (monotonic
  /// seconds, e.g. Profiler::now_s()). A gap longer than the whole window
  /// expires everything.
  void advance(double now_s);

  /// Delta over the currently covered window (newest minus oldest cumulative
  /// snapshot). Empty (count 0) until the first interval completes.
  HistogramSnapshot window() const;

  /// Seconds the current window() actually covers: 0 until the first
  /// interval completes, then up to intervals × interval_s.
  double covered_seconds() const;

  /// window().count / covered_seconds (0 while nothing is covered).
  double rate_per_s() const;

  double interval_seconds() const { return interval_s_; }
  std::size_t intervals() const { return intervals_; }

 private:
  const Histogram& source_;
  const double interval_s_;
  const std::size_t intervals_;
  bool primed_ = false;
  double next_tick_s_ = 0;
  std::deque<HistogramSnapshot> ring_;  // cumulative; front = oldest
};

}  // namespace deepphi::obs
