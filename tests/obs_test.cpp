// Tests for the host-side observability layer: util::JsonWriter, the scoped
// wall-clock profiler and its Chrome-trace export (simulated tracks
// included), the metrics registry, the JSONL telemetry sink, and
// the leveled logger's prefix/sink/env plumbing.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <future>
#include <iterator>
#include <limits>
#include <optional>
#include <sstream>
#include <thread>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "la/gemm.hpp"
#include "la/matrix.hpp"
#include "obs/exposition.hpp"
#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/telemetry.hpp"
#include "parallel/pipeline.hpp"
#include "parallel/thread_pool.hpp"
#include "phi/trace.hpp"
#include "util/error.hpp"
#include "util/json_writer.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace deepphi {
namespace {

// ---------------------------------------------------------------- JsonWriter

TEST(JsonWriter, EscapesQuotesBackslashesAndControlChars) {
  EXPECT_EQ(util::json_escape("plain"), "plain");
  EXPECT_EQ(util::json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(util::json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(util::json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(util::json_escape(std::string("a\x01z")), "a\\u0001z");
}

TEST(JsonWriter, BuildsNestedDocument) {
  std::ostringstream os;
  util::JsonWriter w(os);
  w.begin_object();
  w.member("name", "chunk \"0\" h2d");
  w.member("count", std::int64_t{42});
  w.member("ok", true);
  w.key("rows");
  w.begin_array();
  w.value(1);
  w.value(2.5);
  w.null();
  w.end_array();
  w.end_object();
  EXPECT_TRUE(w.done());
  const std::string text = os.str();
  EXPECT_TRUE(util::json_is_valid(text)) << text;
  EXPECT_NE(text.find("\"chunk \\\"0\\\" h2d\""), std::string::npos);
  EXPECT_NE(text.find("[1,2.5,null]"), std::string::npos);
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  std::ostringstream os;
  util::JsonWriter w(os);
  w.begin_array();
  w.value(std::numeric_limits<double>::quiet_NaN());
  w.value(std::numeric_limits<double>::infinity());
  w.value(1.0);
  w.end_array();
  EXPECT_TRUE(w.done());
  EXPECT_EQ(os.str(), "[null,null,1]");
  EXPECT_TRUE(util::json_is_valid(os.str()));
}

TEST(JsonWriter, MisuseThrows) {
  {
    std::ostringstream os;
    util::JsonWriter w(os);
    w.begin_object();
    EXPECT_THROW(w.value(1), util::Error);  // value without key in object
  }
  {
    std::ostringstream os;
    util::JsonWriter w(os);
    w.begin_array();
    EXPECT_THROW(w.end_object(), util::Error);  // mismatched close
  }
}

TEST(JsonValidator, AcceptsAndRejects) {
  EXPECT_TRUE(util::json_is_valid("{}"));
  EXPECT_TRUE(util::json_is_valid("[1, 2.5e-3, \"x\\n\", null, true]"));
  EXPECT_TRUE(util::json_is_valid("{\"a\":{\"b\":[{}]}}"));
  EXPECT_FALSE(util::json_is_valid(""));
  EXPECT_FALSE(util::json_is_valid("{"));
  EXPECT_FALSE(util::json_is_valid("[1,]"));
  EXPECT_FALSE(util::json_is_valid("{\"a\" 1}"));
  EXPECT_FALSE(util::json_is_valid("\"unterminated"));
  EXPECT_FALSE(util::json_is_valid("\"bad \x01 control\""));
  EXPECT_FALSE(util::json_is_valid("{} extra"));
}

TEST(JsonValidator, TraceChromeJsonWithHostileNamesIsValid) {
  phi::Trace trace;
  const std::string empty = obs::Profiler::to_chrome_json(&trace);
  EXPECT_TRUE(util::json_is_valid(empty)) << empty;
  trace.add(phi::TraceEvent{"gemm \"quoted\" \\ back\nslash",
                            phi::TraceEvent::Resource::kCompute, 0.0, 1.0});
  const std::string json = obs::Profiler::to_chrome_json(&trace);
  EXPECT_TRUE(util::json_is_valid(json)) << json;
}

// ------------------------------------------------------------------ Profiler

class ProfilerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Profiler::enable(false);
    obs::Profiler::clear();
  }
  void TearDown() override {
    obs::Profiler::enable(false);
    obs::Profiler::clear();
  }
};

TEST_F(ProfilerTest, DisabledRecordsNothing) {
  { DEEPPHI_PROFILE_SCOPE("off"); }
  EXPECT_TRUE(obs::Profiler::snapshot().empty());
}

TEST_F(ProfilerTest, RecordsSpansWithNesting) {
  obs::Profiler::enable(true);
  obs::set_thread_name("main");
  {
    DEEPPHI_PROFILE_SCOPE("outer");
    DEEPPHI_PROFILE_SCOPE("inner");
  }
  obs::Profiler::enable(false);
  const std::vector<obs::Span> spans = obs::Profiler::snapshot();
  ASSERT_EQ(spans.size(), 2u);
  const obs::Span* outer = nullptr;
  const obs::Span* inner = nullptr;
  for (const obs::Span& s : spans) {
    if (std::string(s.label) == "outer") outer = &s;
    if (std::string(s.label) == "inner") inner = &s;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->depth, 0u);
  EXPECT_EQ(inner->depth, 1u);
  EXPECT_LE(outer->start_s, inner->start_s);
  EXPECT_GE(outer->end_s, inner->end_s);
  EXPECT_GE(inner->duration_s(), 0.0);
}

TEST_F(ProfilerTest, AggregateComputesStats) {
  obs::Profiler::enable(true);
  for (int i = 0; i < 10; ++i) {
    DEEPPHI_PROFILE_SCOPE("loop");
  }
  obs::Profiler::enable(false);
  const std::vector<obs::SpanStats> agg = obs::Profiler::aggregate();
  ASSERT_EQ(agg.size(), 1u);
  EXPECT_EQ(agg[0].label, "loop");
  EXPECT_EQ(agg[0].count, 10);
  EXPECT_GE(agg[0].min_s, 0.0);
  EXPECT_LE(agg[0].min_s, agg[0].p50_s);
  EXPECT_LE(agg[0].p50_s, agg[0].p95_s);
  EXPECT_LE(agg[0].p95_s, agg[0].max_s);
  EXPECT_GE(agg[0].total_s, agg[0].max_s);
  EXPECT_FALSE(obs::Profiler::report().empty());
}

TEST_F(ProfilerTest, ChromeJsonIsValidAndMergesSimulatedTrace) {
  obs::Profiler::enable(true);
  obs::set_thread_name("main");
  { DEEPPHI_PROFILE_SCOPE("work"); }
  obs::Profiler::enable(false);

  phi::Trace simulated;
  simulated.add(
      phi::TraceEvent{"k", phi::TraceEvent::Resource::kCompute, 0.0, 1.0});
  simulated.add(
      phi::TraceEvent{"h2d", phi::TraceEvent::Resource::kDma, 0.0, 0.5});
  const std::string json = obs::Profiler::to_chrome_json(&simulated);
  EXPECT_TRUE(util::json_is_valid(json)) << json;
  EXPECT_NE(json.find("traceEvents"), std::string::npos);
  EXPECT_NE(json.find("host (measured)"), std::string::npos);
  EXPECT_NE(json.find("phi (simulated)"), std::string::npos);
  EXPECT_NE(json.find("\"work\""), std::string::npos);
  EXPECT_NE(json.find("\"main\""), std::string::npos);
}

// The simulated tracks of the export (pid 2).
TEST(TraceJson, ContainsEventsAndTracks) {
  phi::Trace trace;
  trace.add({"kernel-a", phi::TraceEvent::Resource::kCompute, 0.0, 0.5});
  trace.add({"dma-b", phi::TraceEvent::Resource::kDma, 0.1, 0.3});
  const std::string json = obs::Profiler::to_chrome_json(&trace);
  EXPECT_TRUE(util::json_is_valid(json)) << json;
  EXPECT_NE(json.find("\"kernel-a\""), std::string::npos);
  EXPECT_NE(json.find("\"dma-b\""), std::string::npos);
  EXPECT_NE(json.find("\"compute (simulated)\""), std::string::npos);
  EXPECT_NE(json.find("\"dma (simulated)\""), std::string::npos);
}

TEST(TraceJson, WritesFile) {
  phi::Trace trace;
  trace.add({"x", phi::TraceEvent::Resource::kCompute, 0.0, 1.0});
  const std::string path = testing::TempDir() + "/trace.json";
  obs::Profiler::write_chrome_json(path, &trace);
  std::ifstream in(path);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(contents.find("\"x\""), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(ProfilerTest, ClearDropsSpans) {
  obs::Profiler::enable(true);
  { DEEPPHI_PROFILE_SCOPE("gone"); }
  obs::Profiler::clear();
  { DEEPPHI_PROFILE_SCOPE("kept"); }
  obs::Profiler::enable(false);
  const std::vector<obs::Span> spans = obs::Profiler::snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].label, "kept");
}

// The disabled-profiler macro must be cheap enough to leave in hot loops:
// one relaxed atomic load per scope. We run a GEMM-heavy loop with the macro
// in the inner scope versus an identical loop without it and require the
// overhead to be small. The ceiling here (25%) is far looser than the design
// target (<2%) purely to keep the test robust on noisy CI machines; timing
// medians of repeats damps scheduler jitter. The GEMMs run on one OpenMP
// thread, so an oversubscribed team (ctest -j runs other suites alongside)
// cannot stall one side, and plain and instrumented repetitions alternate,
// so a slow stretch of the machine hits both medians alike.
TEST_F(ProfilerTest, DisabledOverheadIsSmallOnGemmHeavyLoop) {
  constexpr int kDim = 48;
  constexpr int kIters = 40;
  la::Matrix a(kDim, kDim), b(kDim, kDim), c(kDim, kDim);
  a.fill(1.0f);
  b.fill(0.5f);
#ifdef _OPENMP
  const int saved_threads = omp_get_max_threads();
  omp_set_num_threads(1);
#endif

  auto run_plain = [&] {
    for (int i = 0; i < kIters; ++i) la::gemm_nn(1.0f, a, b, 0.0f, c);
  };
  auto run_instrumented = [&] {
    for (int i = 0; i < kIters; ++i) {
      DEEPPHI_PROFILE_SCOPE("overhead_probe");
      la::gemm_nn(1.0f, a, b, 0.0f, c);
    }
  };
  auto seconds = [](auto&& fn) {
    util::Timer t;
    fn();
    return t.seconds();
  };
  auto median = [](std::vector<double> times) {
    std::sort(times.begin(), times.end());
    return times[times.size() / 2];
  };

  run_plain();  // warm caches
  std::vector<double> plain, instrumented;
  for (int rep = 0; rep < 7; ++rep) {
    plain.push_back(seconds(run_plain));
    instrumented.push_back(seconds(run_instrumented));
  }
#ifdef _OPENMP
  omp_set_num_threads(saved_threads);
#endif
  const double plain_s = median(plain);
  const double instrumented_s = median(instrumented);
  EXPECT_TRUE(obs::Profiler::snapshot().empty());  // profiler stayed off
  EXPECT_LT(instrumented_s, plain_s * 1.25)
      << "disabled-profiler overhead too high: " << plain_s << "s plain vs "
      << instrumented_s << "s instrumented";
}

// Concurrent recording from pool workers + the Fig. 5 loading thread while
// the main thread snapshots mid-flight. Run under DEEPPHI_SANITIZE (see
// scripts/check.sh) this is the data-race check for the span buffers.
TEST_F(ProfilerTest, ThreadSafeUnderParallelForAndPipeline) {
  obs::Profiler::enable(true);
  obs::set_thread_name("main");

  std::atomic<int> produced{0};
  par::ChunkPipeline<int> pipeline(2, [&]() -> std::optional<int> {
    const int i = produced.fetch_add(1);
    if (i >= 32) return std::nullopt;
    DEEPPHI_PROFILE_SCOPE("test.produce");
    return i;
  });

  par::ThreadPool pool(4);
  std::atomic<std::int64_t> sum{0};
  int consumed = 0;
  std::vector<std::future<void>> work;
  while (auto item = pipeline.pop()) {
    ++consumed;
    work.clear();
    for (std::int64_t i = 0; i < 64; ++i)
      work.push_back(pool.submit([&sum, i] {
        DEEPPHI_PROFILE_SCOPE("test.work");
        sum.fetch_add(i, std::memory_order_relaxed);
      }));
    // Snapshot while workers and the loading thread are still active.
    for (const obs::Span& s : obs::Profiler::snapshot()) {
      EXPECT_GE(s.end_s, s.start_s);
      EXPECT_NE(s.label, nullptr);
    }
    for (std::future<void>& f : work) f.get();
  }
  pool.wait_idle();
  obs::Profiler::enable(false);

  EXPECT_EQ(consumed, 32);
  EXPECT_EQ(sum.load(), 32 * (63 * 64 / 2));
  const std::vector<obs::Span> spans = obs::Profiler::snapshot();
  std::int64_t work_spans = 0;
  for (const obs::Span& s : spans) {
    if (std::string(s.label) == "test.work") ++work_spans;
  }
  EXPECT_GT(work_spans, 0);
  EXPECT_GE(obs::Profiler::thread_count(), 2u);  // main + loading at least
}

// ------------------------------------------------------------------- Metrics

TEST(Metrics, CounterAndGaugeRoundTrip) {
  obs::Counter& c = obs::counter("test.counter_roundtrip");
  c.reset();
  c.add();
  c.add(4);
  EXPECT_EQ(c.value(), 5);
  EXPECT_EQ(&c, &obs::counter("test.counter_roundtrip"));  // stable handle

  obs::Gauge& g = obs::gauge("test.gauge_roundtrip");
  g.reset();
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.set_max(1.0);  // lower: keeps the max
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.set_max(7.0);
  EXPECT_DOUBLE_EQ(g.value(), 7.0);
}

TEST(Metrics, KindConflictThrows) {
  obs::counter("test.kind_conflict");
  EXPECT_THROW(obs::gauge("test.kind_conflict"), util::Error);
}

TEST(Metrics, SnapshotIsSortedAndComplete) {
  obs::counter("test.snap_a").reset();
  obs::counter("test.snap_a").add(3);
  obs::gauge("test.snap_b").set(1.5);
  const std::vector<obs::MetricSample> snap = obs::metrics::snapshot();
  ASSERT_GE(snap.size(), 2u);
  for (std::size_t i = 1; i < snap.size(); ++i) {
    EXPECT_LT(snap[i - 1].name, snap[i].name);
  }
  bool saw_a = false, saw_b = false;
  for (const obs::MetricSample& s : snap) {
    if (s.name == "test.snap_a") {
      saw_a = true;
      EXPECT_EQ(s.kind, obs::MetricSample::Kind::kCounter);
      EXPECT_DOUBLE_EQ(s.value, 3.0);
    }
    if (s.name == "test.snap_b") {
      saw_b = true;
      EXPECT_EQ(s.kind, obs::MetricSample::Kind::kGauge);
      EXPECT_DOUBLE_EQ(s.value, 1.5);
    }
  }
  EXPECT_TRUE(saw_a);
  EXPECT_TRUE(saw_b);
}

TEST(Metrics, DisabledUpdatesAreNoOps) {
  obs::Counter& c = obs::counter("test.disabled_noop");
  c.reset();
  obs::metrics::set_enabled(false);
  c.add(10);
  obs::gauge("test.disabled_gauge").set(9.0);
  obs::metrics::set_enabled(true);
  EXPECT_EQ(c.value(), 0);
  EXPECT_DOUBLE_EQ(obs::gauge("test.disabled_gauge").value(), 0.0);
}

// ----------------------------------------------------------------- Telemetry

std::vector<std::string> jsonl_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

TEST(Telemetry, GoldenSchemaForEmittedRecords) {
  std::ostringstream os;
  obs::TelemetrySink sink(os);
  sink.emit_run_header("unit_test", {obs::TelemetryField::integer("dim", 64),
                                     obs::TelemetryField::str("model", "sae"),
                                     obs::TelemetryField::boolean("tied", true)});
  sink.emit("chunk", {obs::TelemetryField::integer("chunk", 0),
                      obs::TelemetryField::num("mean_cost", 1.25)});
  obs::counter("test.telemetry_metric").reset();
  obs::counter("test.telemetry_metric").add(2);
  sink.emit_metrics("run_summary", {obs::TelemetryField::integer("chunks", 1)});
  sink.flush();
  EXPECT_EQ(sink.records_written(), 3);

  const std::vector<std::string> lines = jsonl_lines(os.str());
  ASSERT_EQ(lines.size(), 3u);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_TRUE(util::json_is_valid(lines[i])) << lines[i];
    EXPECT_NE(lines[i].find("\"record\""), std::string::npos) << lines[i];
    // seq is contiguous from 0 in emission order.
    const std::string want_seq = "\"seq\":" + std::to_string(i);
    EXPECT_NE(lines[i].find(want_seq), std::string::npos) << lines[i];
  }
  // Header carries the schema tag and program name on the first line.
  EXPECT_NE(lines[0].find("\"record\":\"run_header\""), std::string::npos);
  EXPECT_NE(lines[0].find(obs::kTelemetrySchema), std::string::npos);
  EXPECT_NE(lines[0].find("\"program\":\"unit_test\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"tied\":true"), std::string::npos);
  // Chunk record keeps numeric types.
  EXPECT_NE(lines[1].find("\"chunk\":0"), std::string::npos);
  EXPECT_NE(lines[1].find("\"mean_cost\":1.25"), std::string::npos);
  // Metrics records nest the registry snapshot.
  EXPECT_NE(lines[2].find("\"metrics\":{"), std::string::npos);
  EXPECT_NE(lines[2].find("\"test.telemetry_metric\":2"), std::string::npos);
}

TEST(Telemetry, EscapesHostileStrings) {
  std::ostringstream os;
  obs::TelemetrySink sink(os);
  sink.emit("note", {obs::TelemetryField::str("path", "a\"b\\c\nd")});
  const std::vector<std::string> lines = jsonl_lines(os.str());
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_TRUE(util::json_is_valid(lines[0])) << lines[0];
}

// ------------------------------------------------------------------- Logging

class LogCapture {
 public:
  LogCapture() {
    util::set_log_sink([this](util::LogLevel level, const std::string& line) {
      levels_.push_back(level);
      lines_.push_back(line);
    });
  }
  ~LogCapture() { util::set_log_sink(nullptr); }
  const std::vector<std::string>& lines() const { return lines_; }
  const std::vector<util::LogLevel>& levels() const { return levels_; }

 private:
  std::vector<util::LogLevel> levels_;
  std::vector<std::string> lines_;
};

TEST(Logging, PrefixHasTimestampLevelAndThreadId) {
  LogCapture capture;
  const util::LogLevel prev = util::log_level();
  util::set_log_level(util::LogLevel::kInfo);
  DEEPPHI_INFO() << "hello observability";
  util::set_log_level(prev);

  ASSERT_EQ(capture.lines().size(), 1u);
  const std::string& line = capture.lines()[0];
  // ISO-8601 UTC: "YYYY-MM-DDTHH:MM:SS.mmmZ".
  ASSERT_GE(line.size(), 24u);
  EXPECT_EQ(line[4], '-');
  EXPECT_EQ(line[7], '-');
  EXPECT_EQ(line[10], 'T');
  EXPECT_EQ(line[13], ':');
  EXPECT_EQ(line[19], '.');
  EXPECT_EQ(line[23], 'Z');
  EXPECT_NE(line.find("[INFO"), std::string::npos);
  char tid[8];
  std::snprintf(tid, sizeof tid, "[t%02d]", util::log_thread_id());
  EXPECT_NE(line.find(tid), std::string::npos);
  EXPECT_NE(line.find("hello observability"), std::string::npos);
}

TEST(Logging, LevelFiltersMessages) {
  LogCapture capture;
  const util::LogLevel prev = util::log_level();
  util::set_log_level(util::LogLevel::kWarn);
  DEEPPHI_DEBUG() << "dropped";
  DEEPPHI_INFO() << "dropped too";
  DEEPPHI_WARN() << "kept";
  util::set_log_level(prev);
  ASSERT_EQ(capture.lines().size(), 1u);
  EXPECT_NE(capture.lines()[0].find("kept"), std::string::npos);
  EXPECT_EQ(capture.levels()[0], util::LogLevel::kWarn);
}

TEST(Logging, ParsesLevelNames) {
  util::LogLevel level = util::LogLevel::kOff;
  EXPECT_TRUE(util::parse_log_level("debug", level));
  EXPECT_EQ(level, util::LogLevel::kDebug);
  EXPECT_TRUE(util::parse_log_level("WARN", level));
  EXPECT_EQ(level, util::LogLevel::kWarn);
  EXPECT_TRUE(util::parse_log_level("off", level));
  EXPECT_EQ(level, util::LogLevel::kOff);
  EXPECT_FALSE(util::parse_log_level("verbose", level));
  EXPECT_EQ(level, util::LogLevel::kOff);  // untouched on failure
}

// ----------------------------------------------------------------- Histogram

TEST(Histogram, BucketGeometryRoundTrips) {
  // Every probe value lands in a bucket whose [lower, upper) bracket holds
  // it, and bucket indices are monotone in the value.
  std::vector<double> probes;
  for (double v = 1e-9; v < 1200.0; v *= 1.37) probes.push_back(v);
  int prev_index = -1;
  for (const double v : probes) {
    const int i = obs::Histogram::bucket_index(v);
    ASSERT_GE(i, 0);
    ASSERT_LT(i, obs::Histogram::kBucketCount);
    if (v >= 9.4e-10 && v < 1024.0) {
      EXPECT_LE(obs::Histogram::bucket_lower(i), v) << v;
      EXPECT_GT(obs::Histogram::bucket_upper(i), v) << v;
    }
    EXPECT_GE(i, prev_index) << v;
    prev_index = i;
    const double mid = obs::Histogram::bucket_mid(i);
    EXPECT_GE(mid, obs::Histogram::bucket_lower(i));
    EXPECT_LE(mid, obs::Histogram::bucket_upper(i));
  }
  // Out-of-range and non-finite values clamp into the edge buckets.
  EXPECT_EQ(obs::Histogram::bucket_index(0.0), 0);
  EXPECT_EQ(obs::Histogram::bucket_index(1e-15), 0);
  EXPECT_EQ(obs::Histogram::bucket_index(1e9),
            obs::Histogram::kBucketCount - 1);
}

TEST(Histogram, TracksExactCountSumMinMax) {
  obs::Histogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.snapshot().min, 0.0);
  h.record(0.004);
  h.record(0.001);
  h.record(0.009);
  const obs::HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 3);
  EXPECT_DOUBLE_EQ(s.sum, 0.014);
  EXPECT_DOUBLE_EQ(s.min, 0.001);
  EXPECT_DOUBLE_EQ(s.max, 0.009);
  EXPECT_NEAR(s.mean(), 0.014 / 3, 1e-12);
  EXPECT_EQ(s.bucket_total(), 3);
  h.reset();
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.snapshot().min, 0.0);
}

TEST(Histogram, NonFiniteAndNegativeRecordsAreClampedNotLost) {
  obs::Histogram h;
  h.record(std::numeric_limits<double>::quiet_NaN());
  h.record(std::numeric_limits<double>::infinity());
  h.record(-1.0);
  EXPECT_EQ(h.count(), 3);
  EXPECT_EQ(h.snapshot().bucket_total(), 3);
}

// Exact reference quantile with the same rank convention the histogram uses:
// the smallest value with at least ceil(q * n) samples at or below it.
double exact_quantile(std::vector<double> sorted, double q) {
  std::sort(sorted.begin(), sorted.end());
  const auto rank = static_cast<std::size_t>(std::max<std::int64_t>(
      1, static_cast<std::int64_t>(
             std::ceil(q * static_cast<double>(sorted.size())))));
  return sorted[rank - 1];
}

TEST(Histogram, QuantilesMatchExactSortWithinOneBucket) {
  // One log-bucket is 1/128 wide (~0.78% relative); midpoint reporting makes
  // the expected error half that. 1.6% leaves margin for rank rounding.
  constexpr double kTol = 0.016;
  util::Rng rng(7, 0x415);
  struct Case {
    const char* name;
    std::vector<double> values;
  };
  std::vector<Case> cases(3);
  cases[0].name = "uniform";
  for (int i = 0; i < 20000; ++i)
    cases[0].values.push_back(1e-4 + 4e-3 * rng.uniform());
  cases[1].name = "lognormal";
  for (int i = 0; i < 20000; ++i)
    cases[1].values.push_back(1e-3 * std::exp(0.8 * rng.normal()));
  cases[2].name = "adversarial";  // point masses + heavy far tail
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniform();
    cases[2].values.push_back(u < 0.49 ? 1e-4 : u < 0.98 ? 2.5e-3 : 1.9);
  }
  for (const Case& c : cases) {
    obs::Histogram h;
    for (const double v : c.values) h.record(v);
    const obs::HistogramSnapshot s = h.snapshot();
    for (const double q : {0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999}) {
      const double exact = exact_quantile(c.values, q);
      const double est = s.quantile(q);
      EXPECT_NEAR(est, exact, kTol * exact)
          << c.name << " q=" << q << " exact=" << exact << " est=" << est;
    }
    // Edge quantiles clamp to the exact observed extremes.
    EXPECT_DOUBLE_EQ(s.quantile(0.0), s.min);
    EXPECT_DOUBLE_EQ(s.quantile(1.0), s.max);
  }
}

TEST(Histogram, ConcurrentRecordsLoseNothing) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  obs::Histogram h;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      util::Rng rng(17, static_cast<std::uint64_t>(t));
      for (int i = 0; i < kPerThread; ++i)
        h.record(1e-4 * (1.0 + rng.uniform()));
    });
  }
  for (std::thread& t : threads) t.join();
  const obs::HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, static_cast<std::int64_t>(kThreads) * kPerThread);
  EXPECT_EQ(s.bucket_total(), s.count);  // no lost bucket increments
  EXPECT_GE(s.min, 1e-4);
  EXPECT_LE(s.max, 2e-4 + 1e-12);
  EXPECT_GE(s.sum, s.min * static_cast<double>(s.count));
  EXPECT_LE(s.sum, s.max * static_cast<double>(s.count));
}

TEST(HistogramSnapshot, MergeAccumulatesAndSinceSubtracts) {
  obs::Histogram a, b;
  a.record(0.001);
  a.record(0.002);
  b.record(0.1);
  obs::HistogramSnapshot merged = a.snapshot();
  merged.merge(b.snapshot());
  EXPECT_EQ(merged.count, 3);
  EXPECT_DOUBLE_EQ(merged.min, 0.001);
  EXPECT_DOUBLE_EQ(merged.max, 0.1);
  EXPECT_NEAR(merged.sum, 0.103, 1e-12);

  const obs::HistogramSnapshot earlier = a.snapshot();
  a.record(0.004);
  a.record(0.005);
  const obs::HistogramSnapshot delta = a.snapshot().since(earlier);
  EXPECT_EQ(delta.count, 2);
  EXPECT_NEAR(delta.sum, 0.009, 1e-12);
  EXPECT_EQ(delta.bucket_total(), 2);
  // Interval min/max are bucket-resolved.
  EXPECT_NEAR(delta.min, 0.004, 0.004 / 64);
  EXPECT_NEAR(delta.max, 0.005, 0.005 / 64);
}

TEST(Metrics, HistogramRegistersBesideCountersAndGauges) {
  obs::Histogram& h = obs::histogram("test.hist_registry");
  EXPECT_EQ(&h, &obs::histogram("test.hist_registry"));  // stable handle
  h.reset();
  h.record(0.25);
  h.record(0.5);
  EXPECT_THROW(obs::counter("test.hist_registry"), util::Error);
  EXPECT_THROW(obs::gauge("test.hist_registry"), util::Error);

  bool found = false;
  for (const obs::MetricSample& m : obs::metrics::snapshot()) {
    if (m.name != "test.hist_registry") continue;
    found = true;
    EXPECT_EQ(m.kind, obs::MetricSample::Kind::kHistogram);
    EXPECT_DOUBLE_EQ(m.value, 2.0);  // histograms report their count
  }
  EXPECT_TRUE(found);

  found = false;
  for (const obs::HistogramSample& s : obs::metrics::snapshot_histograms()) {
    if (s.name != "test.hist_registry") continue;
    found = true;
    EXPECT_EQ(s.snapshot.count, 2);
    EXPECT_DOUBLE_EQ(s.snapshot.min, 0.25);
  }
  EXPECT_TRUE(found);
}

// -------------------------------------------------------------- RollingWindow

TEST(RollingWindow, PrimesAfterFirstIntervalThenTracksDeltas) {
  obs::Histogram h;
  obs::RollingWindow window(h, /*interval_s=*/1.0, /*intervals=*/3);
  window.advance(100.0);
  h.record(0.001);
  h.record(0.002);
  EXPECT_EQ(window.window().count, 0);  // nothing covered yet
  EXPECT_EQ(window.covered_seconds(), 0.0);

  window.advance(101.0);  // first interval boundary
  EXPECT_EQ(window.window().count, 2);
  EXPECT_DOUBLE_EQ(window.covered_seconds(), 1.0);
  EXPECT_DOUBLE_EQ(window.rate_per_s(), 2.0);

  h.record(0.003);
  window.advance(102.0);
  EXPECT_EQ(window.window().count, 3);
  EXPECT_DOUBLE_EQ(window.covered_seconds(), 2.0);
  EXPECT_DOUBLE_EQ(window.rate_per_s(), 1.5);
}

TEST(RollingWindow, OldTrafficExpiresAsTheRingTurnsOver) {
  obs::Histogram h;
  obs::RollingWindow window(h, 1.0, 3);
  window.advance(0.0);
  h.record(0.5);  // burst in the first interval
  window.advance(1.0);
  EXPECT_EQ(window.window().count, 1);
  // Three quiet intervals push the burst out of the window.
  window.advance(2.0);
  window.advance(3.0);
  EXPECT_EQ(window.window().count, 1);  // still inside (3 intervals kept)
  window.advance(4.0);
  EXPECT_EQ(window.window().count, 0);  // expired
  EXPECT_DOUBLE_EQ(window.covered_seconds(), 3.0);
}

TEST(RollingWindow, LongGapExpiresEverythingWithoutUnboundedCatchUp) {
  obs::Histogram h;
  obs::RollingWindow window(h, 1.0, 4);
  window.advance(0.0);
  h.record(0.5);
  window.advance(1.0);
  EXPECT_EQ(window.window().count, 1);
  window.advance(1e9);  // a gap of ~31 years must not loop 1e9 times
  EXPECT_EQ(window.window().count, 0);
  h.record(0.25);
  window.advance(1e9 + 1.0);
  EXPECT_EQ(window.window().count, 1);
}

// --------------------------------------------------------------- Exposition

TEST(Exposition, PrometheusNameSanitizes) {
  EXPECT_EQ(obs::prometheus_name("serve.stage.queue_wait"),
            "deepphi_serve_stage_queue_wait");
  EXPECT_EQ(obs::prometheus_name("a-b c"), "deepphi_a_b_c");
}

TEST(Exposition, PrometheusTextCarriesAllThreeKinds) {
  obs::counter("test.expo_counter").reset();
  obs::counter("test.expo_counter").add(7);
  obs::gauge("test.expo_gauge").set(1.5);
  obs::Histogram& h = obs::histogram("test.expo_hist");
  h.reset();
  h.record(0.5);
  h.record(0.5);
  h.record(2.0);

  const std::string text = obs::prometheus_text();
  EXPECT_NE(text.find("# TYPE deepphi_test_expo_counter_total counter\n"
                      "deepphi_test_expo_counter_total 7\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE deepphi_test_expo_gauge gauge\n"
                      "deepphi_test_expo_gauge 1.5\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE deepphi_test_expo_hist histogram\n"),
            std::string::npos);
  // Cumulative buckets: the 0.5 bucket holds 2, +Inf holds all 3.
  std::ostringstream bucket;
  bucket << "deepphi_test_expo_hist_bucket{le=\"";
  EXPECT_NE(text.find(bucket.str()), std::string::npos);
  EXPECT_NE(text.find("deepphi_test_expo_hist_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("deepphi_test_expo_hist_sum 3\n"), std::string::npos);
  EXPECT_NE(text.find("deepphi_test_expo_hist_count 3\n"), std::string::npos);

  // Cumulative bucket counts are non-decreasing down the series.
  std::istringstream lines(text);
  std::string line;
  long long prev = -1;
  while (std::getline(lines, line)) {
    if (line.rfind("deepphi_test_expo_hist_bucket", 0) != 0) continue;
    const long long cum = std::stoll(line.substr(line.rfind(' ') + 1));
    EXPECT_GE(cum, prev) << line;
    prev = cum;
  }
  EXPECT_EQ(prev, 3);
}

TEST(Exposition, RegistryStatsSectionIsValidJson) {
  obs::Histogram& h = obs::histogram("test.expo_json_hist");
  h.reset();
  for (int i = 1; i <= 100; ++i) h.record(1e-3 * i);

  std::ostringstream os;
  util::JsonWriter w(os);
  w.begin_object();
  obs::write_registry_stats(w);
  w.end_object();
  ASSERT_TRUE(w.done());
  const std::string text = os.str();
  ASSERT_TRUE(util::json_is_valid(text)) << text;
  for (const char* key : {"counters", "gauges", "histograms",
                          "test.expo_json_hist", "p50", "p95", "p99"}) {
    EXPECT_NE(text.find(std::string("\"") + key + "\""), std::string::npos)
        << key;
  }
  // The summary numbers for the known ramp are sane.
  EXPECT_NE(text.find("\"count\":100"), std::string::npos);
}

}  // namespace
}  // namespace deepphi
