// The multi-model serving tier: ModelRegistry semantics and RCU hot swap,
// the SLO-aware AdaptiveBatcher's pinned decisions from synthetic windows,
// depth-based admission control (load shedding), per-model lane isolation,
// and the admin control plane (/admin/models, /admin/swap) end to end.
//
// The load-bearing properties:
//  * Hot swap under load loses NOTHING: every request submitted across a
//    publish() completes, and each reply is bitwise identical to a direct
//    single-row encode() on the exact version that served it.
//  * decide() is a pure function of its windows, so every branch of the
//    adaptive policy is pinned to closed-form expectations here.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/layer_stack.hpp"
#include "core/model_io.hpp"
#include "core/packed_encoder.hpp"
#include "core/quantized_encoder.hpp"
#include "obs/histogram.hpp"
#include "serve/adaptive_batcher.hpp"
#include "serve/inference_server.hpp"
#include "serve/model_registry.hpp"
#include "serve/stats_server.hpp"
#include "util/error.hpp"
#include "util/http_listener.hpp"
#include "util/json_reader.hpp"
#include "util/rng.hpp"
#include "scratch_dir.hpp"

namespace {

using namespace deepphi;

la::Matrix random_rows(la::Index rows, la::Index dim, std::uint64_t seed) {
  util::Rng rng(seed, /*stream=*/0x4E61);
  la::Matrix m(rows, dim);
  for (la::Index i = 0; i < m.size(); ++i) m.data()[i] = rng.uniform_float();
  return m;
}

std::vector<float> encode_single(const core::Encoder& model,
                                 const std::vector<float>& row) {
  la::Matrix one(1, static_cast<la::Index>(row.size()));
  std::memcpy(one.row(0), row.data(), sizeof(float) * row.size());
  la::Matrix out;
  model.encode(one, out);
  return std::vector<float>(out.row(0), out.row(0) + out.cols());
}

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), sizeof(float) * a.size()) == 0;
}

std::shared_ptr<const core::Encoder> make_stack(
    std::initializer_list<la::Index> dims, std::uint64_t seed) {
  return std::make_shared<core::StackedAutoencoder>(
      std::vector<la::Index>(dims), core::SaeConfig{}, seed);
}

/// Encoder whose encode() blocks until release(), for pinning the pipeline
/// full while a test fills queues.
class GateEncoder : public core::Encoder {
 public:
  explicit GateEncoder(la::Index dim) : dim_(dim) {}
  la::Index input_dim() const override { return dim_; }
  la::Index output_dim() const override { return dim_; }
  std::string describe() const override { return "Gate Encoder"; }
  void encode(const la::Matrix& x, la::Matrix& out) const override {
    entered_.fetch_add(1);
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [&] { return open_; });
    }
    out = la::Matrix(x.rows(), x.cols());
    std::memcpy(out.data(), x.data(),
                sizeof(float) * static_cast<std::size_t>(x.size()));
  }
  void release() {
    std::lock_guard<std::mutex> lock(mutex_);
    open_ = true;
    cv_.notify_all();
  }
  void wait_entered(int n) const {
    while (entered_.load() < n)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

 private:
  la::Index dim_;
  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;
  mutable bool open_ = false;
  mutable std::atomic<int> entered_{0};
};

// ------------------------------------------------------------- ModelRegistry

TEST(ModelRegistry, AddPublishVersionsAndMetadata) {
  serve::ModelRegistry registry;
  EXPECT_TRUE(registry.names().empty());

  EXPECT_EQ(registry.add_shared("small", make_stack({16, 8}, 1),
                                /*budget_s=*/0.005),
            1u);
  EXPECT_EQ(registry.add_shared("big", make_stack({32, 24, 12}, 2)), 1u);
  EXPECT_EQ(registry.names(), (std::vector<std::string>{"big", "small"}));

  const serve::ModelInfo small = registry.info("small");
  EXPECT_EQ(small.name, "small");
  EXPECT_EQ(small.version, 1u);
  EXPECT_EQ(small.magic, "mem");
  EXPECT_EQ(small.precision, "fp32");
  EXPECT_EQ(small.input_dim, 16);
  EXPECT_EQ(small.output_dim, 8);
  EXPECT_DOUBLE_EQ(small.budget_s, 0.005);

  // names()/list() sorted by name.
  EXPECT_EQ(registry.names(), (std::vector<std::string>{"big", "small"}));
  EXPECT_EQ(registry.list()[0].name, "big");

  // publish bumps the version and may change the OUTPUT dim; the budget and
  // name survive the swap.
  EXPECT_EQ(registry.publish_shared("small", make_stack({16, 6}, 3)), 2u);
  const serve::ModelInfo swapped = registry.info("small");
  EXPECT_EQ(swapped.version, 2u);
  EXPECT_EQ(swapped.output_dim, 6);
  EXPECT_DOUBLE_EQ(swapped.budget_s, 0.005);
  EXPECT_EQ(registry.current("small").version, 2u);
  EXPECT_EQ(registry.current("small").model->output_dim(), 6);
}

TEST(ModelRegistry, RejectsBadNamesDuplicatesAndDimMismatch) {
  serve::ModelRegistry registry;
  registry.add_shared("ok-name_1", make_stack({8, 4}, 1));
  // Duplicate add.
  EXPECT_THROW(registry.add_shared("ok-name_1", make_stack({8, 4}, 2)),
               util::Error);
  // Names mint metric series: empty / dotted / spaced names are invalid.
  EXPECT_THROW(registry.add_shared("", make_stack({8, 4}, 2)), util::Error);
  EXPECT_THROW(registry.add_shared("a.b", make_stack({8, 4}, 2)), util::Error);
  EXPECT_THROW(registry.add_shared("a b", make_stack({8, 4}, 2)), util::Error);
  // Unknown names.
  EXPECT_THROW(registry.current("ghost"), util::Error);
  EXPECT_THROW(registry.info("ghost"), util::Error);
  EXPECT_THROW(registry.publish_shared("ghost", make_stack({8, 4}, 2)),
               util::Error);
  // publish must keep the input dim (queued requests were validated on it).
  EXPECT_THROW(registry.publish_shared("ok-name_1", make_stack({9, 4}, 2)),
               util::Error);
  // The failed publish left version 1 serving.
  EXPECT_EQ(registry.info("ok-name_1").version, 1u);
}

TEST(ModelRegistry, SnapshotKeepsOldVersionAliveAcrossPublish) {
  serve::ModelRegistry registry;
  auto v1 = make_stack({8, 4}, 7);
  const core::Encoder* v1_raw = v1.get();
  registry.add_shared("m", std::move(v1));

  const serve::ModelVersion snap = registry.current("m");
  registry.publish_shared("m", make_stack({8, 3}, 8));

  // The snapshot still pins version 1 (RCU: readers finish on their copy),
  // served through the packed twin of the model that was added.
  EXPECT_EQ(snap.version, 1u);
  const auto* twin = dynamic_cast<const core::PackedEncoder*>(snap.model.get());
  ASSERT_NE(twin, nullptr);
  EXPECT_EQ(&twin->source(), v1_raw);
  EXPECT_EQ(snap.model->output_dim(), 4);
  EXPECT_EQ(registry.current("m").version, 2u);
}

TEST(ModelRegistry, EncoderPrecisionDetectsQuantizedModels) {
  const core::StackedAutoencoder stack({16, 8}, core::SaeConfig{}, 4);
  EXPECT_STREQ(serve::encoder_precision(stack), "fp32");
  const auto q = core::QuantizedEncoder::from(stack);
  EXPECT_STREQ(serve::encoder_precision(*q), "int8");
}

// ----------------------------------------------------------- AdaptiveBatcher

TEST(AdaptiveBatcher, StaticPolicyIsTheDegenerateCase) {
  serve::BatchPolicy policy;
  policy.max_batch = 48;
  policy.max_delay_s = 3e-3;
  policy.budget_s = 0;  // no SLO -> static, whatever `adaptive` says
  const serve::AdaptiveBatcher no_budget(policy);
  EXPECT_FALSE(no_budget.adaptive());
  serve::BatchDecision d = no_budget.decide({}, {}, 5000.0);
  EXPECT_EQ(d.max_batch, 48);
  EXPECT_DOUBLE_EQ(d.max_delay_s, 3e-3);

  policy.budget_s = 0.010;
  policy.adaptive = false;  // SLO present but adaptivity pinned off
  const serve::AdaptiveBatcher pinned(policy);
  EXPECT_FALSE(pinned.adaptive());
  d = pinned.decide({}, {}, 5000.0);
  EXPECT_EQ(d.max_batch, 48);
  EXPECT_DOUBLE_EQ(d.max_delay_s, 3e-3);
}

/// A rolling-window snapshot where every sample equals `value_s` — the HDR
/// histogram's quantile clamps into [min, max], so quantiles are exact.
obs::HistogramSnapshot constant_window(double value_s, int samples) {
  obs::Histogram h;
  for (int i = 0; i < samples; ++i) h.record(value_s);
  return h.snapshot();
}

TEST(AdaptiveBatcher, SpendsHalfTheSlackAndMatchesTheRate) {
  serve::BatchPolicy policy;
  policy.min_batch = 1;
  policy.max_batch = 64;
  policy.delay_cap_s = 0.02;
  policy.budget_s = 0.010;  // 10 ms SLO
  const serve::AdaptiveBatcher batcher(policy);
  EXPECT_TRUE(batcher.adaptive());

  // compute p95 = 2ms -> slack 8ms -> delay 4ms; e2e p99 = 6ms < budget, no
  // brake; 1000 rps * 4ms * 2 + 1 = 9 rows.
  const serve::BatchDecision d = batcher.decide(
      constant_window(0.006, 200), constant_window(0.002, 50), 1000.0);
  EXPECT_NEAR(d.max_delay_s, 0.004, 1e-12);
  EXPECT_EQ(d.max_batch, 9);
}

TEST(AdaptiveBatcher, ColdStartSpendsHalfTheBudgetWideOpen) {
  serve::BatchPolicy policy;
  policy.max_batch = 64;
  policy.budget_s = 0.010;
  const serve::AdaptiveBatcher batcher(policy);
  // Empty windows: p95 = 0 -> delay = budget/2; no rate -> cap wide open.
  const serve::BatchDecision d = batcher.decide({}, {}, 0.0);
  EXPECT_NEAR(d.max_delay_s, 0.005, 1e-12);
  EXPECT_EQ(d.max_batch, 64);
}

TEST(AdaptiveBatcher, BrakesProportionallyWhenTheTailMissesTheBudget) {
  serve::BatchPolicy policy;
  policy.budget_s = 0.010;
  const serve::AdaptiveBatcher batcher(policy);
  // slack 8ms -> delay 4ms, then e2e p99 = 20ms = 2x budget -> scale 0.5 ->
  // 2ms; 1000 rps * 2ms * 2 + 1 = 5 rows.
  serve::BatchDecision d = batcher.decide(constant_window(0.020, 200),
                                          constant_window(0.002, 50), 1000.0);
  EXPECT_NEAR(d.max_delay_s, 0.002, 1e-12);
  EXPECT_EQ(d.max_batch, 5);

  // Catastrophic miss (p99 = 100x budget): the brake floors at 1/4.
  d = batcher.decide(constant_window(1.0, 200), constant_window(0.002, 50),
                     1000.0);
  EXPECT_NEAR(d.max_delay_s, 0.001, 1e-12);  // 4ms * 0.25
}

TEST(AdaptiveBatcher, NoSlackMeansNoWaitAndClampsApply) {
  serve::BatchPolicy policy;
  policy.min_batch = 4;
  policy.max_batch = 32;
  policy.delay_cap_s = 0.003;
  policy.budget_s = 0.010;
  const serve::AdaptiveBatcher batcher(policy);

  // Compute alone already blows the budget: don't add coalescing wait.
  serve::BatchDecision d = batcher.decide(
      constant_window(0.015, 100), constant_window(0.012, 50), 1000.0);
  EXPECT_DOUBLE_EQ(d.max_delay_s, 0.0);
  EXPECT_EQ(d.max_batch, 32);  // delay 0: deadline can't govern, cap opens

  // Fast compute: raw delay would be ~5ms, the cap clamps it to 3ms; a slow
  // trickle (100 rps) still floors the batch at min_batch.
  d = batcher.decide(constant_window(0.001, 100), constant_window(1e-4, 50),
                     100.0);
  EXPECT_DOUBLE_EQ(d.max_delay_s, 0.003);
  EXPECT_EQ(d.max_batch, 4);  // ceil(100*0.003*2)+1 = 2, floored to min 4
}

TEST(AdaptiveBatcher, RejectsInvalidPolicies) {
  serve::BatchPolicy bad;
  bad.min_batch = 0;
  EXPECT_THROW(serve::AdaptiveBatcher{bad}, util::Error);
  bad = {};
  bad.max_batch = 2;
  bad.min_batch = 4;
  EXPECT_THROW(serve::AdaptiveBatcher{bad}, util::Error);
  bad = {};
  bad.budget_s = -1;
  EXPECT_THROW(serve::AdaptiveBatcher{bad}, util::Error);
}

// -------------------------------------------------------- multi-model serving

TEST(MultiModelServer, LanesAreIsolatedAndRouteByName) {
  serve::ModelRegistry registry;
  registry.add_shared("narrow", make_stack({8, 4}, 11));
  registry.add_shared("wide", make_stack({24, 16, 6}, 12));

  serve::ServeConfig cfg;
  cfg.max_batch = 8;
  cfg.max_delay_s = 1e-3;
  cfg.workers = 2;
  serve::InferenceServer server(registry, cfg);
  EXPECT_EQ(server.registry().names(),
            (std::vector<std::string>{"narrow", "wide"}));
  EXPECT_EQ(registry.info("narrow").precision, "fp32");
  EXPECT_EQ(registry.info("wide").precision, "fp32");

  const la::Matrix narrow_in = random_rows(20, 8, 13);
  const la::Matrix wide_in = random_rows(20, 24, 14);
  std::vector<std::future<serve::Reply>> narrow_f, wide_f;
  for (la::Index r = 0; r < 20; ++r) {
    narrow_f.push_back(server.submit(
        "narrow", std::vector<float>(narrow_in.row(r), narrow_in.row(r) + 8)));
    wide_f.push_back(server.submit(
        "wide", std::vector<float>(wide_in.row(r), wide_in.row(r) + 24)));
  }
  for (la::Index r = 0; r < 20; ++r) {
    const serve::Reply narrow = narrow_f[static_cast<std::size_t>(r)].get();
    const serve::Reply wide = wide_f[static_cast<std::size_t>(r)].get();
    EXPECT_EQ(narrow.version, 1u);
    EXPECT_TRUE(bitwise_equal(
        narrow.row,
        encode_single(*registry.current("narrow").model,
                      std::vector<float>(narrow_in.row(r),
                                         narrow_in.row(r) + 8))));
    EXPECT_EQ(wide.row.size(), 6u);
  }
  server.shutdown();

  // Per-lane stats add up to the aggregate; nothing crossed lanes.
  const serve::ServerStats narrow_s = server.stats("narrow");
  const serve::ServerStats wide_s = server.stats("wide");
  EXPECT_EQ(narrow_s.completed, 20);
  EXPECT_EQ(wide_s.completed, 20);
  EXPECT_EQ(narrow_s.rejected, 0);
  EXPECT_EQ(wide_s.failed, 0);
  EXPECT_EQ(server.stats().completed, 40);
  EXPECT_THROW(server.stats("ghost"), util::Error);

  // The server-wide latency is the merge of the lanes' histograms.
  const serve::LatencySummary all = server.stats().latency;
  EXPECT_EQ(all.count, narrow_s.latency.count + wide_s.latency.count);
  EXPECT_EQ(all.max_s, std::max(narrow_s.latency.max_s, wide_s.latency.max_s));

  // Routing rejects unknown names.
  EXPECT_THROW(server.submit("ghost", std::vector<float>(8, 0.f)),
               util::Error);
}

TEST(MultiModelServer, HotSwapUnderLoadLosesNothingAndIsBitwisePerVersion) {
  const auto v1 = make_stack({12, 6}, 21);
  const auto v2 = make_stack({12, 6}, 22);  // same dims, different weights
  // Sanity: the two versions genuinely disagree on some row.
  const la::Matrix inputs = random_rows(64, 12, 23);
  {
    const std::vector<float> row0(inputs.row(0), inputs.row(0) + 12);
    ASSERT_FALSE(bitwise_equal(encode_single(*v1, row0),
                               encode_single(*v2, row0)));
  }

  serve::ModelRegistry registry;
  registry.add_shared("m", v1);
  serve::ServeConfig cfg;
  cfg.max_batch = 4;
  cfg.max_delay_s = 5e-4;
  cfg.workers = 2;
  serve::InferenceServer server(registry, cfg);

  // 4 client threads hammer the lane while the main thread publishes v2
  // mid-stream. Every reply must match ITS version bitwise.
  constexpr int kPerClient = 200;
  std::atomic<int> wrong_rows{0}, bad_versions{0}, failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        const la::Index r = (c * kPerClient + i) % inputs.rows();
        const std::vector<float> row(inputs.row(r), inputs.row(r) + 12);
        try {
          const serve::Reply reply = server.submit("m", row).get();
          const core::Encoder* served =
              reply.version == 1 ? v1.get()
              : reply.version == 2 ? v2.get()
                                   : nullptr;
          if (served == nullptr) {
            bad_versions.fetch_add(1);
          } else if (!bitwise_equal(reply.row, encode_single(*served, row))) {
            wrong_rows.fetch_add(1);
          }
        } catch (const std::exception&) {
          failures.fetch_add(1);
        }
      }
    });
  }
  // Let traffic establish on v1, then swap.
  while (server.stats("m").completed < 50)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(registry.publish_shared("m", v2), 2u);
  for (std::thread& t : clients) t.join();
  server.shutdown();

  // Zero-downtime: nothing rejected, failed, or served by a phantom version.
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(bad_versions.load(), 0);
  EXPECT_EQ(wrong_rows.load(), 0);
  const serve::ServerStats stats = server.stats("m");
  EXPECT_EQ(stats.completed, 4 * kPerClient);
  EXPECT_EQ(stats.rejected, 0);
  EXPECT_EQ(stats.failed, 0);
}

TEST(MultiModelServer, AdmissionControlShedsByQueueDepth) {
  GateEncoder gate(4);
  serve::ModelRegistry registry;
  registry.add_shared(
      "gated", std::shared_ptr<const core::Encoder>(
                   std::shared_ptr<void>(), &gate));
  serve::ServeConfig cfg;
  cfg.max_batch = 1;
  cfg.max_delay_s = 0;
  cfg.queue_capacity = 8;
  cfg.shed_fraction = 0.5;  // shed once depth reaches 4, well before 8
  cfg.workers = 1;
  serve::InferenceServer server(registry, cfg);

  // Pin the pipeline: batch #1 inside encode(), then keep submitting. Depth
  // grows to the shed threshold and stops there — admission control turns
  // overload into fast rejections before the queue is anywhere near full.
  std::vector<std::future<serve::Reply>> accepted;
  int shed = 0;
  for (int i = 0; i < 20; ++i) {
    std::future<serve::Reply> fut =
        server.submit("gated", std::vector<float>(4, 1.0f));
    if (fut.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
      try {
        fut.get();
        ADD_FAILURE() << "ready future should carry the shed error";
      } catch (const util::Error& e) {
        EXPECT_NE(std::string(e.what()).find("load shed"), std::string::npos);
        ++shed;
      }
    } else {
      accepted.push_back(std::move(fut));
    }
    if (i == 0) gate.wait_entered(1);
  }
  EXPECT_GT(shed, 0);
  EXPECT_LE(server.queue_depth("gated"), 4u);
  const serve::ServerStats mid = server.stats("gated");
  EXPECT_EQ(mid.shed, shed);
  EXPECT_EQ(mid.rejected, shed);  // shed is a subset of rejected

  gate.release();
  for (auto& f : accepted) EXPECT_EQ(f.get().row.size(), 4u);  // none lost
  server.shutdown();
  EXPECT_EQ(server.stats("gated").completed,
            static_cast<std::int64_t>(accepted.size()));
}

TEST(MultiModelServer, PerModelConfigOverridesAndLastDecision) {
  serve::ModelRegistry registry;
  registry.add_shared("tight", make_stack({8, 4}, 31), /*budget_s=*/0.004);
  registry.add_shared("loose", make_stack({8, 4}, 32));

  serve::ServeConfig cfg;
  cfg.max_batch = 16;
  cfg.adaptive = true;
  serve::InferenceServer server(registry, cfg);

  for (int i = 0; i < 8; ++i) {
    server.submit("tight", std::vector<float>(8, 0.5f)).get();
    server.submit("loose", std::vector<float>(8, 0.5f)).get();
  }
  server.shutdown();

  // The budgeted lane decided adaptively (its decision can't exceed the cap
  // or spend more than half the 4ms budget); the lane without a budget runs
  // static.
  const serve::BatchDecision tight = server.last_decision("tight");
  EXPECT_LE(tight.max_delay_s, 0.002 + 1e-12);
  EXPECT_LE(tight.max_batch, 16);
  const serve::BatchDecision loose_d = server.last_decision("loose");
  EXPECT_EQ(loose_d.max_batch, 16);
  EXPECT_DOUBLE_EQ(loose_d.max_delay_s, cfg.max_delay_s);
  EXPECT_THROW(server.last_decision("ghost"), util::Error);
}

TEST(MultiModelServer, MixedPrecisionReportsMixed) {
  serve::ModelRegistry registry;
  registry.add_shared("fp32", make_stack({16, 8}, 41));
  const core::StackedAutoencoder base({16, 8}, core::SaeConfig{}, 42);
  registry.add_shared("int8",
                      std::shared_ptr<const core::Encoder>(
                          core::QuantizedEncoder::from(base).release()));
  serve::InferenceServer server(registry, serve::ServeConfig{});
  // Each lane reports its own precision.
  EXPECT_EQ(server.registry().info("fp32").precision, "fp32");
  EXPECT_EQ(server.registry().info("int8").precision, "int8");
  server.shutdown();
}

// ------------------------------------------------------- admin control plane

TEST(AdminEndpoint, ListsModelsAndHotSwapsThroughHttp) {
  const test::ScratchDir scratch;
  const std::string& dir = scratch.path();
  const core::StackedAutoencoder v1({10, 5}, core::SaeConfig{}, 51);
  const core::StackedAutoencoder v2({10, 5}, core::SaeConfig{}, 52);
  const std::string v2_path = dir + "/admin_v2.dpsa";
  core::save_model(v2, v2_path);

  serve::ModelRegistry registry;
  registry.add_shared("prod",
                      std::shared_ptr<const core::Encoder>(
                          std::shared_ptr<void>(), &v1),
                      /*budget_s=*/0.008);
  serve::ServeConfig cfg;
  cfg.max_delay_s = 1e-4;
  serve::InferenceServer server(registry, cfg);

  serve::StatsServerConfig stats_cfg;
  stats_cfg.port = 0;
  stats_cfg.server = &server;
  serve::StatsServer stats(stats_cfg);

  const la::Matrix inputs = random_rows(4, 10, 53);
  const std::vector<float> row(inputs.row(0), inputs.row(0) + 10);
  EXPECT_EQ(server.submit("prod", row).get().version, 1u);

  // /admin/models reflects the registry.
  {
    const util::JsonValue body = util::parse_json(
        util::http_get("127.0.0.1", stats.port(), "/admin/models"));
    const auto& models = body.at("models").as_array();
    ASSERT_EQ(models.size(), 1u);
    EXPECT_EQ(models[0].at("name").as_string(), "prod");
    EXPECT_EQ(models[0].at("version").as_number(), 1.0);
    EXPECT_EQ(models[0].at("precision").as_string(), "fp32");
    EXPECT_DOUBLE_EQ(models[0].at("budget_ms").as_number(), 8.0);
  }

  // /admin/swap loads the checkpoint and bumps the version; subsequent
  // requests serve v2 bitwise.
  {
    const util::JsonValue body = util::parse_json(util::http_get(
        "127.0.0.1", stats.port(),
        "/admin/swap?model=prod&path=" + v2_path));
    EXPECT_EQ(body.at("model").as_string(), "prod");
    EXPECT_EQ(body.at("old_version").as_number(), 1.0);
    EXPECT_EQ(body.at("new_version").as_number(), 2.0);
    EXPECT_EQ(body.at("magic").as_string(), "DPSA");
  }
  const serve::Reply swapped = server.submit("prod", row).get();
  EXPECT_EQ(swapped.version, 2u);
  EXPECT_TRUE(bitwise_equal(swapped.row, encode_single(v2, row)));

  // Errors come back as HTTP 400 (http_get throws on non-200): missing
  // params, unknown model, dim-mismatched checkpoint.
  EXPECT_THROW(util::http_get("127.0.0.1", stats.port(), "/admin/swap"),
               util::Error);
  EXPECT_THROW(util::http_get("127.0.0.1", stats.port(),
                              "/admin/swap?model=ghost&path=" + v2_path),
               util::Error);
  const core::StackedAutoencoder wrong({12, 5}, core::SaeConfig{}, 54);
  const std::string wrong_path = dir + "/admin_wrong.dpsa";
  core::save_model(wrong, wrong_path);
  EXPECT_THROW(util::http_get("127.0.0.1", stats.port(),
                              "/admin/swap?model=prod&path=" + wrong_path),
               util::Error);
  // The failed swaps left version 2 serving.
  EXPECT_EQ(registry.info("prod").version, 2u);

  server.shutdown();
}

TEST(AdminEndpoint, RoutesAre404WithoutAnAttachedServer) {
  serve::StatsServerConfig cfg;
  cfg.port = 0;
  serve::StatsServer stats(cfg);  // no server attached
  EXPECT_THROW(util::http_get("127.0.0.1", stats.port(), "/admin/models"),
               util::Error);
  EXPECT_THROW(util::http_get("127.0.0.1", stats.port(),
                              "/admin/swap?model=x&path=/nope"),
               util::Error);
  // The ordinary routes still answer.
  EXPECT_NE(util::http_get("127.0.0.1", stats.port(), "/healthz").find(
                "stats endpoint"),
            std::string::npos);
}

// ------------------------------------------------------- LoadedModel metadata

TEST(LoadedModel, CarriesMagicPrecisionAndFileBytes) {
  const test::ScratchDir scratch;
  const std::string& dir = scratch.path();
  const core::StackedAutoencoder stack({14, 7}, core::SaeConfig{}, 61);
  const std::string path = dir + "/loaded_meta.dpsa";
  core::save_model(stack, path);

  model_io::LoadedModel loaded = model_io::load_any(path);
  ASSERT_NE(loaded.model, nullptr);
  EXPECT_EQ(loaded.magic, "DPSA");
  EXPECT_STREQ(serve::encoder_precision(*loaded.model), "fp32");
  EXPECT_GT(loaded.file_bytes, 0u);
  EXPECT_EQ(loaded.model->input_dim(), 14);

  // Registry add() ingests the metadata wholesale.
  serve::ModelRegistry registry;
  registry.add("disk", std::move(loaded), /*budget_s=*/0.010);
  const serve::ModelInfo info = registry.info("disk");
  EXPECT_EQ(info.magic, "DPSA");
  EXPECT_EQ(info.precision, "fp32");
  EXPECT_GT(info.file_bytes, 0u);
  EXPECT_EQ(info.input_dim, 14);
  EXPECT_DOUBLE_EQ(info.budget_s, 0.010);
}

}  // namespace
