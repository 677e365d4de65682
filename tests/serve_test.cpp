// The serving stack: Encoder conformance across every model type,
// model_io::load_any magic dispatch, RequestQueue semantics, and the
// InferenceServer's coalescing / deadline / backpressure / drain behaviour.
//
// The load-bearing property is bitwise identity: a request served through a
// coalesced batch must return exactly the bytes a direct single-row encode()
// produces (the GEMM's k-accumulation order is independent of the batch row
// count — la/gemm.hpp), so callers can move between offline and served
// inference without any numeric drift.
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <fstream>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/deep_autoencoder.hpp"
#include "core/model_io.hpp"
#include "core/softmax.hpp"
#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "serve/inference_server.hpp"
#include "serve/model_registry.hpp"
#include "serve/request_queue.hpp"
#include "serve/stats_server.hpp"
#include "util/error.hpp"
#include "util/http_listener.hpp"
#include "util/json_reader.hpp"
#include "util/rng.hpp"

namespace {

using namespace deepphi;

la::Matrix random_rows(la::Index rows, la::Index dim, std::uint64_t seed) {
  util::Rng rng(seed, /*stream=*/0x5E17);
  la::Matrix m(rows, dim);
  for (la::Index i = 0; i < m.size(); ++i) m.data()[i] = rng.uniform_float();
  return m;
}

std::vector<float> row_of(const la::Matrix& m, la::Index r) {
  return std::vector<float>(m.row(r), m.row(r) + m.cols());
}

/// The lane every single-model test serves from.
constexpr const char* kModel = "m";

/// Registers a model the test owns (and keeps alive past the server) under
/// kModel, without handing over ownership.
void add_borrowed(serve::ModelRegistry& registry, const core::Encoder& model) {
  registry.add_shared(
      kModel, std::shared_ptr<const core::Encoder>(std::shared_ptr<void>(),
                                                   &model));
}

bool rows_bitwise_equal(const float* a, const float* b, la::Index n) {
  return std::memcmp(a, b, sizeof(float) * static_cast<std::size_t>(n)) == 0;
}

/// Encodes row r of x alone (a 1-row matrix), the reference a served batch
/// must match bitwise.
std::vector<float> encode_single(const core::Encoder& model,
                                 const la::Matrix& x, la::Index r) {
  la::Matrix one(1, x.cols());
  std::memcpy(one.row(0), x.row(r),
              sizeof(float) * static_cast<std::size_t>(x.cols()));
  la::Matrix out;
  model.encode(one, out);
  return std::vector<float>(out.row(0), out.row(0) + out.cols());
}

// ---------------------------------------------------------------------------
// Encoder conformance: every model type speaks the same interface and its
// encode() agrees bitwise with the type-specific inference entry point.

TEST(EncoderInterface, SparseAutoencoderConforms) {
  const core::SparseAutoencoder sae(core::SaeConfig{12, 7}, 1);
  const core::Encoder& enc = sae;
  EXPECT_EQ(enc.input_dim(), 12);
  EXPECT_EQ(enc.output_dim(), 7);
  const la::Matrix x = random_rows(5, 12, 2);
  la::Matrix a, b;
  enc.encode(x, a);
  sae.encode(x, b);
  ASSERT_EQ(a.rows(), 5);
  ASSERT_EQ(a.cols(), 7);
  EXPECT_TRUE(rows_bitwise_equal(a.data(), b.data(), a.size()));
  EXPECT_NE(enc.describe().find("Sparse Autoencoder"), std::string::npos);
}

TEST(EncoderInterface, RbmEncodeIsHiddenMean) {
  const core::Rbm rbm(core::RbmConfig{10, 6}, 3);
  const core::Encoder& enc = rbm;
  EXPECT_EQ(enc.input_dim(), 10);
  EXPECT_EQ(enc.output_dim(), 6);
  const la::Matrix x = random_rows(4, 10, 4);
  la::Matrix a, b;
  enc.encode(x, a);
  rbm.hidden_mean(x, b);
  EXPECT_TRUE(rows_bitwise_equal(a.data(), b.data(), a.size()));
}

TEST(EncoderInterface, DbnEncodeMatchesLayerwiseHiddenMeans) {
  const core::Dbn dbn({10, 8, 5}, core::RbmConfig{}, 5);
  const core::Encoder& enc = dbn;
  EXPECT_EQ(enc.input_dim(), 10);
  EXPECT_EQ(enc.output_dim(), 5);
  const la::Matrix x = random_rows(6, 10, 6);
  la::Matrix a, h0, b;
  enc.encode(x, a);
  dbn.layer(0).hidden_mean(x, h0);
  dbn.layer(1).hidden_mean(h0, b);
  EXPECT_TRUE(rows_bitwise_equal(a.data(), b.data(), a.size()));
}

TEST(EncoderInterface, StackedAutoencoderConforms) {
  const core::StackedAutoencoder stack({10, 8, 5}, core::SaeConfig{}, 7);
  const core::Encoder& enc = stack;
  EXPECT_EQ(enc.input_dim(), 10);
  EXPECT_EQ(enc.output_dim(), 5);
  la::Matrix out;
  enc.encode(random_rows(3, 10, 8), out);
  EXPECT_EQ(out.cols(), 5);
}

TEST(EncoderInterface, DeepAutoencoderEmitsBottleneckCode) {
  const core::StackedAutoencoder stack({10, 8, 5}, core::SaeConfig{}, 9);
  const core::DeepAutoencoder deep(stack);
  const core::Encoder& enc = deep;
  EXPECT_EQ(enc.input_dim(), 10);
  EXPECT_EQ(enc.output_dim(), deep.code_dim());
  la::Matrix out;
  enc.encode(random_rows(3, 10, 10), out);
  EXPECT_EQ(out.cols(), deep.code_dim());
}

TEST(EncoderInterface, SoftmaxEncodeIsProbabilities) {
  const core::SoftmaxClassifier clf(core::SoftmaxConfig{9, 4}, 11);
  const core::Encoder& enc = clf;
  EXPECT_EQ(enc.input_dim(), 9);
  EXPECT_EQ(enc.output_dim(), 4);
  const la::Matrix x = random_rows(5, 9, 12);
  la::Matrix a, b;
  enc.encode(x, a);
  clf.probabilities(x, b);
  EXPECT_TRUE(rows_bitwise_equal(a.data(), b.data(), a.size()));
  for (la::Index r = 0; r < a.rows(); ++r) {
    double sum = 0;
    for (la::Index c = 0; c < a.cols(); ++c) sum += a.at(r, c);
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

// ---------------------------------------------------------------------------
// load_any: one entry point for all four checkpoint formats.

class LoadAnyTest : public ::testing::Test {
 protected:
  std::string path(const std::string& name) {
    return testing::TempDir() + "/" + name;
  }
};

TEST_F(LoadAnyTest, SniffsAllFourMagics) {
  const core::SparseAutoencoder sae(core::SaeConfig{8, 5}, 1);
  const core::Rbm rbm(core::RbmConfig{8, 5}, 2);
  const core::StackedAutoencoder stack({8, 6, 4}, core::SaeConfig{}, 3);
  const core::Dbn dbn({8, 6, 4}, core::RbmConfig{}, 4);
  core::save_model(sae, path("any.dpae"));
  core::save_model(rbm, path("any.dprb"));
  core::save_model(stack, path("any.dpsa"));
  core::save_model(dbn, path("any.dpdb"));
  EXPECT_EQ(model_io::load_any(path("any.dpae")).magic, "DPAE");
  EXPECT_EQ(model_io::load_any(path("any.dprb")).magic, "DPRB");
  EXPECT_EQ(model_io::load_any(path("any.dpsa")).magic, "DPSA");
  EXPECT_EQ(model_io::load_any(path("any.dpdb")).magic, "DPDB");
}

TEST_F(LoadAnyTest, RoundTripsBitwiseForEveryType) {
  const la::Matrix x = random_rows(6, 8, 20);

  const auto check = [&](const core::Encoder& direct, const std::string& p,
                         const std::string& magic) {
    model_io::LoadedModel loaded = model_io::load_any(p);
    ASSERT_NE(loaded.model, nullptr) << p;
    EXPECT_EQ(loaded.magic, magic) << p;
    EXPECT_STREQ(serve::encoder_precision(*loaded.model), "fp32") << p;
    EXPECT_GT(loaded.file_bytes, 8u) << p;  // magic + version at minimum
    EXPECT_EQ(loaded.model->input_dim(), direct.input_dim()) << p;
    EXPECT_EQ(loaded.model->output_dim(), direct.output_dim()) << p;
    la::Matrix a, b;
    loaded.model->encode(x, a);
    direct.encode(x, b);
    EXPECT_TRUE(rows_bitwise_equal(a.data(), b.data(), a.size())) << p;
  };

  const core::SparseAutoencoder sae(core::SaeConfig{8, 5}, 1);
  core::save_model(sae, path("rt.dpae"));
  check(sae, path("rt.dpae"), "DPAE");

  const core::Rbm rbm(core::RbmConfig{8, 5}, 2);
  core::save_model(rbm, path("rt.dprb"));
  check(rbm, path("rt.dprb"), "DPRB");

  const core::StackedAutoencoder stack({8, 6, 4}, core::SaeConfig{}, 3);
  core::save_model(stack, path("rt.dpsa"));
  check(stack, path("rt.dpsa"), "DPSA");

  const core::Dbn dbn({8, 6, 4}, core::RbmConfig{}, 4);
  core::save_model(dbn, path("rt.dpdb"));
  check(dbn, path("rt.dpdb"), "DPDB");
}

TEST_F(LoadAnyTest, RejectsMissingFile) {
  EXPECT_THROW(model_io::load_any(path("nope.dpae")), util::Error);
}

TEST_F(LoadAnyTest, RejectsUnknownMagic) {
  const std::string p = path("bogus.bin");
  std::ofstream(p, std::ios::binary) << "XXXXsome bytes that are not a model";
  EXPECT_THROW(model_io::load_any(p), util::Error);
}

TEST_F(LoadAnyTest, RejectsTruncatedHeader) {
  // A valid magic followed by nothing: sniffing succeeds, the typed loader
  // must fail cleanly instead of reading garbage.
  const std::string p = path("trunc.dpsa");
  std::ofstream(p, std::ios::binary) << "DPSA";
  EXPECT_THROW(model_io::load_any(p), std::exception);

  const std::string tiny = path("tiny.bin");
  std::ofstream(tiny, std::ios::binary) << "DP";  // shorter than a magic
  EXPECT_THROW(model_io::load_any(tiny), util::Error);
}

// ---------------------------------------------------------------------------
// RequestQueue semantics.

serve::Request make_request(float v) {
  serve::Request r;
  r.input = {v};
  r.enqueue_tp = std::chrono::steady_clock::now();
  return r;
}

TEST(RequestQueue, RejectsPushBeyondCapacityAndAfterClose) {
  serve::RequestQueue q(2, "test.queue_depth");
  EXPECT_TRUE(q.try_push(make_request(1)));
  EXPECT_TRUE(q.try_push(make_request(2)));
  serve::Request extra = make_request(3);
  EXPECT_FALSE(q.try_push(std::move(extra)));
  // Rejection must not have consumed the request.
  EXPECT_EQ(extra.input.size(), 1u);
  EXPECT_EQ(q.size(), 2u);
  q.close();
  EXPECT_FALSE(q.try_push(make_request(4)));
}

TEST(RequestQueue, CollectIsFifoAndRespectsMaxBatch) {
  serve::RequestQueue q(8, "test.queue_depth");
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(q.try_push(make_request(i)));
  std::vector<serve::Request> first = q.collect(3, /*max_delay_s=*/0);
  ASSERT_EQ(first.size(), 3u);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(first[i].input[0], i);
  std::vector<serve::Request> rest = q.collect(8, 0);
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_EQ(rest[0].input[0], 3);
  EXPECT_EQ(q.size(), 0u);
}

TEST(RequestQueue, CollectDrainsThenSignalsClosedWithEmpty) {
  serve::RequestQueue q(4, "test.queue_depth");
  ASSERT_TRUE(q.try_push(make_request(1)));
  q.close();
  EXPECT_EQ(q.collect(4, /*max_delay_s=*/1.0).size(), 1u);  // no deadline wait
  EXPECT_TRUE(q.collect(4, 1.0).empty());                   // closed + drained
}

TEST(RequestQueue, CollectHonorsDeadlineForPartialBatches) {
  serve::RequestQueue q(4, "test.queue_depth");
  ASSERT_TRUE(q.try_push(make_request(1)));
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<serve::Request> got = q.collect(4, /*max_delay_s=*/0.05);
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  ASSERT_EQ(got.size(), 1u);
  // The lone request's deadline had already started at push time; collect
  // must return once it expires instead of holding out for a full batch.
  EXPECT_LT(waited, 5.0);
  EXPECT_GE(waited, 0.01);
}

// ---------------------------------------------------------------------------
// InferenceServer.

/// Test encoder whose encode() blocks until release() — makes queue/backlog
/// states reachable deterministically. Output = input (identity), so scatter
/// order is checkable.
class GateEncoder : public core::Encoder {
 public:
  explicit GateEncoder(la::Index dim) : dim_(dim) {}
  la::Index input_dim() const override { return dim_; }
  la::Index output_dim() const override { return dim_; }

  void encode(const la::Matrix& x, la::Matrix& out) const override {
    entered_.fetch_add(1);
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return open_; });
    out = la::Matrix(x.rows(), x.cols());
    std::memcpy(out.data(), x.data(),
                sizeof(float) * static_cast<std::size_t>(x.size()));
  }

  void release() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      open_ = true;
    }
    cv_.notify_all();
  }

  int entered() const { return entered_.load(); }

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

TEST(InferenceServer, ServedRowsAreBitwiseIdenticalToSingleRowEncode) {
  const core::StackedAutoencoder model({16, 12, 8}, core::SaeConfig{}, 31);
  const la::Matrix inputs = random_rows(64, 16, 32);

  serve::ServeConfig cfg;
  cfg.max_batch = 16;
  cfg.max_delay_s = 1e-3;
  cfg.workers = 2;
  serve::ModelRegistry registry;
  add_borrowed(registry, model);
  serve::InferenceServer server(registry, cfg);

  // Four concurrent clients, 16 requests each: plenty of coalescing across
  // client boundaries, every result checked against its own-row reference.
  std::vector<std::thread> clients;
  std::atomic<int> mismatches{0};
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      for (la::Index r = c; r < inputs.rows(); r += 4) {
        std::future<serve::Reply> fut =
            server.submit(kModel, row_of(inputs, r));
        const std::vector<float> got = fut.get().row;
        const std::vector<float> want = encode_single(model, inputs, r);
        if (got.size() != want.size() ||
            !rows_bitwise_equal(got.data(), want.data(),
                                static_cast<la::Index>(got.size())))
          mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  server.shutdown();

  EXPECT_EQ(mismatches.load(), 0);
  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, 64);
  EXPECT_EQ(stats.rejected, 0);
  EXPECT_EQ(stats.failed, 0);
  EXPECT_GE(stats.batches, 1);
}

TEST(InferenceServer, AllFourModelTypesServeThroughOneCodePath) {
  const std::string dir = testing::TempDir();
  const core::SparseAutoencoder sae(core::SaeConfig{8, 5}, 1);
  const core::Rbm rbm(core::RbmConfig{8, 5}, 2);
  const core::StackedAutoencoder stack({8, 6, 4}, core::SaeConfig{}, 3);
  const core::Dbn dbn({8, 6, 4}, core::RbmConfig{}, 4);
  core::save_model(sae, dir + "/serve.dpae");
  core::save_model(rbm, dir + "/serve.dprb");
  core::save_model(stack, dir + "/serve.dpsa");
  core::save_model(dbn, dir + "/serve.dpdb");

  const la::Matrix inputs = random_rows(12, 8, 40);
  for (const char* name : {"serve.dpae", "serve.dprb", "serve.dpsa",
                           "serve.dpdb"}) {
    serve::ModelRegistry registry;
    registry.add(kModel, model_io::load_any(dir + "/" + name));
    const auto model = registry.current(kModel).model;
    serve::ServeConfig cfg;
    cfg.max_batch = 8;
    cfg.max_delay_s = 1e-3;
    serve::InferenceServer server(registry, cfg);
    std::vector<std::future<serve::Reply>> futures;
    for (la::Index r = 0; r < inputs.rows(); ++r)
      futures.push_back(server.submit(kModel, row_of(inputs, r)));
    for (la::Index r = 0; r < inputs.rows(); ++r) {
      const std::vector<float> got =
          futures[static_cast<std::size_t>(r)].get().row;
      const std::vector<float> want = encode_single(*model, inputs, r);
      ASSERT_EQ(got.size(), want.size()) << name;
      EXPECT_TRUE(rows_bitwise_equal(got.data(), want.data(),
                                     static_cast<la::Index>(got.size())))
          << name << " row " << r;
    }
  }
}

TEST(InferenceServer, DeadlineFlushDispatchesPartialBatch) {
  const core::SparseAutoencoder model(core::SaeConfig{6, 4}, 50);
  serve::ServeConfig cfg;
  cfg.max_batch = 1024;  // never fills: only the deadline can flush
  cfg.max_delay_s = 0.05;
  serve::ModelRegistry registry;
  add_borrowed(registry, model);
  serve::InferenceServer server(registry, cfg);

  const auto t0 = std::chrono::steady_clock::now();
  std::future<serve::Reply> fut =
      server.submit(kModel, std::vector<float>(6, 0.5f));
  fut.get();
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  // The lone request rode a singleton batch after ~max_delay — not sooner
  // (nothing else arrived) and without waiting for 1023 peers.
  EXPECT_GE(waited, 0.01);
  EXPECT_LT(waited, 5.0);
  server.shutdown();
  EXPECT_EQ(server.stats().batches, 1);
}

TEST(InferenceServer, CoalescesBacklogIntoOneBatch) {
  GateEncoder model(4);
  serve::ServeConfig cfg;
  cfg.max_batch = 64;
  cfg.max_delay_s = 0;  // flush immediately: coalescing only from backlog
  cfg.workers = 1;      // => at most 2 batches in flight
  serve::ModelRegistry registry;
  add_borrowed(registry, model);
  serve::InferenceServer server(registry, cfg);

  std::vector<std::future<serve::Reply>> futures;
  const auto submit_one = [&](float v) {
    futures.push_back(server.submit(kModel, std::vector<float>{v, v, v, v}));
  };

  submit_one(0);
  model.wait_entered(1);  // batch #1 is inside encode(), gate closed
  submit_one(1);          // batch #2 gets collected, then the batcher
                          // throttles (workers+1 batches in flight)
  while (server.stats().batches < 2)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  for (int i = 2; i < 42; ++i) submit_one(static_cast<float>(i));

  model.release();  // all 40 backlogged requests must ride ONE batch
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const std::vector<float> got = futures[i].get().row;
    ASSERT_EQ(got.size(), 4u);
    EXPECT_EQ(got[0], static_cast<float>(i)) << "scatter order broken";
  }
  server.shutdown();
  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, 42);
  EXPECT_EQ(stats.batches, 3);
  EXPECT_EQ(stats.peak_queue_depth, 40u);
}

TEST(InferenceServer, BackpressureRejectsWhenQueueIsFull) {
  GateEncoder model(4);
  serve::ServeConfig cfg;
  cfg.max_batch = 1;
  cfg.max_delay_s = 0;
  cfg.queue_capacity = 2;
  cfg.workers = 1;
  serve::ModelRegistry registry;
  add_borrowed(registry, model);
  serve::InferenceServer server(registry, cfg);

  // Fill the pipeline: 1 computing + 1 queued on the pool (throttle limit),
  // then 2 parked in the queue. Every further submit must be rejected, and
  // the rejection must be an immediately-ready future, not a hang.
  std::vector<std::future<serve::Reply>> accepted;
  int rejected = 0;
  for (int i = 0; i < 12; ++i) {
    std::future<serve::Reply> fut =
        server.submit(kModel, std::vector<float>(4, 1.0f));
    if (fut.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
      EXPECT_THROW(fut.get(), util::Error);
      ++rejected;
    } else {
      accepted.push_back(std::move(fut));
    }
    if (i == 0) model.wait_entered(1);  // pin batch #1 inside encode()
  }
  EXPECT_GE(rejected, 12 - 4 - 1);  // compute + pool slot + 2 queue slots
  EXPECT_EQ(server.stats().rejected, rejected);
  EXPECT_LE(server.queue_depth(kModel), cfg.queue_capacity);

  model.release();
  for (auto& f : accepted) EXPECT_EQ(f.get().row.size(), 4u);  // none lost
  server.shutdown();
  EXPECT_EQ(server.stats().completed,
            static_cast<std::int64_t>(accepted.size()));
}

TEST(InferenceServer, ShutdownDrainsEveryAcceptedRequest) {
  const core::SparseAutoencoder model(core::SaeConfig{6, 4}, 60);
  serve::ServeConfig cfg;
  cfg.max_batch = 8;
  cfg.max_delay_s = 0.5;  // long deadline: shutdown must not wait it out
  serve::ModelRegistry registry;
  add_borrowed(registry, model);
  serve::InferenceServer server(registry, cfg);

  std::vector<std::future<serve::Reply>> futures;
  for (int i = 0; i < 100; ++i)
    futures.push_back(server.submit(kModel, std::vector<float>(6, 0.25f)));
  const auto t0 = std::chrono::steady_clock::now();
  server.shutdown();
  const double drain =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  for (auto& f : futures) EXPECT_EQ(f.get().row.size(), 4u);
  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed + stats.rejected, 100);
  EXPECT_EQ(stats.failed, 0);
  // Drain bypasses the per-batch deadline (100 requests * 0.5s would be
  // close to a minute if it didn't).
  EXPECT_LT(drain, 10.0);
}

TEST(InferenceServer, SubmitAfterShutdownIsRejected) {
  const core::SparseAutoencoder model(core::SaeConfig{6, 4}, 70);
  serve::ModelRegistry registry;
  add_borrowed(registry, model);
  serve::InferenceServer server(registry, serve::ServeConfig{});
  server.shutdown();
  std::future<serve::Reply> fut =
      server.submit(kModel, std::vector<float>(6, 0.0f));
  EXPECT_THROW(fut.get(), util::Error);
  EXPECT_EQ(server.stats().rejected, 1);
}

TEST(InferenceServer, WrongDimensionThrowsAtSubmit) {
  const core::SparseAutoencoder model(core::SaeConfig{6, 4}, 80);
  serve::ModelRegistry registry;
  add_borrowed(registry, model);
  serve::InferenceServer server(registry, serve::ServeConfig{});
  EXPECT_THROW(server.submit(kModel, std::vector<float>(5, 0.0f)),
               util::Error);
  EXPECT_THROW(server.submit(kModel, std::vector<float>(7, 0.0f)),
               util::Error);
}

TEST(InferenceServer, DestructorShutsDownCleanly) {
  const core::SparseAutoencoder model(core::SaeConfig{6, 4}, 90);
  std::future<serve::Reply> fut;
  {
    serve::ModelRegistry registry;
    add_borrowed(registry, model);
    serve::InferenceServer server(registry, serve::ServeConfig{});
    fut = server.submit(kModel, std::vector<float>(6, 1.0f));
  }  // destructor drains
  EXPECT_EQ(fut.get().row.size(), 4u);
}

// ------------------------------------------------------------ LatencyRecorder
// Serving records latencies into an obs::Histogram and reads them back
// through serve::summarize.

TEST(LatencyRecorder, SummaryMatchesRecordedDistribution) {
  obs::Histogram latency;
  // 1..1000 ms ramp: quantiles and extremes are known in closed form.
  for (int i = 1; i <= 1000; ++i) latency.record(1e-3 * i);
  EXPECT_EQ(latency.count(), 1000);
  const serve::LatencySummary s = serve::summarize(latency.snapshot());
  EXPECT_EQ(s.count, 1000);
  EXPECT_NEAR(s.mean_s, 0.5005, 1e-9);  // exact
  EXPECT_DOUBLE_EQ(s.max_s, 1.0);       // exact
  EXPECT_NEAR(s.p50_s, 0.500, 0.500 * 0.016);
  EXPECT_NEAR(s.p95_s, 0.950, 0.950 * 0.016);
  EXPECT_NEAR(s.p99_s, 0.990, 0.990 * 0.016);
}

TEST(LatencyRecorder, RecordIsSafeUnderConcurrentSummaryPolling) {
  obs::Histogram latency;
  std::atomic<bool> stop{false};
  std::thread poller([&] {
    while (!stop.load()) {
      const serve::LatencySummary s = serve::summarize(latency.snapshot());
      EXPECT_GE(s.max_s, s.p50_s - 1e-12);
    }
  });
  std::vector<std::thread> writers;
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 20000;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&latency] {
      for (int i = 1; i <= kPerWriter; ++i) latency.record(1e-6 * i);
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true);
  poller.join();
  EXPECT_EQ(latency.count(), kWriters * kPerWriter);
  EXPECT_EQ(latency.snapshot().bucket_total(), kWriters * kPerWriter);
}

// ------------------------------------------------------- stage instrumentation

TEST(InferenceServer, StageHistogramsPopulateDuringServing) {
  const auto before_queue =
      obs::histogram("serve.stage.queue_wait").snapshot();
  const auto before_collect = obs::histogram("serve.stage.collect").snapshot();
  const auto before_compute = obs::histogram("serve.stage.compute").snapshot();
  const auto before_scatter = obs::histogram("serve.stage.scatter").snapshot();
  const auto before_e2e = obs::histogram("serve.latency").snapshot();

  const core::SparseAutoencoder model(core::SaeConfig{8, 4}, 21);
  constexpr int kRequests = 64;
  {
    serve::ServeConfig cfg;
    cfg.max_batch = 16;
    cfg.max_delay_s = 0.001;
    serve::ModelRegistry registry;
    add_borrowed(registry, model);
    serve::InferenceServer server(registry, cfg);
    std::vector<std::future<serve::Reply>> futures;
    for (int i = 0; i < kRequests; ++i)
      futures.push_back(server.submit(kModel, std::vector<float>(8, 0.5f)));
    for (auto& f : futures) f.get();
    server.shutdown();
  }

  const auto queue =
      obs::histogram("serve.stage.queue_wait").snapshot().since(before_queue);
  const auto collect =
      obs::histogram("serve.stage.collect").snapshot().since(before_collect);
  const auto compute =
      obs::histogram("serve.stage.compute").snapshot().since(before_compute);
  const auto scatter =
      obs::histogram("serve.stage.scatter").snapshot().since(before_scatter);
  const auto e2e =
      obs::histogram("serve.latency").snapshot().since(before_e2e);

  EXPECT_EQ(queue.count, kRequests);  // one wait sample per request
  EXPECT_EQ(e2e.count, kRequests);    // one end-to-end sample per request
  EXPECT_GE(collect.count, 1);        // one sample per dispatched batch
  EXPECT_EQ(compute.count, collect.count);
  EXPECT_EQ(scatter.count, collect.count);
  // Stages nest inside the end-to-end latency.
  EXPECT_LE(compute.min, e2e.max);
  EXPECT_GT(e2e.sum, 0.0);
}

// ------------------------------------------------------------------ StatsServer

TEST(StatsServer, ServesPrometheusAndStatsJsonEndToEnd) {
  obs::histogram("serve.latency").record(0.002);  // ensure a non-empty series

  serve::StatsServerConfig cfg;
  cfg.port = 0;
  cfg.window_interval_s = 0.05;
  cfg.window_intervals = 4;
  serve::StatsServer stats(cfg);
  ASSERT_GT(stats.port(), 0);

  const std::string metrics =
      util::http_get("127.0.0.1", stats.port(), "/metrics");
  EXPECT_NE(metrics.find("# TYPE deepphi_serve_latency histogram"),
            std::string::npos);
  EXPECT_NE(metrics.find("deepphi_serve_latency_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(metrics.find("deepphi_serve_window_p99_s"), std::string::npos);

  const std::string body =
      util::http_get("127.0.0.1", stats.port(), "/stats.json");
  const util::JsonValue doc = util::parse_json(body);
  EXPECT_EQ(doc.at("schema").as_string(), "deepphi.stats.v1");
  EXPECT_GE(doc.at("uptime_s").as_number(), 0.0);
  EXPECT_EQ(doc.at("server").at("port").as_number(),
            static_cast<double>(stats.port()));
  EXPECT_DOUBLE_EQ(doc.at("window").at("interval_s").as_number(), 0.05);
  EXPECT_TRUE(doc.at("counters").is_object());
  EXPECT_TRUE(doc.at("gauges").is_object());
  const util::JsonValue& lat = doc.at("histograms").at("serve.latency");
  EXPECT_GE(lat.at("count").as_number(), 1.0);
  EXPECT_GT(lat.at("p99").as_number(), 0.0);

  EXPECT_THROW(util::http_get("127.0.0.1", stats.port(), "/bogus"),
               util::Error);
  EXPECT_GE(stats.requests_served(), 3);
  stats.stop();
}

TEST(StatsServer, WindowViewExpiresAfterQuietPeriod) {
  serve::StatsServerConfig cfg;
  cfg.port = 0;
  cfg.window_interval_s = 0.02;
  cfg.window_intervals = 2;
  serve::StatsServer stats(cfg);
  obs::histogram("serve.latency").record(0.001);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  const util::JsonValue live = util::parse_json(stats.render_stats_json());
  EXPECT_GE(live.at("window").at("count").as_number(), 1.0);
  // After > intervals × interval of silence the burst has rolled out.
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  const util::JsonValue quiet = util::parse_json(stats.render_stats_json());
  EXPECT_DOUBLE_EQ(quiet.at("window").at("count").as_number(), 0.0);
}

}  // namespace
