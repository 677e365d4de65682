#include "serve/inference_server.hpp"

#include <cstring>
#include <limits>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "util/error.hpp"

namespace deepphi::serve {

namespace {

/// Serving telemetry schema tag (run records live alongside the training
/// records of deepphi.telemetry.v1 in one JSONL file).
constexpr const char* kServeSchema = "deepphi.serve.v1";

constexpr std::size_t kNoShed = std::numeric_limits<std::size_t>::max();

// Adaptive-batching bounds every lane shares (serve/adaptive_batcher.hpp):
// the smallest batch and the longest flush delay the policy may decide.
constexpr la::Index kMinBatch = 1;
constexpr double kDelayCapS = 0.02;

// Rolling-window geometry feeding the adaptive decisions: the last 8 × 0.25 s.
constexpr double kWindowIntervalS = 0.25;
constexpr std::size_t kWindowIntervals = 8;

void fail(std::promise<Reply>& p, const std::string& what) {
  p.set_exception(std::make_exception_ptr(util::Error(what)));
}

}  // namespace

/// One served model: its queue, batcher thread, policy, rolling windows, and
/// both metric surfaces — the process-global serve.model.<name>.* registry
/// entries (exposition) and per-server-instance recorders (stats(), windows;
/// fresh per server so parallel test servers cannot bleed into each other).
struct InferenceServer::Lane {
  Lane(std::string lane_name, const ServeConfig& cfg, double budget,
       la::Index in_dim)
      : name(std::move(lane_name)),
        input_dim(in_dim),
        queue(cfg.queue_capacity, "serve.model." + name + ".queue_depth"),
        policy(BatchPolicy{kMinBatch, cfg.max_batch, cfg.max_delay_s,
                           kDelayCapS, budget, cfg.adaptive}),
        e2e_window(latency, kWindowIntervalS, kWindowIntervals),
        compute_window(compute_src, kWindowIntervalS, kWindowIntervals),
        latency_hist(obs::histogram("serve.model." + name + ".latency")),
        compute_hist(obs::histogram("serve.model." + name + ".compute")),
        queue_wait_hist(obs::histogram("serve.model." + name + ".queue_wait")),
        requests_ctr(obs::counter("serve.model." + name + ".requests")),
        rejected_ctr(obs::counter("serve.model." + name + ".rejected")),
        shed_ctr(obs::counter("serve.model." + name + ".shed")),
        batches_ctr(obs::counter("serve.model." + name + ".batches")),
        coalesced_ctr(obs::counter("serve.model." + name + ".coalesced_rows")),
        decided_batch_g(obs::gauge("serve.model." + name + ".decided_batch")),
        decided_delay_g(
            obs::gauge("serve.model." + name + ".decided_delay_ms")),
        budget_g(obs::gauge("serve.model." + name + ".budget_ms")),
        shed_threshold(cfg.shed_fraction < 1.0
                           ? static_cast<std::size_t>(
                                 cfg.shed_fraction *
                                 static_cast<double>(cfg.queue_capacity))
                           : kNoShed),
        last_decision{cfg.max_batch, cfg.max_delay_s} {
    budget_g.set(budget * 1e3);
  }

  const std::string name;
  const la::Index input_dim;
  RequestQueue queue;
  const AdaptiveBatcher policy;

  // Per-instance recorders: `latency` feeds stats() and the e2e window;
  // `compute_src` exists only to drive the compute window. Both also mirror
  // into the registered serve.model.<name>.* histograms below.
  obs::Histogram latency;
  obs::Histogram compute_src;
  // Windows are advanced and read only by this lane's batcher thread
  // (RollingWindow is not thread-safe).
  obs::RollingWindow e2e_window;
  obs::RollingWindow compute_window;

  obs::Histogram& latency_hist;
  obs::Histogram& compute_hist;
  obs::Histogram& queue_wait_hist;
  obs::Counter& requests_ctr;
  obs::Counter& rejected_ctr;
  obs::Counter& shed_ctr;
  obs::Counter& batches_ctr;
  obs::Counter& coalesced_ctr;
  obs::Gauge& decided_batch_g;
  obs::Gauge& decided_delay_g;
  obs::Gauge& budget_g;

  const std::size_t shed_threshold;  // kNoShed disables the early shed

  std::atomic<std::int64_t> submitted{0};
  std::atomic<std::int64_t> rejected{0};
  std::atomic<std::int64_t> shed{0};
  std::atomic<std::int64_t> completed{0};
  std::atomic<std::int64_t> failed{0};
  std::atomic<std::int64_t> batches{0};
  std::atomic<double> compute_s{0};

  mutable std::mutex decision_mutex;
  BatchDecision last_decision;

  std::thread batcher;
};

InferenceServer::InferenceServer(ModelRegistry& registry, ServeConfig config)
    : registry_(&registry),
      config_(std::move(config)),
      pool_(std::max(1u, config_.workers)) {
  DEEPPHI_CHECK_MSG(config_.max_batch >= 1,
                    "max_batch must be >= 1, got " << config_.max_batch);
  DEEPPHI_CHECK_MSG(config_.max_delay_s >= 0,
                    "max_delay_s must be >= 0, got " << config_.max_delay_s);
  const std::vector<std::string> names = registry_->names();
  DEEPPHI_CHECK_MSG(!names.empty(),
                    "cannot serve from an empty model registry");
  for (const std::string& name : names) {
    const ModelInfo info = registry_->info(name);
    auto lane = std::make_unique<Lane>(name, config_, info.budget_s,
                                       info.input_dim);
    emit_lane_config(*lane);
    lanes_.emplace(name, std::move(lane));
  }
  max_inflight_ =
      static_cast<int>(std::max(1u, config_.workers)) +
      static_cast<int>(lanes_.size());
  for (auto& [name, lane] : lanes_) {
    Lane* l = lane.get();
    l->batcher = std::thread([this, l] {
      obs::set_thread_name("serve-" + l->name);
      batcher_loop(*l);
    });
  }
}

void InferenceServer::emit_lane_config(const Lane& lane) {
  if (!config_.telemetry) return;
  const ModelInfo info = registry_->info(lane.name);
  using obs::TelemetryField;
  config_.telemetry->emit(
      "serve_config",
      {TelemetryField::str("schema", kServeSchema),
       TelemetryField::str("name", lane.name),
       TelemetryField::str("model", info.description),
       TelemetryField::str("precision", info.precision),
       TelemetryField::integer("version",
                               static_cast<std::int64_t>(info.version)),
       TelemetryField::integer("input_dim", info.input_dim),
       TelemetryField::integer("output_dim", info.output_dim),
       TelemetryField::integer("max_batch", config_.max_batch),
       TelemetryField::num("max_delay_s", config_.max_delay_s),
       TelemetryField::integer(
           "queue_capacity",
           static_cast<std::int64_t>(config_.queue_capacity)),
       TelemetryField::integer("workers", pool_.size()),
       TelemetryField::num("budget_ms", info.budget_s * 1e3),
       TelemetryField::integer("adaptive",
                               lane.policy.adaptive() ? 1 : 0)});
}

InferenceServer::~InferenceServer() { shutdown(); }

InferenceServer::Lane& InferenceServer::lane(const std::string& model) const {
  const auto it = lanes_.find(model);
  DEEPPHI_CHECK_MSG(it != lanes_.end(),
                    "server does not serve a model named '" << model << "'");
  return *it->second;
}

std::future<Reply> InferenceServer::submit(const std::string& model,
                                           std::vector<float> input) {
  Lane& l = lane(model);
  DEEPPHI_CHECK_MSG(static_cast<la::Index>(input.size()) == l.input_dim,
                    "request dim " << input.size() << " != model '" << model
                                   << "' input dim " << l.input_dim);
  Request r;
  r.input = std::move(input);
  r.enqueue_s = obs::Profiler::now_s();
  r.enqueue_tp = std::chrono::steady_clock::now();
  std::future<Reply> fut = r.result.get_future();

  if (shutdown_started_.load(std::memory_order_acquire)) {
    l.rejected.fetch_add(1, std::memory_order_relaxed);
    fail(r.result, "inference server is shutting down");
    return fut;
  }
  // Admission control: shed by queue depth before capacity does, so under a
  // sustained overload the queue keeps headroom for bursts instead of
  // sitting pinned at its memory bound.
  if (l.shed_threshold != kNoShed && l.queue.size() >= l.shed_threshold) {
    l.rejected.fetch_add(1, std::memory_order_relaxed);
    l.shed.fetch_add(1, std::memory_order_relaxed);
    l.rejected_ctr.add();
    l.shed_ctr.add();
    fail(r.result, "inference server overloaded: load shed for model '" +
                       model + "' (queue depth at admission threshold)");
    return fut;
  }
  // Keep the promise alive across the push attempt: the queue never touches
  // it on rejection.
  std::promise<Reply>* promise = &r.result;
  if (!l.queue.try_push(std::move(r))) {
    // try_push only moves on success, so `promise` is still ours here.
    l.rejected.fetch_add(1, std::memory_order_relaxed);
    l.rejected_ctr.add();
    fail(*promise,
         l.queue.closed() ? "inference server is shutting down"
                          : "inference server overloaded: request queue full");
    return fut;
  }
  l.submitted.fetch_add(1, std::memory_order_relaxed);
  l.requests_ctr.add();
  return fut;
}

void InferenceServer::batcher_loop(Lane& lane) {
  for (;;) {
    {
      // Throttle: never hold more than max_inflight_ coalesced batches in
      // the pool — bounds gathered-matrix memory under overload.
      std::unique_lock<std::mutex> lock(inflight_mutex_);
      inflight_cv_.wait(lock, [&] { return inflight_ < max_inflight_; });
    }
    // Re-decide the flush parameters from the live windows before every
    // collect; the static policy returns the configured pair unchanged.
    BatchDecision decision;
    if (lane.policy.adaptive()) {
      const double now = obs::Profiler::now_s();
      lane.e2e_window.advance(now);
      lane.compute_window.advance(now);
      decision = lane.policy.decide(lane.e2e_window.window(),
                                    lane.compute_window.window(),
                                    lane.e2e_window.rate_per_s());
      lane.decided_batch_g.set(static_cast<double>(decision.max_batch));
      lane.decided_delay_g.set(decision.max_delay_s * 1e3);
      std::lock_guard<std::mutex> lock(lane.decision_mutex);
      lane.last_decision = decision;
    } else {
      decision = lane.policy.decide({}, {}, 0);
    }

    std::vector<Request> batch;
    const double collect_start = obs::Profiler::now_s();
    {
      DEEPPHI_PROFILE_SCOPE("serve.collect");
      batch = lane.queue.collect(static_cast<std::size_t>(decision.max_batch),
                                 decision.max_delay_s);
    }
    if (batch.empty()) return;  // queue closed and drained
    // Stage histogram: how long assembling this batch took (blocking for the
    // first arrival plus the size-or-deadline wait).
    static obs::Histogram& collect_hist =
        obs::histogram("serve.stage.collect");
    collect_hist.record(obs::Profiler::now_s() - collect_start);

    // The hot-swap pivot: one registry snapshot per batch, taken after
    // collection. Every row in this batch computes on exactly this version,
    // however many publishes land while it runs.
    ModelVersion version = registry_->current(lane.name);

    {
      std::lock_guard<std::mutex> lock(inflight_mutex_);
      ++inflight_;
      static obs::Gauge& inflight = obs::gauge("serve.inflight_batches");
      inflight.set(inflight_);
    }
    lane.batches.fetch_add(1, std::memory_order_relaxed);
    lane.batches_ctr.add();

    // std::function needs a copyable callable; Request holds a move-only
    // promise, so the batch rides in a shared_ptr.
    auto shared = std::make_shared<std::vector<Request>>(std::move(batch));
    Lane* l = &lane;
    pool_.submit([this, l, version, shared] {
      run_batch(*l, version, std::move(*shared));
    });
  }
}

void InferenceServer::run_batch(Lane& lane, ModelVersion version,
                                std::vector<Request> batch) {
  struct InflightSlot {
    InferenceServer* s;
    ~InflightSlot() {
      {
        std::lock_guard<std::mutex> lock(s->inflight_mutex_);
        --s->inflight_;
        static obs::Gauge& inflight = obs::gauge("serve.inflight_batches");
        inflight.set(s->inflight_);
      }
      s->inflight_cv_.notify_one();
    }
  } slot{this};

  const core::Encoder& model = *version.model;
  const la::Index rows = static_cast<la::Index>(batch.size());
  const double batch_start = obs::Profiler::now_s();
  // FIFO collect: front is the oldest request, so this is the worst queue
  // wait in the batch.
  const double queue_wait = batch_start - batch.front().enqueue_s;

  // Per-request queue wait: every request's own submit -> batch-start time
  // (the oldest-only value above goes into the serve_batch record).
  static obs::Histogram& queue_wait_hist =
      obs::histogram("serve.stage.queue_wait");
  for (const Request& r : batch) {
    const double wait = batch_start - r.enqueue_s;
    queue_wait_hist.record(wait);
    lane.queue_wait_hist.record(wait);
  }

  la::Matrix x = la::Matrix::uninitialized(rows, model.input_dim());
  {
    DEEPPHI_PROFILE_SCOPE("serve.gather");
    for (la::Index r = 0; r < rows; ++r)
      std::memcpy(x.row(r), batch[static_cast<std::size_t>(r)].input.data(),
                  sizeof(float) * static_cast<std::size_t>(x.cols()));
  }

  la::Matrix out;
  double compute_s = 0;
  try {
    DEEPPHI_PROFILE_SCOPE("serve.encode");
    const double t0 = obs::Profiler::now_s();
    model.encode(x, out);
    compute_s = obs::Profiler::now_s() - t0;
    static obs::Histogram& compute_hist =
        obs::histogram("serve.stage.compute");
    compute_hist.record(compute_s);
    lane.compute_hist.record(compute_s);
    lane.compute_src.record(compute_s);
  } catch (...) {
    const std::exception_ptr err = std::current_exception();
    for (Request& r : batch) r.result.set_exception(err);
    lane.failed.fetch_add(rows, std::memory_order_relaxed);
    return;
  }

  {
    DEEPPHI_PROFILE_SCOPE("serve.scatter");
    const double scatter_start = obs::Profiler::now_s();
    static obs::Histogram& e2e_hist = obs::histogram("serve.latency");
    for (la::Index r = 0; r < rows; ++r) {
      Request& req = batch[static_cast<std::size_t>(r)];
      Reply reply;
      reply.row.assign(out.row(r), out.row(r) + out.cols());
      reply.version = version.version;
      const double e2e = obs::Profiler::now_s() - req.enqueue_s;
      lane.latency.record(e2e);
      lane.latency_hist.record(e2e);
      e2e_hist.record(e2e);
      req.result.set_value(std::move(reply));
    }
    static obs::Histogram& scatter_hist =
        obs::histogram("serve.stage.scatter");
    scatter_hist.record(obs::Profiler::now_s() - scatter_start);
  }
  lane.completed.fetch_add(rows, std::memory_order_relaxed);
  lane.compute_s.fetch_add(compute_s, std::memory_order_relaxed);
  lane.coalesced_ctr.add(rows);

  if (config_.telemetry) {
    using obs::TelemetryField;
    config_.telemetry->emit(
        "serve_batch",
        {TelemetryField::str("name", lane.name),
         TelemetryField::integer("version",
                                 static_cast<std::int64_t>(version.version)),
         TelemetryField::integer(
             "batch", lane.batches.load(std::memory_order_relaxed)),
         TelemetryField::integer("coalesced", rows),
         TelemetryField::num("queue_wait_s", queue_wait),
         TelemetryField::num("compute_s", compute_s),
         TelemetryField::num("batch_wall_s",
                             obs::Profiler::now_s() - batch_start)});
  }
}

void InferenceServer::shutdown() {
  std::lock_guard<std::mutex> lock(shutdown_mutex_);
  if (shutdown_done_) return;
  shutdown_started_.store(true, std::memory_order_release);
  // Admission off everywhere first, then drain: collect() skips deadline
  // waits after close, so the lanes finish their backlogs promptly.
  for (auto& [name, lane] : lanes_) lane->queue.close();
  for (auto& [name, lane] : lanes_)
    if (lane->batcher.joinable()) lane->batcher.join();
  pool_.wait_idle();
  emit_summary();
  shutdown_done_ = true;
}

void InferenceServer::emit_summary() {
  if (!config_.telemetry) return;
  using obs::TelemetryField;
  for (const auto& [name, lane] : lanes_) {
    const ServerStats s = stats(name);
    const ModelInfo info = registry_->info(name);
    const bool has_budget = info.budget_s > 0;
    config_.telemetry->emit(
        "serve_model_summary",
        {TelemetryField::str("schema", kServeSchema),
         TelemetryField::str("name", name),
         TelemetryField::integer("version",
                                 static_cast<std::int64_t>(info.version)),
         TelemetryField::integer("submitted", s.submitted),
         TelemetryField::integer("rejected", s.rejected),
         TelemetryField::integer("shed", s.shed),
         TelemetryField::integer("completed", s.completed),
         TelemetryField::integer("failed", s.failed),
         TelemetryField::integer("batches", s.batches),
         TelemetryField::num("mean_batch_size", s.mean_batch_size),
         TelemetryField::num("budget_ms", info.budget_s * 1e3),
         TelemetryField::num("latency_p99_ms", s.latency.p99_s * 1e3),
         TelemetryField::integer(
             "slo_met",
             has_budget ? (s.latency.p99_s <= info.budget_s ? 1 : 0) : 1)});
  }
  const ServerStats s = stats();
  config_.telemetry->emit_metrics(
      "serve_summary",
      {TelemetryField::str("schema", kServeSchema),
       TelemetryField::integer("submitted", s.submitted),
       TelemetryField::integer("rejected", s.rejected),
       TelemetryField::integer("shed", s.shed),
       TelemetryField::integer("completed", s.completed),
       TelemetryField::integer("failed", s.failed),
       TelemetryField::integer("batches", s.batches),
       TelemetryField::num("mean_batch_size", s.mean_batch_size),
       TelemetryField::integer(
           "peak_queue_depth",
           static_cast<std::int64_t>(s.peak_queue_depth)),
       TelemetryField::num("total_compute_s", s.total_compute_s),
       TelemetryField::num("latency_mean_s", s.latency.mean_s),
       TelemetryField::num("latency_p50_s", s.latency.p50_s),
       TelemetryField::num("latency_p95_s", s.latency.p95_s),
       TelemetryField::num("latency_p99_s", s.latency.p99_s),
       TelemetryField::num("latency_max_s", s.latency.max_s)});
}

ServerStats InferenceServer::stats(const std::string& model) const {
  return sum_stats({&lane(model)});
}

ServerStats InferenceServer::stats() const {
  std::vector<const Lane*> all;
  for (const auto& [name, lane] : lanes_) all.push_back(lane.get());
  return sum_stats(all);
}

ServerStats InferenceServer::sum_stats(const std::vector<const Lane*>& lanes) {
  ServerStats s;
  obs::HistogramSnapshot latency;
  for (const Lane* l : lanes) {
    s.submitted += l->submitted.load(std::memory_order_relaxed);
    s.rejected += l->rejected.load(std::memory_order_relaxed);
    s.shed += l->shed.load(std::memory_order_relaxed);
    s.completed += l->completed.load(std::memory_order_relaxed);
    s.failed += l->failed.load(std::memory_order_relaxed);
    s.batches += l->batches.load(std::memory_order_relaxed);
    s.peak_queue_depth = std::max(s.peak_queue_depth, l->queue.peak_size());
    s.total_compute_s += l->compute_s.load(std::memory_order_relaxed);
    latency.merge(l->latency.snapshot());
  }
  s.mean_batch_size =
      s.batches > 0
          ? static_cast<double>(s.completed) / static_cast<double>(s.batches)
          : 0;
  s.latency = summarize(latency);
  return s;
}

std::size_t InferenceServer::queue_depth(const std::string& model) const {
  return lane(model).queue.size();
}

BatchDecision InferenceServer::last_decision(const std::string& model) const {
  const Lane& l = lane(model);
  std::lock_guard<std::mutex> lock(l.decision_mutex);
  return l.last_decision;
}

LatencySummary summarize(const obs::HistogramSnapshot& snapshot) {
  LatencySummary s;
  s.count = snapshot.count;
  s.mean_s = snapshot.mean();
  s.p50_s = snapshot.quantile(0.50);
  s.p95_s = snapshot.quantile(0.95);
  s.p99_s = snapshot.quantile(0.99);
  s.max_s = snapshot.max;
  return s;
}

}  // namespace deepphi::serve
