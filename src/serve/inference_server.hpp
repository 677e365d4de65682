// Multi-model batched inference serving engine.
//
// The paper's central performance lesson (Fig. 9, §IV) is that many-core
// throughput only materializes when work arrives in GEMM-friendly
// mini-batches; single-example inference wastes the machine exactly the way
// tiny training batches do. InferenceServer applies that lesson to serving,
// for every model in a ModelRegistry at once:
//
//   clients ── submit(model, row) ──► per-model RequestQueue (bounded)
//                                         │ collect(batch, delay) — decided
//                                    per-model batcher thread     — per batch
//                                         │ one la::Matrix + a ModelVersion
//                                         │ snapshot from the registry
//                                    shared par::ThreadPool — encode()
//                                         │ rows scattered to futures as
//                                         │ Reply{row, serving version}
//                                    client futures become ready
//
// Properties:
//  * One registry, many lanes: each registered model gets its own bounded
//    queue, batcher thread, and `serve.model.<name>.*` metrics, while all
//    lanes share one compute pool — N models cost N queues, not N machines.
//  * Zero-downtime hot swap: a batch computes on the ModelVersion snapshot
//    taken at collect time, so ModelRegistry::publish() never drops or
//    blocks a request; in-flight batches finish on the old version (its
//    shared_ptr keeps it alive) and every Reply names the version that
//    served it. Served rows stay bitwise identical to direct single-example
//    encode() on that version (the GEMM's k-accumulation order is
//    independent of batch row count — see la/gemm.hpp).
//  * SLO-aware batching: with a per-model latency budget the flush deadline
//    and batch cap are re-decided per batch from live rolling-window
//    p95/p99 evidence (serve/adaptive_batcher.hpp); without one the classic
//    static size-or-deadline flush applies unchanged.
//  * Bounded everywhere: queues reject at capacity, admission control can
//    shed by queue depth before that (shed_fraction), and at most
//    workers + lanes coalesced batches are in flight at once, so overload
//    degrades into fast rejections instead of OOM.
//  * Observability reuses the obs:: stack: the process-wide serve.* metrics
//    of the single-model era keep recording (aggregated over lanes), plus
//    per-model histograms/counters/gauges under serve.model.<name>.*, and
//    JSONL telemetry under the "deepphi.serve.v1" schema (docs/serving.md).
//  * Graceful shutdown: shutdown() stops admission, drains every queued
//    request through the normal batch path, and joins all threads; the
//    destructor does the same.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/encoder.hpp"
#include "obs/telemetry.hpp"
#include "parallel/thread_pool.hpp"
#include "obs/histogram.hpp"
#include "serve/adaptive_batcher.hpp"
#include "serve/model_registry.hpp"
#include "serve/request_queue.hpp"

namespace deepphi::serve {

/// Per-model serving knobs. ServeConfig's top-level fields provide the
/// defaults for every lane; a per_model entry overrides them for one name.
struct ModelServeConfig {
  la::Index min_batch = 1;
  la::Index max_batch = 64;
  double max_delay_s = 2e-3;
  double delay_cap_s = 0.02;
  std::size_t queue_capacity = 1024;
  /// Queue-depth admission threshold as a fraction of capacity: submits are
  /// shed once depth reaches `shed_fraction * capacity`. 1.0 disables the
  /// early shed (the queue still rejects at capacity).
  double shed_fraction = 1.0;
  /// False pins the static size-or-deadline policy even when the model has
  /// a latency budget.
  bool adaptive = true;
};

struct ServeConfig {
  /// Largest coalesced batch (rows per Encoder::encode call).
  la::Index max_batch = 64;
  /// Deadline flush: a request waits at most this long in the queue before
  /// its batch is dispatched, full or not. 0 flushes immediately (batching
  /// then only coalesces requests that are already waiting). With a
  /// per-model budget and adaptive batching this is only the cold-start
  /// value — the adaptive batcher re-decides it per batch.
  double max_delay_s = 2e-3;
  /// Queue slots per model; try_push beyond this rejects (backpressure).
  std::size_t queue_capacity = 1024;
  /// Compute workers shared by every lane. 1 already pipelines compute with
  /// batch collection; more lets independent batches overlap (each encode()
  /// call runs its own OpenMP region, so large counts oversubscribe cores).
  unsigned workers = 1;
  /// Optional JSONL sink for per-batch and summary records
  /// (schema "deepphi.serve.v1"). Must outlive the server.
  obs::TelemetrySink* telemetry = nullptr;

  // Adaptive-batching defaults (see ModelServeConfig / BatchPolicy).
  la::Index min_batch = 1;
  double delay_cap_s = 0.02;
  double shed_fraction = 1.0;
  bool adaptive = true;
  /// Rolling-window geometry feeding the adaptive decisions.
  double window_interval_s = 0.25;
  std::size_t window_intervals = 8;

  /// Per-model overrides by registry name (copy lane_defaults() and edit).
  std::map<std::string, ModelServeConfig> per_model;

  /// The ModelServeConfig the top-level fields imply.
  ModelServeConfig lane_defaults() const;
};

/// Latency summary of an obs::Histogram snapshot: p50/p95/p99 are histogram
/// quantiles (≤ ~1% relative error); count/mean/max are exact.
struct LatencySummary {
  std::int64_t count = 0;
  double mean_s = 0;
  double p50_s = 0;
  double p95_s = 0;
  double p99_s = 0;
  double max_s = 0;
};

/// Summary of any latency snapshot — the server's stats(), the serving CLI's
/// per-stage shutdown report and the stats endpoint all go through it.
LatencySummary summarize(const obs::HistogramSnapshot& snapshot);

/// Aggregate view of a server's (or one lane's) lifetime, cheap to snapshot
/// at any point.
struct ServerStats {
  std::int64_t submitted = 0;   // admitted requests
  std::int64_t rejected = 0;    // refused (shed, queue full, post-shutdown)
  std::int64_t shed = 0;        // of rejected: depth-based admission control
  std::int64_t completed = 0;   // futures fulfilled with a result
  std::int64_t failed = 0;      // futures failed by a compute error
  std::int64_t batches = 0;     // coalesced batches dispatched
  double mean_batch_size = 0;   // completed / batches
  std::size_t peak_queue_depth = 0;
  double total_compute_s = 0;   // sum of per-batch encode wall time
  double total_queue_wait_s = 0;  // sum over batches of oldest-request wait
  LatencySummary latency;       // end-to-end submit -> result-ready
};

class InferenceServer {
 public:
  /// Serves every model registered in `registry`, which must outlive the
  /// server. Models may be added to the registry only before construction
  /// (lanes are fixed); publish() works at any time.
  InferenceServer(ModelRegistry& registry, ServeConfig config);

  /// Single-model convenience (the PR-3 API): wraps `model` in an internal
  /// registry under the name "default". `model` is shared and read-only; it
  /// must outlive the server and its encode() must be thread-safe (every
  /// core::Encoder in this repo is).
  InferenceServer(const core::Encoder& model, ServeConfig config);

  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Submits one example to `model` (input size must equal that model's
  /// input_dim(); anything else throws immediately — a caller bug, not
  /// load). The future yields the encoded row plus the registry version
  /// that served it, or throws util::Error if the server rejected the
  /// request (shed / queue full / shutting down) or the model failed.
  std::future<Reply> submit(const std::string& model, std::vector<float> input);

  /// Single-lane convenience: routes to the only served model; throws when
  /// the server lanes more than one.
  std::future<Reply> submit(std::vector<float> input);

  /// Convenience overload: copies `row[0..dim)` (single-lane servers).
  std::future<Reply> submit(const float* row, la::Index dim);

  /// Stops admission, drains every queued request through the batch path,
  /// waits for in-flight compute, emits the telemetry summary, and joins all
  /// threads. Idempotent; called by the destructor.
  void shutdown();

  /// Lifetime stats aggregated over every lane.
  ServerStats stats() const;
  /// One lane's lifetime stats; throws for unknown names.
  ServerStats stats(const std::string& model) const;

  /// Served model names, sorted.
  std::vector<std::string> models() const;

  /// The registry this server serves from (the admin swap endpoint
  /// publishes through this).
  ModelRegistry& registry() { return *registry_; }
  const ModelRegistry& registry() const { return *registry_; }

  const ServeConfig& config() const { return config_; }

  /// "fp32" or "int8" when every lane agrees, "mixed" otherwise — recorded
  /// in telemetry and surfaced by the serving CLI/bench.
  const char* precision() const;

  /// Requests currently waiting (single-lane convenience / by name).
  std::size_t queue_depth() const;
  std::size_t queue_depth(const std::string& model) const;

  /// The most recent adaptive decision a lane's batcher made (tests, CLI).
  BatchDecision last_decision(const std::string& model) const;

 private:
  struct Lane;

  void init_lanes();
  void batcher_loop(Lane& lane);
  void run_batch(Lane& lane, ModelVersion version, std::vector<Request> batch);
  void emit_lane_config(const Lane& lane);
  void emit_summary();
  Lane& lane(const std::string& model) const;

  // Set only by the legacy single-model constructor, which needs a registry
  // of its own to wrap the borrowed Encoder.
  std::unique_ptr<ModelRegistry> owned_registry_;
  ModelRegistry* registry_ = nullptr;
  const ServeConfig config_;
  std::map<std::string, std::unique_ptr<Lane>> lanes_;
  par::ThreadPool pool_;
  obs::Histogram latency_;  // aggregate end-to-end, all lanes

  // In-flight batch throttle: collection stops while `max_inflight_` batches
  // are queued or running on the pool, bounding the memory pinned by
  // gathered-but-uncomputed matrices (workers + one per lane).
  int max_inflight_ = 2;
  mutable std::mutex inflight_mutex_;
  std::condition_variable inflight_cv_;
  int inflight_ = 0;

  std::atomic<bool> shutdown_started_{false};
  std::mutex shutdown_mutex_;
  bool shutdown_done_ = false;
};

}  // namespace deepphi::serve
