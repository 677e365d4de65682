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
//  * Observability reuses the obs:: stack: per-model histograms, counters
//    and gauges under serve.model.<name>.*, the process-wide end-to-end and
//    stage histograms (serve.latency, serve.stage.*) that the stats endpoint
//    windows, and JSONL telemetry under the "deepphi.serve.v1" schema
//    (docs/serving.md).
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

#include "obs/telemetry.hpp"
#include "parallel/thread_pool.hpp"
#include "obs/histogram.hpp"
#include "serve/adaptive_batcher.hpp"
#include "serve/model_registry.hpp"
#include "serve/request_queue.hpp"

namespace deepphi::serve {

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
  /// Queue-depth admission threshold as a fraction of capacity: submits are
  /// shed once a lane's depth reaches `shed_fraction * queue_capacity`. 1.0
  /// disables the early shed (the queue still rejects at capacity).
  double shed_fraction = 1.0;
  /// False pins the static size-or-deadline policy even for models with a
  /// latency budget.
  bool adaptive = true;
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
  LatencySummary latency;       // end-to-end submit -> result-ready
};

class InferenceServer {
 public:
  /// Serves every model registered in `registry`, which must outlive the
  /// server. Models may be added to the registry only before construction
  /// (lanes are fixed); publish() works at any time.
  InferenceServer(ModelRegistry& registry, ServeConfig config);

  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Submits one example to `model` (input size must equal that model's
  /// input_dim(); anything else throws immediately — a caller bug, not
  /// load). The future yields the encoded row plus the registry version
  /// that served it, or throws util::Error if the server rejected the
  /// request (shed / queue full / shutting down) or the model failed.
  std::future<Reply> submit(const std::string& model, std::vector<float> input);

  /// Stops admission, drains every queued request through the batch path,
  /// waits for in-flight compute, emits the telemetry summary, and joins all
  /// threads. Idempotent; called by the destructor.
  void shutdown();

  /// Lifetime stats aggregated over every lane: counters summed, latency
  /// summarized from the merge of the lanes' histograms.
  ServerStats stats() const;
  /// One lane's lifetime stats; throws for unknown names.
  ServerStats stats(const std::string& model) const;

  /// The registry this server serves from (the admin swap endpoint
  /// publishes through this). Its names() are the served lanes.
  ModelRegistry& registry() { return *registry_; }

  /// Requests currently waiting in one lane's queue.
  std::size_t queue_depth(const std::string& model) const;

  /// The most recent adaptive decision a lane's batcher made (tests, CLI).
  BatchDecision last_decision(const std::string& model) const;

 private:
  struct Lane;

  void batcher_loop(Lane& lane);
  void run_batch(Lane& lane, ModelVersion version, std::vector<Request> batch);
  void emit_lane_config(const Lane& lane);
  void emit_summary();
  Lane& lane(const std::string& model) const;
  static ServerStats sum_stats(const std::vector<const Lane*>& lanes);

  ModelRegistry* registry_;
  const ServeConfig config_;
  std::map<std::string, std::unique_ptr<Lane>> lanes_;
  par::ThreadPool pool_;

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
