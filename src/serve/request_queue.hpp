// Bounded MPMC queue of pending inference requests — the admission point of
// the serving engine, and the place its two load-shaping policies live:
//
//  * Backpressure: try_push() refuses when the queue is at capacity (or the
//    server is shutting down), so overload turns into fast rejections the
//    client can retry against, instead of unbounded memory growth.
//  * Dynamic micro-batching: collect() blocks for work, then keeps waiting
//    until either `max_batch` requests are queued or the OLDEST waiting
//    request has aged `max_delay` — the classic size-or-deadline flush that
//    bounds tail latency while still coalescing bursts into GEMM-friendly
//    batches (the paper's Fig. 9 lesson applied to inference).
//
// Producers are client threads calling try_push; consumers are batcher
// threads calling collect. Both sides are safe to run concurrently from any
// number of threads (one mutex, two condition variables).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace deepphi::serve {

/// What a completed request resolves to: the encoded row plus the registry
/// version of the model that actually served it — under a hot swap,
/// in-flight batches finish on the version they were collected under, and
/// the version field is how callers (and the hot-swap tests) know which
/// model's direct encode() a response must be bitwise equal to. Versions
/// start at 1 when a model is registered.
struct Reply {
  std::vector<float> row;
  std::uint64_t version = 1;
};

/// One in-flight inference request: the input row, the promise its caller
/// holds the future of, and its admission timestamps (profiler clock for
/// stats, steady_clock for the deadline wait).
struct Request {
  std::vector<float> input;
  std::promise<Reply> result;
  double enqueue_s = 0;
  std::chrono::steady_clock::time_point enqueue_tp{};
};

class RequestQueue {
 public:
  /// `depth_gauge` names the registry gauge tracking this queue's depth —
  /// the server's lanes pass "serve.model.<name>.queue_depth".
  RequestQueue(std::size_t capacity, std::string depth_gauge);

  /// Admits `r` unless the queue is full or closed; returns whether it was
  /// admitted (the caller fails the promise on rejection — the queue never
  /// touches it).
  bool try_push(Request&& r);

  /// Blocks until at least one request is queued (or the queue is closed),
  /// then waits until `max_batch` requests are available OR the oldest
  /// request has waited `max_delay_s`, and pops up to `max_batch` requests
  /// in FIFO order. After close() the deadline wait is skipped: remaining
  /// requests drain immediately. An empty result means closed-and-drained —
  /// the consumer's signal to exit.
  std::vector<Request> collect(std::size_t max_batch, double max_delay_s);

  /// Stops admission (try_push fails from now on) and wakes all collectors
  /// so queued requests drain. Idempotent.
  void close();

  std::size_t size() const;
  bool closed() const;

  /// Peak queue depth observed at push time (for the run summary).
  std::size_t peak_size() const;

 private:
  const std::size_t capacity_;
  obs::Gauge& depth_gauge_;
  mutable std::mutex mutex_;
  std::condition_variable nonempty_;
  std::deque<Request> items_;
  std::size_t peak_ = 0;
  bool closed_ = false;
};

}  // namespace deepphi::serve
