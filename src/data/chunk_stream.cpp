#include "data/chunk_stream.hpp"

#include <algorithm>
#include <chrono>

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace deepphi::data {

namespace {

using Clock = std::chrono::steady_clock;

double since_s(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::int64_t since_ns(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              start)
      .count();
}

}  // namespace

std::vector<RowShard> shard_rows(Index rows, int shards) {
  DEEPPHI_CHECK_MSG(rows >= 0, "shard_rows: negative row count " << rows);
  DEEPPHI_CHECK_MSG(shards >= 1, "shard_rows: shards must be >= 1, got " << shards);
  std::vector<RowShard> out(static_cast<std::size_t>(shards));
  const Index base = rows / shards;
  const Index extra = rows % shards;
  Index begin = 0;
  for (int s = 0; s < shards; ++s) {
    const Index count = base + (static_cast<Index>(s) < extra ? 1 : 0);
    out[static_cast<std::size_t>(s)] = RowShard{begin, count};
    begin += count;
  }
  return out;
}

std::uint64_t pass_shuffle_seed(std::uint64_t seed, int pass) {
  return seed ^
         (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(pass) + 1));
}

ChunkStream::ChunkStream(const StreamingSource& source, ChunkStreamConfig config)
    : source_(source), config_(config) {
  DEEPPHI_CHECK_MSG(config_.chunk_examples >= 1,
                    "chunk_examples must be >= 1, got " << config_.chunk_examples);
  DEEPPHI_CHECK_MSG(config_.ring_chunks >= 1,
                    "ring_chunks must be >= 1, got " << config_.ring_chunks);
  DEEPPHI_CHECK_MSG(
      config_.shuffle_window == 0 ||
          config_.shuffle_window >= config_.chunk_examples,
      "shuffle_window must be 0 (off) or >= chunk_examples ("
          << config_.chunk_examples << "), got " << config_.shuffle_window);
  DEEPPHI_CHECK_MSG(config_.passes >= 1,
                    "passes must be >= 1, got " << config_.passes);
  if (config_.shuffle_window > 0)
    shuffle_.emplace(source_.rows(), config_.shuffle_window,
                     pass_shuffle_seed(config_.shuffle_seed, 0));
  if (config_.background) {
    DEEPPHI_DEBUG() << "chunk stream: background loading thread, ring of "
                    << config_.ring_chunks << " x " << config_.chunk_examples
                    << "-example chunks"
                    << (shuffle_ ? ", shuffled" : ", in-order");
    loader_ = std::thread([this] { load(); });
  }
}

ChunkStream::~ChunkStream() {
  // Release the loader from whichever wait holds it, then join it: the
  // members it touches are destroyed only after this body returns, even
  // when the consumer abandons the stream with the loader still ahead.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  loader_cv_.notify_all();
  if (loader_.joinable()) loader_.join();
}

void ChunkStream::load() {
  // The paper's Fig. 5 loading thread — named so the profiler's host
  // timeline shows its chunk materialization next to compute.
  obs::set_thread_name("loading");
  static obs::Gauge& peak = obs::gauge("pipeline.peak_buffered");
  std::exception_ptr error;
  try {
    for (;;) {
      std::optional<la::Matrix> chunk;
      {
        DEEPPHI_PROFILE_SCOPE("pipeline.produce");
        chunk = produce();
      }
      if (!chunk) break;
      std::size_t staged = 0;
      {
        DEEPPHI_PROFILE_SCOPE("pipeline.push_wait");
        std::unique_lock<std::mutex> lock(mutex_);
        loader_cv_.wait(lock, [this] {
          return stopping_ || ring_.size() < config_.ring_chunks;
        });
        if (stopping_) break;
        ring_.push_back(std::move(*chunk));
        staged = ring_.size();
      }
      consumer_cv_.notify_one();
      peak.set_max(static_cast<double>(staged));
    }
  } catch (...) {
    // A throwing source must not escape the thread (std::terminate): the
    // consumer rethrows it after the chunks staged before it.
    error = std::current_exception();
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    loader_error_ = error;
    loader_done_ = true;
  }
  consumer_cv_.notify_one();
}

bool ChunkStream::pooled(Index rows) const {
  return rows == config_.chunk_examples ? !pool_.empty()
                                        : short_.rows() == rows;
}

la::Matrix ChunkStream::acquire(Index rows) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (pooled(rows)) {
      if (rows != config_.chunk_examples) return std::move(short_);
      la::Matrix buf = std::move(pool_.back());
      pool_.pop_back();
      return buf;
    }
  }
  static obs::Counter& allocated = obs::counter("data.chunk_buffers_allocated");
  allocated.add();
  return la::Matrix::uninitialized(rows, source_.dim());
}

void ChunkStream::recycle(la::Matrix buffer) {
  // A pass has at most two chunk sizes: full, and the short last chunk,
  // which is the same size every pass.
  if (buffer.cols() != source_.dim()) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (buffer.rows() == config_.chunk_examples) {
      if (pool_.size() >= config_.ring_chunks + 2) return;
      pool_.push_back(std::move(buffer));
    } else {
      if (buffer.rows() != source_.rows() % config_.chunk_examples ||
          short_.rows() != 0)
        return;
      short_ = std::move(buffer);
    }
  }
  loader_cv_.notify_one();
}

std::optional<la::Matrix> ChunkStream::produce() {
  // Runs on the loading thread in background mode, or inline otherwise.
  const Index n = source_.rows();
  if (cursor_ >= n) {
    if (n == 0 || pass_ + 1 >= config_.passes) return std::nullopt;
    // The next pass starts with a fresh shuffle plan.
    ++pass_;
    cursor_ = 0;
    if (shuffle_)
      shuffle_.emplace(n, config_.shuffle_window,
                       pass_shuffle_seed(config_.shuffle_seed, pass_));
  }
  const Index count = std::min(config_.chunk_examples, n - cursor_);
  {
    // Ahead of the consumer's pass, stage only the next pass's first chunk,
    // and only into a recycled buffer: crossing a pass boundary early then
    // keeps no more buffers alive than a pass does. (Inline staging is never
    // ahead.)
    const bool first = cursor_ == 0;
    std::unique_lock<std::mutex> lock(mutex_);
    loader_cv_.wait(lock, [&] {
      return stopping_ || pass_ == consumer_pass_ ||
             (pass_ == consumer_pass_ + 1 && first && pooled(count));
    });
    if (stopping_) return std::nullopt;
  }

  static obs::Histogram& io_hist = obs::histogram("data.stage.io");
  static obs::Histogram& shuffle_hist = obs::histogram("data.stage.shuffle");
  static obs::Histogram& decode_hist = obs::histogram("data.stage.decode");

  // io: hint the NEXT kPrefetchChunks chunks' rows so the kernel's readahead
  // overlaps their page-in with this chunk's decode + the consumer's compute.
  // Shuffled stream positions gather from anywhere in their window, so the
  // hint is rounded out to window boundaries — the full windows overlapping
  // the upcoming span cover every row those gathers will touch.
  {
    const auto t0 = Clock::now();
    Index ahead_begin = cursor_ + count;
    Index ahead_end =
        std::min(n, ahead_begin + kPrefetchChunks * config_.chunk_examples);
    if (shuffle_ && ahead_end > ahead_begin) {
      const Index w = shuffle_->window();
      ahead_begin = (ahead_begin / w) * w;
      ahead_end = std::min(n, ((ahead_end + w - 1) / w) * w);
    }
    if (ahead_end > ahead_begin)
      source_.prefetch(ahead_begin, ahead_end - ahead_begin);
    io_hist.record(since_s(t0));
  }

  // shuffle: plan this chunk's source rows. Depends only on
  // (rows, window, seed) — identical for every backing.
  if (shuffle_) {
    const auto t0 = Clock::now();
    shuffle_->indices(cursor_, count, index_buf_);
    shuffle_hist.record(since_s(t0));
  }

  // decode: materialize float32 rows into a pooled buffer, taken as late as
  // possible so the consumer has had time to recycle one.
  const auto t0 = Clock::now();
  la::Matrix chunk = acquire(count);
  if (shuffle_)
    source_.copy_rows(index_buf_, chunk);
  else
    source_.copy_rows(cursor_, count, chunk);
  decode_hist.record(since_s(t0));

  cursor_ += count;
  return chunk;
}

std::optional<la::Matrix> ChunkStream::next() {
  DEEPPHI_PROFILE_SCOPE("chunk_stream.next");
  if (consumer_pass_ >= config_.passes) return std::nullopt;
  if (consumed_in_pass_ == total_chunks()) {
    // End of this pass; the loader may already have staged the next one's
    // first chunk, and may now go on.
    consumed_in_pass_ = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++consumer_pass_;
    }
    loader_cv_.notify_one();
    return std::nullopt;
  }
  std::optional<la::Matrix> chunk;
  std::size_t staged = 0;
  if (config_.background) {
    // Only time parked on an empty ring counts as a stall, so taking an
    // already staged chunk costs the metric nothing.
    std::unique_lock<std::mutex> lock(mutex_);
    if (ring_.empty() && !loader_done_) {
      const auto t0 = Clock::now();
      consumer_cv_.wait(lock, [this] { return !ring_.empty() || loader_done_; });
      consumer_wait_ns_.fetch_add(since_ns(t0), std::memory_order_relaxed);
    }
    if (!ring_.empty()) {
      chunk.emplace(std::move(ring_.front()));
      ring_.pop_front();
      staged = ring_.size();
    } else if (loader_error_) {
      std::rethrow_exception(loader_error_);
    }
    lock.unlock();
    loader_cv_.notify_one();
  } else {
    const auto t0 = Clock::now();
    chunk = produce();
    consumer_wait_ns_.fetch_add(since_ns(t0), std::memory_order_relaxed);
  }
  if (chunk) {
    ++consumed_in_pass_;
    static obs::Counter& loaded = obs::counter("data.chunks_loaded");
    loaded.add();
    static obs::Gauge& occupancy = obs::gauge("data.ring_occupancy");
    occupancy.set(static_cast<double>(staged));
  }
  return chunk;
}

std::size_t ChunkStream::buffered() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_.size();
}

double ChunkStream::consumer_wait_seconds() const {
  return static_cast<double>(
             consumer_wait_ns_.load(std::memory_order_relaxed)) *
         1e-9;
}

Index ChunkStream::total_chunks() const {
  return (source_.rows() + config_.chunk_examples - 1) / config_.chunk_examples;
}

}  // namespace deepphi::data
