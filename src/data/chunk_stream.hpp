// Chunked data feeding (paper Fig. 5): the training set is consumed in large
// chunks; with a background loading thread the next chunk is materialized
// (and, on the simulated device, transferred) while the current one trains.
//
// The loader runs a staged pipeline per chunk, in order:
//
//   io      — readahead hint for the rows the NEXT kPrefetchChunks chunks
//             will decode (madvise(WILLNEED) on mmap'd shards, no-op for
//             memory sources; rounded out to shuffle-window boundaries so
//             gathers near window edges are covered too), so page faults
//             overlap with compute;
//   shuffle — deterministic windowed shuffle plan (data::WindowShuffle;
//             off when shuffle_window == 0, preserving in-order feeding);
//   decode  — materialize the chunk as float32 into a pooled buffer
//             (contiguous copy in-order, index gather when shuffled).
//
// Stage timings feed obs::histogram("data.stage.io"/"shuffle"/"decode") and
// ring occupancy feeds the "data.ring_occupancy" gauge. Consumers return
// finished chunk buffers via recycle(), so the steady state re-uses
// ring_chunks + 2 full-size buffers, plus one for a pass's short last chunk
// (the same size every pass), instead of allocating per chunk; the
// "data.chunk_buffers_allocated" counter counts every fresh buffer.
//
// A stream makes `passes` passes over the source (a trainer's epochs) back
// to back, with one loader and one buffer pool: the loader stages pass p+1's
// first chunk, in a buffer the consumer recycled, while the consumer trains
// pass p's last ones, so of a whole run only the first chunk is decoded
// while the consumer waits. It stages no more of pass p+1 until the
// consumer gets there, so a pass boundary needs no buffer a pass does not.
//
// In background mode the stream owns the loading thread: it decodes a chunk
// outside the lock, then stages it in a ring of at most ring_chunks chunks,
// so the loader runs at most ring_chunks + 1 chunks ahead of the consumer.
// One mutex guards the ring, the pool, the consumer's pass and the stop and
// done flags. A failure on the loading thread ends the stream: next() hands
// out the chunks staged before it, then rethrows it, as synchronous mode
// throws it from next() directly. The simulated-timing side is
// phi::ChunkRing on an attached phi::Cluster's cards; the Trainer couples
// both.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "data/shuffle.hpp"
#include "data/streaming_source.hpp"

namespace deepphi::data {

/// One contiguous row range of a chunk, owned by one data-parallel slot.
struct RowShard {
  Index begin = 0;  // first row (inclusive)
  Index rows = 0;   // row count (0 = this slot sits out the ragged tail)

  Index end() const { return begin + rows; }
};

/// Deterministic split of `rows` chunk rows into `shards` disjoint,
/// covering, contiguous row ranges, in row order. Row counts are balanced:
/// the first rows % shards shards take one extra row, so the split depends
/// only on (rows, shards) — never on thread counts or replica placement.
/// This is what lets one Fig. 5 ring buffer feed every replica: the trainer
/// pops one chunk and hands each replica its shard of it by row range.
/// When rows < shards the trailing shards are empty (rows == 0).
std::vector<RowShard> shard_rows(Index rows, int shards);

struct ChunkStreamConfig {
  Index chunk_examples = 10000;  // examples per chunk
  bool background = true;        // Fig. 5 loading thread on/off
  std::size_t ring_chunks = 4;   // chunks staged ahead (>= 1)
  /// Windowed-shuffle span in examples; 0 = stream in source order. Must be
  /// >= chunk_examples otherwise, so a chunk draws from <= 2 windows. The
  /// plan depends only on (rows, window, seed) — never on the backing.
  Index shuffle_window = 0;
  /// Pass p shuffles with a fresh plan seeded pass_shuffle_seed(shuffle_seed,
  /// p), so each pass's order is a function of (rows, window, seed, p).
  std::uint64_t shuffle_seed = 0;
  /// Passes over the source, streamed back to back (>= 1).
  int passes = 1;
};

/// The shuffle seed of pass `pass` of a stream seeded `seed`.
std::uint64_t pass_shuffle_seed(std::uint64_t seed, int pass);

class ChunkStream {
 public:
  /// Chunks of readahead the io stage hints to the source per chunk.
  static constexpr Index kPrefetchChunks = 2;

  /// Streams `source` config.passes times, each pass front to back (or
  /// window-shuffled) in chunks of chunk_examples (a pass's final chunk may
  /// be short). `source` must outlive the stream.
  ChunkStream(const StreamingSource& source, ChunkStreamConfig config);
  ~ChunkStream();

  ChunkStream(const ChunkStream&) = delete;
  ChunkStream& operator=(const ChunkStream&) = delete;

  /// Next chunk (rows×dim matrix) of the current pass, or nullopt once when
  /// the pass is done; the call after that starts the next pass. After the
  /// last pass every call returns nullopt.
  std::optional<la::Matrix> next();

  /// Hands a consumed chunk's buffer back for re-use by the decode stage.
  /// Optional (dropping the matrix is correct too, just re-allocates); only
  /// buffers of the stream's two chunk sizes are pooled.
  void recycle(la::Matrix buffer);

  /// Chunks buffered ahead of the consumer by the Fig. 5 loading thread
  /// (0 in synchronous mode) — the ring occupancy telemetry records.
  std::size_t buffered() const;

  /// Total seconds next() spent blocked waiting for data — in background
  /// mode the time parked on an empty ring (a staged chunk costs nothing),
  /// in synchronous mode the full staging cost. Feeds the run summary's
  /// overlap_efficiency.
  double consumer_wait_seconds() const;

  Index chunk_examples() const { return config_.chunk_examples; }
  /// Chunks in one pass.
  Index total_chunks() const;

 private:
  void load();
  std::optional<la::Matrix> produce();
  bool pooled(Index rows) const;
  la::Matrix acquire(Index rows);

  const StreamingSource& source_;
  ChunkStreamConfig config_;
  // Producer side (the loader thread in background mode).
  int pass_ = 0;
  Index cursor_ = 0;
  std::optional<WindowShuffle> shuffle_;
  std::vector<Index> index_buf_;  // loader-thread scratch for gather plans
  // Consumer side: how many of its pass's chunks next() has handed out,
  // which is how it finds a pass's end without waiting on the loader.
  Index consumed_in_pass_ = 0;

  // mutex_ guards ring_ through loader_error_. The loader waits on
  // loader_cv_ for ring room, for the consumer to reach its pass, or for a
  // recycled buffer; the consumer waits on consumer_cv_ for a staged chunk
  // or for the loader to finish. ~ChunkStream sets stopping_ to release the
  // loader from either wait.
  mutable std::mutex mutex_;
  std::condition_variable loader_cv_;
  std::condition_variable consumer_cv_;
  std::deque<la::Matrix> ring_;
  // Buffer pool, refilled by recycle(): full-size buffers bounded at
  // ring_chunks + 2 (ring plus one in flight on each side) so an over-eager
  // consumer cannot grow it, and at most one short buffer (empty if none).
  std::vector<la::Matrix> pool_;
  la::Matrix short_;
  int consumer_pass_ = 0;  // written by next() only
  bool stopping_ = false;
  bool loader_done_ = false;
  std::exception_ptr loader_error_;  // what ended the loader early, if any

  std::atomic<std::int64_t> consumer_wait_ns_{0};
  std::thread loader_;  // not joinable in synchronous mode
};

}  // namespace deepphi::data
