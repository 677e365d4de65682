// Chunked data feeding (paper Fig. 5): the training set is consumed in large
// chunks; with a background loading thread the next chunk is materialized
// (and, on the simulated device, transferred) while the current one trains.
//
// The loader runs a staged pipeline per chunk, in order:
//
//   io      — readahead hint for the rows the NEXT prefetch_chunks chunks
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
// ring_chunks + 2 full-size buffers instead of allocating per chunk (the
// ragged tail chunk, at most one per pass, still allocates fresh); the
// "data.chunk_buffers_allocated" counter counts every fresh buffer.
//
// A stream makes `passes` passes over the source (a trainer's epochs) back
// to back, with one loader and one buffer pool: the loader stages pass p+1's
// first chunk, in a buffer the consumer recycled, while the consumer trains
// pass p's last ones, so of a whole run only the first chunk is decoded
// while the consumer waits. It stages no more of pass p+1 until the
// consumer gets there, so a pass boundary needs no buffer a pass does not.
//
// The functional side is real: in background mode a par::ChunkPipeline runs
// an actual loader thread that stages chunks ahead of the consumer. The
// simulated-timing side lives in phi::Offload; the Trainer couples both.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "data/shuffle.hpp"
#include "data/streaming_source.hpp"
#include "parallel/pipeline.hpp"

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
  std::size_t ring_chunks = 4;   // pipeline depth in chunks
  /// Windowed-shuffle span in examples; 0 = stream in source order. Must be
  /// >= chunk_examples otherwise, so a chunk draws from <= 2 windows. The
  /// plan depends only on (rows, window, seed) — never on the backing.
  Index shuffle_window = 0;
  /// Pass p shuffles with a fresh plan seeded pass_shuffle_seed(shuffle_seed,
  /// p), so each pass's order is a function of (rows, window, seed, p).
  std::uint64_t shuffle_seed = 0;
  /// Passes over the source, streamed back to back (>= 1).
  int passes = 1;
  /// Chunks of readahead the io stage hints to the source each produce.
  Index prefetch_chunks = 2;
};

/// The shuffle seed of pass `pass` of a stream seeded `seed`.
std::uint64_t pass_shuffle_seed(std::uint64_t seed, int pass);

class ChunkStream {
 public:
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
  /// full-size chunk buffers are pooled.
  void recycle(la::Matrix buffer);

  /// Chunks buffered ahead of the consumer by the Fig. 5 loading thread
  /// (0 in synchronous mode) — the ring occupancy telemetry records.
  std::size_t buffered() const;

  /// Total seconds next() spent blocked waiting for data — in background
  /// mode the time parked on an empty ring (uncontended pops count as zero),
  /// in synchronous mode the full staging cost. Feeds the run summary's
  /// overlap_efficiency.
  double consumer_wait_seconds() const;

  Index chunk_examples() const { return config_.chunk_examples; }
  /// Chunks in one pass.
  Index total_chunks() const;

 private:
  std::optional<la::Matrix> produce();
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

  // Buffer pool: consumed full-size chunks come back via recycle() and the
  // decode stage re-uses them (bounded at ring_chunks + 2 — ring plus one in
  // flight on each side — so an over-eager consumer cannot grow it).
  // pool_mutex_ also guards the consumer's pass (written by next() only)
  // and stopping_: a loader ahead of the consumer's pass waits on
  // loader_cv_ for a recycled buffer or for the consumer to catch up, and
  // ~ChunkStream sets stopping_ to release it.
  mutable std::mutex pool_mutex_;
  std::condition_variable loader_cv_;
  std::vector<la::Matrix> pool_;
  int consumer_pass_ = 0;
  bool stopping_ = false;

  std::atomic<std::int64_t> consumer_wait_ns_{0};

  // Declared last (and reset first in ~ChunkStream): the loader thread runs
  // produce(), which touches every member above, so it must be joined before
  // any of them is destroyed — including when the consumer abandons the
  // stream mid-pass with the loader still ahead.
  std::unique_ptr<par::ChunkPipeline<la::Matrix>> pipeline_;
};

}  // namespace deepphi::data
