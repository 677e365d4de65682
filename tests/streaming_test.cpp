// Tests for the out-of-core streaming substrate (docs/data_pipeline.md):
// manifest IO, the mmap'd ShardedDataset (decode parity with the in-memory
// Dataset for f32 and u8, shard-boundary spans, gathers, corruption and
// truncation errors), the deterministic WindowShuffle, the typed IoError
// paths of the DPDS/IDX loaders, a decode failure on the loading thread
// reaching the consumer, and the headline contract — training from
// shards is bitwise identical to training in memory, for a plain Trainer
// run and every replicas × accumulation_steps factorization, with the
// windowed shuffle on or off.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/sparse_autoencoder.hpp"
#include "core/rbm.hpp"
#include "core/trainer.hpp"
#include "data/binary_io.hpp"
#include "data/chunk_stream.hpp"
#include "data/dataset.hpp"
#include "data/idx_io.hpp"
#include "data/io_util.hpp"
#include "data/patches.hpp"
#include "data/sharded_dataset.hpp"
#include "data/shuffle.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "scratch_dir.hpp"

namespace deepphi::data {
namespace {

namespace fs = std::filesystem;

Dataset numbered_dataset(Index n, Index dim) {
  Dataset d(n, dim);
  for (Index i = 0; i < n; ++i)
    for (Index j = 0; j < dim; ++j)
      d.example(i)[j] = static_cast<float>(i * dim + j);
  return d;
}

// --- manifest IO ---

TEST(Manifest, WriteReadRoundTrip) {
  const test::ScratchDir scratch;
  const std::string& dir = scratch.path();
  Manifest m;
  m.rows = 10;
  m.dim = 4;
  m.dtype = ShardDtype::kU8;
  m.shards.push_back({"a.bin", 6, 0, 24, 0x0123456789abcdefULL});
  m.shards.push_back({"b.bin", 4, 8, 16, 0xfedcba9876543210ULL});
  const std::string path = dir + "/manifest.json";
  write_manifest(m, path);
  const Manifest r = read_manifest(path);
  EXPECT_EQ(r.rows, 10);
  EXPECT_EQ(r.dim, 4);
  EXPECT_EQ(r.dtype, ShardDtype::kU8);
  ASSERT_EQ(r.shards.size(), 2u);
  EXPECT_EQ(r.shards[0].path, "a.bin");
  EXPECT_EQ(r.shards[0].checksum, 0x0123456789abcdefULL);
  EXPECT_EQ(r.shards[1].offset, 8u);
  EXPECT_EQ(r.shards[1].checksum, 0xfedcba9876543210ULL);
  EXPECT_EQ(r.total_bytes(), 40u);
}

TEST(Manifest, RejectsWrongSchemaAndMalformedFiles) {
  const test::ScratchDir scratch;
  const std::string& dir = scratch.path();
  const std::string path = dir + "/manifest.json";
  {
    std::ofstream(path) << "{\"schema\":\"something.else.v9\"}";
    EXPECT_THROW(read_manifest(path), IoError);
  }
  {
    std::ofstream(path) << "this is not json";
    try {
      read_manifest(path);
      FAIL() << "malformed JSON must throw";
    } catch (const IoError& e) {
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
    }
  }
  EXPECT_THROW(read_manifest(dir + "/does_not_exist.json"), IoError);
}

TEST(Manifest, RejectsRowCoverageMismatch) {
  const test::ScratchDir scratch;
  const std::string& dir = scratch.path();
  Manifest m;
  m.rows = 10;  // but the single shard only covers 6
  m.dim = 2;
  m.shards.push_back({"a.bin", 6, 0, 48, 0});
  const std::string path = dir + "/manifest.json";
  write_manifest(m, path);
  try {
    read_manifest(path);
    FAIL() << "row coverage mismatch must throw";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("sum of shard rows"),
              std::string::npos);
  }
}

TEST(Manifest, RejectsByteCountMismatch) {
  const test::ScratchDir scratch;
  const std::string& dir = scratch.path();
  Manifest m;
  m.rows = 6;
  m.dim = 2;
  m.shards.push_back({"a.bin", 6, 0, 47, 0});  // 6*2*4 = 48, not 47
  const std::string path = dir + "/manifest.json";
  write_manifest(m, path);
  try {
    read_manifest(path);
    FAIL() << "byte count mismatch must throw";
  } catch (const IoError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("47"), std::string::npos);
    EXPECT_NE(what.find("48"), std::string::npos);
  }
}

// --- write_sharded + ShardedDataset decode parity ---

TEST(ShardedDataset, F32RoundTripMatchesSource) {
  const test::ScratchDir scratch;
  const std::string& dir = scratch.path();
  const Dataset d = numbered_dataset(103, 5);
  ShardWriteOptions opts;
  opts.rows_per_shard = 17;  // ragged: 7 shards, last one short
  const std::string manifest = write_sharded(d, dir, opts);
  const ShardedDataset s = ShardedDataset::open(manifest);
  EXPECT_EQ(s.rows(), 103);
  EXPECT_EQ(s.dim(), 5);
  EXPECT_EQ(s.shard_count(), 7);

  // Whole-set contiguous read.
  la::Matrix all = la::Matrix::uninitialized(103, 5);
  s.copy_rows(0, 103, all);
  EXPECT_TRUE(all.approx_equal(d.matrix(), 0.0f, 0.0f));

  // A span crossing two shard boundaries (rows 15..40 span shards 0,1,2).
  la::Matrix span = la::Matrix::uninitialized(25, 5);
  s.copy_rows(15, 25, span);
  la::Matrix want = la::Matrix::uninitialized(25, 5);
  d.copy_rows(15, 25, want);
  EXPECT_TRUE(span.approx_equal(want, 0.0f, 0.0f));

  // Gather across shards, unordered with repeats.
  const std::vector<Index> idx = {102, 0, 17, 16, 50, 50};
  la::Matrix got = la::Matrix::uninitialized(6, 5);
  s.copy_rows(idx, got);
  la::Matrix ref = la::Matrix::uninitialized(6, 5);
  d.copy_rows(idx, ref);
  EXPECT_TRUE(got.approx_equal(ref, 0.0f, 0.0f));

  const SourceInfo info = s.info();
  EXPECT_EQ(info.kind, "sharded");
  EXPECT_EQ(info.format, "f32");
  EXPECT_EQ(info.bytes, 103u * 5u * 4u);
}

TEST(ShardedDataset, U8RoundTripMatchesIdxDecode) {
  // Values that are exact u8 quantization points: k/255. A u8 shard must
  // decode them bit-for-bit the way the IDX loader does.
  Dataset d(64, 3);
  for (Index i = 0; i < d.size(); ++i)
    for (Index j = 0; j < d.dim(); ++j)
      d.example(i)[j] =
          static_cast<float>((i * d.dim() + j) % 256) / 255.0f;
  const test::ScratchDir scratch;
  const std::string& dir = scratch.path();
  ShardWriteOptions opts;
  opts.rows_per_shard = 10;
  opts.dtype = ShardDtype::kU8;
  const std::string manifest = write_sharded(d, dir, opts);
  const ShardedDataset s = ShardedDataset::open(manifest);
  EXPECT_EQ(s.info().format, "u8");
  EXPECT_EQ(s.info().bytes, 64u * 3u);  // 1 byte per element on media
  la::Matrix all = la::Matrix::uninitialized(64, 3);
  s.copy_rows(0, 64, all);
  EXPECT_TRUE(all.approx_equal(d.matrix(), 0.0f, 0.0f));
}

TEST(ShardedDataset, ChecksumVerifyDetectsCorruption) {
  const test::ScratchDir scratch;
  const std::string& dir = scratch.path();
  const Dataset d = numbered_dataset(20, 2);
  ShardWriteOptions opts;
  opts.rows_per_shard = 10;
  const std::string manifest = write_sharded(d, dir, opts);

  // Flip one byte in the middle of the second shard.
  {
    std::fstream f(dir + "/shard-0001.bin",
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(13);
    char b;
    f.seekg(13);
    f.get(b);
    b = static_cast<char>(b ^ 0x40);
    f.seekp(13);
    f.put(b);
  }

  ShardedDataset::OpenOptions verify;
  verify.verify_checksums = true;
  try {
    ShardedDataset::open(manifest, verify);
    FAIL() << "corrupt shard must fail checksum verification";
  } catch (const IoError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("shard-0001.bin"), std::string::npos);
    EXPECT_NE(what.find("corrupt"), std::string::npos);
  }
  // Without verification the open succeeds (lazy page-cache reads).
  EXPECT_NO_THROW(ShardedDataset::open(manifest));
}

TEST(ShardedDataset, TruncatedShardNamesExpectedAndActualBytes) {
  const test::ScratchDir scratch;
  const std::string& dir = scratch.path();
  const Dataset d = numbered_dataset(20, 2);
  ShardWriteOptions opts;
  opts.rows_per_shard = 10;
  const std::string manifest = write_sharded(d, dir, opts);
  fs::resize_file(dir + "/shard-0001.bin", 30);  // needs 10*2*4 = 80
  try {
    ShardedDataset::open(manifest);
    FAIL() << "truncated shard must throw";
  } catch (const IoError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("shard-0001.bin"), std::string::npos);
    EXPECT_NE(what.find("expected 80 bytes"), std::string::npos);
    EXPECT_NE(what.find("got 30"), std::string::npos);
  }
}

TEST(ShardedDataset, MissingShardFileThrows) {
  const test::ScratchDir scratch;
  const std::string& dir = scratch.path();
  const Dataset d = numbered_dataset(20, 2);
  ShardWriteOptions opts;
  opts.rows_per_shard = 10;
  const std::string manifest = write_sharded(d, dir, opts);
  fs::remove(dir + "/shard-0000.bin");
  try {
    ShardedDataset::open(manifest);
    FAIL() << "missing shard must throw";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("shard-0000.bin"), std::string::npos);
  }
}

TEST(ShardedDataset, EmptySourceWritesEmptyManifest) {
  const test::ScratchDir scratch;
  const std::string& dir = scratch.path();
  const Dataset d(0, 4);
  const std::string manifest = write_sharded(d, dir);
  const ShardedDataset s = ShardedDataset::open(manifest);
  EXPECT_EQ(s.rows(), 0);
  EXPECT_EQ(s.dim(), 4);
  EXPECT_EQ(s.shard_count(), 0);
  EXPECT_TRUE(s.empty());
}

// --- WindowShuffle ---

TEST(WindowShuffle, IsAWindowLocalBijection) {
  const Index rows = 103, window = 10;
  const WindowShuffle shuffle(rows, window, 7);
  std::set<Index> seen;
  for (Index pos = 0; pos < rows; ++pos) {
    const Index src = shuffle.index(pos);
    // Stays inside its window (the readahead contract)...
    const Index w = pos / window;
    EXPECT_GE(src, w * window);
    EXPECT_LT(src, std::min(rows, (w + 1) * window));
    // ...and is hit exactly once (the bijection contract).
    EXPECT_TRUE(seen.insert(src).second) << "duplicate source row " << src;
  }
  EXPECT_EQ(static_cast<Index>(seen.size()), rows);
}

TEST(WindowShuffle, DeterministicAndSeedSensitive) {
  const WindowShuffle a(200, 32, 42), b(200, 32, 42), c(200, 32, 43);
  bool any_moved = false, any_differs = false;
  for (Index pos = 0; pos < 200; ++pos) {
    EXPECT_EQ(a.index(pos), b.index(pos));
    any_moved |= a.index(pos) != pos;
    any_differs |= a.index(pos) != c.index(pos);
  }
  EXPECT_TRUE(any_moved) << "window shuffle left the order untouched";
  EXPECT_TRUE(any_differs) << "different seeds produced the same order";
}

TEST(WindowShuffle, RangeQueryMatchesPointQuery) {
  const WindowShuffle shuffle(100, 16, 5);
  std::vector<Index> out;
  // An awkward range: starts and ends mid-window, spans several windows.
  shuffle.indices(13, 50, out);
  ASSERT_EQ(out.size(), 50u);
  for (Index k = 0; k < 50; ++k)
    EXPECT_EQ(out[static_cast<std::size_t>(k)], shuffle.index(13 + k));
}

TEST(WindowShuffle, IndependentOfTraversalOrder) {
  const WindowShuffle forward(96, 16, 11), backward(96, 16, 11);
  std::vector<Index> fwd(96), bwd(96);
  for (Index pos = 0; pos < 96; ++pos)
    fwd[static_cast<std::size_t>(pos)] = forward.index(pos);
  for (Index pos = 95; pos >= 0; --pos)
    bwd[static_cast<std::size_t>(pos)] = backward.index(pos);
  EXPECT_EQ(fwd, bwd);
}

// --- ChunkStream with shuffle ---

TEST(ChunkStream, ShuffleWindowSmallerThanChunkThrows) {
  const Dataset d(100, 2);
  ChunkStreamConfig cfg;
  cfg.chunk_examples = 32;
  cfg.shuffle_window = 16;  // < chunk_examples
  cfg.background = false;
  EXPECT_THROW(ChunkStream(d, cfg), util::Error);
}

TEST(ChunkStream, ShuffledStreamDeliversEveryRowOnce) {
  Dataset d(90, 1);
  for (Index i = 0; i < d.size(); ++i)
    d.example(i)[0] = static_cast<float>(i);
  for (const bool background : {false, true}) {
    ChunkStreamConfig cfg;
    cfg.chunk_examples = 16;
    cfg.shuffle_window = 32;
    cfg.shuffle_seed = 9;
    cfg.background = background;
    ChunkStream stream(d, cfg);
    std::set<int> seen;
    while (auto c = stream.next()) {
      for (Index r = 0; r < c->rows(); ++r)
        EXPECT_TRUE(seen.insert(static_cast<int>((*c)(r, 0))).second);
    }
    EXPECT_EQ(static_cast<Index>(seen.size()), d.size());
  }
}

TEST(ChunkStream, ShuffledOrderIdenticalAcrossBackings) {
  const test::ScratchDir scratch;
  const std::string& dir = scratch.path();
  Dataset d(128, 2);
  for (Index i = 0; i < d.size(); ++i) {
    d.example(i)[0] = static_cast<float>(i);
    d.example(i)[1] = static_cast<float>(-i);
  }
  const std::string manifest = write_sharded(d, dir, {24, ShardDtype::kF32});
  const ShardedDataset s = ShardedDataset::open(manifest);

  ChunkStreamConfig cfg;
  cfg.chunk_examples = 16;
  cfg.shuffle_window = 32;
  cfg.shuffle_seed = 77;
  cfg.background = false;
  ChunkStream mem(d, cfg), mapped(s, cfg);
  for (;;) {
    auto a = mem.next();
    auto b = mapped.next();
    ASSERT_EQ(a.has_value(), b.has_value());
    if (!a) break;
    EXPECT_TRUE(a->approx_equal(*b, 0.0f, 0.0f));
  }
}

// Wraps a Dataset and records what the loader asks of it: the io stage's
// readahead hints (window alignment under shuffle), the source rows it
// decodes, in order, and how many copies it has started and has in
// flight. Copies past the first `fast_copies` sleep `slow_ms`, to keep the
// loader busy while the consumer finishes, and a copy that touches row
// `fail_from` or later throws util::Error, as a corrupt shard's decode does.
// The vectors are written by the loader thread; read them once the stream is
// gone.
class RecordingSource final : public StreamingSource {
 public:
  explicit RecordingSource(const Dataset& d) : d_(d) {}
  Index rows() const override { return d_.rows(); }
  Index dim() const override { return d_.dim(); }
  void copy_rows(Index begin, Index count, la::Matrix& out) const override {
    std::vector<Index> indices;
    for (Index i = begin; i < begin + count; ++i) indices.push_back(i);
    copy_rows(indices, out);
  }
  void copy_rows(const std::vector<Index>& indices,
                 la::Matrix& out) const override {
    for (const Index i : indices)
      if (i >= fail_from)
        throw util::Error("decode failed at row " + std::to_string(i));
    in_flight.fetch_add(1);
    if (copies.fetch_add(1) >= fast_copies)
      std::this_thread::sleep_for(std::chrono::milliseconds(slow_ms));
    decoded.insert(decoded.end(), indices.begin(), indices.end());
    d_.copy_rows(indices, out);
    in_flight.fetch_sub(1);
  }
  void prefetch(Index begin, Index count) const override {
    hints.push_back({begin, count});
  }
  SourceInfo info() const override { return d_.info(); }

  mutable std::vector<std::pair<Index, Index>> hints;
  mutable std::vector<Index> decoded;
  mutable std::atomic<int> copies{0};
  mutable std::atomic<int> in_flight{0};
  int fast_copies = 1 << 30;
  int slow_ms = 0;
  Index fail_from = std::numeric_limits<Index>::max();

 private:
  const Dataset& d_;
};

// --- multi-pass streams: one loader and one pool across passes ---

TEST(ChunkStream, PassesStreamBackToBackInEachPassOrder) {
  Dataset d(90, 1);
  for (Index i = 0; i < d.size(); ++i)
    d.example(i)[0] = static_cast<float>(i);
  for (const bool background : {false, true}) {
    for (const Index window : {Index{0}, Index{32}}) {
      ChunkStreamConfig cfg;
      cfg.chunk_examples = 16;
      cfg.shuffle_window = window;
      cfg.shuffle_seed = 9;
      cfg.passes = 3;
      cfg.background = background;
      ChunkStream stream(d, cfg);
      for (int pass = 0; pass < cfg.passes; ++pass) {
        const WindowShuffle plan(d.rows(), window > 0 ? window : 1,
                                 pass_shuffle_seed(cfg.shuffle_seed, pass));
        Index pos = 0;
        while (auto c = stream.next()) {
          for (Index r = 0; r < c->rows(); ++r, ++pos)
            ASSERT_EQ((*c)(r, 0), window > 0 ? plan.index(pos) : pos)
                << "pass " << pass << ", position " << pos;
          stream.recycle(std::move(*c));
        }
        EXPECT_EQ(pos, d.rows()) << "pass " << pass;
      }
      EXPECT_FALSE(stream.next().has_value());
      EXPECT_FALSE(stream.next().has_value());
    }
  }
}

TEST(ChunkStream, LoaderStagesOneChunkOfTheNextPassAhead) {
  const Dataset d(128, 2);
  RecordingSource src(d);
  src.fast_copies = 5;  // pass 1's second chunk onwards decodes slowly
  src.slow_ms = 20;
  ChunkStreamConfig cfg;
  cfg.chunk_examples = 32;  // 4 chunks a pass, as deep as the ring
  cfg.shuffle_window = 64;
  cfg.passes = 3;
  cfg.background = true;
  obs::Counter& allocated = obs::counter("data.chunk_buffers_allocated");
  const std::int64_t before = allocated.value();
  const auto wait_for_copies = [&src](int n) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (src.copies.load() < n && std::chrono::steady_clock::now() < deadline)
      std::this_thread::yield();
    return src.copies.load();
  };
  {
    ChunkStream stream(src, cfg);
    // All of pass 0 is staged in four fresh buffers; pass 1's first chunk
    // waits for one of them to come back rather than mapping a fifth.
    EXPECT_EQ(wait_for_copies(4), 4);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_EQ(src.copies.load(), 4);
    for (int i = 0; i < 4; ++i) {
      auto c = stream.next();
      ASSERT_TRUE(c.has_value());
      stream.recycle(std::move(*c));
      // Once a buffer is back, the loader crosses into pass 1 on its own
      // and stages its first chunk — and no more until the consumer gets
      // there.
      if (i == 0) {
        EXPECT_EQ(wait_for_copies(5), 5);
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_EQ(src.copies.load(), 5);
    EXPECT_EQ(allocated.value() - before, 4);
    EXPECT_FALSE(stream.next().has_value());  // the end of pass 0
    EXPECT_TRUE(stream.next().has_value());   // pass 1's first chunk
  }  // destroyed mid-pass: the loader is joined, nothing left in flight
  EXPECT_EQ(src.in_flight.load(), 0);
  EXPECT_LE(src.copies.load(), 5 + static_cast<int>(cfg.ring_chunks) + 1);
}

// --- a failed decode reaches the consumer ---

TEST(ChunkStream, LoaderErrorReachesTheConsumerInBothModes) {
  // Rows 50 on fail to decode. Either way next() hands out chunks 0-4 (rows
  // 0-49), then throws the source's util::Error: inline from produce() in
  // synchronous mode, rethrown from the loading thread in background mode.
  const Dataset d(100, 2);
  std::vector<std::string> errors;
  for (const bool background : {false, true}) {
    RecordingSource src(d);
    src.fail_from = 50;
    ChunkStreamConfig cfg;
    cfg.chunk_examples = 10;
    cfg.background = background;
    ChunkStream stream(src, cfg);
    for (int i = 0; i < 5; ++i)
      ASSERT_TRUE(stream.next().has_value())
          << "chunk " << i << ", background " << background;
    try {
      stream.next();
      ADD_FAILURE() << "background " << background << ": next() must throw";
    } catch (const util::Error& e) {
      errors.push_back(e.what());
    }
    // The stream stays failed rather than ending the pass short.
    EXPECT_THROW(stream.next(), util::Error);
  }
  ASSERT_EQ(errors.size(), 2u);
  EXPECT_EQ(errors[0], "decode failed at row 50");
  EXPECT_EQ(errors[1], errors[0]);
}

TEST(ChunkStream, PrefetchHintsFollowTheStreamInOrder) {
  const Dataset d(100, 2);
  RecordingSource src(d);
  ChunkStreamConfig cfg;
  cfg.chunk_examples = 20;
  cfg.background = false;
  ChunkStream stream(src, cfg);
  while (stream.next()) {
  }
  // In-order feeding hints exactly the next kPrefetchChunks (2) chunks'
  // rows, clamped to the end of the stream; the final chunk hints nothing.
  ASSERT_EQ(ChunkStream::kPrefetchChunks, 2);
  const std::vector<std::pair<Index, Index>> want = {
      {20, 40}, {40, 40}, {60, 40}, {80, 20}};
  EXPECT_EQ(src.hints, want);
}

TEST(ChunkStream, ShuffledPrefetchHintsAreWindowAligned) {
  const Dataset d(100, 2);
  RecordingSource src(d);
  ChunkStreamConfig cfg;
  cfg.chunk_examples = 16;
  cfg.shuffle_window = 24;
  cfg.shuffle_seed = 5;
  cfg.background = false;
  ChunkStream stream(src, cfg);
  Index streamed = 0;
  std::size_t hinted = 0;
  while (auto c = stream.next()) {
    const Index pos = streamed;  // stream position this chunk started at
    streamed += c->rows();
    if (streamed >= d.rows()) break;  // last chunk: nothing ahead to hint
    ASSERT_LT(hinted, src.hints.size());
    const auto [begin, count] = src.hints[hinted++];
    const Index end = begin + count;
    // Window-permuted gathers touch whole windows, so each hint must be
    // rounded out to window boundaries (clamped at the stream end) and
    // cover the raw upcoming span [streamed, +kPrefetchChunks*chunk).
    EXPECT_EQ(begin % cfg.shuffle_window, 0) << "hint after chunk at " << pos;
    EXPECT_TRUE(end % cfg.shuffle_window == 0 || end == d.rows());
    EXPECT_LE(begin, streamed);
    EXPECT_GE(end, std::min(d.rows(), streamed + ChunkStream::kPrefetchChunks *
                                                     cfg.chunk_examples));
  }
  EXPECT_EQ(hinted, src.hints.size());
}

// --- typed IoError paths of the flat-file loaders ---

TEST(IoErrors, TruncatedDpdsNamesExpectedAndActualBytes) {
  const test::ScratchDir scratch;
  const std::string path = scratch.file("trunc.dpds");
  const Dataset d = numbered_dataset(10, 4);
  save_dataset(d, path);
  fs::resize_file(path, fs::file_size(path) - 60);
  try {
    load_dataset(path);
    FAIL() << "truncated DPDS must throw";
  } catch (const IoError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos);
    EXPECT_NE(what.find("DPDS payload"), std::string::npos);
    EXPECT_NE(what.find("expected 160 bytes"), std::string::npos);
    EXPECT_NE(what.find("got 100"), std::string::npos);
  }
}

TEST(IoErrors, TruncatedDpdsHeaderIsTyped) {
  const test::ScratchDir scratch;
  const std::string path = scratch.file("hdr.dpds");
  std::ofstream(path, std::ios::binary) << "DPDS";  // magic only, no header
  try {
    load_dataset(path);
    FAIL() << "truncated DPDS header must throw";
  } catch (const IoError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("DPDS header"), std::string::npos);
    EXPECT_NE(what.find("expected 4 bytes"), std::string::npos);
    EXPECT_NE(what.find("got 0"), std::string::npos);
  }
}

TEST(IoErrors, TruncatedIdxImageNamesImageAndCounts) {
  const test::ScratchDir scratch;
  const std::string path = scratch.file("trunc.idx3");
  Dataset images(3, 4);
  save_idx_images(images, 2, path);
  fs::resize_file(path, fs::file_size(path) - 6);  // cuts into image 2
  try {
    load_idx_images(path);
    FAIL() << "truncated IDX must throw";
  } catch (const IoError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("IDX image 1 of 3"), std::string::npos);
    EXPECT_NE(what.find("expected 4 bytes"), std::string::npos);
    EXPECT_NE(what.find("got 2"), std::string::npos);
  }
}

TEST(IoErrors, TruncatedIdxLabelsIsTyped) {
  const test::ScratchDir scratch;
  const std::string path = scratch.file("trunc.idx1");
  save_idx_labels({1, 2, 3, 4}, path);
  fs::resize_file(path, fs::file_size(path) - 2);
  try {
    load_idx_labels(path);
    FAIL() << "truncated IDX labels must throw";
  } catch (const IoError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("IDX labels"), std::string::npos);
    EXPECT_NE(what.find("expected 4 bytes"), std::string::npos);
    EXPECT_NE(what.find("got 2"), std::string::npos);
  }
}

// --- the headline contract: sharded == in-memory training, bitwise ---

core::TrainerConfig parity_config(Index shuffle_window, int replicas,
                                  int accum) {
  core::TrainerConfig cfg;
  cfg.batch_size = 16;
  cfg.chunk_examples = 64;
  cfg.epochs = 2;
  cfg.level = core::OptLevel::kImproved;
  cfg.replicas = replicas;
  cfg.accumulation_steps = accum;
  cfg.shuffle_window = shuffle_window;
  cfg.seed = 123;
  return cfg;
}

TEST(StreamingParity, SaeTrainsBitwiseIdenticalFromShards) {
  const Dataset d = make_digit_patch_dataset(256, 4, /*seed=*/7);
  const test::ScratchDir scratch;
  const std::string& dir = scratch.path();
  const ShardedDataset s =
      ShardedDataset::open(write_sharded(d, dir, {37, ShardDtype::kF32}));

  for (const Index window : {Index{0}, Index{128}}) {
    core::SaeConfig mcfg;
    mcfg.visible = d.dim();
    mcfg.hidden = 8;
    core::SparseAutoencoder from_memory(mcfg, 99), from_shards(mcfg, 99);
    core::Trainer trainer(parity_config(window, 1, 1));
    trainer.train(from_memory, d);
    trainer.train(from_shards, s);
    EXPECT_TRUE(from_memory.w1().approx_equal(from_shards.w1(), 0.0f, 0.0f))
        << "window " << window;
    EXPECT_TRUE(from_memory.w2().approx_equal(from_shards.w2(), 0.0f, 0.0f))
        << "window " << window;
  }
}

TEST(StreamingParity, RbmTrainsBitwiseIdenticalFromShards) {
  const Dataset d = make_digit_patch_dataset(256, 4, /*seed=*/7);
  const test::ScratchDir scratch;
  const std::string& dir = scratch.path();
  const ShardedDataset s =
      ShardedDataset::open(write_sharded(d, dir, {50, ShardDtype::kF32}));

  core::RbmConfig mcfg;
  mcfg.visible = d.dim();
  mcfg.hidden = 8;
  core::Rbm from_memory(mcfg, 99), from_shards(mcfg, 99);
  core::Trainer trainer(parity_config(64, 1, 1));
  trainer.train(from_memory, d);
  trainer.train(from_shards, s);
  EXPECT_TRUE(from_memory.w().approx_equal(from_shards.w(), 0.0f, 0.0f));
}

TEST(StreamingParity, DataParallelFactorizationsMatchAcrossBackings) {
  // S = 4 under every factorization, memory and shards, shuffled: all eight
  // runs must produce the same bits.
  const Dataset d = make_digit_patch_dataset(256, 4, /*seed=*/7);
  const test::ScratchDir scratch;
  const std::string& dir = scratch.path();
  const ShardedDataset s =
      ShardedDataset::open(write_sharded(d, dir, {41, ShardDtype::kF32}));

  core::SaeConfig mcfg;
  mcfg.visible = d.dim();
  mcfg.hidden = 8;
  const core::SparseAutoencoder reference_init(mcfg, 99);

  std::vector<core::SparseAutoencoder> trained;
  for (const auto& [r, a] : {std::pair{1, 4}, {2, 2}, {4, 1}}) {
    for (const bool use_shards : {false, true}) {
      core::SparseAutoencoder model = reference_init;
      core::Trainer trainer(parity_config(128, r, a));
      if (use_shards)
        trainer.train(model, s);
      else
        trainer.train(model, d);
      trained.push_back(std::move(model));
    }
  }
  for (std::size_t k = 1; k < trained.size(); ++k) {
    EXPECT_TRUE(trained[0].w1().approx_equal(trained[k].w1(), 0.0f, 0.0f))
        << "variant " << k << " diverged";
    EXPECT_TRUE(trained[0].b1().approx_equal(trained[k].b1(), 0.0f, 0.0f))
        << "variant " << k << " diverged";
  }
}

TEST(StreamingParity, OnePoolServesEveryEpoch) {
  // 256 rows = 8 whole chunks an epoch, so every buffer is full-size and
  // recyclable: three epochs of 24 chunks allocate no more than the bound
  // of one pool, where a pool per epoch would allocate up to 3x as many.
  // 250 rows end every epoch in the same short chunk of 26, whose buffer
  // the next epoch re-uses: one buffer more, not one per epoch.
  for (const Index rows : {Index{256}, Index{250}}) {
    const Dataset d = make_digit_patch_dataset(rows, 4, /*seed=*/5);
    core::SaeConfig mcfg;
    mcfg.visible = d.dim();
    mcfg.hidden = 4;
    core::SparseAutoencoder model(mcfg, 1);
    core::TrainerConfig cfg = parity_config(64, 1, 1);
    cfg.chunk_examples = 32;
    cfg.epochs = 3;
    cfg.ring_chunks = 2;
    cfg.policy = core::ExecPolicy::kPhiOffload;
    obs::Counter& allocated = obs::counter("data.chunk_buffers_allocated");
    const std::int64_t before = allocated.value();
    const core::TrainReport report = core::Trainer(cfg).train(model, d);
    EXPECT_EQ(report.chunks, 24) << rows << " rows";
    const std::int64_t bound = static_cast<std::int64_t>(cfg.ring_chunks) +
                               (rows % cfg.chunk_examples == 0 ? 2 : 3);
    EXPECT_LE(allocated.value() - before, bound) << rows << " rows";
  }
}

TEST(StreamingParity, StopInEpochZeroJoinsTheLoaderStagingEpochOne) {
  // max_batches is reached in epoch 0's last chunk while the loader, free
  // of the pass boundary, is already decoding epoch 1 (slowly): train()
  // must stop there and join it.
  const Dataset d = make_digit_patch_dataset(256, 4, /*seed=*/6);
  RecordingSource src(d);
  src.fast_copies = 4;
  src.slow_ms = 30;
  core::SaeConfig mcfg;
  mcfg.visible = d.dim();
  mcfg.hidden = 4;
  core::SparseAutoencoder model(mcfg, 1);
  core::TrainerConfig cfg = parity_config(64, 1, 1);  // 4 chunks of 64
  cfg.epochs = 3;
  cfg.max_batches = 16;  // 4 batches of 16 per chunk
  cfg.policy = core::ExecPolicy::kPhiOffload;
  const core::TrainReport report = core::Trainer(cfg).train(model, src);
  EXPECT_EQ(report.chunks, 4);
  EXPECT_EQ(report.batches, 16);
  EXPECT_EQ(src.in_flight.load(), 0);
  const int copies = src.copies.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(src.copies.load(), copies) << "the loader outlived train()";
}

TEST(ChunkStream, LoaderErrorFailsTrainingAndJoinsTheLoader) {
  // A corrupt row under kPhiOffload: the loading thread's decode error fails
  // train() with util::Error after the chunks before it have trained, and
  // the stream still joins its loader on the way out.
  const Dataset d = make_digit_patch_dataset(256, 4, /*seed=*/9);
  RecordingSource src(d);
  src.fail_from = 150;  // chunk 2 of 64-row chunks
  core::SaeConfig mcfg;
  mcfg.visible = d.dim();
  mcfg.hidden = 4;
  core::SparseAutoencoder model(mcfg, 1);
  core::TrainerConfig cfg = parity_config(0, 1, 1);
  cfg.policy = core::ExecPolicy::kPhiOffload;
  EXPECT_THROW(core::Trainer(cfg).train(model, src), util::Error);
  EXPECT_EQ(src.in_flight.load(), 0);
  const int copies = src.copies.load();
  EXPECT_EQ(copies, 2);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(src.copies.load(), copies) << "the loader outlived train()";
}

TEST(StreamingParity, EpochRowOrderIsTheParentsAcrossEpochBoundaries) {
  // Each epoch visits rows in a fresh windowed shuffle seeded
  // seed ^ (0x9e3779b97f4a7c15 · (epoch + 1)) — the order trainers have
  // always used — whether or not the loader runs ahead into the next epoch.
  const Dataset d = make_digit_patch_dataset(250, 4, /*seed=*/8);  // ragged
  RecordingSource src(d);
  core::SaeConfig mcfg;
  mcfg.visible = d.dim();
  mcfg.hidden = 4;
  core::SparseAutoencoder model(mcfg, 1);
  core::TrainerConfig cfg = parity_config(128, 1, 1);
  cfg.epochs = 3;
  cfg.policy = core::ExecPolicy::kPhiOffload;
  core::Trainer(cfg).train(model, src);
  std::vector<Index> want;
  for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
    const WindowShuffle plan(
        d.rows(), cfg.shuffle_window,
        cfg.seed ^ (0x9e3779b97f4a7c15ULL *
                    (static_cast<std::uint64_t>(epoch) + 1)));
    for (Index pos = 0; pos < d.rows(); ++pos) want.push_back(plan.index(pos));
  }
  EXPECT_EQ(src.decoded, want);
}

TEST(StreamingParity, ReportsLoadStallAccounting) {
  const Dataset d = make_digit_patch_dataset(128, 4, /*seed=*/3);
  core::SaeConfig mcfg;
  mcfg.visible = d.dim();
  mcfg.hidden = 4;
  core::SparseAutoencoder model(mcfg, 1);
  core::Trainer trainer(parity_config(0, 1, 1));
  const core::TrainReport report = trainer.train(model, d);
  EXPECT_GE(report.load_stall_seconds, 0.0);
  EXPECT_LE(report.load_stall_seconds, report.wall_seconds + 1.0);
}

}  // namespace
}  // namespace deepphi::data
