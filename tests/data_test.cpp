// Tests for the data substrate: dataset container, procedural digit and
// natural-image generators, patch extraction + normalization, binary I/O,
// the shuffling batch iterator, and the chunk stream (foreground ==
// background content equivalence).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <string>

#include "data/batch_iterator.hpp"
#include "data/binary_io.hpp"
#include "data/chunk_stream.hpp"
#include "data/dataset.hpp"
#include "data/digits.hpp"
#include "data/natural.hpp"
#include "data/patches.hpp"
#include "util/error.hpp"
#include "scratch_dir.hpp"

namespace deepphi::data {
namespace {

// --- Dataset ---

TEST(Dataset, ShapeAndAccess) {
  Dataset d(5, 3);
  EXPECT_EQ(d.size(), 5);
  EXPECT_EQ(d.dim(), 3);
  d.example(2)[1] = 7.0f;
  EXPECT_EQ(d.matrix()(2, 1), 7.0f);
}

TEST(Dataset, AdoptMatrix) {
  la::Matrix m = la::Matrix::from_rows({{1, 2}, {3, 4}});
  Dataset d(std::move(m));
  EXPECT_EQ(d.size(), 2);
  EXPECT_EQ(d.example(1)[0], 3.0f);
}

TEST(Dataset, CopyBatchContiguous) {
  Dataset d(4, 2);
  for (la::Index i = 0; i < 4; ++i) d.example(i)[0] = static_cast<float>(i);
  la::Matrix out(2, 2);
  d.copy_batch(1, 2, out);
  EXPECT_EQ(out(0, 0), 1.0f);
  EXPECT_EQ(out(1, 0), 2.0f);
}

TEST(Dataset, CopyBatchBoundsChecked) {
  Dataset d(4, 2);
  la::Matrix out(2, 2);
  EXPECT_THROW(d.copy_batch(3, 2, out), util::Error);
  la::Matrix wrong(2, 3);
  EXPECT_THROW(d.copy_batch(0, 2, wrong), util::Error);
}

TEST(Dataset, CopyBatchByIndices) {
  Dataset d(4, 1);
  for (la::Index i = 0; i < 4; ++i) d.example(i)[0] = static_cast<float>(i * 10);
  la::Matrix out(2, 1);
  d.copy_batch(std::vector<la::Index>{3, 0}, out);
  EXPECT_EQ(out(0, 0), 30.0f);
  EXPECT_EQ(out(1, 0), 0.0f);
  la::Matrix out1(1, 1);
  EXPECT_THROW(d.copy_batch(std::vector<la::Index>{9}, out1), util::Error);
}

TEST(Dataset, Statistics) {
  Dataset d(2, 2);
  d.example(0)[0] = 1;
  d.example(0)[1] = 2;
  d.example(1)[0] = 3;
  d.example(1)[1] = 4;
  EXPECT_FLOAT_EQ(d.mean(), 2.5f);
  EXPECT_FLOAT_EQ(d.min(), 1.0f);
  EXPECT_FLOAT_EQ(d.max(), 4.0f);
}

TEST(Dataset, SplitPartitionsInOrder) {
  Dataset d(10, 2);
  for (la::Index i = 0; i < 10; ++i) d.example(i)[0] = static_cast<float>(i);
  const auto [head, tail] = d.split(3);
  EXPECT_EQ(head.size(), 3);
  EXPECT_EQ(tail.size(), 7);
  EXPECT_EQ(head.example(2)[0], 2.0f);
  EXPECT_EQ(tail.example(0)[0], 3.0f);
  EXPECT_THROW(d.split(11), util::Error);
  const auto [all, none] = d.split(10);
  EXPECT_EQ(all.size(), 10);
  EXPECT_EQ(none.size(), 0);
}

// --- digits ---

TEST(Digits, RangeAndShape) {
  DigitConfig cfg;
  Dataset set = make_digit_images(20, cfg, 1);
  EXPECT_EQ(set.size(), 20);
  EXPECT_EQ(set.dim(), cfg.image_size * cfg.image_size);
  EXPECT_GE(set.min(), 0.0f);
  EXPECT_LE(set.max(), 1.0f);
}

TEST(Digits, Deterministic) {
  DigitConfig cfg;
  Dataset a = make_digit_images(5, cfg, 7);
  Dataset b = make_digit_images(5, cfg, 7);
  EXPECT_TRUE(a.matrix().approx_equal(b.matrix(), 0.0f, 0.0f));
}

TEST(Digits, SeedChangesImages) {
  DigitConfig cfg;
  Dataset a = make_digit_images(5, cfg, 7);
  Dataset b = make_digit_images(5, cfg, 8);
  EXPECT_FALSE(a.matrix().approx_equal(b.matrix(), 0.0f, 0.0f));
}

TEST(Digits, HasInkAndBackground) {
  DigitConfig cfg;
  cfg.noise = 0.0f;
  util::Rng rng(3);
  std::vector<float> img(static_cast<std::size_t>(cfg.image_size * cfg.image_size));
  for (int digit = 0; digit <= 9; ++digit) {
    render_digit(digit, cfg, rng, img.data());
    double ink = 0;
    for (float v : img) ink += v;
    const double frac = ink / img.size();
    EXPECT_GT(frac, 0.02) << "digit " << digit << " has almost no ink";
    EXPECT_LT(frac, 0.5) << "digit " << digit << " floods the canvas";
  }
}

TEST(Digits, DistinctClassesDiffer) {
  DigitConfig cfg;
  cfg.noise = 0.0f;
  cfg.jitter = 0.0f;
  std::vector<float> a(static_cast<std::size_t>(cfg.image_size * cfg.image_size));
  std::vector<float> b(a.size());
  util::Rng r1(5), r2(5);
  render_digit(1, cfg, r1, a.data());
  render_digit(8, cfg, r2, b.data());
  double diff = 0;
  for (std::size_t i = 0; i < a.size(); ++i) diff += std::fabs(a[i] - b[i]);
  EXPECT_GT(diff / a.size(), 0.01);
}

TEST(Digits, RejectsBadClass) {
  DigitConfig cfg;
  util::Rng rng(1);
  std::vector<float> img(static_cast<std::size_t>(cfg.image_size * cfg.image_size));
  EXPECT_THROW(render_digit(10, cfg, rng, img.data()), util::Error);
  EXPECT_THROW(render_digit(-1, cfg, rng, img.data()), util::Error);
}

// --- natural images ---

TEST(Natural, RangeAndShape) {
  NaturalConfig cfg;
  Dataset set = make_natural_images(10, cfg, 2);
  EXPECT_EQ(set.size(), 10);
  EXPECT_EQ(set.dim(), cfg.image_size * cfg.image_size);
  EXPECT_GE(set.min(), 0.0f);
  EXPECT_LE(set.max(), 1.0f);
}

TEST(Natural, Deterministic) {
  NaturalConfig cfg;
  Dataset a = make_natural_images(3, cfg, 9);
  Dataset b = make_natural_images(3, cfg, 9);
  EXPECT_TRUE(a.matrix().approx_equal(b.matrix(), 0.0f, 0.0f));
}

TEST(Natural, HasContrast) {
  NaturalConfig cfg;
  Dataset set = make_natural_images(5, cfg, 4);
  for (la::Index i = 0; i < set.size(); ++i) {
    float lo = 1.0f, hi = 0.0f;
    const float* img = set.example(i);
    for (la::Index j = 0; j < set.dim(); ++j) {
      lo = std::min(lo, img[j]);
      hi = std::max(hi, img[j]);
    }
    EXPECT_GT(hi - lo, 0.2f) << "image " << i << " is flat";
  }
}

TEST(Natural, NeighborsCorrelated) {
  // Natural-image statistics: horizontally adjacent pixels correlate highly.
  NaturalConfig cfg;
  Dataset set = make_natural_images(4, cfg, 6);
  const la::Index s = cfg.image_size;
  double num = 0, den_a = 0, den_b = 0;
  double mean = set.mean();
  for (la::Index i = 0; i < set.size(); ++i) {
    const float* img = set.example(i);
    for (la::Index r = 0; r < s; ++r)
      for (la::Index c = 0; c + 1 < s; ++c) {
        const double a = img[r * s + c] - mean;
        const double b = img[r * s + c + 1] - mean;
        num += a * b;
        den_a += a * a;
        den_b += b * b;
      }
  }
  const double corr = num / std::sqrt(den_a * den_b);
  EXPECT_GT(corr, 0.7);
}

// --- patches ---

TEST(Patches, ShapeAndDeterminism) {
  Dataset imgs = make_digit_images(8, DigitConfig{}, 3);
  PatchConfig pc;
  pc.patch_size = 8;
  Dataset a = extract_patches(imgs, 32, 100, pc, 11);
  Dataset b = extract_patches(imgs, 32, 100, pc, 11);
  EXPECT_EQ(a.size(), 100);
  EXPECT_EQ(a.dim(), 64);
  EXPECT_TRUE(a.matrix().approx_equal(b.matrix(), 0.0f, 0.0f));
}

TEST(Patches, UnitRangeNormalization) {
  Dataset patches = make_digit_patch_dataset(500, 8, 21);
  EXPECT_GE(patches.min(), 0.1f - 1e-5f);
  EXPECT_LE(patches.max(), 0.9f + 1e-5f);
}

TEST(Patches, ZeroMeanNormalization) {
  Dataset imgs = make_natural_images(4, NaturalConfig{}, 5);
  PatchConfig pc;
  pc.patch_size = 8;
  pc.norm = PatchNorm::kZeroMean;
  Dataset patches = extract_patches(imgs, 64, 50, pc, 13);
  for (la::Index i = 0; i < patches.size(); ++i) {
    double mean = 0;
    for (la::Index j = 0; j < patches.dim(); ++j) mean += patches.example(i)[j];
    EXPECT_NEAR(mean / patches.dim(), 0.0, 1e-5);
  }
}

TEST(Patches, NoNormKeepsRawValues) {
  Dataset imgs = make_digit_images(2, DigitConfig{}, 5);
  PatchConfig pc;
  pc.patch_size = 32;  // whole image
  pc.norm = PatchNorm::kNone;
  Dataset patches = extract_patches(imgs, 32, 10, pc, 1);
  EXPECT_GE(patches.min(), 0.0f);
  EXPECT_LE(patches.max(), 1.0f);
}

TEST(Patches, PatchEqualsImageRegion) {
  Dataset imgs(1, 16);  // 4x4 image with known values
  for (int i = 0; i < 16; ++i) imgs.example(0)[i] = static_cast<float>(i);
  PatchConfig pc;
  pc.patch_size = 4;
  pc.norm = PatchNorm::kNone;
  Dataset patches = extract_patches(imgs, 4, 3, pc, 2);
  // Full-size patches of a single image must equal the image itself.
  for (la::Index p = 0; p < 3; ++p)
    for (int i = 0; i < 16; ++i)
      EXPECT_EQ(patches.example(p)[i], static_cast<float>(i));
}

TEST(Patches, RejectsBadSizes) {
  Dataset imgs = make_digit_images(2, DigitConfig{}, 5);
  PatchConfig pc;
  pc.patch_size = 33;
  EXPECT_THROW(extract_patches(imgs, 32, 5, pc, 1), util::Error);
  EXPECT_THROW(extract_patches(imgs, 31, 5, PatchConfig{}, 1), util::Error);
}

TEST(Patches, NaturalConvenience) {
  Dataset patches = make_natural_patch_dataset(200, 8, 31);
  EXPECT_EQ(patches.size(), 200);
  EXPECT_EQ(patches.dim(), 64);
}

TEST(Patches, TruncSigmaTightensRange) {
  Dataset imgs = make_natural_images(4, NaturalConfig{}, 51);
  PatchConfig tight;
  tight.patch_size = 8;
  tight.trunc_sigma = 1.0f;
  PatchConfig loose = tight;
  loose.trunc_sigma = 5.0f;
  Dataset a = extract_patches(imgs, 64, 300, tight, 7);
  Dataset b = extract_patches(imgs, 64, 300, loose, 7);
  // Tighter truncation saturates more values at the 0.1/0.9 rails.
  la::Index rails_a = 0, rails_b = 0;
  for (la::Index i = 0; i < a.matrix().size(); ++i) {
    if (a.matrix().data()[i] <= 0.100001f || a.matrix().data()[i] >= 0.899999f)
      ++rails_a;
    if (b.matrix().data()[i] <= 0.100001f || b.matrix().data()[i] >= 0.899999f)
      ++rails_b;
  }
  EXPECT_GT(rails_a, rails_b);
}

TEST(Digits, RejectsTinyCanvas) {
  DigitConfig cfg;
  cfg.image_size = 4;
  util::Rng rng(1);
  std::vector<float> img(16);
  EXPECT_THROW(render_digit(0, cfg, rng, img.data()), util::Error);
}

TEST(Natural, RejectsBadConfig) {
  NaturalConfig cfg;
  cfg.octaves = 0;
  util::Rng rng(1);
  std::vector<float> img(static_cast<std::size_t>(cfg.image_size * cfg.image_size));
  EXPECT_THROW(render_natural(cfg, rng, img.data()), util::Error);
}

// --- binary io ---

TEST(BinaryIo, RoundTrip) {
  Dataset d = make_digit_patch_dataset(50, 8, 17);
  const test::ScratchDir scratch;
  const std::string path = scratch.file("ds.bin");
  save_dataset(d, path);
  Dataset loaded = load_dataset(path);
  EXPECT_EQ(loaded.size(), d.size());
  EXPECT_EQ(loaded.dim(), d.dim());
  EXPECT_TRUE(loaded.matrix().approx_equal(d.matrix(), 0.0f, 0.0f));
}

TEST(BinaryIo, MissingFileThrows) {
  EXPECT_THROW(load_dataset("/nonexistent/nowhere.bin"), util::Error);
}

TEST(BinaryIo, BadMagicThrows) {
  const test::ScratchDir scratch;
  const std::string path = scratch.file("bad.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "NOPE this is not a dataset";
  }
  EXPECT_THROW(load_dataset(path), util::Error);
}

TEST(BinaryIo, TruncatedPayloadThrows) {
  Dataset d(10, 10);
  const test::ScratchDir scratch;
  const std::string path = scratch.file("trunc.bin");
  save_dataset(d, path);
  // Chop the file short.
  {
    std::ifstream in(path, std::ios::binary);
    std::string contents((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(contents.data(), static_cast<std::streamsize>(contents.size() / 2));
  }
  EXPECT_THROW(load_dataset(path), util::Error);
}

TEST(BinaryIo, EmptyDataset) {
  Dataset d(0, 5);
  const test::ScratchDir scratch;
  const std::string path = scratch.file("empty.bin");
  save_dataset(d, path);
  Dataset loaded = load_dataset(path);
  EXPECT_EQ(loaded.size(), 0);
  EXPECT_EQ(loaded.dim(), 5);
}

// --- BatchIterator ---

TEST(BatchIterator, CoversEpochExactlyOnce) {
  Dataset d(10, 1);
  for (la::Index i = 0; i < 10; ++i) d.example(i)[0] = static_cast<float>(i);
  BatchIterator it(d, 3, /*shuffle=*/true, 5);
  la::Matrix batch;
  std::multiset<float> seen;
  la::Index total = 0;
  while (la::Index n = it.next(batch)) {
    total += n;
    for (la::Index r = 0; r < n; ++r) seen.insert(batch(r, 0));
  }
  EXPECT_EQ(total, 10);
  EXPECT_EQ(seen.size(), 10u);
  for (la::Index i = 0; i < 10; ++i)
    EXPECT_EQ(seen.count(static_cast<float>(i)), 1u);
}

TEST(BatchIterator, FinalShortBatch) {
  Dataset d(10, 1);
  BatchIterator it(d, 4, false);
  la::Matrix batch;
  EXPECT_EQ(it.next(batch), 4);
  EXPECT_EQ(it.next(batch), 4);
  EXPECT_EQ(it.next(batch), 2);
  EXPECT_EQ(it.next(batch), 0);  // epoch boundary
  EXPECT_EQ(it.next(batch), 4);  // next epoch starts
}

TEST(BatchIterator, SequentialOrderWithoutShuffle) {
  Dataset d(6, 1);
  for (la::Index i = 0; i < 6; ++i) d.example(i)[0] = static_cast<float>(i);
  BatchIterator it(d, 2, false);
  la::Matrix batch;
  it.next(batch);
  EXPECT_EQ(batch(0, 0), 0.0f);
  EXPECT_EQ(batch(1, 0), 1.0f);
}

TEST(BatchIterator, ShuffleIsSeedDeterministic) {
  Dataset d(20, 1);
  for (la::Index i = 0; i < 20; ++i) d.example(i)[0] = static_cast<float>(i);
  BatchIterator a(d, 20, true, 9);
  BatchIterator b(d, 20, true, 9);
  la::Matrix ba, bb;
  a.next(ba);
  b.next(bb);
  EXPECT_TRUE(ba.approx_equal(bb, 0.0f, 0.0f));
}

TEST(BatchIterator, EpochsReshuffle) {
  Dataset d(30, 1);
  for (la::Index i = 0; i < 30; ++i) d.example(i)[0] = static_cast<float>(i);
  BatchIterator it(d, 30, true, 9);
  la::Matrix e0, e1;
  it.next(e0);
  it.next(e1);  // returns 0: epoch boundary
  it.next(e1);
  EXPECT_FALSE(e0.approx_equal(e1, 0.0f, 0.0f));
}

TEST(BatchIterator, BatchesPerEpoch) {
  Dataset d(10, 1);
  EXPECT_EQ(BatchIterator(d, 3, false).batches_per_epoch(), 4);
  EXPECT_EQ(BatchIterator(d, 10, false).batches_per_epoch(), 1);
}

// --- ChunkStream ---

TEST(ChunkStream, ForegroundSlicesSequentially) {
  Dataset d(25, 2);
  for (la::Index i = 0; i < 25; ++i) d.example(i)[0] = static_cast<float>(i);
  ChunkStreamConfig cfg;
  cfg.chunk_examples = 10;
  cfg.background = false;
  ChunkStream stream(d, cfg);
  EXPECT_EQ(stream.total_chunks(), 3);
  auto c0 = stream.next();
  ASSERT_TRUE(c0.has_value());
  EXPECT_EQ(c0->rows(), 10);
  EXPECT_EQ((*c0)(0, 0), 0.0f);
  auto c1 = stream.next();
  EXPECT_EQ((*c1)(0, 0), 10.0f);
  auto c2 = stream.next();
  EXPECT_EQ(c2->rows(), 5);
  EXPECT_FALSE(stream.next().has_value());
}

TEST(ChunkStream, BackgroundMatchesForeground) {
  Dataset d = make_digit_patch_dataset(97, 8, 23);
  ChunkStreamConfig fg;
  fg.chunk_examples = 20;
  fg.background = false;
  ChunkStreamConfig bg = fg;
  bg.background = true;
  ChunkStream fstream(d, fg), bstream(d, bg);
  for (;;) {
    auto a = fstream.next();
    auto b = bstream.next();
    EXPECT_EQ(a.has_value(), b.has_value());
    if (!a.has_value()) break;
    EXPECT_TRUE(a->approx_equal(*b, 0.0f, 0.0f));
  }
}

TEST(ChunkStream, AbandonedBackgroundStreamDoesNotHang) {
  Dataset d(1000, 4);
  ChunkStreamConfig cfg;
  cfg.chunk_examples = 10;
  cfg.background = true;
  cfg.ring_chunks = 2;
  auto stream = std::make_unique<ChunkStream>(d, cfg);
  stream->next();
  stream.reset();  // must join the loader cleanly
  SUCCEED();
}

TEST(ChunkStream, ChunkLargerThanDataset) {
  Dataset d(5, 2);
  ChunkStreamConfig cfg;
  cfg.chunk_examples = 100;
  cfg.background = false;
  ChunkStream stream(d, cfg);
  auto c = stream.next();
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->rows(), 5);
  EXPECT_FALSE(stream.next().has_value());
}

TEST(ChunkStream, RingOfOneDeliversEverything) {
  Dataset d(97, 3);
  for (la::Index i = 0; i < d.size(); ++i)
    d.example(i)[0] = static_cast<float>(i);
  ChunkStreamConfig cfg;
  cfg.chunk_examples = 10;
  cfg.background = true;
  cfg.ring_chunks = 1;  // tightest legal ring: loader and consumer alternate
  ChunkStream stream(d, cfg);
  la::Index rows = 0;
  while (auto c = stream.next()) {
    EXPECT_EQ((*c)(0, 0), static_cast<float>(rows));
    rows += c->rows();
  }
  EXPECT_EQ(rows, d.size());
}

TEST(ChunkStream, EmptyDatasetEndsImmediately) {
  Dataset d(0, 4);
  for (const bool background : {false, true}) {
    ChunkStreamConfig cfg;
    cfg.chunk_examples = 8;
    cfg.background = background;
    ChunkStream stream(d, cfg);
    EXPECT_EQ(stream.total_chunks(), 0);
    EXPECT_FALSE(stream.next().has_value());
  }
}

TEST(ChunkStream, DestructionWithLoaderAheadJoinsCleanly) {
  // The loader fills the whole ring before the consumer touches it; tearing
  // the stream down with buffered chunks (and a blocked producer) must not
  // hang or leak the loading thread.
  Dataset d(10000, 4);
  ChunkStreamConfig cfg;
  cfg.chunk_examples = 100;
  cfg.background = true;
  cfg.ring_chunks = 4;
  auto stream = std::make_unique<ChunkStream>(d, cfg);
  while (stream->buffered() < cfg.ring_chunks) {}  // loader races ahead
  stream.reset();
  SUCCEED();
}

TEST(ChunkStream, DestructionRacingActiveLoaderIsSafe) {
  // Regression: ~ChunkStream must join the loader before pool_/pool_mutex_
  // are destroyed — the loader's produce() -> acquire() touches both. Unlike
  // the test above (loader parked in push), popping right before teardown
  // unblocks the producer so destruction races a loader that is actively
  // producing into a hot pool.
  Dataset d(20000, 8);
  for (int it = 0; it < 40; ++it) {
    ChunkStreamConfig cfg;
    cfg.chunk_examples = 64;
    cfg.background = true;
    cfg.ring_chunks = 2;
    ChunkStream stream(d, cfg);
    for (int k = 0; k <= it % 4; ++k) {
      auto c = stream.next();
      if (!c) break;
      stream.recycle(std::move(*c));  // keep the pool non-empty for acquire()
    }
  }  // destructor runs with the loader possibly mid-produce
}

TEST(ChunkStream, RecycledBuffersAreReused) {
  Dataset d(64, 2);
  for (la::Index i = 0; i < d.size(); ++i)
    d.example(i)[0] = static_cast<float>(i);
  ChunkStreamConfig cfg;
  cfg.chunk_examples = 16;
  cfg.background = false;
  ChunkStream stream(d, cfg);
  auto first = stream.next();
  ASSERT_TRUE(first.has_value());
  const float* recycled_storage = first->data();
  stream.recycle(std::move(*first));
  auto second = stream.next();
  ASSERT_TRUE(second.has_value());
  // Zero steady-state allocation: the second chunk decodes into the exact
  // buffer the first one returned, with the right contents.
  EXPECT_EQ(second->data(), recycled_storage);
  EXPECT_EQ((*second)(0, 0), 16.0f);
}

TEST(ChunkStream, ShortTailBufferIsReusedByTheNextPass) {
  Dataset d(20, 2);  // chunks of 16: one full chunk + a ragged tail of 4
  for (la::Index i = 0; i < d.size(); ++i)
    d.example(i)[0] = static_cast<float>(i);
  ChunkStreamConfig cfg;
  cfg.chunk_examples = 16;
  cfg.background = false;
  cfg.passes = 2;
  ChunkStream stream(d, cfg);
  ASSERT_TRUE(stream.next().has_value());
  auto tail = stream.next();
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(tail->rows(), 4);
  const float* tail_storage = tail->data();
  stream.recycle(std::move(*tail));
  EXPECT_FALSE(stream.next().has_value());  // the end of pass 1
  ASSERT_TRUE(stream.next().has_value());
  // A pass's short chunk has the same size every pass, so pass 2's decodes
  // into the buffer pass 1's returned.
  auto tail2 = stream.next();
  ASSERT_TRUE(tail2.has_value());
  EXPECT_EQ(tail2->data(), tail_storage);
  EXPECT_EQ(tail2->rows(), 4);
  EXPECT_EQ((*tail2)(0, 0), 16.0f);
  EXPECT_FALSE(stream.next().has_value());
}

TEST(ChunkStream, RejectsRingOfZero) {
  Dataset d(8, 2);
  for (const bool background : {false, true}) {
    ChunkStreamConfig cfg;
    cfg.chunk_examples = 4;
    cfg.background = background;
    cfg.ring_chunks = 0;
    try {
      ChunkStream stream(d, cfg);
      FAIL() << "ring_chunks = 0 accepted, background " << background;
    } catch (const util::Error& e) {
      EXPECT_NE(std::string(e.what()).find("ring_chunks must be >= 1"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ShardRows, ZeroRowsGivesAllEmptyShards) {
  const std::vector<RowShard> out = shard_rows(0, 4);
  ASSERT_EQ(out.size(), 4u);
  for (const RowShard& s : out) {
    EXPECT_EQ(s.rows, 0);
    EXPECT_EQ(s.begin, 0);
  }
}

}  // namespace
}  // namespace deepphi::data
