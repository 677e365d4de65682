// Streaming data-pipeline bench (docs/data_pipeline.md): REAL wall-clock
// throughput of the Fig. 5 chunk ring fed from the in-memory Dataset vs the
// mmap'd ShardedDataset, with the windowed shuffle off and on.
//
// Two tables:
//   1. raw ring drain — rows/s of ChunkStream::next()+recycle() over one
//      pass of the corpus, per backing, with the per-stage costs
//      (data.stage.io / shuffle / decode histogram deltas) and the consumer
//      stall. "vs_memory" is the headline number: a warm-cache mmap stream
//      should hold >= ~0.9x of the in-memory path because decode is the same
//      memcpy and the io stage only issues madvise readahead.
//   2. end-to-end SAE training — same model/seed trained from both backings;
//      reports rows/s, the loader stall, and overlap efficiency
//      (1 - stall/wall, the Fig. 5 objective). Training is compute-bound, so
//      overlap efficiency should sit near 1 for both.
//
// The shard corpus is written to --work (default: a subdirectory of the
// build dir) and re-read through the page cache, so table 1 measures the
// warm-cache steady state a multi-epoch training run actually sees. Pass
// --drop-cache to also posix_fadvise(DONTNEED) the shards before every
// sharded drain for a cold-ish first-epoch number (best effort; the page
// cache may re-promote pages mid-drain).
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#ifdef __unix__
#include <fcntl.h>
#include <unistd.h>
#endif

#include "bench_common.hpp"
#include "core/sparse_autoencoder.hpp"
#include "core/trainer.hpp"
#include "data/chunk_stream.hpp"
#include "data/dataset.hpp"
#include "data/patches.hpp"
#include "data/sharded_dataset.hpp"
#include "obs/histogram.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace deepphi;

struct StageDelta {
  obs::HistogramSnapshot io, shuffle, decode;
};

struct DrainResult {
  double seconds = 0;
  double stall_s = 0;
  StageDelta stages;
};

// Drains one full pass of `source` through a background ChunkStream,
// recycling every chunk (the steady-state pooled path run_train_loop uses).
DrainResult drain(const data::StreamingSource& source, la::Index chunk,
                  la::Index window) {
  obs::Histogram& io = obs::histogram("data.stage.io");
  obs::Histogram& shuffle = obs::histogram("data.stage.shuffle");
  obs::Histogram& decode = obs::histogram("data.stage.decode");
  const obs::HistogramSnapshot io0 = io.snapshot();
  const obs::HistogramSnapshot shuffle0 = shuffle.snapshot();
  const obs::HistogramSnapshot decode0 = decode.snapshot();

  data::ChunkStreamConfig cfg;
  cfg.chunk_examples = chunk;
  cfg.shuffle_window = window;
  cfg.shuffle_seed = 42;
  cfg.background = true;
  data::ChunkStream stream(source, cfg);

  util::Timer timer;
  while (auto c = stream.next()) stream.recycle(std::move(*c));
  DrainResult r;
  r.seconds = timer.seconds();
  r.stall_s = stream.consumer_wait_seconds();
  r.stages.io = io.snapshot().since(io0);
  r.stages.shuffle = shuffle.snapshot().since(shuffle0);
  r.stages.decode = decode.snapshot().since(decode0);
  return r;
}

void drop_page_cache(const data::ShardedDataset& set,
                     const std::string& manifest_path) {
#ifdef __unix__
  const auto dir = std::filesystem::path(manifest_path).parent_path();
  for (const data::ShardEntry& shard : set.manifest().shards) {
    const std::string path = (dir / shard.path).string();
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) continue;
    ::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED);
    ::close(fd);
  }
#else
  (void)set;
  (void)manifest_path;
#endif
}

std::string ms(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", seconds * 1e3);
  return buf;
}

std::string fmt(const char* spec, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), spec, v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  util::Options options = util::Options::parse(argc, argv);
  options.declare("examples", "corpus rows to generate", "32768");
  options.declare("patch", "patch side (dim = patch^2)", "8");
  options.declare("chunk", "chunk ring granularity in rows", "2048");
  options.declare("window", "shuffle window for the shuffled configs", "4096");
  options.declare("rows-per-shard", "shard file granularity", "8192");
  options.declare("reps", "drains per config (best-of)", "2");
  options.declare("work", "scratch directory for the shard corpus",
                  "bench_data_pipeline_work");
  options.declare("drop-cache",
                  "posix_fadvise(DONTNEED) shards before sharded drains");
  options.declare("train-epochs", "epochs for the end-to-end table", "1");
  options.declare("hidden", "SAE hidden units for the end-to-end table", "32");
  bench::declare_common_flags(options);
  options.declare("help", "print usage");
  if (options.has("help")) {
    std::printf("%s", options.help("bench_data_pipeline").c_str());
    return 0;
  }
  options.validate();

  bench::banner("data_pipeline",
                "Fig. 5 chunk ring fed in-memory vs mmap'd shards: ring "
                "drain throughput per stage, then end-to-end SAE training "
                "with overlap efficiency");

  const la::Index examples = options.get_int("examples");
  const la::Index patch = options.get_int("patch");
  const la::Index chunk = options.get_int("chunk");
  const la::Index window = options.get_int("window");
  const int reps = static_cast<int>(options.get_int("reps"));
  const bool drop_cache = options.has("drop-cache");

  std::printf("corpus: %lld rows of dim %lld (%.1f MB), chunk %lld, "
              "window %lld\n\n",
              static_cast<long long>(examples),
              static_cast<long long>(patch * patch),
              static_cast<double>(examples * patch * patch * 4) / 1e6,
              static_cast<long long>(chunk), static_cast<long long>(window));

  const data::Dataset dataset =
      data::make_digit_patch_dataset(examples, patch, 42);
  data::ShardWriteOptions write_opts;
  write_opts.rows_per_shard = options.get_int("rows-per-shard");
  const std::string manifest =
      data::write_sharded(dataset, options.get_string("work"), write_opts);
  const data::ShardedDataset sharded = data::ShardedDataset::open(manifest);

  struct Config {
    const char* backing;
    const data::StreamingSource* source;
    la::Index window;
  };
  const std::vector<Config> configs = {
      {"memory", &dataset, 0},
      {"memory", &dataset, window},
      {"sharded", &sharded, 0},
      {"sharded", &sharded, window},
  };

  util::Table table({"backing", "shuffle", "rows_per_s", "vs_memory",
                     "io_ms", "shuffle_ms", "decode_ms", "stall_ms"});
  double memory_rows_per_s[2] = {0, 0};
  for (const Config& config : configs) {
    DrainResult best;
    best.seconds = 1e300;
    for (int r = 0; r < reps + 1; ++r) {  // rep 0 is the untimed warm-up
      if (drop_cache && config.source == &sharded)
        drop_page_cache(sharded, manifest);
      const DrainResult d = drain(*config.source, chunk, config.window);
      if (r > 0 && d.seconds < best.seconds) best = d;
    }
    const double rows_per_s =
        static_cast<double>(examples) / best.seconds;
    const bool shuffled = config.window > 0;
    if (config.source == &dataset)
      memory_rows_per_s[shuffled ? 1 : 0] = rows_per_s;
    const double vs_memory =
        rows_per_s / memory_rows_per_s[shuffled ? 1 : 0];
    table.add_row({config.backing, shuffled ? "on" : "off",
                   fmt("%.0f", rows_per_s), fmt("%.3f", vs_memory),
                   ms(best.stages.io.sum), ms(best.stages.shuffle.sum),
                   ms(best.stages.decode.sum), ms(best.stall_s)});
  }
  bench::emit(options, table, bench::Clock::kMeasured);

  // --- table 2: end-to-end training, memory vs shards ---
  std::printf("\n");
  core::TrainerConfig tcfg;
  tcfg.batch_size = 128;
  tcfg.chunk_examples = chunk;
  tcfg.epochs = static_cast<int>(options.get_int("train-epochs"));
  tcfg.level = core::OptLevel::kImproved;
  tcfg.shuffle_window = window;
  tcfg.seed = 42;

  util::Table train_table({"backing", "rows_per_s", "load_stall_ms",
                           "overlap_efficiency", "final_cost"});
  for (const char* backing : {"memory", "sharded"}) {
    core::SaeConfig mcfg;
    mcfg.visible = patch * patch;
    mcfg.hidden = options.get_int("hidden");
    core::SparseAutoencoder model(mcfg, 7);
    core::Trainer trainer(tcfg);
    const bool use_shards = std::string(backing) == "sharded";
    if (drop_cache && use_shards) drop_page_cache(sharded, manifest);
    const core::TrainReport report =
        use_shards ? trainer.train(model, sharded)
                   : trainer.train(model, dataset);
    const double rows =
        static_cast<double>(examples) * tcfg.epochs;
    const double overlap =
        report.wall_seconds > 0
            ? std::max(0.0, 1.0 - report.load_stall_seconds /
                                      report.wall_seconds)
            : 1.0;
    train_table.add_row({backing, fmt("%.0f", rows / report.wall_seconds),
                         ms(report.load_stall_seconds), fmt("%.4f", overlap),
                         fmt("%.6f", report.final_cost)});
  }
  bench::emit(options, train_table, bench::Clock::kMeasured);
  return 0;
}
