// Offload engine: the paper's Fig. 5 chunked data-feeding design on the
// simulated device timeline.
//
// The training set lives on the host; the device holds a ring of chunk
// buffers in global memory. With async loading (the paper's loading thread),
// the transfer of chunk i+1 proceeds on the DMA resource while chunk i is
// being trained on; without it, every transfer serializes with compute —
// the configuration the paper measures as "about 17% of the total time".
//
// process_chunks() runs the discrete-event simulation at chunk granularity
// and returns both the aggregate simulated time and per-chunk timings (used
// by tests to assert the overlap really happens). It replays a finished run
// (core::simulate); a run that attaches a phi::Cluster drives the same
// ChunkRing live, and the ring's arena reservation is the trainer's.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "phi/device.hpp"

namespace deepphi::phi {

struct OffloadConfig {
  /// Fig. 5 loading thread: transfers overlap training of prior chunks.
  bool async_loading = true;
  /// Device-side loading-buffer depth in chunks ("we set its size as several
  /// times as that of a data chunk").
  int ring_chunks = 4;
};

struct ChunkTiming {
  double transfer_start_s = 0;
  double transfer_end_s = 0;
  double compute_start_s = 0;
  double compute_end_s = 0;
};

struct OffloadReport {
  std::vector<ChunkTiming> chunks;
  double total_s = 0;          // simulated end-to-end time
  double compute_busy_s = 0;   // total compute-resource busy time
  double transfer_busy_s = 0;  // total DMA-resource busy time
  /// Fraction of end-to-end time that is transfer not hidden by compute.
  double exposed_transfer_fraction() const;
};

/// The Fig. 5 chunk ring on a simulated timeline: chunk i's transfer may
/// start once ring slot i % ring_chunks is free again (the slot's previous
/// chunk has trained) and, without the loading thread, only after the
/// previous chunk finished training. The one home of this arithmetic:
/// Offload::process_chunks and the trainer's cluster timeline both step
/// through it.
class ChunkRing {
 public:
  ChunkRing(int ring_chunks, bool async_loading);

  /// Earliest simulated time chunk `i`'s transfer may start.
  double transfer_ready(std::int64_t i) const;
  /// Chunk `i` finished training at `end_s`; its slot frees then.
  void trained(std::int64_t i, double end_s);

 private:
  std::vector<double> slot_free_;
  double last_trained_s_ = 0.0;
  bool async_loading_;
};

class Offload {
 public:
  Offload(Device& device, OffloadConfig config);

  const OffloadConfig& config() const { return config_; }

  /// Simulates feeding and training `n_chunks` chunks, each `chunk_bytes` of
  /// training data costing `per_chunk_stats` of compute. The device timeline
  /// is advanced; the report carries per-chunk timings.
  OffloadReport process_chunks(int n_chunks, double chunk_bytes,
                               const KernelStats& per_chunk_stats);

 private:
  Device& device_;
  OffloadConfig config_;
};

}  // namespace deepphi::phi
