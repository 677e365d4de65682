// A rack of simulated Xeon Phi cards in one host (docs/cluster.md): N
// phi::Device timelines joined by an InterconnectSpec. It is the trainer's
// only attachment point for simulated hardware, so a single card is a
// one-card Cluster. Like the single Device, the Cluster never computes
// anything — the trainer runs the real kernels on the host, then charges
// each card's measured KernelStats and the collective's communication
// schedule here to learn what the step *would have cost* on the modeled
// machines.
//
// Timeline model of one global step:
//   per card:  h2d shard transfer (DMA) -> card compute (its replicas'
//              gradient work + its share of the combine), starting no
//              earlier than the previous step's barrier;
//   barrier:   the slowest card's compute completion;
//   collective: the inter-card all-reduce occupies [barrier, barrier+comm)
//              on the interconnect and becomes the next step's barrier.
// Collective occupancy is recorded in a cluster-level trace (DMA resource)
// so benches can read the communication share straight off the timeline.
//
// Fig. 5's chunk ring (ChunkRing) decides when each step's h2d may start, so
// ChunkRing plus submit_step is the one simulated timeline of chunk loading
// and training: the trainer steps it live, and a bench with synthetic
// chunks steps the same loop on a one-card cluster.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "phi/device.hpp"
#include "phi/interconnect.hpp"

namespace deepphi::phi {

struct ClusterConfig {
  int cards = 1;
  InterconnectSpec interconnect;  // default-constructed = pcie-p2p numbers
  /// Hardware threads per card; 0 selects each card's maximum.
  int threads_per_card = 0;
};

/// Interconnect activity: one step's collectives, or the accumulated total.
struct ClusterCommStats {
  double seconds = 0;
  double wire_bytes = 0;
  long long rounds = 0;
  long long collectives = 0;
};

/// The Fig. 5 chunk ring on a simulated timeline: chunk i's transfer may
/// start once ring slot i % ring_chunks is free again (the slot's previous
/// chunk has trained) and, without the loading thread, only after the
/// previous chunk finished training — the serialized configuration the paper
/// measures as "about 17% of the total time".
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

class Cluster {
 public:
  Cluster(MachineSpec card_spec, ClusterConfig config);

  int cards() const { return static_cast<int>(devices_.size()); }
  Device& device(int card) { return *devices_.at(static_cast<std::size_t>(card)); }
  const Device& device(int card) const {
    return *devices_.at(static_cast<std::size_t>(card));
  }
  const InterconnectSpec& interconnect() const { return config_.interconnect; }
  int threads_per_card() const { return devices_.front()->threads(); }

  /// Advances every card through one global step (a step may batch a whole
  /// chunk's worth of updates): card c DMAs `per_card_h2d_bytes[c]` (event
  /// "<name> h2d", not before `transfer_ready_s`), computes
  /// `per_card_stats[c]` ("<name> train", not before the previous step's
  /// barrier), and the step's collective activity `comm` runs after the
  /// slowest card. Returns the new barrier (simulated completion).
  double submit_step(const std::string& name,
                     const std::vector<KernelStats>& per_card_stats,
                     const std::vector<double>& per_card_h2d_bytes,
                     const ClusterCommStats& comm,
                     double transfer_ready_s = 0.0);

  /// Simulated completion time of the last collective (0 before any step).
  double barrier_s() const { return barrier_s_; }

  /// Simulated cluster wall time: the latest of any card's resources and
  /// the last collective.
  double elapsed_s() const;

  const ClusterCommStats& comm() const { return comm_; }

  /// Fraction of elapsed_s() the interconnect was the critical path.
  double comm_share() const;

  /// Collective occupancy on the interconnect, one event per step.
  const Trace& comm_trace() const { return comm_trace_; }

  /// Resets every card's timeline plus the barrier/comm accounting.
  void reset_timeline();

 private:
  ClusterConfig config_;
  std::vector<std::unique_ptr<Device>> devices_;
  double barrier_s_ = 0;
  ClusterCommStats comm_;
  Trace comm_trace_;
};

}  // namespace deepphi::phi
