// Inter-card all-reduce collectives (docs/cluster.md): the algorithms a
// multi-card gradient combine can run on phi::Cluster's interconnect, each
// described as a SCHEDULE — sequential rounds, per-message bytes, total wire
// traffic — that the interconnect model converts to simulated seconds.
//
//  * tree       — PR-5's fixed binary tree, reduce-to-root then broadcast:
//                 2·ceil(log2 N) rounds of the full message. Fewest flops,
//                 but the bandwidth term grows with log2(N)·bytes.
//  * rdouble    — recursive doubling: log2(N) full-message pairwise
//                 exchanges (plus a fold-in/copy-out round pair when N is
//                 not a power of two). Latency-optimal for an all-reduce.
//  * ring       — reduce-scatter + allgather around a ring: 2(N−1) rounds of
//                 bytes/N. Bandwidth-optimal (each card moves ~2·bytes
//                 regardless of N) but pays 2(N−1) latencies — the classic
//                 large-message winner on point-to-point links.
//  * auto       — evaluate all three schedules under the active interconnect
//                 and take the cheapest (so selection is never worse than the
//                 best fixed algorithm at any message size by construction).
//
// all_reduce() is the functional counterpart used by tests and benches: it
// really moves and sums data between per-card buffers in each algorithm's
// pattern and returns the schedule it executed, so the modeled byte counts
// are pinned to real data movement. NOTE the determinism contract: the
// cluster TRAINER does not combine through these (their summation orders
// differ per algorithm and per N); it keeps the canonical global-slot tree
// so trained weights are bitwise invariant to geometry and algorithm, and
// charges the schedule to the interconnect — the cluster analogue of "the
// Device never computes anything" (phi/device.hpp).
#pragma once

#include <string>
#include <vector>

#include "la/matrix.hpp"
#include "phi/interconnect.hpp"

namespace deepphi::par {

enum class Collective { kAuto = 0, kTree, kRecursiveDoubling, kRing };

/// "auto" | "tree" | "rdouble" | "ring".
const char* collective_name(Collective c);

/// Inverse of collective_name; throws util::Error on anything else.
Collective parse_collective(const std::string& name);

/// Communication plan of one all-reduce of `message_bytes` over `cards`.
struct CollectiveSchedule {
  Collective algorithm = Collective::kTree;
  int cards = 1;
  double message_bytes = 0;
  /// Sequential interconnect rounds (0 when cards == 1: nothing moves).
  int rounds = 0;
  /// Bytes of one message within a round (messages of a round are
  /// concurrent on point-to-point links).
  double round_bytes = 0;
  /// Total bytes crossing inter-card links over the whole collective.
  double wire_bytes = 0;

  /// Modeled seconds on `link`: every round pays the per-hop latency; the
  /// bandwidth term is per-message on concurrent links but serializes the
  /// full wire traffic on a shared medium (host-staged staging).
  double time_s(const phi::InterconnectSpec& link) const;
};

/// The schedule of `algorithm` (must not be kAuto) at this size/card count.
CollectiveSchedule all_reduce_schedule(Collective algorithm,
                                       double message_bytes, int cards);

/// Resolves `requested` to a concrete algorithm: a concrete request is
/// returned unchanged; kAuto picks the schedule with the smallest modeled
/// time on `link` (ties break tree < rdouble < ring).
Collective resolve_collective(Collective requested, double message_bytes,
                              int cards, const phi::InterconnectSpec& link);

/// Functional all-reduce-sum over per-card buffers: after the call every
/// bufs[c][0..n) holds the element-wise sum of all cards' inputs, produced
/// by `algorithm`'s real data movement (tree reduce/broadcast, pairwise
/// exchanges, ring reduce-scatter + allgather). Returns the executed
/// schedule with rounds/wire_bytes counted from the actual messages —
/// pinned equal to all_reduce_schedule() by tests.
CollectiveSchedule all_reduce(Collective algorithm,
                              const std::vector<float*>& bufs, la::Index n);

}  // namespace deepphi::par
