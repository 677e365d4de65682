// Inter-card interconnect model for phi::Cluster: how two simulated 5110P
// cards in one host exchange a message, charged in seconds the same way the
// cost model charges kernels and a card's DMA resource charges chunk loads.
//
// Two calibrated paths exist on the paper-era platform:
//  * PCIe peer-to-peer — cards DMA directly into each other's global memory
//    through the PCIe switch. One hop; disjoint card pairs transfer
//    concurrently (the switch routes them independently).
//  * host-staged — a d2h copy into a host bounce buffer followed by an h2d
//    copy into the destination card. Two hops, and every message crosses the
//    single host link, so concurrent messages of a collective round
//    serialize on it (shared_medium below) — the configuration that makes
//    latency-light algorithms win even at large message sizes.
#pragma once

#include <string>

namespace deepphi::phi {

struct InterconnectSpec {
  std::string name;
  /// Per-hop link bandwidth (raw PCIe copy rate of the testbed).
  double link_gb_s = 6.0;
  /// Per-hop setup latency (DMA descriptor + doorbell).
  double link_latency_us = 15.0;
  /// Hops a message crosses: 1 = peer-to-peer DMA, 2 = staged through host.
  int hops = 1;
  /// True when all messages share one medium (the host link): a round's
  /// concurrent messages serialize instead of proceeding in parallel.
  bool shared_medium = false;

  /// Modeled seconds of ONE point-to-point message of `bytes`.
  double message_time_s(double bytes) const;

  std::string to_string() const;
};

/// Direct PCIe peer-to-peer DMA between cards (one hop, concurrent pairs).
InterconnectSpec pcie_p2p_interconnect();

/// Transfer staged through a host bounce buffer (two hops, shared medium).
InterconnectSpec host_staged_interconnect();

/// "pcie" / "p2p" / "pcie-p2p" → peer-to-peer, "host" / "host-staged" →
/// staged; throws util::Error on anything else.
InterconnectSpec parse_interconnect(const std::string& name);

}  // namespace deepphi::phi
