#include "parallel/collectives.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "util/error.hpp"
#include "util/string_util.hpp"

namespace deepphi::par {

namespace {

int ceil_log2(int n) {
  int r = 0;
  while ((1 << r) < n) ++r;
  return r;
}

int floor_pow2(int n) {
  int p = 1;
  while (p * 2 <= n) p *= 2;
  return p;
}

}  // namespace

const char* collective_name(Collective c) {
  switch (c) {
    case Collective::kAuto: return "auto";
    case Collective::kTree: return "tree";
    case Collective::kRecursiveDoubling: return "rdouble";
    case Collective::kRing: return "ring";
  }
  return "?";
}

Collective parse_collective(const std::string& name) {
  const std::string v = util::to_lower(name);
  if (v == "auto") return Collective::kAuto;
  if (v == "tree") return Collective::kTree;
  if (v == "rdouble" || v == "recursive-doubling")
    return Collective::kRecursiveDoubling;
  if (v == "ring") return Collective::kRing;
  throw util::Error("unknown collective '" + name +
                    "' (auto | tree | rdouble | ring)");
}

double CollectiveSchedule::time_s(const phi::InterconnectSpec& link) const {
  if (rounds == 0) return 0;
  const double latency_s =
      static_cast<double>(rounds) * link.hops * link.link_latency_us * 1e-6;
  const double bw = link.link_gb_s * 1e9;
  if (bw <= 0) return latency_s;
  // Concurrent links: a round costs its largest message. Shared medium: the
  // whole collective's wire traffic funnels through one link, hop by hop.
  const double bandwidth_s =
      link.shared_medium
          ? link.hops * wire_bytes / bw
          : static_cast<double>(rounds) * link.hops * round_bytes / bw;
  return latency_s + bandwidth_s;
}

CollectiveSchedule all_reduce_schedule(Collective algorithm,
                                       double message_bytes, int cards) {
  DEEPPHI_CHECK_MSG(cards >= 1, "cards must be >= 1, got " << cards);
  DEEPPHI_CHECK_MSG(message_bytes >= 0,
                    "negative collective message " << message_bytes);
  DEEPPHI_CHECK_MSG(algorithm != Collective::kAuto,
                    "all_reduce_schedule needs a concrete algorithm "
                    "(resolve_collective first)");
  CollectiveSchedule s;
  s.algorithm = algorithm;
  s.cards = cards;
  s.message_bytes = message_bytes;
  if (cards == 1) return s;  // nothing crosses a link

  const double b = message_bytes;
  const int n = cards;
  switch (algorithm) {
    case Collective::kTree: {
      // Stride-doubling reduce to card 0, then the mirrored broadcast.
      const int levels = ceil_log2(n);
      s.rounds = 2 * levels;
      s.round_bytes = b;
      s.wire_bytes = 2.0 * (n - 1) * b;
      break;
    }
    case Collective::kRecursiveDoubling: {
      // Cards beyond the largest power of two fold in first and get the
      // result copied back out; the core exchanges full messages pairwise.
      const int m = floor_pow2(n);
      const int extra = n - m;
      const int levels = ceil_log2(m);
      s.rounds = levels + (extra > 0 ? 2 : 0);
      s.round_bytes = b;
      s.wire_bytes = static_cast<double>(m) * levels * b + 2.0 * extra * b;
      break;
    }
    case Collective::kRing: {
      // Reduce-scatter then allgather: every round moves the whole message
      // once, split into per-card chunks on concurrent neighbor links.
      s.rounds = 2 * (n - 1);
      s.round_bytes = b / n;
      s.wire_bytes = 2.0 * (n - 1) * b;
      break;
    }
    case Collective::kAuto: break;  // unreachable (checked above)
  }
  return s;
}

Collective resolve_collective(Collective requested, double message_bytes,
                              int cards, const phi::InterconnectSpec& link) {
  if (requested != Collective::kAuto) return requested;
  Collective best = Collective::kTree;
  double best_s =
      all_reduce_schedule(best, message_bytes, cards).time_s(link);
  for (Collective c : {Collective::kRecursiveDoubling, Collective::kRing}) {
    const double t = all_reduce_schedule(c, message_bytes, cards).time_s(link);
    if (t < best_s) {
      best = c;
      best_s = t;
    }
  }
  return best;
}

namespace {

struct WireCounter {
  int rounds = 0;
  double wire_bytes = 0;
  double round_bytes = 0;  // largest single message seen
  void message(double bytes) {
    wire_bytes += bytes;
    round_bytes = std::max(round_bytes, bytes);
  }
};

void add_into(float* dst, const float* src, la::Index n) {
  for (la::Index k = 0; k < n; ++k) dst[k] += src[k];
}

void tree_all_reduce(const std::vector<float*>& bufs, la::Index n,
                     WireCounter& wire) {
  const int cards = static_cast<int>(bufs.size());
  const double bytes = 4.0 * static_cast<double>(n);
  int top = 1;
  // Reduce: the exact stride-doubling pairing of the PR-5 combine.
  for (int stride = 1; stride < cards; stride *= 2) {
    ++wire.rounds;
    for (int i = 0; i + stride < cards; i += 2 * stride) {
      add_into(bufs[i], bufs[i + stride], n);
      wire.message(bytes);
    }
    top = stride;
  }
  // Broadcast: the mirrored binomial tree fans the root's sum back out.
  for (int stride = top; stride >= 1; stride /= 2) {
    ++wire.rounds;
    for (int i = 0; i + stride < cards; i += 2 * stride) {
      std::memcpy(bufs[i + stride], bufs[i],
                  sizeof(float) * static_cast<std::size_t>(n));
      wire.message(bytes);
    }
  }
}

void rdouble_all_reduce(const std::vector<float*>& bufs, la::Index n,
                        WireCounter& wire) {
  const int cards = static_cast<int>(bufs.size());
  const double bytes = 4.0 * static_cast<double>(n);
  const int m = floor_pow2(cards);
  const int extra = cards - m;
  if (extra > 0) {
    ++wire.rounds;
    for (int e = 0; e < extra; ++e) {
      add_into(bufs[e], bufs[m + e], n);
      wire.message(bytes);
    }
  }
  std::vector<float> pair_sum(static_cast<std::size_t>(n));
  for (int stride = 1; stride < m; stride *= 2) {
    ++wire.rounds;
    for (int i = 0; i < m; ++i) {
      if (i & stride) continue;
      const int j = i + stride;
      // Both partners compute the same sum; float addition is commutative,
      // so one shared evaluation is exactly what both would see.
      for (la::Index k = 0; k < n; ++k) pair_sum[k] = bufs[i][k] + bufs[j][k];
      std::memcpy(bufs[i], pair_sum.data(),
                  sizeof(float) * static_cast<std::size_t>(n));
      std::memcpy(bufs[j], pair_sum.data(),
                  sizeof(float) * static_cast<std::size_t>(n));
      wire.message(bytes);  // i -> j
      wire.message(bytes);  // j -> i (full-duplex exchange)
    }
  }
  if (extra > 0) {
    ++wire.rounds;
    for (int e = 0; e < extra; ++e) {
      std::memcpy(bufs[m + e], bufs[e],
                  sizeof(float) * static_cast<std::size_t>(n));
      wire.message(bytes);
    }
  }
}

void ring_all_reduce(const std::vector<float*>& bufs, la::Index n,
                     WireCounter& wire) {
  const int cards = static_cast<int>(bufs.size());
  const la::Index len = (n + cards - 1) / cards;  // chunk c: [c·len, …)
  auto chunk_begin = [&](int c) { return std::min<la::Index>(c * len, n); };
  auto chunk_rows = [&](int c) {
    return std::min<la::Index>(chunk_begin(c) + len, n) - chunk_begin(c);
  };
  std::vector<std::vector<float>> outgoing(static_cast<std::size_t>(cards));

  // Reduce-scatter: at step s, card i sends chunk (i−s) mod N to card i+1,
  // which accumulates it. All sends of a step are simultaneous, so payloads
  // snapshot before any accumulation lands.
  for (int s = 0; s + 1 < cards; ++s) {
    ++wire.rounds;
    for (int i = 0; i < cards; ++i) {
      const int c = ((i - s) % cards + cards) % cards;
      const la::Index rows = chunk_rows(c);
      auto& out = outgoing[static_cast<std::size_t>(i)];
      out.assign(bufs[i] + chunk_begin(c), bufs[i] + chunk_begin(c) + rows);
    }
    for (int i = 0; i < cards; ++i) {
      const int c = ((i - s) % cards + cards) % cards;
      const int dst = (i + 1) % cards;
      const la::Index rows = chunk_rows(c);
      add_into(bufs[dst] + chunk_begin(c),
               outgoing[static_cast<std::size_t>(i)].data(), rows);
      wire.message(4.0 * static_cast<double>(rows));
    }
  }
  // Allgather: card i now owns the completed chunk (i+1) mod N; finished
  // chunks circulate N−1 more steps.
  for (int s = 0; s + 1 < cards; ++s) {
    ++wire.rounds;
    for (int i = 0; i < cards; ++i) {
      const int c = ((i + 1 - s) % cards + cards) % cards;
      const int dst = (i + 1) % cards;
      const la::Index rows = chunk_rows(c);
      std::memcpy(bufs[dst] + chunk_begin(c), bufs[i] + chunk_begin(c),
                  sizeof(float) * static_cast<std::size_t>(rows));
      wire.message(4.0 * static_cast<double>(rows));
    }
  }
}

}  // namespace

CollectiveSchedule all_reduce(Collective algorithm,
                              const std::vector<float*>& bufs, la::Index n) {
  DEEPPHI_CHECK_MSG(!bufs.empty(), "all_reduce over zero cards");
  DEEPPHI_CHECK_MSG(n >= 0, "negative all_reduce length " << n);
  DEEPPHI_CHECK_MSG(algorithm != Collective::kAuto,
                    "all_reduce needs a concrete algorithm");
  WireCounter wire;
  if (bufs.size() > 1) {
    switch (algorithm) {
      case Collective::kTree: tree_all_reduce(bufs, n, wire); break;
      case Collective::kRecursiveDoubling:
        rdouble_all_reduce(bufs, n, wire);
        break;
      case Collective::kRing: ring_all_reduce(bufs, n, wire); break;
      case Collective::kAuto: break;  // unreachable (checked above)
    }
  }
  CollectiveSchedule executed;
  executed.algorithm = algorithm;
  executed.cards = static_cast<int>(bufs.size());
  executed.message_bytes = 4.0 * static_cast<double>(n);
  executed.rounds = wire.rounds;
  executed.round_bytes = wire.round_bytes;
  executed.wire_bytes = wire.wire_bytes;
  return executed;
}

}  // namespace deepphi::par
