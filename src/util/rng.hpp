// Deterministic, splittable random number generation.
//
// Training code never touches std::mt19937: we need (a) identical streams on
// sequential and parallel runs for parity tests, and (b) cheap per-thread
// streams. xoshiro256** provides the core generator; SplitMix64 expands a
// (seed, stream) pair into generator state, so Rng(seed, k) for distinct k are
// statistically independent.
#pragma once

#include <cstdint>

namespace deepphi::util {

/// SplitMix64: used to seed xoshiro and as a tiny standalone generator for
/// hashing-style uses.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** 1.0 by Blackman & Vigna (public domain reference algorithm),
/// wrapped with convenience distributions used by the trainers.
class Rng {
 public:
  /// Seeds the generator from (seed, stream). Distinct streams with the same
  /// seed produce independent sequences; used to give each thread / purpose
  /// its own stream: Rng(seed, hash(thread, purpose)).
  explicit Rng(std::uint64_t seed, std::uint64_t stream = 0);

  /// Raw 64 random bits.
  std::uint64_t next_u64();

  /// Uniform in [0, 1).
  double uniform();
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform float in [0, 1) — the type used by sampling kernels.
  float uniform_float();
  /// Writes the n floats that n calls of uniform_float() return, in order,
  /// and leaves the generator where those calls would. Inline, with the
  /// state in registers, for the sampling kernels' per-row draws.
  void fill_uniform_float(float* out, std::int64_t n) {
    std::uint64_t s[4] = {s_[0], s_[1], s_[2], s_[3]};
    for (std::int64_t i = 0; i < n; ++i)
      out[i] = static_cast<float>(step(s) >> 40) * 0x1.0p-24f;
    for (int k = 0; k < 4; ++k) s_[k] = s[k];
  }

  /// Standard normal via Box–Muller (cached pair).
  double normal();
  /// Normal with the given mean/stddev.
  double normal(double mean, double stddev);

  /// Bernoulli(p) — true with probability p.
  bool bernoulli(double p);

  /// Uniform integer in [0, n) for n > 0.
  std::uint64_t uniform_index(std::uint64_t n);

  /// Long-jump equivalent: returns a new Rng for substream `k`, derived
  /// deterministically from this generator's seed material.
  Rng split(std::uint64_t k) const;

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  /// One xoshiro256** step of state `s`; returns the output word.
  static std::uint64_t step(std::uint64_t* s) {
    const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
    const std::uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl(s[3], 45);
    return result;
  }

  std::uint64_t s_[4];
  std::uint64_t seed_ = 0;
  std::uint64_t stream_ = 0;
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace deepphi::util
