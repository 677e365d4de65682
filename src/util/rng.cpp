#include "util/rng.hpp"

#include <cmath>

namespace deepphi::util {

Rng::Rng(std::uint64_t seed, std::uint64_t stream) : seed_(seed), stream_(stream) {
  // Mix seed and stream through SplitMix64 so that nearby (seed, stream)
  // pairs land far apart in state space.
  SplitMix64 sm(seed ^ (0x632be59bd9b4e019ULL * (stream + 1)));
  for (auto& s : s_) s = sm.next();
  // xoshiro must not start in the all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next_u64() { return step(s_); }

double Rng::uniform() {
  // 53 high bits → double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

float Rng::uniform_float() {
  // 24 high bits → float in [0, 1).
  return static_cast<float>(next_u64() >> 40) * 0x1.0p-24f;
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box–Muller; u1 is kept away from zero to avoid log(0).
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * 3.14159265358979323846 * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) { return mean + stddev * normal(); }

bool Rng::bernoulli(double p) { return uniform() < p; }

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  // Rejection sampling to kill modulo bias.
  const std::uint64_t limit = (~0ULL) - (~0ULL) % n;
  std::uint64_t x;
  do {
    x = next_u64();
  } while (x >= limit);
  return x % n;
}

Rng Rng::split(std::uint64_t k) const {
  // Derive a substream from the original seed material, not the evolving
  // state, so split(k) is stable regardless of how much has been drawn.
  return Rng(seed_, stream_ * 0x9e3779b97f4a7c15ULL + k + 1);
}

}  // namespace deepphi::util
