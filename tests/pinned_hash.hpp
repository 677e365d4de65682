// Helpers for the tests that pin results across versions: an FNV-1a hash of
// float bytes, and a loop that runs a body on every runnable SIMD tier at 1
// and at 4 OpenMP threads.
#pragma once

#ifdef _OPENMP
#include <omp.h>
#endif

#include <cstdint>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "la/matrix.hpp"
#include "la/simd/dispatch.hpp"

namespace deepphi::test {

class Fnv1a {
 public:
  void add(const float* p, la::Index n) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(p);
    const std::size_t len = sizeof(float) * static_cast<std::size_t>(n);
    for (std::size_t i = 0; i < len; ++i) {
      h_ ^= bytes[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(const la::Matrix& m) { add(m.data(), m.size()); }
  void add(const la::Vector& v) { add(v.data(), v.size()); }
  std::string hex() const {
    char buf[19];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

#ifdef _OPENMP
class OmpThreadGuard {
 public:
  explicit OmpThreadGuard(int threads) : prev_(omp_get_max_threads()) {
    omp_set_num_threads(threads);
  }
  ~OmpThreadGuard() { omp_set_num_threads(prev_); }

 private:
  int prev_;
};
#endif

/// Runs `body(where)` with each runnable SIMD tier forced, at 1 and at 4
/// OpenMP threads; `where` names the configuration for failure messages.
/// Restores the startup tier afterwards.
template <class Body>
void for_each_tier_and_thread_count(Body&& body) {
  for (int t = 0; t < la::simd::kNumTiers; ++t) {
    const auto tier = static_cast<la::simd::Tier>(t);
    if (!la::simd::tier_available(tier)) continue;
    EXPECT_TRUE(la::simd::force_tier(tier));
    for (int threads : {1, 4}) {
#ifdef _OPENMP
      OmpThreadGuard guard(threads);
#endif
      body(std::string(la::simd::tier_name(tier)) + " at " +
           std::to_string(threads) + " threads");
    }
  }
  la::simd::reset_tier();
}

}  // namespace deepphi::test
