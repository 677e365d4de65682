#include "baseline/naive_gemm.hpp"

#include "phi/kernel_stats.hpp"
#include "util/error.hpp"

namespace deepphi::baseline {

void naive_gemm(la::Trans trans_a, la::Trans trans_b, float alpha,
                const la::Matrix& a, const la::Matrix& b, float beta,
                la::Matrix& c) {
  using la::Index;
  using la::Trans;
  const Index m = trans_a == Trans::kNo ? a.rows() : a.cols();
  const Index ka = trans_a == Trans::kNo ? a.cols() : a.rows();
  const Index kb = trans_b == Trans::kNo ? b.rows() : b.cols();
  const Index n = trans_b == Trans::kNo ? b.cols() : b.rows();
  DEEPPHI_CHECK_MSG(ka == kb, "naive_gemm inner dims " << ka << " vs " << kb);
  DEEPPHI_CHECK_MSG(c.rows() == m && c.cols() == n,
                    "naive_gemm C must be " << m << "x" << n);
  phi::record(phi::naive_gemm_contribution(m, n, ka));
  if (phi::dry_run()) return;

  auto av = [&](Index i, Index p) {
    return trans_a == Trans::kNo ? a(i, p) : a(p, i);
  };
  auto bv = [&](Index p, Index j) {
    return trans_b == Trans::kNo ? b(p, j) : b(j, p);
  };
  for (Index i = 0; i < m; ++i) {
    for (Index j = 0; j < n; ++j) {
      double acc = 0.0;
      for (Index p = 0; p < ka; ++p)
        acc += static_cast<double>(av(i, p)) * bv(p, j);
      c(i, j) = alpha * static_cast<float>(acc) + beta * c(i, j);
    }
  }
}

}  // namespace deepphi::baseline
