#include "la/transpose.hpp"

#include "phi/kernel_stats.hpp"

namespace deepphi::la {

namespace {
constexpr Index kBlock = 32;  // 32x32 float tile = 4 KB, fits L1 twice over
}

void transpose(const Matrix& in, Matrix& out) {
  DEEPPHI_CHECK_MSG(out.rows() == in.cols() && out.cols() == in.rows(),
                    "transpose target must be " << in.cols() << "x" << in.rows()
                                                << ", got " << out.rows() << "x"
                                                << out.cols());
  phi::record(phi::loop_contribution(in.size(), 0.0, 1.0, 1.0));
  if (phi::dry_run()) return;
  const Index m = in.rows();
  const Index n = in.cols();
#pragma omp parallel for collapse(2) if (in.size() >= (1 << 16)) schedule(static)
  for (Index rb = 0; rb < m; rb += kBlock) {
    for (Index cb = 0; cb < n; cb += kBlock) {
      const Index rmax = std::min(rb + kBlock, m);
      const Index cmax = std::min(cb + kBlock, n);
      for (Index r = rb; r < rmax; ++r)
        for (Index c = cb; c < cmax; ++c) out(c, r) = in(r, c);
    }
  }
}

Matrix transposed(const Matrix& in) {
  Matrix out = Matrix::uninitialized(in.cols(), in.rows());
  transpose(in, out);
  return out;
}

}  // namespace deepphi::la
