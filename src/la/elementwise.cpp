#include "la/elementwise.hpp"

#include <algorithm>

#include "la/simd/dispatch.hpp"
#include "phi/kernel_stats.hpp"

namespace deepphi::la {

namespace {
constexpr Index kParallelThreshold = 1 << 14;

// Parallel grain for the flat dispatched kernels: big enough to amortize the
// indirect call, small enough to spread short arrays over the team. Chunking
// never changes results — the dispatched kernels are strictly elementwise.
constexpr Index kFlatChunk = 1 << 12;

// Uniform draws for the sampling kernels are pre-generated into this many
// elements at a time, in column-ascending order — the exact sequence the
// former scalar loops consumed — so the RNG stream is identical on every
// dispatch tier and only the sigmoid + compare are vectorized.
constexpr Index kUniformChunk = 256;
}  // namespace

void sigmoid_inplace(Matrix& m) {
  phi::record(phi::naive_loop_contribution(m.size(), 400.0, 1.0, 1.0));
  if (phi::dry_run()) return;
  const simd::KernelTable& tab = simd::active();
  float* p = m.data();
  const Index n = m.size();
  const Index chunks = (n + kFlatChunk - 1) / kFlatChunk;
#pragma omp parallel for if (n >= kParallelThreshold) schedule(static)
  for (Index c = 0; c < chunks; ++c) {
    const Index b = c * kFlatChunk;
    tab.sigmoid(p + b, std::min(kFlatChunk, n - b));
  }
}

void add_row_broadcast(Matrix& m, const Vector& bias) {
  DEEPPHI_CHECK_MSG(bias.size() == m.cols(), "bias size " << bias.size()
                                                          << " != cols " << m.cols());
  phi::record(phi::naive_loop_contribution(m.size(), 1.0, 1.0, 1.0));
  if (phi::dry_run()) return;
  const Index rows = m.rows();
  const Index cols = m.cols();
  const float* bp = bias.data();
#pragma omp parallel for if (m.size() >= kParallelThreshold) schedule(static)
  for (Index r = 0; r < rows; ++r) {
    float* row = m.row(r);
#pragma omp simd
    for (Index c = 0; c < cols; ++c) row[c] += bp[c];
  }
}

void sub(const Matrix& a, const Matrix& b, Matrix& out) {
  DEEPPHI_CHECK_MSG(a.rows() == b.rows() && a.cols() == b.cols() &&
                        a.rows() == out.rows() && a.cols() == out.cols(),
                    "sub shape mismatch");
  phi::record(phi::naive_loop_contribution(a.size(), 1.0, 2.0, 1.0));
  if (phi::dry_run()) return;
  const float* ap = a.data();
  const float* bp = b.data();
  float* op = out.data();
  const Index n = a.size();
#pragma omp parallel for simd if (n >= kParallelThreshold) schedule(static)
  for (Index i = 0; i < n; ++i) op[i] = ap[i] - bp[i];
}

void hadamard(const Matrix& a, const Matrix& b, Matrix& out) {
  DEEPPHI_CHECK_MSG(a.rows() == b.rows() && a.cols() == b.cols() &&
                        a.rows() == out.rows() && a.cols() == out.cols(),
                    "hadamard shape mismatch");
  phi::record(phi::naive_loop_contribution(a.size(), 1.0, 2.0, 1.0));
  if (phi::dry_run()) return;
  const float* ap = a.data();
  const float* bp = b.data();
  float* op = out.data();
  const Index n = a.size();
#pragma omp parallel for simd if (n >= kParallelThreshold) schedule(static)
  for (Index i = 0; i < n; ++i) op[i] = ap[i] * bp[i];
}

void dsigmoid_mul_inplace(Matrix& delta, const Matrix& act) {
  DEEPPHI_CHECK_MSG(delta.rows() == act.rows() && delta.cols() == act.cols(),
                    "dsigmoid shape mismatch");
  phi::record(phi::naive_loop_contribution(delta.size(), 3.0, 2.0, 1.0));
  if (phi::dry_run()) return;
  const simd::KernelTable& tab = simd::active();
  float* dp = delta.data();
  const float* yp = act.data();
  const Index n = delta.size();
  const Index chunks = (n + kFlatChunk - 1) / kFlatChunk;
#pragma omp parallel for if (n >= kParallelThreshold) schedule(static)
  for (Index c = 0; c < chunks; ++c) {
    const Index b = c * kFlatChunk;
    tab.dsigmoid_mul(dp + b, yp + b, std::min(kFlatChunk, n - b));
  }
}

void sample_bernoulli(const Matrix& mean, Matrix& out, const util::Rng& base) {
  DEEPPHI_CHECK_MSG(mean.rows() == out.rows() && mean.cols() == out.cols(),
                    "sample shape mismatch");
  phi::record(phi::naive_loop_contribution(mean.size(), 100.0, 1.0, 1.0));
  if (phi::dry_run()) return;
  const simd::KernelTable& tab = simd::active();
  const Index rows = mean.rows();
  const Index cols = mean.cols();
#pragma omp parallel for if (mean.size() >= kParallelThreshold) schedule(static)
  for (Index r = 0; r < rows; ++r) {
    util::Rng rng = base.split(static_cast<std::uint64_t>(r));
    const float* mp = mean.row(r);
    float* op = out.row(r);
    float u[kUniformChunk];
    for (Index c0 = 0; c0 < cols; c0 += kUniformChunk) {
      const Index len = std::min(kUniformChunk, cols - c0);
      for (Index i = 0; i < len; ++i) u[i] = rng.uniform_float();
      tab.bernoulli_compare(mp + c0, u, op + c0, len);
    }
  }
}

void bias_sigmoid(Matrix& m, const Vector& bias) {
  DEEPPHI_CHECK_MSG(bias.size() == m.cols(), "bias size " << bias.size()
                                                          << " != cols " << m.cols());
  phi::record(phi::loop_contribution(m.size(), 9.0, 1.0, 1.0));
  if (phi::dry_run()) return;
  const simd::KernelTable& tab = simd::active();
  const Index rows = m.rows();
  const Index cols = m.cols();
  const float* bp = bias.data();
#pragma omp parallel for if (m.size() >= kParallelThreshold) schedule(static)
  for (Index r = 0; r < rows; ++r) tab.bias_sigmoid(m.row(r), bp, cols);
}

void output_delta(const Matrix& z, const Matrix& x, Matrix& delta) {
  DEEPPHI_CHECK_MSG(z.rows() == x.rows() && z.cols() == x.cols() &&
                        z.rows() == delta.rows() && z.cols() == delta.cols(),
                    "output_delta shape mismatch");
  phi::record(phi::loop_contribution(z.size(), 4.0, 2.0, 1.0));
  if (phi::dry_run()) return;
  const float* zp = z.data();
  const float* xp = x.data();
  float* dp = delta.data();
  const Index n = z.size();
#pragma omp parallel for simd if (n >= kParallelThreshold) schedule(static)
  for (Index i = 0; i < n; ++i)
    dp[i] = (zp[i] - xp[i]) * zp[i] * (1.0f - zp[i]);
}

void hidden_delta(Matrix& back, const Vector& sparse, const Matrix& y) {
  DEEPPHI_CHECK_MSG(back.rows() == y.rows() && back.cols() == y.cols() &&
                        sparse.size() == back.cols(),
                    "hidden_delta shape mismatch");
  phi::record(phi::loop_contribution(back.size(), 4.0, 2.0, 1.0));
  if (phi::dry_run()) return;
  const Index rows = back.rows();
  const Index cols = back.cols();
  const float* sp = sparse.data();
#pragma omp parallel for if (back.size() >= kParallelThreshold) schedule(static)
  for (Index r = 0; r < rows; ++r) {
    float* bp = back.row(r);
    const float* yp = y.row(r);
#pragma omp simd
    for (Index c = 0; c < cols; ++c)
      bp[c] = (bp[c] + sp[c]) * yp[c] * (1.0f - yp[c]);
  }
}

void bias_sigmoid_sample(Matrix& m, const Vector& bias, Matrix& sample,
                         const util::Rng& base) {
  DEEPPHI_CHECK_MSG(bias.size() == m.cols() && sample.rows() == m.rows() &&
                        sample.cols() == m.cols(),
                    "bias_sigmoid_sample shape mismatch");
  phi::record(phi::loop_contribution(m.size(), 20.0, 1.0, 2.0));
  if (phi::dry_run()) return;
  const simd::KernelTable& tab = simd::active();
  const Index rows = m.rows();
  const Index cols = m.cols();
  const float* bp = bias.data();
#pragma omp parallel for if (m.size() >= kParallelThreshold) schedule(static)
  for (Index r = 0; r < rows; ++r) {
    util::Rng rng = base.split(static_cast<std::uint64_t>(r));
    float* mp = m.row(r);
    float* sp = sample.row(r);
    float u[kUniformChunk];
    for (Index c0 = 0; c0 < cols; c0 += kUniformChunk) {
      const Index len = std::min(kUniformChunk, cols - c0);
      for (Index i = 0; i < len; ++i) u[i] = rng.uniform_float();
      tab.bias_sigmoid_sample(mp + c0, bp + c0, sp + c0, u, len);
    }
  }
}

void add_row_broadcast_vec(Matrix& m, const Vector& bias) {
  DEEPPHI_CHECK_MSG(bias.size() == m.cols(), "bias size " << bias.size()
                                                          << " != cols " << m.cols());
  phi::record(phi::loop_contribution(m.size(), 1.0, 1.0, 1.0));
  if (phi::dry_run()) return;
  const Index rows = m.rows();
  const Index cols = m.cols();
  const float* bp = bias.data();
#pragma omp parallel for if (m.size() >= kParallelThreshold) schedule(static)
  for (Index r = 0; r < rows; ++r) {
    float* row = m.row(r);
#pragma omp simd
    for (Index c = 0; c < cols; ++c) row[c] += bp[c];
  }
}

void add_gaussian_noise(Matrix& m, float sigma, const util::Rng& base) {
  phi::record(phi::loop_contribution(m.size(), 15.0, 1.0, 1.0));
  if (phi::dry_run()) return;
  const Index rows = m.rows();
  const Index cols = m.cols();
#pragma omp parallel for if (m.size() >= kParallelThreshold) schedule(static)
  for (Index r = 0; r < rows; ++r) {
    util::Rng rng = base.split(static_cast<std::uint64_t>(r));
    float* row = m.row(r);
    for (Index c = 0; c < cols; ++c)
      row[c] += sigma * static_cast<float>(rng.normal());
  }
}

}  // namespace deepphi::la
