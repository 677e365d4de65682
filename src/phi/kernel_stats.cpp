#include "phi/kernel_stats.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace deepphi::phi {

namespace {
thread_local KernelStats* t_current = nullptr;
thread_local bool t_dry = false;

bool close(double a, double b, double rtol) {
  const double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
  return std::fabs(a - b) <= rtol * scale;
}
}  // namespace

int gemm_bucket(std::int64_t min_dim) {
  if (min_dim < 64) return 0;
  if (min_dim < 256) return 1;
  if (min_dim < 1024) return 2;
  return 3;
}

KernelStats& KernelStats::operator+=(const KernelStats& o) {
  gemm_flops += o.gemm_flops;
  for (int b = 0; b < kGemmBuckets; ++b)
    gemm_flops_bucket[b] += o.gemm_flops_bucket[b];
  loop_flops += o.loop_flops;
  naive_flops += o.naive_flops;
  bytes_read += o.bytes_read;
  bytes_written += o.bytes_written;
  kernel_launches += o.kernel_launches;
  barriers += o.barriers;
  fused_epilogues += o.fused_epilogues;
  h2d_bytes += o.h2d_bytes;
  d2h_bytes += o.d2h_bytes;
  transfers += o.transfers;
  return *this;
}

KernelStats KernelStats::operator+(const KernelStats& o) const {
  KernelStats s = *this;
  s += o;
  return s;
}

KernelStats KernelStats::scaled(double factor) const {
  KernelStats s = *this;
  s.gemm_flops *= factor;
  for (int b = 0; b < kGemmBuckets; ++b) s.gemm_flops_bucket[b] *= factor;
  s.loop_flops *= factor;
  s.naive_flops *= factor;
  s.bytes_read *= factor;
  s.bytes_written *= factor;
  s.kernel_launches = static_cast<std::int64_t>(std::llround(kernel_launches * factor));
  s.barriers = static_cast<std::int64_t>(std::llround(barriers * factor));
  s.fused_epilogues = static_cast<std::int64_t>(std::llround(fused_epilogues * factor));
  s.h2d_bytes *= factor;
  s.d2h_bytes *= factor;
  s.transfers = static_cast<std::int64_t>(std::llround(transfers * factor));
  return s;
}

bool KernelStats::approx_equal(const KernelStats& o, double rtol) const {
  for (int b = 0; b < kGemmBuckets; ++b)
    if (!close(gemm_flops_bucket[b], o.gemm_flops_bucket[b], rtol)) return false;
  return close(gemm_flops, o.gemm_flops, rtol) &&
         close(loop_flops, o.loop_flops, rtol) &&
         close(naive_flops, o.naive_flops, rtol) &&
         close(bytes_read, o.bytes_read, rtol) &&
         close(bytes_written, o.bytes_written, rtol) &&
         kernel_launches == o.kernel_launches && barriers == o.barriers &&
         fused_epilogues == o.fused_epilogues &&
         close(h2d_bytes, o.h2d_bytes, rtol) && close(d2h_bytes, o.d2h_bytes, rtol) &&
         transfers == o.transfers;
}

std::string KernelStats::to_string() const {
  std::ostringstream os;
  os << "KernelStats{gemm=" << gemm_flops << " loop=" << loop_flops
     << " naive=" << naive_flops << " rd=" << bytes_read << " wr=" << bytes_written
     << " launches=" << kernel_launches << " barriers=" << barriers
     << " fused=" << fused_epilogues
     << " h2d=" << h2d_bytes << " d2h=" << d2h_bytes << " xfers=" << transfers
     << "}";
  return os.str();
}

StatsScope::StatsScope(KernelStats& sink) : prev_(t_current) { t_current = &sink; }

StatsScope::~StatsScope() { t_current = prev_; }

void record(const KernelStats& contribution) {
  if (t_current != nullptr) *t_current += contribution;
}

KernelStats* current_stats() { return t_current; }

DryRun::DryRun(bool dry) : prev_(t_dry) { t_dry = dry; }

DryRun::~DryRun() { t_dry = prev_; }

bool dry_run() { return t_dry; }

KernelStats gemm_contribution(std::int64_t m, std::int64_t n, std::int64_t k) {
  KernelStats s;
  s.gemm_flops = 2.0 * static_cast<double>(m) * static_cast<double>(n) *
                 static_cast<double>(k);
  s.gemm_flops_bucket[gemm_bucket(std::min({m, n, k}))] = s.gemm_flops;
  // GEMM cache traffic is folded into the machine's gemm_efficiency; the
  // bytes fields carry only the bandwidth-bound loop/naive traffic so the
  // cost model's memory roofline applies to the right kernels.
  s.kernel_launches = 1;
  return s;
}

KernelStats naive_gemm_contribution(std::int64_t m, std::int64_t n, std::int64_t k) {
  KernelStats s;
  s.naive_flops = 2.0 * static_cast<double>(m) * static_cast<double>(n) *
                  static_cast<double>(k);
  s.kernel_launches = 1;
  return s;
}

KernelStats loop_contribution(std::int64_t n, double flops_per_elem,
                              double floats_read_per_elem,
                              double floats_written_per_elem) {
  KernelStats s;
  s.loop_flops = static_cast<double>(n) * flops_per_elem;
  s.bytes_read = 4.0 * static_cast<double>(n) * floats_read_per_elem;
  s.bytes_written = 4.0 * static_cast<double>(n) * floats_written_per_elem;
  s.kernel_launches = 1;
  return s;
}

KernelStats naive_loop_contribution(std::int64_t n, double flops_per_elem,
                                    double floats_read_per_elem,
                                    double floats_written_per_elem) {
  // The scalar rate of the naive class already reflects memory slowness, so
  // naive work carries no separate byte traffic (the bytes fields feed the
  // loop-class roofline only). The read/write parameters are accepted for
  // call-site symmetry with loop_contribution.
  (void)floats_read_per_elem;
  (void)floats_written_per_elem;
  KernelStats s;
  s.naive_flops = static_cast<double>(n) * flops_per_elem;
  s.kernel_launches = 1;
  return s;
}

KernelStats epilogue_contribution(std::int64_t n, double flops_per_elem,
                                  double floats_read_per_elem) {
  KernelStats s;
  s.loop_flops = static_cast<double>(n) * flops_per_elem;
  s.bytes_read = 4.0 * static_cast<double>(n) * floats_read_per_elem;
  s.fused_epilogues = 1;
  return s;
}

KernelStats h2d_contribution(double bytes) {
  KernelStats s;
  s.h2d_bytes = bytes;
  s.transfers = 1;
  return s;
}

KernelStats d2h_contribution(double bytes) {
  KernelStats s;
  s.d2h_bytes = bytes;
  s.transfers = 1;
  return s;
}

}  // namespace deepphi::phi
