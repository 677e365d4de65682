#include "phi/offload.hpp"

#include <algorithm>

#include "obs/profiler.hpp"
#include "util/error.hpp"

namespace deepphi::phi {

double OffloadReport::exposed_transfer_fraction() const {
  if (total_s <= 0) return 0;
  // Whatever part of the span is not covered by compute is exposed transfer
  // (pipeline fill, or every transfer when loading is synchronous).
  return std::max(0.0, total_s - compute_busy_s) / total_s;
}

ChunkRing::ChunkRing(int ring_chunks, bool async_loading)
    : async_loading_(async_loading) {
  DEEPPHI_CHECK_MSG(ring_chunks >= 1,
                    "ring_chunks must be >= 1, got " << ring_chunks);
  slot_free_.assign(static_cast<std::size_t>(ring_chunks), 0.0);
}

double ChunkRing::transfer_ready(std::int64_t i) const {
  const double slot_free = slot_free_[static_cast<std::size_t>(i) %
                                      slot_free_.size()];
  // No loading thread: the host only starts feeding the next chunk once
  // training of the previous one finished.
  return async_loading_ ? slot_free : std::max(slot_free, last_trained_s_);
}

void ChunkRing::trained(std::int64_t i, double end_s) {
  slot_free_[static_cast<std::size_t>(i) % slot_free_.size()] = end_s;
  last_trained_s_ = end_s;
}

Offload::Offload(Device& device, OffloadConfig config)
    : device_(device), config_(config) {
  DEEPPHI_CHECK_MSG(config_.ring_chunks >= 1,
                    "ring_chunks must be >= 1, got " << config_.ring_chunks);
}

OffloadReport Offload::process_chunks(int n_chunks, double chunk_bytes,
                                      const KernelStats& per_chunk_stats) {
  DEEPPHI_PROFILE_SCOPE("offload.process_chunks");
  DEEPPHI_CHECK_MSG(n_chunks >= 0, "negative chunk count");
  OffloadReport report;
  report.chunks.reserve(static_cast<std::size_t>(n_chunks));

  ChunkRing ring(config_.ring_chunks, config_.async_loading);
  for (int i = 0; i < n_chunks; ++i) {
    const std::string tag = "chunk[" + std::to_string(i) + "]";
    const double t_end = device_.submit_transfer(
        tag + " h2d", chunk_bytes, ring.transfer_ready(i),
        /*use_chunk_path=*/true);
    const double c_end = device_.submit_compute(tag + " train", per_chunk_stats,
                                                /*ready_at_s=*/t_end);
    ring.trained(i, c_end);

    const auto& events = device_.trace().events();
    const auto& dma_event = events[events.size() - 2];
    const auto& compute_event = events[events.size() - 1];
    report.chunks.push_back(ChunkTiming{dma_event.start_s, dma_event.end_s,
                                        compute_event.start_s,
                                        compute_event.end_s});
  }

  report.total_s = device_.elapsed_s();
  report.compute_busy_s = device_.trace().busy_s(TraceEvent::Resource::kCompute);
  report.transfer_busy_s = device_.trace().busy_s(TraceEvent::Resource::kDma);
  return report;
}

}  // namespace deepphi::phi
