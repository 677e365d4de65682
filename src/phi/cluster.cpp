#include "phi/cluster.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace deepphi::phi {

Cluster::Cluster(MachineSpec card_spec, ClusterConfig config)
    : config_(std::move(config)) {
  DEEPPHI_CHECK_MSG(config_.cards >= 1,
                    "cluster needs >= 1 card, got " << config_.cards);
  devices_.reserve(static_cast<std::size_t>(config_.cards));
  for (int c = 0; c < config_.cards; ++c)
    devices_.push_back(
        std::make_unique<Device>(card_spec, config_.threads_per_card));
}

double Cluster::submit_step(const std::string& name,
                            const std::vector<KernelStats>& per_card_stats,
                            const std::vector<double>& per_card_h2d_bytes,
                            const ClusterCommStats& comm,
                            double transfer_ready_s) {
  DEEPPHI_CHECK_MSG(
      per_card_stats.size() == devices_.size(),
      "submit_step: " << per_card_stats.size() << " stat bundles for "
                      << devices_.size() << " cards");
  DEEPPHI_CHECK_MSG(
      per_card_h2d_bytes.size() == devices_.size(),
      "submit_step: " << per_card_h2d_bytes.size() << " h2d sizes for "
                      << devices_.size() << " cards");
  double compute_done = barrier_s_;
  for (std::size_t c = 0; c < devices_.size(); ++c) {
    Device& dev = *devices_[c];
    double ready = transfer_ready_s;
    if (per_card_h2d_bytes[c] > 0)
      ready = dev.submit_transfer(name + " h2d", per_card_h2d_bytes[c],
                                  transfer_ready_s);
    const double done = dev.submit_compute(
        name + " train", per_card_stats[c], std::max(ready, barrier_s_));
    compute_done = std::max(compute_done, done);
  }
  barrier_s_ = compute_done + comm.seconds;
  if (cards() > 1 && (comm.seconds > 0 || comm.rounds > 0)) {
    TraceEvent ev;
    ev.name = name + " allreduce";
    ev.resource = TraceEvent::Resource::kDma;
    ev.start_s = compute_done;
    ev.end_s = barrier_s_;
    comm_trace_.add(ev);
    comm_.seconds += comm.seconds;
    comm_.wire_bytes += comm.wire_bytes;
    comm_.rounds += comm.rounds;
    comm_.collectives += comm.collectives;
  }
  return barrier_s_;
}

double Cluster::elapsed_s() const {
  double t = barrier_s_;
  for (const auto& dev : devices_) t = std::max(t, dev->elapsed_s());
  return t;
}

double Cluster::comm_share() const {
  const double total = elapsed_s();
  return total > 0 ? comm_.seconds / total : 0.0;
}

void Cluster::reset_timeline() {
  for (auto& dev : devices_) dev->reset_timeline();
  barrier_s_ = 0;
  comm_ = ClusterCommStats{};
  comm_trace_.clear();
}

}  // namespace deepphi::phi
