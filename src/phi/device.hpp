// Simulated Xeon Phi coprocessor (the substitution for discontinued
// silicon). A Device owns
//  * a global-memory accounting arena with the card's 8 GB capacity — the
//    paper keeps all parameters and temporaries resident in device memory,
//    and this arena enforces that the simulated working set actually fits;
//  * a two-resource simulated timeline (compute + DMA) driven by the cost
//    model: submitting a KernelStats bundle or a transfer advances the
//    corresponding resource and records a trace event.
//
// The Device never computes anything: functional execution happens in the
// library's real kernels on the host; the Device decides what time those
// kernels *would have taken* on the modeled machine.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "phi/cost_model.hpp"
#include "phi/machine_spec.hpp"
#include "phi/trace.hpp"

namespace deepphi::phi {

class Device {
 public:
  /// `threads` = 0 selects the machine's maximum hardware threads.
  explicit Device(MachineSpec spec, int threads = 0);

  const MachineSpec& spec() const { return model_.machine(); }
  const CostModel& cost_model() const { return model_; }

  int threads() const { return threads_; }
  void set_threads(int threads);

  // --- global memory arena (accounting) ---

  using BufferId = std::size_t;

  /// Reserves `bytes` of device global memory; throws util::Error when the
  /// card's capacity would be exceeded (the paper's 8 GB is a real constraint
  /// at the large network sizes of Fig. 7).
  BufferId alloc(const std::string& name, double bytes);

  /// Releases a buffer. Double-free throws.
  void free(BufferId id);

  double used_bytes() const { return used_bytes_; }
  double capacity_bytes() const { return spec().device_mem_gb * 1e9; }

  // --- simulated timeline ---

  /// Schedules `stats` on the compute resource, not before `ready_at_s`.
  /// Returns the simulated completion time.
  double submit_compute(const std::string& name, const KernelStats& stats,
                        double ready_at_s = 0.0);

  /// Schedules a host↔device transfer of `bytes` on the DMA resource, not
  /// before `ready_at_s`. `use_chunk_path` selects the calibrated
  /// chunk-loading bandwidth (training data) vs raw PCIe (parameter copies).
  /// Returns the simulated completion time.
  double submit_transfer(const std::string& name, double bytes,
                         double ready_at_s = 0.0, bool use_chunk_path = true);

  double compute_busy_until() const { return compute_until_s_; }
  double dma_busy_until() const { return dma_until_s_; }

  /// Simulated wall time so far: the later of the two resources.
  double elapsed_s() const;

  /// Resets the timeline and trace (memory accounting is preserved).
  void reset_timeline();

  const Trace& trace() const { return trace_; }

 private:
  struct Buffer {
    std::string name;
    double bytes = 0;
    bool live = false;
  };

  CostModel model_;
  int threads_ = 1;
  std::vector<Buffer> buffers_;
  double used_bytes_ = 0;
  double compute_until_s_ = 0;
  double dma_until_s_ = 0;
  Trace trace_;
};

}  // namespace deepphi::phi
