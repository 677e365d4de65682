// Event trace of the simulated device timeline: every kernel batch and DMA
// transfer lands here with its simulated start/end, so benches and tests can
// inspect overlap (did the loading thread actually hide the transfers?).
#pragma once

#include <string>
#include <vector>

namespace deepphi::phi {

struct TraceEvent {
  enum class Resource { kCompute, kDma };
  std::string name;
  Resource resource = Resource::kCompute;
  double start_s = 0;
  double end_s = 0;

  double duration_s() const { return end_s - start_s; }
};

class Trace {
 public:
  void add(TraceEvent event);
  void clear();

  const std::vector<TraceEvent>& events() const { return events_; }

  /// Simulated span covered by the trace (max end over all events).
  double span_s() const;

  /// Total busy time on one resource.
  double busy_s(TraceEvent::Resource resource) const;

  /// Seconds during which both resources were simultaneously busy — the
  /// overlap the Fig. 5 loading thread buys.
  double overlap_s() const;

  /// Multi-line listing (debugging / examples). The Chrome-tracing view of
  /// a trace is the simulated process of obs::Profiler's export.
  std::string to_string(std::size_t max_events = 50) const;

 private:
  std::vector<TraceEvent> events_;
};

}  // namespace deepphi::phi
