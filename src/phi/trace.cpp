#include "phi/trace.hpp"

#include <algorithm>
#include <sstream>

#include "util/error.hpp"

namespace deepphi::phi {

void Trace::add(TraceEvent event) {
  DEEPPHI_CHECK_MSG(event.end_s >= event.start_s,
                    "trace event '" << event.name << "' ends before it starts");
  events_.push_back(std::move(event));
}

void Trace::clear() { events_.clear(); }

double Trace::span_s() const {
  double span = 0;
  for (const auto& e : events_) span = std::max(span, e.end_s);
  return span;
}

double Trace::busy_s(TraceEvent::Resource resource) const {
  // Events on one resource never overlap each other (the timeline serializes
  // per resource), so busy time is the plain sum.
  double busy = 0;
  for (const auto& e : events_)
    if (e.resource == resource) busy += e.duration_s();
  return busy;
}

double Trace::overlap_s() const {
  // Pairwise interval intersection between the two resources. Event counts
  // are small (one per chunk), so the quadratic sweep is fine.
  double overlap = 0;
  for (const auto& a : events_) {
    if (a.resource != TraceEvent::Resource::kCompute) continue;
    for (const auto& b : events_) {
      if (b.resource != TraceEvent::Resource::kDma) continue;
      const double lo = std::max(a.start_s, b.start_s);
      const double hi = std::min(a.end_s, b.end_s);
      if (hi > lo) overlap += hi - lo;
    }
  }
  return overlap;
}

std::string Trace::to_string(std::size_t max_events) const {
  std::ostringstream os;
  os << "trace: " << events_.size() << " events, span " << span_s() << "s\n";
  std::size_t shown = 0;
  for (const auto& e : events_) {
    if (shown++ >= max_events) {
      os << "  ... (" << events_.size() - max_events << " more)\n";
      break;
    }
    os << "  [" << (e.resource == TraceEvent::Resource::kCompute ? "compute" : "dma    ")
       << "] " << e.start_s << " - " << e.end_s << "  " << e.name << "\n";
  }
  return os.str();
}

}  // namespace deepphi::phi
