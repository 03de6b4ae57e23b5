#include "machine/trace.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace capsp {
namespace {

double axis_of(const CostClock& clock, CostAxis axis) {
  return axis == CostAxis::kLatency ? clock.latency : clock.words;
}

bool from_message(const TraceEvent& e, CostAxis axis) {
  return axis == CostAxis::kLatency ? e.latency_from_message
                                    : e.words_from_message;
}

}  // namespace

CriticalPathReport extract_critical_path(const Trace& trace, CostAxis axis) {
  CAPSP_CHECK_MSG(trace.enabled(),
                  "critical-path walk needs a trace; call "
                  "Machine::enable_tracing(true) before run()");
  CriticalPathReport report;
  report.axis = axis;

  // Start at the rank whose clock at its stop point is maximal on this
  // axis: the `after` clock of the event just before the stop (kClockReset
  // events record after = 0, so a window that ends at its reset reads as
  // zero).
  RankId start_rank = -1;
  for (RankId r = 0; r < static_cast<RankId>(trace.per_rank.size()); ++r) {
    const std::size_t stop = trace.stop_index[static_cast<std::size_t>(r)];
    if (stop == 0) continue;
    const double stop_clock = axis_of(
        trace.per_rank[static_cast<std::size_t>(r)][stop - 1].after, axis);
    if (start_rank < 0 || stop_clock > report.total) {
      start_rank = r;
      report.total = stop_clock;
    }
  }
  if (start_rank < 0) return report;  // no events at all: empty path

  // Walk backward.  The predecessor of an event on the chosen axis is the
  // sender's send event when the message won the merge, else the previous
  // event on the same rank.  `before` on a rank's timeline always equals
  // the previous event's `after`, and a winning message's clock equals
  // the sender's `after`, so contribution = after − predecessor.after
  // telescopes to the stop clock exactly.
  RankId rank = start_rank;
  std::int64_t index = static_cast<std::int64_t>(
                           trace.stop_index[static_cast<std::size_t>(rank)]) -
                       1;
  while (index >= 0) {
    const TraceEvent& e =
        trace.per_rank[static_cast<std::size_t>(rank)]
                      [static_cast<std::size_t>(index)];
    if (e.kind == TraceEventKind::kClockReset) break;  // clock zero: done
    const double predecessor_clock =
        e.kind == TraceEventKind::kRecv && from_message(e, axis)
            ? axis_of(e.after, axis)  // message won: merge kept its clock
            : axis_of(e.before, axis);
    report.steps.push_back(
        {rank, index, axis_of(e.after, axis) - predecessor_clock});
    if (e.kind == TraceEventKind::kRecv && from_message(e, axis)) {
      // Cross the message to the sender's timeline.
      CAPSP_CHECK_MSG(e.peer >= 0 && e.peer_event >= 0,
                      "recv event missing its sender back-pointer");
      report.hops.push_back({e.peer, rank, e.tag, e.words, e.phase});
      rank = e.peer;
      index = e.peer_event;
    } else {
      --index;
    }
  }

  std::reverse(report.steps.begin(), report.steps.end());
  std::reverse(report.hops.begin(), report.hops.end());
  for (const auto& step : report.steps) {
    const TraceEvent& e =
        trace.per_rank[static_cast<std::size_t>(step.rank)]
                      [static_cast<std::size_t>(step.event)];
    report.by_phase[e.phase] += step.contribution;
  }
  return report;
}

}  // namespace capsp
