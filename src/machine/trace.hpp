// Event tracing and critical-path blame attribution for the machine
// simulator (docs/observability.md).
//
// When tracing is enabled (Machine::enable_tracing), every rank records a
// timeline of send/recv/compute/span events, each stamped with the logical
// (L, B) clock before and after the event and the active phase label.
// Receive events additionally record *blame*: which predecessor — the
// rank's own history or the incoming message — supplied each axis of the
// clock merge (cost_model.hpp).  Those blame bits form a DAG over events;
// walking it backward from the maximum clock at the end of the measured
// window (Comm::stop_clock, else the end of the timeline) reconstructs the
// exact chain of messages that set CostReport::critical_latency (or
// critical_bandwidth), attributed per phase.  This is the lens the
// message-optimality literature uses to compare algorithm designs, and it
// is what lets a deviation from the O(log² p) bound be traced to the
// collective that caused it.
//
// Tracing is observational only: it never touches the clock arithmetic,
// so all metered costs are bit-identical with tracing on or off.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "machine/cost_model.hpp"

namespace capsp {

enum class TraceEventKind : std::uint8_t {
  kSend,        ///< point-to-point send (peer = destination)
  kRecv,        ///< point-to-point receive (peer = source)
  kCompute,     ///< computation span (ops ⊗-operations; clock unchanged)
  kSpanBegin,   ///< structured region start (collectives use these)
  kSpanEnd,     ///< structured region end, paired with kSpanBegin
  kPhase,       ///< phase label change (label = new phase)
  kClockReset,  ///< Comm::reset_clock(): critical paths start here
  kProtocol,    ///< reliability-layer charge (label = "ack"/"backoff")
};

/// One recorded event on one rank's timeline.
struct TraceEvent {
  TraceEventKind kind = TraceEventKind::kSend;
  std::string phase;  ///< active phase label when the event happened
  std::string label;  ///< span/compute/phase name ("" for send/recv)
  int peer = -1;      ///< kSend: destination rank; kRecv: source rank
  std::int64_t tag = 0;
  std::int64_t words = 0;  ///< payload words (send/recv only)
  std::int64_t ops = 0;    ///< scalar ⊗ operations (kCompute only)
  CostClock before;        ///< rank clock entering the event
  CostClock after;         ///< rank clock leaving the event
  /// kRecv only: index of the matching kSend in the sender's timeline,
  /// and which clock axes the incoming message's history won in the
  /// merge — the blame pointers the critical-path walk follows.
  std::int64_t peer_event = -1;
  bool latency_from_message = false;
  bool words_from_message = false;
};

/// Event timelines of one run, one vector per rank.  Empty unless
/// Machine::enable_tracing(true) was set before run().
struct Trace {
  std::vector<std::vector<TraceEvent>> per_rank;
  /// Per rank: the number of events recorded before Comm::stop_clock()
  /// (the timeline's size when the rank never stopped).  Events from here
  /// on — the result collection — lie outside the measured window.
  std::vector<std::size_t> stop_index;

  bool enabled() const { return !per_rank.empty(); }

  std::size_t num_events() const {
    std::size_t n = 0;
    for (const auto& timeline : per_rank) n += timeline.size();
    return n;
  }
};

/// Which clock axis a critical-path walk follows.
enum class CostAxis { kLatency, kBandwidth };

/// One step of a reconstructed critical path, in chronological order:
/// which event, and how much of the end-to-end cost accrued *at* it.
/// Contributions telescope: their sum over the whole path equals the
/// machine-wide critical cost on the walked axis.
struct CriticalPathStep {
  RankId rank = 0;
  std::int64_t event = 0;  ///< index into Trace::per_rank[rank]
  double contribution = 0;
};

/// A message the critical path crossed (a blame pointer followed from a
/// receive back to its send).
struct CriticalPathHop {
  RankId src = 0;
  RankId dst = 0;
  std::int64_t tag = 0;
  std::int64_t words = 0;
  std::string phase;  ///< receiver-side phase of the crossing
};

/// Critical path extracted by walking blame pointers backward from the
/// rank with the maximum stop clock on `axis`.
struct CriticalPathReport {
  CostAxis axis = CostAxis::kLatency;
  double total = 0;  ///< == CostReport critical cost on this axis
  std::vector<CriticalPathStep> steps;     ///< chronological
  std::vector<CriticalPathHop> hops;       ///< messages on the path
  std::map<std::string, double> by_phase;  ///< Σ contribution per phase
};

/// Walk the blame chain of `trace` on `axis`.  The walk starts at the
/// rank whose clock at its stop point is maximal (ties: lowest rank), at
/// the event just before the stop, follows each event's blamed
/// predecessor — the previous local event, or across a message to the
/// sender's timeline — and stops at a kClockReset event or the start of a
/// timeline (both are clock zero, so the step contributions always sum to
/// `total` exactly).  CHECK-fails on an empty (tracing-disabled) trace.
CriticalPathReport extract_critical_path(const Trace& trace, CostAxis axis);

}  // namespace capsp
