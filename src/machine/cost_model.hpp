// Communication cost accounting (paper Sec. 3.1).
//
// The paper measures two quantities along the critical path, after Yang &
// Miller: latency cost L (number of messages) and bandwidth cost B (number
// of words).  Messages between separate pairs of processors that overlap in
// time are counted once.  We meter this with a logical clock per rank:
//
//   send(dst, w):  clock += (1, w); the message carries the new clock
//   recv(src):     clock  = max(clock + (1, w), message.clock)   [per axis]
//
// The +(1, w) on the receive models assumption (2) of the paper — a
// processor can receive only one message at a time, so back-to-back
// receives serialize — while the max() keeps disjoint concurrent transfers
// from accumulating.  The machine-wide critical-path cost is the max of the
// clocks at the end of each rank's measured window (Comm::stop_clock, or
// the final clock when a rank never stops); message/word *volumes* are
// additionally counted per rank and per algorithm phase, window or not, so
// each lemma's per-region decomposition can be checked.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "util/metrics.hpp"

namespace capsp {

using RankId = int;
using Tag = std::int64_t;

/// Logical (latency, words) clock carried by every message.
struct CostClock {
  double latency = 0;
  double words = 0;

  void advance(double messages, double word_count) {
    latency += messages;
    words += word_count;
  }

  /// Which side of a merge supplied each axis of the result — the blame
  /// record the critical-path walk (trace.hpp) follows backward.
  struct MergeOutcome {
    bool latency_from_other = false;
    bool words_from_other = false;
  };

  /// Componentwise max (join of two histories), reporting per axis
  /// whether `other` won.  Ties blame the local history, so walks are
  /// deterministic and never cross a message that added nothing.
  MergeOutcome merge(const CostClock& other) {
    MergeOutcome outcome;
    if (other.latency > latency) {
      latency = other.latency;
      outcome.latency_from_other = true;
    }
    if (other.words > words) {
      words = other.words;
      outcome.words_from_other = true;
    }
    return outcome;
  }
};

/// Counters of the reliable-delivery layer (reliable.hpp), aggregated
/// over ranks into CostReport::reliability.  All zeros unless the run
/// used Machine::enable_reliable_transport.
struct ReliabilityStats {
  std::int64_t frames_sent = 0;      ///< physical transmissions (incl. retries)
  std::int64_t retransmissions = 0;  ///< frames_sent beyond the first attempt
  std::int64_t acks = 0;             ///< link-layer acks charged
  std::int64_t duplicates_dropped = 0;  ///< stale frames discarded by seq
  std::int64_t corrupt_rejected = 0;    ///< frames failing the checksum
  std::int64_t reordered = 0;           ///< early frames buffered for order
  std::int64_t give_ups = 0;  ///< sends that exhausted max_retries (fatal)

  ReliabilityStats& operator+=(const ReliabilityStats& o) {
    frames_sent += o.frames_sent;
    retransmissions += o.retransmissions;
    acks += o.acks;
    duplicates_dropped += o.duplicates_dropped;
    corrupt_rejected += o.corrupt_rejected;
    reordered += o.reordered;
    give_ups += o.give_ups;
    return *this;
  }
  bool any() const {
    return frames_sent || retransmissions || acks || duplicates_dropped ||
           corrupt_rejected || reordered || give_ups;
  }
};

/// Faults a FaultInjector (fault.hpp) actually injected during a run,
/// aggregated into CostReport::faults.  All zeros without a FaultPlan.
struct FaultCounts {
  std::int64_t drops = 0;
  std::int64_t duplicates = 0;
  std::int64_t corruptions = 0;
  std::int64_t delays = 0;
  std::int64_t kills = 0;
  std::int64_t stalls = 0;

  FaultCounts& operator+=(const FaultCounts& o) {
    drops += o.drops;
    duplicates += o.duplicates;
    corruptions += o.corruptions;
    delays += o.delays;
    kills += o.kills;
    stalls += o.stalls;
    return *this;
  }
  bool any() const {
    return drops || duplicates || corruptions || delays || kills || stalls;
  }
};

/// Predicted-vs-measured comparison against an analytical cost model
/// (core/cost_oracle.hpp evaluates the paper's closed-form W/S bounds
/// and fills this in via attach_oracle).  Plain data here so CostReport
/// can carry it without the machine layer depending on any algorithm.
struct OracleComparison {
  bool present = false;
  std::string model;                ///< e.g. "2d-sparse-apsp"
  double predicted_bandwidth = 0;   ///< oracle W bound (words)
  double predicted_latency = 0;     ///< oracle S bound (messages)
  double bandwidth_ratio = 0;       ///< measured critical_bandwidth / predicted
  double latency_ratio = 0;         ///< measured critical_latency / predicted
};

/// Message/word volume counted at the sender, per algorithm phase.
struct PhaseVolume {
  std::int64_t messages = 0;
  std::int64_t words = 0;

  PhaseVolume& operator+=(const PhaseVolume& o) {
    messages += o.messages;
    words += o.words;
    return *this;
  }
};

/// Per-rank cost state, owned by the Comm handle.  This is the one
/// always-on per-frame book: every transmitted frame is counted here
/// exactly once, and the run-level views (CostReport, the
/// `machine.comm.*` metrics) are built from it after the ranks join.
struct RankCost {
  CostClock clock;
  /// The clock at Comm::stop_clock(): the end of the measured window.
  /// Frames after it still advance `clock` and count in the volumes.
  std::optional<CostClock> stop;
  std::map<std::string, PhaseVolume> volume_by_phase;
  /// Volumes counted before the last Comm::reset_clock(), segmented away
  /// so setup/data-distribution traffic never pollutes the per-phase
  /// volumes of the measured algorithm (see machine.hpp).
  std::map<std::string, PhaseVolume> pre_reset_volume_by_phase;
  /// Log2 histogram of every frame's words, pre-reset frames included.
  Histogram frame_words;
  std::string current_phase = "default";

  /// This rank's headline clock: at the stop point, else the final clock.
  const CostClock& measured_clock() const { return stop ? *stop : clock; }

  void count_send(std::int64_t word_count) {
    auto& v = volume_by_phase[current_phase];
    ++v.messages;
    v.words += word_count;
    frame_words.observe(static_cast<double>(word_count));
  }

  /// Fold the current per-phase counts into the pre-reset segment and
  /// start clean; called by Comm::reset_clock().
  void segment_volumes_at_reset() {
    for (const auto& [phase, volume] : volume_by_phase)
      pre_reset_volume_by_phase[phase] += volume;
    volume_by_phase.clear();
  }
};

/// Aggregated machine-wide costs after a run.  Volume fields cover the
/// traffic after the last Comm::reset_clock() on each rank (the whole run
/// when no rank resets); the pre-reset segment is reported separately in
/// the setup_* fields so the headline numbers describe the measured
/// algorithm only.
struct CostReport {
  double critical_latency = 0;     ///< max measured latency clock (paper's L)
  double critical_bandwidth = 0;   ///< max measured word clock (paper's B)
  std::int64_t total_messages = 0; ///< Σ over ranks (network volume)
  std::int64_t total_words = 0;
  std::int64_t max_rank_messages = 0;  ///< busiest rank, volume terms
  std::int64_t max_rank_words = 0;
  /// Per-phase volumes: total across ranks and per-rank maximum.
  std::map<std::string, PhaseVolume> phase_total;
  std::map<std::string, PhaseVolume> phase_max_rank;
  /// Pre-reset (setup/data-distribution) traffic, kept out of the totals.
  std::map<std::string, PhaseVolume> setup_phase_total;
  std::int64_t setup_messages = 0;
  std::int64_t setup_words = 0;
  /// Reliable-transport counters and injected-fault totals, filled in by
  /// Machine::run after aggregate() (all zeros for plain runs).
  ReliabilityStats reliability;
  FaultCounts faults;
  /// Analytical-bound comparison, attached by drivers that know which
  /// algorithm ran (present = false otherwise).
  OracleComparison oracle;

  /// Build from the final per-rank states.
  static CostReport aggregate(const std::vector<RankCost>& ranks);
};

}  // namespace capsp
