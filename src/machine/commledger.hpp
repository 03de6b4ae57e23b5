// Communication observatory (docs/observability.md, "Comm" pillar):
// per-channel communication ledgers with phase-resolved (L,B)
// accounting and physical-vs-logical attribution.
//
// A *channel* is the tuple (src, dst, tag-class, phase).  Each rank
// thread owns a private RankCommLedger — no locks on the hot path — and
// the Machine merges the per-rank maps into one deterministic
// CommLedger after the rank threads join (the same discipline the
// per-rank MetricsRegistry sinks use).  Phase labels come from
// Comm::set_phase (the sparse solver's "L<l>/R1".."L<l>/R4" region
// seams, "setup", "collect"); tag classes come from CommClassScope
// (collectives label their traffic "bcast"/"reduce"/"gather"/
// "scatter", everything else is "p2p").
//
// Two books are kept per channel:
//   * logical  — what the application asked for: one message of
//     payload-words per Comm::send.  This is the volume the paper's
//     W/S bounds speak about.
//   * physical — what crossed the simulated wire: every transmitted
//     frame including ReliableComm frame headers, retransmissions and
//     fault-injector duplicates, plus protocol clock charges (acks,
//     backoff) attributed to the peer the last frame went to.
//
// The split is what makes retries/acks attributable *distinctly* from
// application sends: under a drop-heavy FaultPlan the logical book
// matches a clean run bit-for-bit while the physical book carries the
// overhead.  Grappa's RDMAAggregator drives aggregation decisions from
// exactly this kind of per-destination size/occupancy ledger — this
// subsystem is the measuring stick any message aggregation (ROADMAP
// item 5) will be judged against.
//
// The ledger is opt-in.  The always-on per-frame book is RankCost
// (cost_model.hpp); the run totals and `machine.comm.*` metrics are
// built from it, not from the ledger.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "machine/cost_model.hpp"
#include "util/metrics.hpp"

namespace capsp {

class JsonWriter;

/// Identity of one directed communication channel.  Ordering is
/// (src, dst, class, phase) so iteration — and therefore every JSON
/// export — is deterministic.
struct CommChannelKey {
  RankId src = 0;
  RankId dst = 0;
  std::string tag_class;  // "p2p", "bcast", "reduce", "gather", "scatter"
  std::string phase;      // Comm::set_phase label at record time

  friend bool operator<(const CommChannelKey& a, const CommChannelKey& b) {
    if (a.src != b.src) return a.src < b.src;
    if (a.dst != b.dst) return a.dst < b.dst;
    if (a.tag_class != b.tag_class) return a.tag_class < b.tag_class;
    return a.phase < b.phase;
  }
  friend bool operator==(const CommChannelKey& a, const CommChannelKey& b) {
    return a.src == b.src && a.dst == b.dst && a.tag_class == b.tag_class &&
           a.phase == b.phase;
  }
};

/// Per-channel counters.  Merging is plain field-wise addition, so the
/// final ledger is independent of flush interleaving (each key is only
/// ever written by its src rank; cross-rank merges never collide).
struct CommChannelStats {
  // Log2 message-size histogram over *physical* frame sizes, bucketed by
  // util/metrics' log2_bucket: bucket 0 holds sizes <= 1, bucket b holds
  // (2^(b-1), 2^b].
  static constexpr int kSizeBuckets = 48;

  // Logical book: application Comm::send calls, payload words.
  std::int64_t logical_messages = 0;
  std::int64_t logical_words = 0;

  // Physical book: frames handed to the wire (Comm::transmit), frame
  // words (payload + any reliable-transport header).
  std::int64_t physical_frames = 0;
  std::int64_t physical_words = 0;
  std::int64_t retransmit_frames = 0;  // subset of physical: retries
  std::int64_t retransmit_words = 0;
  std::int64_t duplicate_frames = 0;   // injector kDuplicate extra copies
  std::int64_t dropped_frames = 0;     // injector kDrop / kCorrupt losses

  // Protocol book: clock charges with no frame of their own (reliable
  // acks and backoff), attributed to the peer of the last transmit.
  std::int64_t protocol_charges = 0;
  std::int64_t protocol_latency = 0;
  std::int64_t protocol_words = 0;

  std::array<std::int64_t, kSizeBuckets> size_log2{};

  CommChannelStats& operator+=(const CommChannelStats& other);

  /// Histogram bucket for a frame of `words` words: the shared
  /// util/metrics rule, clamped to this table.
  static int size_bucket(std::int64_t words) {
    return std::min(log2_bucket(static_cast<double>(words)),
                    kSizeBuckets - 1);
  }
};

/// One rank thread's private ledger.  Single-writer by construction
/// (each Comm belongs to exactly one rank thread), hence "lock-cheap":
/// the hot path is a map lookup amortised by a one-entry cache keyed on
/// the (dst, class, phase) triple that repeated sends reuse.
class RankCommLedger {
 public:
  void record_logical(RankId dst, const char* tag_class,
                      const std::string& phase, std::int64_t words);
  void record_physical(RankId dst, const char* tag_class,
                       const std::string& phase, std::int64_t words,
                       bool retransmit, bool duplicated, bool dropped);
  void record_protocol(RankId dst, const char* tag_class,
                       const std::string& phase, std::int64_t latency,
                       std::int64_t words);

  bool empty() const { return channels_.empty(); }

  /// Drain this rank's entries into `out[key_with_src]` and clear.
  /// Called from the owning rank thread only.
  void drain_into(RankId src,
                  std::map<CommChannelKey, CommChannelStats>& out);

 private:
  struct LocalKey {
    RankId dst = 0;
    std::string tag_class;
    std::string phase;
    friend bool operator<(const LocalKey& a, const LocalKey& b) {
      if (a.dst != b.dst) return a.dst < b.dst;
      if (a.tag_class != b.tag_class) return a.tag_class < b.tag_class;
      return a.phase < b.phase;
    }
  };

  CommChannelStats& entry(RankId dst, const char* tag_class,
                          const std::string& phase);

  std::map<LocalKey, CommChannelStats> channels_;
  // Hot-path cache: valid while the (dst, class, phase) triple repeats.
  CommChannelStats* cached_stats_ = nullptr;
  RankId cached_dst_ = -1;
  std::string cached_class_;
  std::string cached_phase_;
};

/// Per-phase rollup derived from the merged ledger: the phase-resolved
/// (L,B) account.  `messages`/`words` are the logical book; the
/// max_channel_* fields are the busiest single (src,dst) pair, the
/// quantity the paper's per-processor W bound constrains.
struct CommPhaseTotals {
  std::int64_t messages = 0;  // logical
  std::int64_t words = 0;     // logical
  std::int64_t physical_frames = 0;
  std::int64_t physical_words = 0;
  std::int64_t max_channel_messages = 0;
  std::int64_t max_channel_words = 0;
};

/// The merged, deterministic ledger for one Machine::run.
struct CommLedger {
  bool present = false;  // true once a ledger-enabled run completed
  int num_ranks = 0;
  std::map<CommChannelKey, CommChannelStats> channels;

  CommChannelStats totals() const;
  /// Phase -> rollup, keys in lexicographic order.
  std::map<std::string, CommPhaseTotals> by_phase() const;
  /// Row-major num_ranks x num_ranks physical-word / physical-frame
  /// heatmaps (the rank x rank matrices /comm.json and
  /// `trace_summary.py comm` render).
  std::vector<std::int64_t> heat_words() const;
  std::vector<std::int64_t> heat_frames() const;

  /// Top-k channels by physical words, ties broken by key order.
  std::vector<const CommChannelStats*> top_channels(
      std::size_t k, std::vector<CommChannelKey>* keys) const;

  void merge_from(const CommLedger& other);
};

/// Emit the ledger as the fields of a "comm" JSON object: totals, the
/// per-phase (L,B) table, heatmaps, and the full channel list.  The
/// writer must be inside an object; the function emits `"comm": {...}`.
/// Deterministic: same ledger => byte-identical output.
void write_comm_fields(JsonWriter& json, const CommLedger& ledger);

/// Standalone artifact: `{"comm": {...}}` — what `--comm-json`,
/// `/comm.json` and `trace_summary.py comm` exchange.
void write_comm_ledger_json(std::ostream& out, const CommLedger& ledger);

/// Process-wide rendezvous between a running Machine and the telemetry
/// endpoint (`apsp_tool --telemetry-port` serves /comm.json from here).
/// A ledger-enabled Machine::run registers a provider that snapshots
/// the live (partially merged) ledger mid-run, and publishes the final
/// ledger when the run completes; the last published ledger survives
/// until the next run replaces it.
class CommLedgerHub {
 public:
  static CommLedgerHub& global();

  void set_provider(std::function<CommLedger()> provider);
  void clear_provider();
  void publish(const CommLedger& ledger);

  /// Live snapshot if a run is in flight, else the last published
  /// ledger (present=false if neither exists).
  CommLedger snapshot() const;

 private:
  mutable std::mutex mutex_;
  std::function<CommLedger()> provider_;
  CommLedger last_;
};

}  // namespace capsp
