// Fault-tolerance primitives for the serving layer (docs/robustness.md,
// "Serving resilience").
//
// PR 2 gave the simulated machine ReliableComm — checksummed, acked,
// retried frames.  This is the serving-side counterpart: the pieces a
// DistanceService composes to survive a hostile disk without melting the
// worker pool or serving a wrong answer.
//
//   * TileReadError — a *recoverable* tile-read failure (I/O error,
//     checksum mismatch, allocation failure).  Derives from check_error so
//     existing callers that treat any snapshot failure as fatal keep
//     working, while the service can catch it narrowly and retry.
//   * RetryOptions / retry_backoff_ms — bounded exponential backoff
//     (util/backoff) with jitter, in milliseconds for disk latencies.
//   * QuarantineRegistry — per-tile failure accounting: K consecutive
//     failed fetches quarantine a tile so requests fail fast (degraded)
//     instead of each burning a full retry ladder on a known-bad sector;
//     after a cooldown the tile is re-probed and exits quarantine on the
//     first success.
//   * HealthState — the tri-state /healthz contract: ok | degraded
//     (quarantined tiles or replaced workers, correct answers still
//     flowing) | unhealthy (enough of the tile space is dark that the
//     service sheds load to protect its error budget).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace capsp {

/// A tile read that failed in a way retries may fix.  Thrown by
/// SnapshotReader::read_tile instead of a bare CHECK so the service's
/// fetch path can distinguish "this read failed" (retry, quarantine)
/// from a programming error (propagate).  Structural open-time
/// validation still CHECK-fails: a malformed snapshot is not a fault to
/// ride out.
class TileReadError : public check_error {
 public:
  enum class Kind : std::uint8_t {
    kIo,        ///< pread failed (EIO, unexpected EOF, torn read)
    kChecksum,  ///< payload read fine but failed its FNV checksum
    kAlloc,     ///< tile buffer allocation failed
  };

  TileReadError(Kind kind, std::int64_t tile_id, const std::string& what)
      : check_error(what), kind_(kind), tile_id_(tile_id) {}

  Kind kind() const { return kind_; }
  std::int64_t tile_id() const { return tile_id_; }

  static const char* kind_name(Kind kind) {
    switch (kind) {
      case Kind::kIo: return "io";
      case Kind::kChecksum: return "checksum";
      case Kind::kAlloc: return "alloc";
    }
    return "unknown";
  }

 private:
  Kind kind_;
  std::int64_t tile_id_;
};

/// Bounded exponential backoff with jitter for tile-read retries.
struct RetryOptions {
  /// Total read attempts per fetch, including the first (1 = no retry).
  int max_attempts = 4;
  double backoff_base_ms = 0.2;  ///< sleep before the first retry
  double backoff_max_ms = 20;    ///< cap on the doubled backoff
  /// Fraction of each backoff randomized: sleep is uniform in
  /// [backoff·(1-jitter), backoff], so retries from concurrent workers
  /// de-synchronize instead of hammering the disk in lockstep.
  double jitter = 0.5;
};

/// Backoff before retry number `retry_index` (0 = first retry): base
/// doubled per retry, capped, then jittered via `rng`.
double retry_backoff_ms(const RetryOptions& options, int retry_index,
                        Rng& rng);

struct QuarantineOptions {
  /// Consecutive failed fetches (each already retried) before a tile is
  /// quarantined.  0 disables quarantine entirely.
  int threshold = 3;
  /// Quiet period after quarantine entry (or a failed probe) before the
  /// tile may be probed again.
  double cooldown_ms = 50;
};

/// Thread-safe per-tile failure ledger.  The service asks `admit` before
/// reading a tile, reports `record_failure` / `record_success` after, and
/// a maintenance thread drains `due_for_probe` to heal quarantined tiles
/// in the background.  A probe "slot" (one in-flight probe per tile) is
/// claimed by admit()'s kProbe verdict or by due_for_probe, and released
/// by the next record_* call for that tile.
class QuarantineRegistry {
 public:
  using Clock = std::chrono::steady_clock;

  enum class Admission : std::uint8_t {
    kAllow,    ///< tile healthy: read it
    kBlocked,  ///< quarantined: fail fast, do not touch the disk
    kProbe,    ///< quarantined but cooldown elapsed: caller is the probe
  };

  struct Stats {
    std::int64_t active = 0;    ///< tiles quarantined right now
    std::int64_t enters = 0;    ///< lifetime quarantine entries
    std::int64_t exits = 0;     ///< lifetime recoveries
    std::int64_t blocked = 0;   ///< reads refused while quarantined
    std::int64_t probes = 0;    ///< probe slots handed out
    std::int64_t failures = 0;  ///< record_failure calls
  };

  explicit QuarantineRegistry(QuarantineOptions options = {})
      : options_(options) {}

  bool enabled() const { return options_.threshold > 0; }
  const QuarantineOptions& options() const { return options_; }

  Admission admit(std::int64_t tile_id) {
    return admit(tile_id, Clock::now());
  }
  Admission admit(std::int64_t tile_id, Clock::time_point now);

  /// A fetch (retries exhausted) failed; returns true when this failure
  /// pushed the tile *into* quarantine.
  bool record_failure(std::int64_t tile_id) {
    return record_failure(tile_id, Clock::now());
  }
  bool record_failure(std::int64_t tile_id, Clock::time_point now);

  /// A fetch or probe succeeded; returns true when the tile *exited*
  /// quarantine.
  bool record_success(std::int64_t tile_id);

  /// Quarantined tiles whose cooldown has elapsed and that have no probe
  /// in flight; claims their probe slots.  The caller must follow up
  /// with record_failure/record_success for each returned tile.
  std::vector<std::int64_t> due_for_probe(Clock::time_point now);

  Stats stats() const;

 private:
  struct TileState {
    int consecutive_failures = 0;
    bool quarantined = false;
    bool probe_in_flight = false;
    Clock::time_point since{};  ///< entry or last failed probe
  };

  QuarantineOptions options_;
  mutable std::mutex mutex_;
  std::map<std::int64_t, TileState> tiles_;
  std::int64_t enters_ = 0;
  std::int64_t exits_ = 0;
  std::int64_t blocked_ = 0;
  std::int64_t probes_ = 0;
  std::int64_t failures_ = 0;
};

/// The /healthz contract (docs/robustness.md): the numeric values are
/// exported as the serve.health gauge, so they are part of the metrics
/// interface — keep ok < degraded < unhealthy.
enum class HealthState : std::uint8_t {
  kOk = 0,
  kDegraded = 1,   ///< quarantined tiles or replaced workers; still exact
  kUnhealthy = 2,  ///< shedding load: too much of the service is dark
};

const char* to_string(HealthState state);

}  // namespace capsp
