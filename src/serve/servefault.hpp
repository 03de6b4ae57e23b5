// Deterministic fault injection for the serving stack
// (docs/robustness.md, "Serving resilience").
//
// machine/fault makes the simulated *network* hostile; this makes the
// serving *disk and process* hostile.  A ServeFaultPlan describes, as
// data, what happens to tile reads (EIO, EINTR, short reads, bit flips,
// latency spikes, allocation failures), which specific tile goes bad for
// how long, and which worker wedges at which job.  A ServeFaultInjector
// executes the plan: every decision is a pure function of (seed, tile id,
// per-tile attempt index), so a plan replays the same fault sequence
// regardless of thread scheduling, and a failing chaos run shrinks to a
// minimal plan the same way test_fault shrinks FaultPlans.
//
// Injection points (all no-ops when no injector is installed):
//   * SnapshotReader::read_tile — consults next_read_fault() per attempt
//     and applies it to the pread path (serve/snapshot);
//   * DistanceService workers — consult stick_seconds() per dequeued job
//     (the watchdog's prey) and next_alloc_fails() is applied by the
//     reader before the tile buffer is built.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>

#include "semiring/dist.hpp"
#include "util/rng.hpp"

namespace capsp {

/// A worker process fault: worker `W` (by spawn index) sleeps
/// `seconds` when it dequeues its `job_index`-th job — long enough to
/// trip the watchdog, which abandons and replaces it.
struct WorkerStick {
  std::int64_t job_index = 0;
  double seconds = 0;
};

/// Declarative, seed-driven fault schedule for a serving run.
struct ServeFaultPlan {
  std::uint64_t seed = 1;
  /// Per-read-attempt fault probabilities; mutually exclusive per
  /// attempt, so their sum must be <= 1.
  double read_error = 0;  ///< pread fails with EIO
  double eintr = 0;       ///< pread interrupted once (EINTR), then fine
  double short_read = 0;  ///< pread returns half the bytes once, then fine
  double flip = 0;        ///< one payload bit flipped (checksum's prey)
  double delay = 0;       ///< read stalls delay_ms (latency spike)
  double delay_ms = 2;
  /// Probability that a tile-buffer allocation fails.
  double alloc = 0;
  /// Deterministic bad sector: tile `bad_tile`'s first `bad_tile_fails`
  /// read attempts fail with EIO, then the tile heals.  This is what
  /// drives a tile through the full quarantine lifecycle (enter, probe,
  /// exit) in bounded time.  -1 = none.
  std::int64_t bad_tile = -1;
  std::int64_t bad_tile_fails = 0;
  /// At most one stick per worker index.
  std::map<int, WorkerStick> stuck;

  bool has_read_faults() const {
    return read_error + eintr + short_read + flip + delay > 0 ||
           bad_tile >= 0;
  }
  bool empty() const {
    return !has_read_faults() && alloc <= 0 && stuck.empty();
  }

  /// Parse a comma-separated spec, e.g.
  ///   "seed=7,read_error=0.02,eintr=0.01,short=0.01,flip=0.02,
  ///    delay=0.01,delay_ms=2,alloc=0.005,bad_tile=5:4,stuck=0@40:0.4"
  /// Keys: seed=N; read_error/eintr/short/flip/delay/alloc=P
  /// (probabilities); delay_ms=M; bad_tile=T:K (tile T's first K read
  /// attempts fail); stuck=W@J:S (worker W sleeps S seconds at its J-th
  /// job).  CHECK-fails on unknown keys, malformed values, or read
  /// probabilities summing > 1.  The grammar is shared with FaultPlan
  /// (util/faultplan).
  static ServeFaultPlan parse(const std::string& spec);

  /// Round-trips through parse().
  std::string to_string() const;
};

/// Executes a ServeFaultPlan.  Thread-safe: read decisions key a fresh
/// Rng off (seed, tile, attempt) under a small mutex, counters are
/// atomic.
class ServeFaultInjector {
 public:
  /// Fate of one tile-read attempt.
  enum class ReadFault : std::uint8_t {
    kNone,
    kEio,    ///< the read fails outright
    kEintr,  ///< one EINTR before the data arrives (pread layer retries)
    kShort,  ///< one short read before the rest arrives (ditto)
    kFlip,   ///< payload lands with one bit flipped
    kDelay,  ///< the read takes an extra delay_ms
  };

  /// Injected-fault totals (what the plan *did*, as opposed to the
  /// serve.fault.* metrics which count what the service *observed*).
  struct Counts {
    std::int64_t eio = 0;
    std::int64_t eintr = 0;
    std::int64_t short_reads = 0;
    std::int64_t flips = 0;
    std::int64_t delays = 0;
    std::int64_t allocs = 0;
    std::int64_t sticks = 0;
  };

  explicit ServeFaultInjector(ServeFaultPlan plan);

  const ServeFaultPlan& plan() const { return plan_; }
  double delay_seconds() const { return plan_.delay_ms / 1000.0; }

  /// Decide the fate of the next read attempt on `tile_id` (advances the
  /// tile's attempt counter).  bad_tile overrides the probabilistic
  /// draws while its failure budget lasts.
  ReadFault next_read_fault(std::int64_t tile_id);

  /// Should the next tile-buffer allocation for `tile_id` fail?
  bool next_alloc_fails(std::int64_t tile_id);

  /// Flip one deterministic payload bit (no-op when empty); the flip was
  /// already counted when next_read_fault returned kFlip.
  void flip_payload(std::int64_t tile_id, std::span<Dist> payload);

  /// Stall seconds for worker `worker_index` dequeuing its
  /// `job_index`-th job; 0 = no fault.  Counted when nonzero.
  double stick_seconds(int worker_index, std::int64_t job_index);

  Counts counts() const;

 private:
  /// Deterministic stream for one (tile, attempt) decision.
  Rng decision_rng(std::int64_t tile_id, std::int64_t attempt,
                   std::uint64_t salt) const;

  ServeFaultPlan plan_;
  std::mutex mutex_;
  std::unordered_map<std::int64_t, std::int64_t> read_attempts_;
  std::unordered_map<std::int64_t, std::int64_t> alloc_attempts_;
  std::atomic<std::int64_t> eio_{0};
  std::atomic<std::int64_t> eintr_{0};
  std::atomic<std::int64_t> short_reads_{0};
  std::atomic<std::int64_t> flips_{0};
  std::atomic<std::int64_t> delays_{0};
  std::atomic<std::int64_t> allocs_{0};
  std::atomic<std::int64_t> sticks_{0};
};

}  // namespace capsp
