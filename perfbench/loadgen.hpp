// Serving-side load generation for the benchmark: the seeded query
// stream, the single-threaded open-loop generator, and a serial replay that
// attributes tile-cache traffic to each query kind.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "serve/service.hpp"
#include "util/rng.hpp"

namespace perfbench {

struct Query {
  capsp::Vertex u = 0;
  capsp::Vertex v = 0;
  bool path = false;  ///< shortest_path when true, distance otherwise
};

/// Seeded stream of queries over Zipf(theta)-skewed vertex pairs; each
/// is a path query with probability `path_fraction`.  A permutation drawn
/// from `ranking_seed` maps Zipf ranks to vertices, so the hot set spreads
/// over the matrix; the draws come from `seed`.  Successive take() calls
/// continue one stream, so a cache warmed on its head sees the same hot
/// set as the queries after it.
class QueryStream {
 public:
  QueryStream(capsp::Vertex n, double theta, double path_fraction,
              std::uint64_t ranking_seed, std::uint64_t seed);
  std::vector<Query> take(std::int64_t count);

 private:
  capsp::Vertex draw();

  capsp::Rng rng_;
  double path_fraction_;
  std::vector<double> cdf_;
  std::vector<capsp::Vertex> perm_;
};

/// One request's outcome.  Times are steady-clock nanoseconds; latency is
/// measured from `due`, so a late send or a stall counts against it.
struct Reply {
  capsp::ServeError error = capsp::ServeError::kOk;
  capsp::Dist distance = capsp::kInf;
  std::vector<capsp::Vertex> path;
  std::int64_t due_ns = 0;
  std::int64_t sent_ns = 0;
  std::int64_t done_ns = 0;

  double latency_us() const {
    return static_cast<double>(done_ns - due_ns) * 1e-3;
  }
  double lag_us() const {
    return static_cast<double>(sent_ns - due_ns) * 1e-3;
  }
};

struct OpenLoopRun {
  std::vector<Reply> replies;  ///< one per query sent, in send order
  /// Requests outstanding after the last send.
  std::int64_t backlog_at_end = 0;
  bool aborted = false;  ///< stopped early: backlog passed the cap
};

/// Open loop at a fixed rate: query i is due at start + i / rate.  The
/// calling thread is the only generator; between sends it sleeps on the
/// oldest outstanding future, waking at least every 20 us, and stamps each
/// reply when it first sees it ready.
/// Sending stops early when more than `max_backlog` requests are
/// outstanding.  Returns after every sent request has completed.
OpenLoopRun run_open_loop(capsp::DistanceService& service,
                          std::span<const Query> queries, double rate,
                          std::int64_t max_backlog);

/// Closed burst: every query is submitted at once, then the calling
/// thread blocks on each reply in order.  The service's workers drain a
/// full queue without sleeping between requests, so their CPU over a burst
/// is the work of the queries, not of waking up for each.  `queries` must
/// fit the service's queue.  Replies carry no times.
std::vector<Reply> run_burst(capsp::DistanceService& service,
                             std::span<const Query> queries);

/// Tile-cache traffic of one query kind.
struct CacheUse {
  std::int64_t queries = 0;
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  double hit_ratio() const {
    const std::int64_t lookups = hits + misses;
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }
};

struct SerialReplay {
  CacheUse distance;
  CacheUse path;
  /// Tiles read by distance queries that missed, in order (what
  /// snapshot.read_tile_us re-reads outside the service).
  std::vector<std::int64_t> missed_tiles;
  std::vector<Reply> replies;
};

/// Replay `queries` one at a time through the blocking API, reading the
/// cache counters around each so hits and misses are attributed exactly
/// to the query's kind.  `header` is the served snapshot's geometry.
SerialReplay replay_serially(capsp::DistanceService& service,
                             const capsp::SnapshotHeader& header,
                             std::span<const Query> queries);

}  // namespace perfbench
