#include "loadgen.hpp"

#include <sys/prctl.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <thread>
#include <utility>

#include "spans.hpp"

namespace perfbench {

using capsp::Vertex;

QueryStream::QueryStream(Vertex n, double theta, double path_fraction,
                         std::uint64_t ranking_seed, std::uint64_t seed)
    : rng_(seed),
      path_fraction_(path_fraction),
      cdf_(static_cast<std::size_t>(n)),
      perm_(static_cast<std::size_t>(n)) {
  double sum = 0;
  for (Vertex r = 0; r < n; ++r) {
    sum += 1.0 / std::pow(static_cast<double>(r + 1), theta);
    cdf_[static_cast<std::size_t>(r)] = sum;
  }
  for (double& c : cdf_) c /= sum;
  for (Vertex v = 0; v < n; ++v) perm_[static_cast<std::size_t>(v)] = v;
  capsp::Rng ranking(ranking_seed);
  for (std::size_t i = perm_.size(); i > 1; --i)
    std::swap(perm_[i - 1], perm_[ranking.uniform(i)]);
}

Vertex QueryStream::draw() {
  const auto it =
      std::lower_bound(cdf_.begin(), cdf_.end(), rng_.uniform_real());
  const auto last = static_cast<std::ptrdiff_t>(cdf_.size()) - 1;
  return perm_[static_cast<std::size_t>(std::min(it - cdf_.begin(), last))];
}

std::vector<Query> QueryStream::take(std::int64_t count) {
  std::vector<Query> queries(static_cast<std::size_t>(count));
  for (Query& q : queries) {
    q.u = draw();
    q.v = draw();
    q.path = rng_.uniform_real() < path_fraction_;
  }
  return queries;
}

namespace {

// Longest the generator sleeps between looks at the outstanding requests.
constexpr std::int64_t kPollNs = 20'000;

struct Pending {
  std::size_t index = 0;
  bool path = false;
  std::future<capsp::DistanceReply> distance;
  std::future<capsp::PathReply> route;

  template <typename TimePoint>
  void wait_until(TimePoint t) const {
    if (path) {
      route.wait_until(t);
    } else {
      distance.wait_until(t);
    }
  }

  bool ready() const {
    constexpr auto kNow = std::chrono::seconds(0);
    return path ? route.wait_for(kNow) == std::future_status::ready
                : distance.wait_for(kNow) == std::future_status::ready;
  }

  void take(Reply& reply) {
    if (path) {
      capsp::PathReply r = route.get();
      reply.error = r.error;
      reply.distance = r.distance;
      reply.path = std::move(r.path);
    } else {
      const capsp::DistanceReply r = distance.get();
      reply.error = r.error;
      reply.distance = r.distance;
    }
  }
};

}  // namespace

OpenLoopRun run_open_loop(capsp::DistanceService& service,
                          std::span<const Query> queries, double rate,
                          std::int64_t max_backlog) {
  // Sleep precisely: the default 50 us timer slack would blur both the
  // send times and the completion stamps.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  OpenLoopRun run;
  run.replies.resize(queries.size());
  std::vector<Pending> pending;
  pending.reserve(static_cast<std::size_t>(max_backlog) + 1);

  // Stamp every reply that is ready.  A zero-timeout wait_for is one
  // atomic load, so a pass over the outstanding set is cheap.
  const auto collect = [&] {
    for (std::size_t k = 0; k < pending.size();) {
      if (!pending[k].ready()) {
        ++k;
        continue;
      }
      Reply& reply = run.replies[pending[k].index];
      reply.done_ns = wall_ns();
      pending[k].take(reply);
      pending[k] = std::move(pending.back());
      pending.pop_back();
    }
  };
  // Block until `until` (steady-clock ns), waking at least every
  // kPollNs to stamp completions.  The generator sleeps on the oldest
  // outstanding request, so in-order completions are stamped as they
  // happen and the rest within kPollNs, without a thread spinning on a
  // core the service's workers need.
  const auto wait_until = [&](std::int64_t until) {
    for (std::int64_t now = wall_ns(); now < until; now = wall_ns()) {
      collect();
      const auto wake = std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(std::min(until, now + kPollNs)));
      if (pending.empty()) {
        std::this_thread::sleep_until(wake);
        continue;
      }
      const auto oldest = std::min_element(
          pending.begin(), pending.end(),
          [](const Pending& a, const Pending& b) { return a.index < b.index; });
      oldest->wait_until(wake);
    }
    collect();
  };

  const double period_ns = 1e9 / rate;
  const std::int64_t start = wall_ns() + 1'000'000;
  std::size_t sent = 0;
  for (; sent < queries.size(); ++sent) {
    const std::int64_t due =
        start +
        static_cast<std::int64_t>(static_cast<double>(sent) * period_ns);
    wait_until(due);
    if (static_cast<std::int64_t>(pending.size()) > max_backlog) {
      run.aborted = true;
      break;
    }
    const Query& q = queries[sent];
    Reply& reply = run.replies[sent];
    reply.due_ns = due;
    reply.sent_ns = wall_ns();
    Pending p;
    p.index = sent;
    p.path = q.path;
    if (q.path) {
      p.route = service.shortest_path_async(q.u, q.v);
    } else {
      p.distance = service.distance_async(q.u, q.v);
    }
    pending.push_back(std::move(p));
  }
  run.replies.resize(sent);
  run.backlog_at_end = static_cast<std::int64_t>(pending.size());
  while (!pending.empty()) wait_until(wall_ns() + kPollNs);
  return run;
}

std::vector<Reply> run_burst(capsp::DistanceService& service,
                             std::span<const Query> queries) {
  std::vector<Pending> pending(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    pending[i].path = q.path;
    if (q.path) {
      pending[i].route = service.shortest_path_async(q.u, q.v);
    } else {
      pending[i].distance = service.distance_async(q.u, q.v);
    }
  }
  std::vector<Reply> replies(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i)
    pending[i].take(replies[i]);
  return replies;
}

SerialReplay replay_serially(capsp::DistanceService& service,
                             const capsp::SnapshotHeader& header,
                             std::span<const Query> queries) {
  SerialReplay replay;
  replay.replies.resize(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    Reply& reply = replay.replies[i];
    const capsp::TileCache::Stats before = service.cache_stats();
    if (q.path) {
      capsp::PathReply r = service.shortest_path(q.u, q.v);
      reply.error = r.error;
      reply.distance = r.distance;
      reply.path = std::move(r.path);
    } else {
      const capsp::DistanceReply r = service.distance(q.u, q.v);
      reply.error = r.error;
      reply.distance = r.distance;
    }
    const capsp::TileCache::Stats after = service.cache_stats();
    CacheUse& use = q.path ? replay.path : replay.distance;
    ++use.queries;
    use.hits += after.hits - before.hits;
    use.misses += after.misses - before.misses;
    if (!q.path && after.misses > before.misses)
      replay.missed_tiles.push_back(
          header.tile_id(q.u / header.tile_dim, q.v / header.tile_dim));
  }
  return replay;
}

}  // namespace perfbench
