// End-to-end solve-and-serve benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --workdir <dir>
//
// One workload runs the whole user pipeline: a seeded weighted grid,
// nested_dissection + run_sparse_apsp, a CAPSPDB2 snapshot of the result
// and a DistanceService over it.  Every solve is checked bit for bit
// against dijkstra_apsp and every served reply against the same oracle.
// With --trace 0 the run prints the end-to-end metrics; with --trace 1 it
// prints the per-layer metrics of a separate traced run (spans recorded
// around calls into each layer, see spans.hpp).  Each metric is printed
// as a "name = value unit" line, and the last line of stdout is one JSON
// object {"correct", "attempted", "failed", "metrics"}.  The exit code is
// non-zero when any answer was wrong or an exact count changed.
// interaction_map.md says which end-to-end metric each layer metric
// should move, on which workload.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "baseline/reference.hpp"
#include "core/sparse_apsp.hpp"
#include "graph/generators.hpp"
#include "loadgen.hpp"
#include "machine/machine.hpp"
#include "partition/nested_dissection.hpp"
#include "serve/service.hpp"
#include "serve/snapshot.hpp"
#include "spans.hpp"
#include "util/buildinfo.hpp"
#include "util/json.hpp"

namespace perfbench {
namespace {

using capsp::DistBlock;
using capsp::Graph;
using capsp::Vertex;

/// A workload: the grid the pipeline runs on.
struct Workload {
  const char* name;
  Vertex side;  ///< grid side; n = side²
  int height;   ///< eTree height; p = (2^h - 1)² rank threads
};

constexpr Workload kWorkloads[] = {
    // Kernel-bound: min-plus fw/accumulate dominate the solve's CPU.  Its
    // serving runs over the 4096-grid snapshot, 128 MiB against a 16 MiB
    // cache, so distance queries mostly miss and path queries mostly hit.
    {"solve-grid4k-p49", 64, 3},
    // Rank-bound: 961 rank threads, mailboxes and ND dominate; solves are
    // short, so one run gets many samples.
    {"solve-grid1k-p961", 32, 5},
};

// How the timed phase splits --seconds: repeated solves, then serving at
// the fixed rate, then closed bursts (serve_cpu_us_per_query).
constexpr double kSolveShare = 0.75;
constexpr double kBurstShare = 0.1;

// Serving configuration shared by every workload.
constexpr std::int64_t kTileDim = 64;
constexpr std::int64_t kCacheBytes = 16 << 20;
constexpr int kServeThreads = 2;
constexpr double kZipfTheta = 0.99;
constexpr double kPathFraction = 0.05;
// The popularity ranking (which vertices are hot) is part of the workload,
// fixed across seeds; the seed draws the pairs and the edge weights.  With
// Zipf(0.99) the top few vertices carry a large share of the queries, so a
// ranking drawn per seed would make each seed a different workload.
constexpr std::uint64_t kRankingSeed = 0x5eed;
constexpr std::int64_t kWarmQueries = 3000;
// Fixed offered rate of the latency measurement (queries per second).
constexpr double kFixedRate = 2000;
// Latency limit of serve_max_qps: distance p99 at or under it.  On a
// shared virtual machine the hypervisor stalls vCPUs for up to ~20 ms, which
// puts distance p99 at 6-15 ms even on a cache-resident snapshot; a limit
// above that makes the ladder find where queues build, not where a stall
// happened to land.
constexpr double kDistanceP99LimitUs = 50000;
// Rate ladder of serve_max_qps: kFixedRate · kLadderStep^i.
constexpr double kLadderStep = 2;
constexpr int kLadderRungs = 12;
constexpr std::int64_t kMinRungQueries = 1200;
// Requests outstanding beyond which a rung stops sending (below the
// service's 4096-deep admission bound, so overload shows as backlog).
constexpr std::int64_t kMaxBacklog = 2000;
// A run whose generator's p99 lateness alone reaches the latency limit
// cannot resolve that limit; it is marked invalid (see check_lag).
constexpr double kMaxLagP99Us = kDistanceP99LimitUs;
constexpr int kSetupReps = 3;
// Closed bursts of serve_cpu_us_per_query: queries per burst (under the
// service's 4096-deep queue) and the fewest bursts a run makes.
constexpr std::int64_t kBurstQueries = 2000;
constexpr std::size_t kMinBursts = 5;

// Span names of the traced run (compared by pointer).
constexpr const char* kSolveSpan = "perfbench.solve";
constexpr const char* kNdSpan = "partition.nested_dissection";
constexpr const char* kCoreSpan = "core.run_sparse_apsp_semiring";
constexpr const char* kSpawnSpan = "machine.run_empty";

// ---------------------------------------------------------------- stats

double median(std::vector<double> v) {
  CAPSP_CHECK(!v.empty());
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// Nearest-rank quantile, q in (0, 1].
double quantile(std::vector<double> v, double q) {
  CAPSP_CHECK(!v.empty());
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// The highest percentile with at least ten samples beyond it; with ten
/// samples or fewer no percentile has that support and the maximum is
/// reported instead.
struct Tail {
  double value = 0;
  double percentile = 100;
  std::size_t samples = 0;
};

Tail tail(std::vector<double> v) {
  CAPSP_CHECK(!v.empty());
  std::sort(v.begin(), v.end());
  Tail t;
  t.samples = v.size();
  const std::size_t k = v.size() > 10 ? v.size() - 11 : v.size() - 1;
  t.value = v[k];
  t.percentile =
      100.0 * static_cast<double>(k + 1) / static_cast<double>(v.size());
  return t;
}

// ---------------------------------------------------------------- host

double loadavg_1m() {
  double load[1] = {0};
  return getloadavg(load, 1) == 1 ? load[0] : -1;
}

long nproc() { return sysconf(_SC_NPROCESSORS_ONLN); }

/// Host CPU ticks from the aggregate line of /proc/stat: {steal, total}.
/// Steal is time the hypervisor ran something else on this machine's
/// CPUs, which no process inside it can see in its own load average.
std::pair<double, double> cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double total = 0, steal = 0;
  for (int field = 0; field < 10; ++field) {
    double ticks = 0;
    if (!(in >> ticks)) break;
    total += ticks;
    if (field == 7) steal = ticks;
  }
  return {steal, total};
}

// ---------------------------------------------------------------- output

class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit,
              const std::string& note = "") {
    CAPSP_CHECK_MSG(std::isfinite(value),
                    "metric " << name << " is not finite");
    std::printf("%s = %.6g %s%s%s\n", name.c_str(), value, unit.c_str(),
                note.empty() ? "" : "  # ", note.c_str());
    metrics_.push_back({name, value, unit});
  }

  void count(const std::string& name, std::int64_t value,
             const std::string& unit = "count") {
    metric(name, static_cast<double>(value), unit);
  }

  void info(const std::string& line) { std::printf("# %s\n", line.c_str()); }

  void print_result(bool correct, std::int64_t attempted, std::int64_t failed) {
    std::ostringstream out;
    capsp::JsonWriter json(out);
    json.begin_object();
    json.field("correct", correct);
    json.field("attempted", attempted);
    json.field("failed", failed);
    json.key("metrics");
    json.begin_object();
    for (const auto& m : metrics_) {
      json.key(m.name);
      json.begin_object();
      json.field("value", m.value);
      json.field("unit", m.unit);
      json.end_object();
    }
    json.end_object();
    json.end_object();
    std::printf("%s\n", out.str().c_str());
    std::fflush(stdout);
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
};

/// Attempted operations, failures and any reason the run is not valid.
struct Verdict {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> problems;

  void problem(const std::string& what) {
    problems.push_back(what);
    std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  }
};

// ---------------------------------------------------------------- solve

Graph make_graph(const Workload& w, std::uint64_t seed) {
  capsp::Rng rng(seed);
  return capsp::make_grid2d(w.side, w.side, rng);
}

bool same_bits(const DistBlock& a, const DistBlock& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size_bytes()) == 0;
}

/// The counts a solve must reproduce exactly, run after run.
struct ExactCounts {
  Vertex separator = 0;
  double critical_messages = 0;
  double critical_words = 0;
  std::int64_t total_messages = 0;
  std::int64_t total_words = 0;
  std::int64_t ops = 0;

  friend bool operator==(const ExactCounts&, const ExactCounts&) = default;
};

ExactCounts counts_of(const capsp::SparseApspResult& r) {
  ExactCounts c;
  c.separator = r.separator_size;
  c.critical_messages = r.costs.critical_latency;
  c.critical_words = r.costs.critical_bandwidth;
  c.total_messages = r.costs.total_messages;
  c.total_words = r.costs.total_words;
  for (const std::int64_t ops : r.ops_per_rank) c.ops += ops;
  return c;
}

struct SolveSample {
  double wall_s = 0;
  double cpu_s = 0;
  std::int64_t heap_peak = 0;  ///< peak live heap bytes during the solve
};

/// Checks each solve against the oracle, and its exact counts against the
/// first solve's (per collect mode: collection adds its own messages).
class SolveChecker {
 public:
  SolveChecker(const DistBlock& oracle, Verdict& verdict)
      : oracle_(oracle), verdict_(verdict) {}

  void check(const capsp::SparseApspResult& r, bool collected = true) {
    ++verdict_.attempted;
    bool ok = !collected || same_bits(r.distances, oracle_);
    if (!ok) verdict_.problem("solve distances differ from dijkstra_apsp");
    const ExactCounts c = counts_of(r);
    std::optional<ExactCounts>& first = first_[collected ? 1 : 0];
    if (!first) {
      first = c;
    } else if (!(c == *first)) {
      verdict_.problem(
          "solve counts (|S|, L, B, volumes, ops) changed between solves");
      ok = false;
    }
    if (!ok) ++verdict_.failed;
  }

  /// Counts of the solves with collection on.
  const ExactCounts& counts() const { return *first_[1]; }

 private:
  const DistBlock& oracle_;
  Verdict& verdict_;
  std::optional<ExactCounts> first_[2];
};

capsp::SparseApspResult timed_solve(const Graph& graph,
                                    const capsp::SparseApspOptions& options,
                                    SolveSample& sample) {
  reset_heap_peak();
  const double cpu0 = process_cpu_s();
  const std::int64_t t0 = wall_ns();
  capsp::SparseApspResult result = capsp::run_sparse_apsp(graph, options);
  sample.wall_s = static_cast<double>(wall_ns() - t0) * 1e-9;
  sample.cpu_s = process_cpu_s() - cpu0;
  sample.heap_peak = heap_peak_bytes();
  return result;
}

// ---------------------------------------------------------------- serve

/// Snapshot and service: what set-up builds and serving uses.
struct Served {
  std::shared_ptr<capsp::SnapshotReader> reader;
  std::unique_ptr<capsp::DistanceService> service;
};

capsp::ServeOptions serve_options() {
  capsp::ServeOptions options;
  options.threads = kServeThreads;
  options.cache_bytes = kCacheBytes;
  return options;
}

/// Checks replies against the oracle: a distance must equal it exactly; a
/// path must run u→v over existing edges whose weights sum to the reply's
/// distance.  Returns {wrong, errors}.
std::pair<std::int64_t, std::int64_t> check_replies(
    std::span<const Query> queries, std::span<const Reply> replies,
    const DistBlock& oracle, const Graph& graph) {
  std::int64_t wrong = 0, errors = 0;
  for (std::size_t i = 0; i < replies.size(); ++i) {
    const Query& q = queries[i];
    const Reply& r = replies[i];
    if (r.error != capsp::ServeError::kOk) {
      ++errors;
      continue;
    }
    bool ok = r.distance == oracle.at(q.u, q.v);
    if (ok && q.path) {
      ok = !r.path.empty() && r.path.front() == q.u && r.path.back() == q.v;
      capsp::Dist sum = 0;
      for (std::size_t k = 1; ok && k < r.path.size(); ++k) {
        ok = graph.has_edge(r.path[k - 1], r.path[k]);
        if (ok) sum += graph.edge_weight(r.path[k - 1], r.path[k]);
      }
      ok = ok && sum == r.distance;
    }
    if (!ok) ++wrong;
  }
  return {wrong, errors};
}

struct Latencies {
  std::vector<double> distance_us;
  std::vector<double> path_us;
  std::vector<double> lag_us;
};

Latencies latencies_of(std::span<const Query> queries, const OpenLoopRun& run) {
  Latencies l;
  for (std::size_t i = 0; i < run.replies.size(); ++i) {
    const Reply& r = run.replies[i];
    l.lag_us.push_back(r.lag_us());
    if (r.error != capsp::ServeError::kOk) continue;
    (queries[i].path ? l.path_us : l.distance_us).push_back(r.latency_us());
  }
  return l;
}

// ---------------------------------------------------------------- run

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir = ".";
};

class Bench {
 public:
  Bench(const Workload& w, const Options& opt)
      : w_(w),
        opt_(opt),
        snapshot_path_(opt.workdir + "/perfbench-" +
                       std::to_string(getpid()) + ".snap"),
        graph_(make_graph(w, opt.seed)),
        stream_(graph_.num_vertices(), kZipfTheta, kPathFraction, kRankingSeed,
                opt.seed ^ 0x9e3779b97f4a7c15ull),
        checker_(oracle_, verdict_) {
    solve_options_.height = w.height;
  }

  ~Bench() {
    served_ = Served{};
    std::remove(snapshot_path_.c_str());
  }

  int run() {
    const double load_before = loadavg_1m();
    const auto ticks_before = cpu_ticks();
    // The oracle is computed once, untimed, before anything it checks.
    oracle_ = capsp::dijkstra_apsp(graph_);
    warm_ = stream_.take(kWarmQueries);
    heap_before_setup_ = reset_heap_peak();
    const int reps = opt_.trace ? 1 : kSetupReps;
    std::vector<double> setup_s;
    for (int rep = 0; rep < reps; ++rep) setup_s.push_back(set_up());

    if (opt_.trace) {
      traced_phase();
    } else {
      timed_phase(setup_s);
    }
    provenance(load_before, ticks_before);

    const bool correct = verdict_.problems.empty();
    report_.print_result(correct, verdict_.attempted, verdict_.failed);
    return correct ? 0 : 1;
  }

 private:
  /// Generation, one warm-up solve, snapshot write, service start and
  /// cache warm-up.  Returns its wall time in seconds.
  double set_up() {
    served_ = Served{};  // the previous instance goes untimed
    const std::int64_t t0 = wall_ns();
    Graph graph = make_graph(w_, opt_.seed);
    SolveSample sample;
    const capsp::SparseApspResult result =
        timed_solve(graph, solve_options_, sample);
    capsp::write_snapshot(snapshot_path_, result.distances, kTileDim);
    Served s;
    s.reader = std::make_shared<capsp::SnapshotReader>(snapshot_path_);
    s.service = std::make_unique<capsp::DistanceService>(
        s.reader, std::move(graph), serve_options());
    const SerialReplay warm =
        replay_serially(*s.service, s.reader->header(), warm_);
    const double seconds = static_cast<double>(wall_ns() - t0) * 1e-9;

    checker_.check(result);
    check_serve(warm_, warm.replies);
    served_ = std::move(s);
    return seconds;
  }

  void check_serve(std::span<const Query> queries,
                   std::span<const Reply> replies, bool errors_fail = true) {
    const auto [wrong, errors] =
        check_replies(queries, replies, oracle_, graph_);
    verdict_.attempted += static_cast<std::int64_t>(replies.size()) -
                          (errors_fail ? 0 : errors);
    verdict_.failed += wrong + (errors_fail ? errors : 0);
    if (wrong > 0)
      verdict_.problem(std::to_string(wrong) + " served answers were wrong");
  }

  std::vector<SolveSample> solve_loop(double seconds) {
    std::vector<SolveSample> samples;
    const std::int64_t deadline =
        wall_ns() + static_cast<std::int64_t>(seconds * 1e9);
    do {
      SolveSample sample;
      const capsp::SparseApspResult result =
          timed_solve(graph_, solve_options_, sample);
      checker_.check(result);
      samples.push_back(sample);
    } while (wall_ns() < deadline);
    return samples;
  }

  /// Open loop at kFixedRate for `seconds`, with the peak live heap it
  /// took.
  struct FixedRun {
    std::vector<Query> queries;
    OpenLoopRun run;
    std::int64_t heap_peak = 0;
  };

  FixedRun fixed_rate(double seconds) {
    FixedRun f;
    f.queries = stream_.take(
        std::max<std::int64_t>(1, std::llround(kFixedRate * seconds)));
    reset_heap_peak();
    f.run = run_open_loop(*served_.service, f.queries, kFixedRate, kMaxBacklog);
    f.heap_peak = heap_peak_bytes();
    return f;
  }

  /// serve_cpu_us_per_query: closed bursts of kBurstQueries until
  /// `seconds` have passed (at least kMinBursts), each giving the CPU the
  /// service's threads spent on it per query; returns those figures.  At
  /// the fixed rate every request wakes a sleeping worker, and the cost of
  /// that wake-up follows the host's load: on the cache-resident 1024-grid
  /// snapshot it is about three quarters of the CPU per query and spread
  /// by up to 30% across runs.  A worker draining a full queue does not
  /// sleep, so a burst measures the queries' own work.
  std::vector<double> burst_cpu_us(double seconds) {
    std::vector<double> per_query;
    const std::int64_t deadline =
        wall_ns() + static_cast<std::int64_t>(seconds * 1e9);
    while (per_query.size() < kMinBursts || wall_ns() < deadline) {
      const std::vector<Query> queries = stream_.take(kBurstQueries);
      const double cpu0 = other_threads_cpu_s();
      const std::vector<Reply> replies = run_burst(*served_.service, queries);
      per_query.push_back((other_threads_cpu_s() - cpu0) * 1e6 /
                          static_cast<double>(kBurstQueries));
      check_serve(queries, replies);
    }
    return per_query;
  }

  /// Distance p99 of one open-loop run, and whether it kept up: no
  /// refusals, no abort, and no more requests outstanding after the last
  /// send than the latency limit lets drain.
  struct Rung {
    double rate = 0;
    double p99_us = INFINITY;
    double throughput = 0;  ///< replies completed per second while sending
    bool kept_up = false;
    bool met() const { return kept_up && p99_us <= kDistanceP99LimitUs; }
  };

  Rung rung_of(std::span<const Query> queries, const OpenLoopRun& run,
               double rate) {
    const Latencies l = latencies_of(queries, run);
    Rung r;
    r.rate = rate;
    if (!l.distance_us.empty()) r.p99_us = quantile(l.distance_us, 0.99);
    if (run.replies.size() > 1) {
      const std::int64_t first = run.replies.front().due_ns;
      const std::int64_t last = run.replies.back().sent_ns;
      const auto done =
          std::count_if(run.replies.begin(), run.replies.end(),
                        [&](const Reply& x) { return x.done_ns <= last; });
      r.throughput = static_cast<double>(done) /
                     (static_cast<double>(last - first) * 1e-9);
    }
    const bool refused =
        l.distance_us.size() + l.path_us.size() < run.replies.size();
    r.kept_up = !run.aborted && !refused &&
                static_cast<double>(run.backlog_at_end) <=
                    std::max(8.0, rate * kDistanceP99LimitUs * 1e-6);
    report_.info("rung " + std::to_string(std::lround(rate)) +
                 " qps: distance p99 " + std::to_string(std::lround(r.p99_us)) +
                 " us over " +
                 std::to_string(l.distance_us.size()) + " replies, backlog " +
                 std::to_string(run.backlog_at_end) + ", throughput " +
                 std::to_string(std::lround(r.throughput)) + "/s" +
                 (r.kept_up ? "" : " (fell behind)"));
    return r;
  }

  /// serve_max_qps: climb the ladder kFixedRate · kLadderStep^i, whose
  /// first rung is the fixed-rate run, until a rung misses the limit
  /// twice in a row (one retry, so a lone stall of a shared host does not
  /// end the climb).  When the failed rung fell behind, the service was
  /// past capacity: the answer is the highest throughput any rung
  /// sustained.  When it kept up but missed the latency limit, the limit
  /// crossing is interpolated between the last rung that met it and the
  /// failed one, on log scales.
  double max_qps(const Rung& fixed, double rung_seconds) {
    if (!fixed.met())
      return fixed.rate * std::min(1.0, kDistanceP99LimitUs / fixed.p99_us);
    Rung prev = fixed;
    double best = fixed.throughput;
    for (int i = 1; i < kLadderRungs; ++i) {
      const double rate = kFixedRate * std::pow(kLadderStep, i);
      Rung r;
      for (int attempt = 0; attempt < 2 && !r.met(); ++attempt) {
        const std::vector<Query> queries =
            stream_.take(std::max<std::int64_t>(
                kMinRungQueries, std::llround(rate * rung_seconds)));
        const OpenLoopRun run =
            run_open_loop(*served_.service, queries, rate, kMaxBacklog);
        check_serve(queries, run.replies, /*errors_fail=*/false);
        r = rung_of(queries, run, rate);
        best = std::max(best, std::min(r.throughput, rate));
      }
      if (r.met()) {
        prev = r;
        continue;
      }
      if (!r.kept_up || !(r.p99_us > prev.p99_us)) return best;
      const double frac = std::log(kDistanceP99LimitUs / prev.p99_us) /
                          std::log(r.p99_us / prev.p99_us);
      return prev.rate * std::pow(r.rate / prev.rate, frac);
    }
    report_.info("ladder top reached without missing the limit");
    return best;
  }

  static std::string tail_note(const Tail& t) {
    return "p" + std::to_string(t.percentile).substr(0, 5) + " of " +
           std::to_string(t.samples) + " solves";
  }

  void timed_phase(const std::vector<double>& setup_s) {
    report_.metric("setup_s", median(setup_s), "s",
                   "median of " + std::to_string(setup_s.size()) + " set-ups");
    const std::vector<SolveSample> solves =
        solve_loop(kSolveShare * opt_.seconds);
    const FixedRun f =
        fixed_rate((1 - kSolveShare - kBurstShare) * opt_.seconds);
    const std::vector<double> burst = burst_cpu_us(kBurstShare * opt_.seconds);

    std::vector<double> wall, cpu, heap;
    for (const SolveSample& s : solves) {
      wall.push_back(s.wall_s);
      cpu.push_back(s.cpu_s);
      heap.push_back(static_cast<double>(s.heap_peak));
    }
    const Tail t = tail(wall);
    report_.info("solve wall over timed solves: median " +
                 std::to_string(median(wall)) + " s, tail " +
                 std::to_string(t.value) + " s (" + tail_note(t) + ")");
    report_.metric("solve_cpu_s", median(cpu), "s",
                   "median process user+sys per solve, of " +
                       std::to_string(cpu.size()) + " timed solves");
    const double peak =
        std::max(median(heap), static_cast<double>(f.heap_peak));
    report_.metric(
        "peak_heap_mib",
        (peak - static_cast<double>(heap_before_setup_)) / (1 << 20), "MiB",
        "over the heap before set-up: median per-solve peak, or serving's");

    check_serve(f.queries, f.run.replies);
    report_.metric("serve_cpu_us_per_query", median(burst), "us",
                   "median of " + std::to_string(burst.size()) +
                       " bursts of " + std::to_string(kBurstQueries) +
                       " queries");
    const Latencies l = latencies_of(f.queries, f.run);
    report_.info("distance p50 " +
                 std::to_string(quantile(l.distance_us, 0.5)) + " us, p99 " +
                 std::to_string(quantile(l.distance_us, 0.99)) +
                 " us; path p99 " + std::to_string(quantile(l.path_us, 0.99)) +
                 " us");
    check_lag(l.lag_us);
    report_.info("failed_frac = " +
                 std::to_string(static_cast<double>(verdict_.failed) /
                                static_cast<double>(verdict_.attempted)) +
                 " (" + std::to_string(verdict_.failed) + " of " +
                 std::to_string(verdict_.attempted) + ")");
  }

  /// Marks the run invalid when the generator itself ran late.  Latency
  /// is timed from due times, so lateness can only make a run look slow,
  /// never fast; the mark says the latency figures measured the host.
  void check_lag(const std::vector<double>& lag_us) {
    const double lag99 = quantile(lag_us, 0.99);
    report_.info("loadgen lag p99 = " + std::to_string(lag99) + " us");
    if (lag99 > kMaxLagP99Us) {
      valid_ = false;
      report_.info("RUN INVALID: load generator lag p99 " +
                   std::to_string(lag99) + " us > " +
                   std::to_string(kMaxLagP99Us) + " us");
    }
  }

  // -------------------------------------------------------------- traced

  struct KernelSum {
    std::int64_t calls = 0;
    std::int64_t ops = 0;
    std::int64_t cpu_ns = 0;
  };

  struct TracedSolve {
    double nd_s = 0;
    double core_s = 0;
    double cpu_s = 0;
    std::map<std::string, KernelSum> kernels;
    double offcpu_s = 0;  ///< Σ over kernel spans of wall minus thread CPU

    double cpu(const char* name) const {
      const auto it = kernels.find(name);
      return it == kernels.end()
                 ? 0.0
                 : static_cast<double>(it->second.cpu_ns) * 1e-9;
    }
    std::int64_t calls(const char* name) const {
      const auto it = kernels.find(name);
      return it == kernels.end() ? 0 : it->second.calls;
    }
  };

  /// Durations of the spans named `name` (pointer-equal) under `parent`.
  static std::vector<double> span_seconds(std::uint32_t parent,
                                          const char* name) {
    std::vector<double> out;
    for (const Span& s : span_log().children(parent))
      if (s.name == name) out.push_back(s.seconds());
    return out;
  }

  /// nested_dissection + run_sparse_apsp_semiring with traced kernels —
  /// the same calls run_sparse_apsp makes — as one span under `parent`.
  TracedSolve traced_solve(std::uint32_t parent,
                           const capsp::SemiringKernels& kernels, bool collect,
                           capsp::SparseApspResult& result) {
    capsp::SparseApspOptions options = solve_options_;
    options.collect_distances = collect;
    const double cpu0 = process_cpu_s();
    std::uint32_t root_id = 0, core_id = 0;
    {
      ScopedSpan root(kSolveSpan, parent);
      root_id = root.id();
      std::optional<capsp::Dissection> nd;
      {
        ScopedSpan span(kNdSpan, root_id);
        capsp::Rng rng(options.seed);
        nd.emplace(capsp::nested_dissection(graph_, w_.height, rng,
                                            options.bisect));
      }
      ScopedSpan span(kCoreSpan, root_id);
      core_id = span.id();
      set_kernel_parent(core_id);
      result = capsp::run_sparse_apsp_semiring(graph_, *nd, kernels, options);
      set_kernel_parent(0);
    }
    TracedSolve t;
    t.cpu_s = process_cpu_s() - cpu0;
    t.nd_s = span_seconds(root_id, kNdSpan).at(0);
    t.core_s = span_seconds(root_id, kCoreSpan).at(0);
    for (const Span& k : span_log().children(core_id)) {
      KernelSum& sum = t.kernels[k.name];
      ++sum.calls;
      sum.ops += k.count;
      sum.cpu_ns += k.cpu_ns;
      t.offcpu_s +=
          static_cast<double>(k.end_ns - k.begin_ns - k.cpu_ns) * 1e-9;
    }
    return t;
  }

  void traced_phase() {
    const ScopedSpan run("perfbench.traced_run");
    const double budget = opt_.seconds;
    const capsp::SemiringKernels kernels =
        traced_kernels(capsp::SemiringKernels::of<capsp::MinPlusSemiring>());

    // Untraced reference solves.
    const std::vector<SolveSample> plain = solve_loop(0.25 * budget);
    std::vector<double> plain_wall, plain_cpu;
    for (const SolveSample& s : plain) {
      plain_wall.push_back(s.wall_s);
      plain_cpu.push_back(s.cpu_s);
    }

    // Traced solves, collect on: must reproduce the untraced answer,
    // ops, L and B exactly.
    std::vector<TracedSolve> traced;
    std::int64_t deadline =
        wall_ns() + static_cast<std::int64_t>(0.25 * budget * 1e9);
    std::vector<double> ops_ratio;
    do {
      capsp::SparseApspResult result;
      traced.push_back(traced_solve(run.id(), kernels, true, result));
      checker_.check(result);
      std::int64_t span_ops = 0;
      for (const auto& [name, k] : traced.back().kernels) span_ops += k.ops;
      if (span_ops != checker_.counts().ops)
        verdict_.problem("kernel-span ops differ from the solver's op count");
      const auto busiest = *std::max_element(result.ops_per_rank.begin(),
                                             result.ops_per_rank.end());
      ops_ratio.push_back(static_cast<double>(busiest) *
                          static_cast<double>(result.ops_per_rank.size()) /
                          static_cast<double>(checker_.counts().ops));
    } while (wall_ns() < deadline);

    // Collect off: the elimination alone.
    std::vector<double> elim;
    deadline = wall_ns() + static_cast<std::int64_t>(0.15 * budget * 1e9);
    do {
      capsp::SparseApspResult result;
      elim.push_back(traced_solve(run.id(), kernels, false, result).core_s);
      checker_.check(result, /*collected=*/false);
    } while (wall_ns() < deadline);

    std::vector<double> nd, core, nonkernel, fw_cpu, acc_cpu, comb_cpu, offcpu,
        traced_wall;
    std::int64_t fw_calls = -1, acc_calls = -1;
    for (const TracedSolve& t : traced) {
      nd.push_back(t.nd_s);
      core.push_back(t.core_s);
      traced_wall.push_back(t.nd_s + t.core_s);
      fw_cpu.push_back(t.cpu(kFwSpan));
      acc_cpu.push_back(t.cpu(kAccumulateSpan));
      comb_cpu.push_back(t.cpu(kCombineSpan));
      nonkernel.push_back(t.cpu_s - fw_cpu.back() - acc_cpu.back() -
                          comb_cpu.back());
      offcpu.push_back(t.offcpu_s);
      if (fw_calls >= 0 && (fw_calls != t.calls(kFwSpan) ||
                            acc_calls != t.calls(kAccumulateSpan)))
        verdict_.problem("kernel call counts changed between traced solves");
      fw_calls = t.calls(kFwSpan);
      acc_calls = t.calls(kAccumulateSpan);
    }
    for (int i = 0; i < 5; ++i) {  // more ND samples: it is cheap
      const ScopedSpan span(kNdSpan, run.id());
      capsp::Rng rng(solve_options_.seed);
      capsp::nested_dissection(graph_, w_.height, rng, solve_options_.bisect);
    }
    const int p = (1 << w_.height) - 1;
    for (int i = 0; i < 5; ++i) {
      const ScopedSpan span(kSpawnSpan, run.id());
      capsp::Machine machine(p * p);
      machine.run([](capsp::Comm&) {});
    }
    for (const double seconds : span_seconds(run.id(), kNdSpan))
      nd.push_back(seconds);
    const std::vector<double> spawn = span_seconds(run.id(), kSpawnSpan);

    const ExactCounts& c = checker_.counts();
    const double kernel_cpu =
        median(fw_cpu) + median(acc_cpu) + median(comb_cpu);
    const double solve_cpu = kernel_cpu + median(nonkernel);
    report_.metric("solve_s", median(plain_wall), "s",
                   "median of " + std::to_string(plain_wall.size()) +
                       " untraced solves");
    const Tail t = tail(plain_wall);
    report_.metric("solve_tail_s", t.value, "s", tail_note(t));
    report_.metric("partition.nd_s", median(nd), "s");
    report_.count("partition.separator_size", c.separator);
    report_.metric("core.elim_s", median(elim), "s",
                   "collect off, traced kernels");
    report_.metric("core.collect_s", median(core) - median(elim), "s");
    report_.metric("core.nonkernel_cpu_s", median(nonkernel), "s");
    report_.metric("core.cpu_util",
                   median(plain_cpu) / (median(plain_wall) *
                                        static_cast<double>(nproc())),
                   "ratio");
    report_.metric("semiring.fw_cpu_s", median(fw_cpu), "s");
    report_.metric("semiring.accumulate_cpu_s", median(acc_cpu), "s");
    report_.metric("semiring.combine_cpu_s", median(comb_cpu), "s");
    report_.count("semiring.fw_calls", fw_calls);
    report_.count("semiring.accumulate_calls", acc_calls);
    report_.count("semiring.ops", c.ops);
    report_.metric("semiring.ops_per_cpu_s",
                   static_cast<double>(c.ops) /
                       (median(fw_cpu) + median(acc_cpu)),
                   "1/s");
    report_.metric("semiring.offcpu_s", median(offcpu), "s");
    report_.metric("semiring.max_rank_ops_ratio", median(ops_ratio), "ratio");
    report_.metric("machine.spawn_s", median(spawn), "s");
    report_.metric("machine.critical_messages", c.critical_messages, "count");
    report_.metric("machine.critical_words", c.critical_words, "count");
    report_.count("machine.total_messages", c.total_messages);
    report_.count("machine.total_words", c.total_words);
    report_.info("kernel CPU share of solve CPU = " +
                 std::to_string(kernel_cpu / solve_cpu));

    traced_serve();

    report_.metric("trace.overhead_frac",
                   median(traced_wall) / median(plain_wall) - 1, "ratio",
                   "traced vs untraced solve_s");
  }

  void traced_serve() {
    capsp::DistanceService& service = *served_.service;
    const FixedRun f = fixed_rate(0.25 * opt_.seconds);
    const std::vector<Query>& fixed_queries = f.queries;
    check_serve(fixed_queries, f.run.replies);
    const Latencies l = latencies_of(fixed_queries, f.run);
    const std::string at =
        " at " + std::to_string(std::lround(kFixedRate)) + " qps";
    report_.metric("serve_distance_p50_us", quantile(l.distance_us, 0.5),
                   "us",
                   std::to_string(l.distance_us.size()) +
                       " distance replies" + at);
    report_.metric("serve_distance_p99_us", quantile(l.distance_us, 0.99),
                   "us", at);
    report_.metric("serve_path_p99_us", quantile(l.path_us, 0.99), "us",
                   std::to_string(l.path_us.size()) + " path replies" + at);
    report_.metric("serve_max_qps",
                   max_qps(rung_of(fixed_queries, f.run, kFixedRate),
                           0.1 * opt_.seconds / 4),
                   "1/s",
                   "distance p99 <= " +
                       std::to_string(std::lround(kDistanceP99LimitUs)) +
                       " us");

    const capsp::TileCache::Stats before = service.cache_stats();
    const auto bytes_read = [&] {
      const capsp::MetricsSnapshot m = service.metrics_snapshot();
      const auto it = m.find("serve.io.bytes_read");
      return it == m.end() ? std::int64_t{0} : it->second.counter;
    };
    const std::int64_t bytes0 = bytes_read();
    const SerialReplay replay =
        replay_serially(service, served_.reader->header(), fixed_queries);
    const capsp::TileCache::Stats after = service.cache_stats();
    check_serve(fixed_queries, replay.replies);

    // read_tile on the tiles distance queries missed, outside the service;
    // on a cache-resident workload nothing misses, so time the tiles the
    // queries touched instead.
    std::vector<std::int64_t> tiles = replay.missed_tiles;
    const capsp::SnapshotHeader& h = served_.reader->header();
    if (tiles.empty())
      for (const Query& q : fixed_queries)
        if (!q.path)
          tiles.push_back(h.tile_id(q.u / h.tile_dim, q.v / h.tile_dim));
    const capsp::SnapshotReader reader(snapshot_path_);
    std::vector<double> read_us;
    for (const std::int64_t tile : tiles) {
      const std::int64_t t0 = wall_ns();
      const DistBlock block = reader.read_tile(tile);
      read_us.push_back(static_cast<double>(wall_ns() - t0) * 1e-3);
    }

    report_.metric("serve.distance_cache_hit_ratio",
                   replay.distance.hit_ratio(), "ratio",
                   std::to_string(replay.distance.queries) +
                       " distance queries, serial replay");
    report_.metric("serve.path_cache_hit_ratio", replay.path.hit_ratio(),
                   "ratio",
                   std::to_string(replay.path.queries) +
                       " path queries, serial replay");
    report_.count("serve.cache_evictions", after.evictions - before.evictions);
    report_.count("serve.tile_reads", after.misses - before.misses);
    report_.count("serve.bytes_read", bytes_read() - bytes0, "B");
    report_.metric("snapshot.read_tile_p50_us", quantile(read_us, 0.5), "us",
                   std::to_string(tiles.size()) +
                       (replay.missed_tiles.empty()
                            ? " touched tiles (none missed)"
                            : " missed tiles"));
    report_.metric("snapshot.read_tile_p99_us", quantile(read_us, 0.99),
                   "us");
    report_.metric("loadgen.lag_p99_us", quantile(l.lag_us, 0.99), "us", at);
    check_lag(l.lag_us);
  }

  void provenance(double load_before, std::pair<double, double> ticks_before) {
    const auto ticks_after = cpu_ticks();
    const double ticks = ticks_after.second - ticks_before.second;
    const capsp::BuildInfo& b = capsp::build_info();
    std::ostringstream out;
    capsp::JsonWriter json(out);
    json.begin_object();
    json.field("workload", std::string(w_.name));
    json.field("seed", static_cast<std::int64_t>(opt_.seed));
    json.field("trace", opt_.trace);
    json.field("valid", valid_);
    json.field("nproc", static_cast<std::int64_t>(nproc()));
    json.field("loadavg_1m_before", load_before);
    json.field("loadavg_1m_after", loadavg_1m());
    json.field("cpu_steal_frac",
               ticks > 0 ? (ticks_after.first - ticks_before.first) / ticks
                         : 0.0);
    json.field("compiler", b.compiler);
    json.field("flags", b.flags);
    json.field("build_type", b.build_type);
    json.field("cpu", b.cpu_model);
    json.end_object();
    std::printf("provenance %s\n", out.str().c_str());
  }

  const Workload& w_;
  Options opt_;
  std::string snapshot_path_;
  Graph graph_;
  QueryStream stream_;
  capsp::SparseApspOptions solve_options_;
  DistBlock oracle_;
  std::int64_t heap_before_setup_ = 0;
  std::vector<Query> warm_;
  Served served_;
  Report report_;
  Verdict verdict_;
  bool valid_ = true;
  SolveChecker checker_;
};

int usage(const char* error) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--workdir <dir>]\nworkloads:",
               error);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--workdir") {
      opt.workdir = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!(opt.seconds > 0)) return usage("--seconds must be positive");
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads)
    if (opt.workload == w.name) workload = &w;
  if (workload == nullptr)
    return usage(("unknown workload '" + opt.workload + "'").c_str());
  try {
    Bench bench(*workload, opt);
    return bench.run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
