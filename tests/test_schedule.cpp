// Tests of Algorithm 1's schedule (core/schedule.hpp).
//
// SchedulePin pins it end to end: for every R⁴ strategy and collective
// algorithm, at h ∈ {2,3,4}, on a grid, an Erdős–Rényi and a random
// geometric graph, the metered (L,B), the volumes, the per-phase books,
// the ⊗-op total and a hash of the traced event list must equal the
// values recorded here.  Any change to the groups, member order, roots or
// tags of the schedule moves at least one of them.
//
// SchedulePlan checks the plan against the region tables of
// core/regions.hpp it is built from, and each rank's slice against the
// steps it is a member of.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <numeric>
#include <set>
#include <string>
#include <tuple>

#include "core/regions.hpp"
#include "core/sparse_apsp.hpp"
#include "graph/generators.hpp"

namespace capsp {
namespace {

/// 64-bit FNV-1a over a stream of integers.
struct Fnv64 {
  std::uint64_t h = 14695981039346656037ULL;
  void add(std::int64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= static_cast<std::uint64_t>(v >> (8 * b)) & 0xFF;
      h *= 1099511628211ULL;
    }
  }
  void add(const std::string& s) {
    for (const char c : s) add(static_cast<std::int64_t>(c));
  }
};

struct Pin {
  const char* graph;
  int height;
  int strategy;     // R4Strategy, in declaration order
  int collectives;  // CollectiveAlgorithm, in declaration order
  double latency, bandwidth;
  std::int64_t messages, words, ops;
  std::uint64_t phase_hash, trace_hash;
};

// Recorded before the schedule was built once per solve; see the header.
constexpr Pin kPins[] = {
    {"grid", 2, 0, 0, 11, 15552, 20, 27648, 770652, 0xdcfed03f82474698ULL, 0x2efe4988380daf27ULL},
    {"grid", 2, 0, 1, 27, 21024, 64, 38736, 770652, 0xd638e2d49ac9b1eeULL, 0x441f81cff1a6e81bULL},
    {"grid", 2, 1, 0, 12, 15264, 22, 27936, 770652, 0xb90fe7817f38ec71ULL, 0xf9d930fd6d2bcb48ULL},
    {"grid", 2, 1, 1, 36, 21600, 80, 40704, 770652, 0x55926b9f3a58b7e6ULL, 0x2b007b13e7e4b46cULL},
    {"grid", 2, 2, 0, 12, 15264, 22, 27936, 770652, 0xb90fe7817f38ec71ULL, 0xf9d930fd6d2bcb48ULL},
    {"grid", 2, 2, 1, 36, 21600, 80, 40704, 770652, 0x55926b9f3a58b7e6ULL, 0x2b007b13e7e4b46cULL},
    {"grid", 3, 0, 0, 25, 10908, 174, 47881, 516265, 0xe9d77ca5e309998bULL, 0x7b1a8cbb517515cbULL},
    {"grid", 3, 0, 1, 95, 12067, 978, 57279, 516265, 0xbdb822d29ba73e67ULL, 0xd9e11acb861d9bbbULL},
    {"grid", 3, 1, 0, 29, 12036, 180, 47008, 516265, 0x5529987aa8794416ULL, 0xa039d78fdae6e5a3ULL},
    {"grid", 3, 1, 1, 124, 11783, 1074, 59003, 516265, 0xd06657ebb50c2aecULL, 0x27f7c7c7eee3193bULL},
    {"grid", 3, 2, 0, 27, 11808, 186, 48735, 516265, 0xda0902235e3e82feULL, 0x3dcec463ffde539fULL},
    {"grid", 3, 2, 1, 115, 12443, 1104, 61018, 516265, 0x5fb27c7cc92df842ULL, 0x934348437595d9a7ULL},
    {"grid", 4, 0, 0, 45, 7584, 952, 86422, 431379, 0x04d10074c4e0d617ULL, 0x9cb4d5f79b1fba47ULL},
    {"grid", 4, 0, 1, 241, 6937, 9756, 94820, 431379, 0x7194a613d8fce218ULL, 0xcff369b0b6ca1c07ULL},
    {"grid", 4, 1, 0, 52, 7020, 958, 85562, 431379, 0x3082c20b0380fd08ULL, 0xc9e2deef4c0241a0ULL},
    {"grid", 4, 1, 1, 321, 7346, 10172, 97667, 431379, 0xae55ba9a3122703cULL, 0x8aec4e9d856ecdccULL},
    {"grid", 4, 2, 0, 46, 6768, 1012, 90420, 431379, 0x0ce9cbc7c43aa79fULL, 0xbbddf452f171df6cULL},
    {"grid", 4, 2, 1, 285, 6791, 10470, 103202, 431379, 0x1d706c82e5dbf771ULL, 0x78c0df8838930d80ULL},
    {"er", 2, 0, 0, 11, 18992, 20, 32320, 1093840, 0xa25d54028c2a685fULL, 0x493f647e961b5f43ULL},
    {"er", 2, 0, 1, 27, 25632, 64, 42576, 1093840, 0x66fbcc6f0a23951bULL, 0x8408d6411ee4a0d7ULL},
    {"er", 2, 1, 0, 12, 20288, 22, 34912, 1093840, 0x1a7104a648f2c717ULL, 0x036cc6c7de2a2904ULL},
    {"er", 2, 1, 1, 36, 28944, 80, 49056, 1093840, 0xe19391c339ac0622ULL, 0x17d2dadd1c28b17cULL},
    {"er", 2, 2, 0, 12, 20288, 22, 34912, 1093840, 0x1a7104a648f2c717ULL, 0x036cc6c7de2a2904ULL},
    {"er", 2, 2, 1, 36, 28944, 80, 49056, 1093840, 0xe19391c339ac0622ULL, 0x17d2dadd1c28b17cULL},
    {"er", 3, 0, 0, 25, 20077, 174, 79053, 912466, 0x861b5d9491d539f7ULL, 0xccb444eb9bb7fd57ULL},
    {"er", 3, 0, 1, 95, 19426, 978, 91115, 912466, 0xa9a02205f7503f0fULL, 0x7ec5b4dcdf527ab7ULL},
    {"er", 3, 1, 0, 29, 23857, 180, 85608, 912466, 0x42131b337acda276ULL, 0xb6f1d73bd0d9a0afULL},
    {"er", 3, 1, 1, 124, 24994, 1074, 104083, 912466, 0x8b9cae5b229ba6f8ULL, 0xd4de9a88d781cf33ULL},
    {"er", 3, 2, 0, 27, 23008, 186, 88747, 912466, 0xb445722ae0e41e6fULL, 0x65b40f0c85020073ULL},
    {"er", 3, 2, 1, 115, 23894, 1104, 107745, 912466, 0xe4de6cfda01bf476ULL, 0xa25a62f5924c679fULL},
    {"er", 4, 0, 0, 45, 19816, 952, 166218, 797033, 0x876b299300dcd524ULL, 0x4e0cc1c9d8855693ULL},
    {"er", 4, 0, 1, 241, 16244, 9756, 178998, 797033, 0x20e5770d325094c8ULL, 0x73518fc4b342f6f3ULL},
    {"er", 4, 1, 0, 52, 27473, 958, 184544, 797033, 0x8ba63917bdd8a708ULL, 0x9fc20666e5ed5228ULL},
    {"er", 4, 1, 1, 321, 24209, 10172, 206041, 797033, 0xcde3b1cefb023bc2ULL, 0x0dc1914f84ceec1cULL},
    {"er", 4, 2, 0, 46, 25468, 1012, 190779, 797033, 0xe4ca116795af082cULL, 0xdb0901a75d61b2d4ULL},
    {"er", 4, 2, 1, 285, 20430, 10470, 213140, 797033, 0xf7d13222abd624acULL, 0x40980a7787a05b48ULL},
    {"geometric", 2, 0, 0, 11, 20102, 20, 32884, 1128575, 0x6e6a7430fa349839ULL, 0x1a1b67f360748d37ULL},
    {"geometric", 2, 0, 1, 27, 27316, 64, 43424, 1128575, 0xd3c36e3a5761a907ULL, 0x6b24da50b7d906a7ULL},
    {"geometric", 2, 1, 0, 12, 21398, 22, 35476, 1128575, 0x30caa3d2c9dfee29ULL, 0xc4a490b94f4970a0ULL},
    {"geometric", 2, 1, 1, 36, 30682, 80, 49904, 1128575, 0x37938dcd07f628c6ULL, 0xca446f3f672c8304ULL},
    {"geometric", 2, 2, 0, 12, 21398, 22, 35476, 1128575, 0x30caa3d2c9dfee29ULL, 0xc4a490b94f4970a0ULL},
    {"geometric", 2, 2, 1, 36, 30682, 80, 49904, 1128575, 0x37938dcd07f628c6ULL, 0xca446f3f672c8304ULL},
    {"geometric", 3, 0, 0, 25, 17965, 174, 77198, 891427, 0xf1a446564b333792ULL, 0x5dc787f1d0eb50c3ULL},
    {"geometric", 3, 0, 1, 95, 17479, 978, 88858, 891427, 0x28bc343e21485f5aULL, 0x3999d0c4324e26cbULL},
    {"geometric", 3, 1, 0, 29, 21473, 180, 83184, 891427, 0x202001d3382f3c6eULL, 0x5b474060c0627797ULL},
    {"geometric", 3, 1, 1, 124, 22174, 1074, 100977, 891427, 0xe9b1dafee003039cULL, 0x1b607477101e549fULL},
    {"geometric", 3, 2, 0, 27, 20881, 186, 86370, 891427, 0xf3907aee3e4d3636ULL, 0xb1905320a36da53fULL},
    {"geometric", 3, 2, 1, 115, 21319, 1104, 104695, 891427, 0xd471c9700b05e31bULL, 0x8ee21ee759f3408fULL},
    {"geometric", 4, 0, 0, 45, 19012, 952, 166304, 812687, 0xb29f4dae3d7a27f3ULL, 0xed6a1d547ef68fe3ULL},
    {"geometric", 4, 0, 1, 241, 15376, 9756, 179530, 812687, 0xafb9d10b6f0d619fULL, 0xe920af8bea90b7f7ULL},
    {"geometric", 4, 1, 0, 52, 27454, 958, 184685, 812687, 0x510e507bab863ab8ULL, 0x475c5c82a9f0d748ULL},
    {"geometric", 4, 1, 1, 321, 22991, 10172, 206794, 812687, 0xcf2061b354199548ULL, 0x3237de4497119b0cULL},
    {"geometric", 4, 2, 0, 46, 25516, 1012, 190820, 812687, 0x4691c9ce8228db13ULL, 0x0f0a89a8bfd79488ULL},
    {"geometric", 4, 2, 1, 285, 19312, 10470, 213782, 812687, 0x2dcd772b7615e598ULL, 0x0e924e667b7fd3d4ULL},
};

Graph make_graph(const std::string& name) {
  Rng rng(7);
  if (name == "grid") return make_grid2d(12, 12, rng);
  if (name == "er") return make_erdos_renyi(120, 4.0, rng);
  return make_random_geometric(120, 0.18, rng);
}

Pin measure(const char* graph_name, int height, int strategy,
            int collectives) {
  SparseApspOptions options;
  options.height = height;
  options.r4_strategy = static_cast<R4Strategy>(strategy);
  options.collectives = static_cast<CollectiveAlgorithm>(collectives);
  options.collect_distances = false;
  options.trace = true;
  const SparseApspResult result =
      run_sparse_apsp(make_graph(graph_name), options);
  const CostReport& costs = result.costs;
  Fnv64 phases;
  for (const auto& [name, volume] : costs.phase_total) {
    phases.add(name);
    phases.add(volume.messages);
    phases.add(volume.words);
  }
  Fnv64 events;
  for (std::size_t r = 0; r < result.trace.per_rank.size(); ++r) {
    for (const TraceEvent& e : result.trace.per_rank[r]) {
      events.add(static_cast<std::int64_t>(r));
      events.add(static_cast<std::int64_t>(e.kind));
      events.add(e.peer);
      events.add(e.tag);
      events.add(e.words);
    }
  }
  return {graph_name,
          height,
          strategy,
          collectives,
          costs.critical_latency,
          costs.critical_bandwidth,
          costs.total_messages,
          costs.total_words,
          std::accumulate(result.ops_per_rank.begin(),
                          result.ops_per_rank.end(), std::int64_t{0}),
          phases.h,
          events.h};
}

std::string format(const Pin& p) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "    {\"%s\", %d, %d, %d, %.17g, %.17g, %" PRId64 ", %" PRId64
                ", %" PRId64 ", 0x%016" PRIx64 "ULL, 0x%016" PRIx64 "ULL},",
                p.graph, p.height, p.strategy, p.collectives, p.latency,
                p.bandwidth, p.messages, p.words, p.ops, p.phase_hash,
                p.trace_hash);
  return buf;
}

TEST(SchedulePin, CostsAndTracesMatchRecordedSchedule) {
  std::size_t next = 0;
  for (const char* graph : {"grid", "er", "geometric"}) {
    for (int height = 2; height <= 4; ++height) {
      for (int strategy = 0; strategy < 3; ++strategy) {
        for (int collectives = 0; collectives < 2; ++collectives) {
          const Pin got = measure(graph, height, strategy, collectives);
          if (next < std::size(kPins)) {
            EXPECT_EQ(format(got), format(kPins[next])) << "case " << next;
          } else {
            ADD_FAILURE() << "unpinned case:\n" << format(got);
          }
          ++next;
        }
      }
    }
  }
  EXPECT_EQ(next, std::size(kPins)) << "stale pins";
}

/// A layout over a bare eTree: the schedule needs ranks, not vertices.
ApspLayout bare_layout(int height) {
  Dissection nd(height);
  nd.ranges.assign(static_cast<std::size_t>(nd.tree.num_supernodes()) + 1,
                   VertexRange{});
  return ApspLayout(nd);
}

class SchedulePlan : public ::testing::TestWithParam<int> {};

TEST_P(SchedulePlan, UpdatesExactlyTheRegionTables) {
  const ApspLayout layout = bare_layout(GetParam());
  const EliminationTree& tree = layout.tree();
  const ApspSchedule schedule(layout);
  for (int l = 1; l <= tree.height(); ++l) {
    std::set<BlockId> r1, r2, r3;
    std::vector<std::tuple<Snode, Snode, Snode, Snode>> units;
    for (const ScheduleStep& step : schedule.steps()) {
      if (step.level != l) continue;
      for (std::size_t m = 0; m < step.group.size(); ++m) {
        const auto [bi, bj] = layout.block_of(step.group[m]);
        const BlockUse use = step.uses[m];
        if (step.kind == StepKind::kFw) r1.insert({bi, bj});
        if (use == BlockUse::kLeft || use == BlockUse::kRight) {
          EXPECT_TRUE(r2.insert({bi, bj}).second) << bi << "," << bj;
        }
        if (step.region == Region::kR3 && use == BlockUse::kApplyB) {
          EXPECT_TRUE(r3.insert({bi, bj}).second) << bi << "," << bj;
        }
        if (step.kind == StepKind::kReduce && use == BlockUse::kUnit)
          units.emplace_back(step.block.i, step.block.j, bi, bj);
      }
    }
    EXPECT_EQ(std::vector<BlockId>(r1.begin(), r1.end()),
              region_r1(tree, l));
    EXPECT_EQ(std::vector<BlockId>(r2.begin(), r2.end()),
              region_r2(tree, l));
    EXPECT_EQ(std::vector<BlockId>(r3.begin(), r3.end()),
              region_r3(tree, l));
    // R⁴ reduce targets and their workers P_fg are the units of Cor. 5.5.
    std::vector<std::tuple<Snode, Snode, Snode, Snode>> want;
    for (const ComputingUnit& u : r4_units(tree, l))
      want.emplace_back(u.i, u.j, u.f, u.g);
    std::sort(units.begin(), units.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(units, want) << "level " << l;
  }
}

TEST_P(SchedulePlan, EachRankWalksExactlyItsOwnSteps) {
  const ApspLayout layout = bare_layout(GetParam());
  for (const R4Strategy strategy :
       {R4Strategy::kSequential, R4Strategy::kSharedWorkers,
        R4Strategy::kOneToOne}) {
    const ApspSchedule schedule(layout, strategy);
    const auto& steps = schedule.steps();
    std::vector<std::vector<RankStep>> want(
        static_cast<std::size_t>(layout.num_ranks()));
    Tag last_tag = -1;
    for (std::size_t s = 0; s < steps.size(); ++s) {
      ASSERT_EQ(steps[s].group.size(), steps[s].uses.size());
      EXPECT_EQ(std::set<RankId>(steps[s].group.begin(), steps[s].group.end())
                    .size(),
                steps[s].group.size())
          << "duplicate member in step " << s;
      EXPECT_NE(std::find(steps[s].group.begin(), steps[s].group.end(),
                          steps[s].root),
                steps[s].group.end());
      if (steps[s].kind == StepKind::kSend) {
        EXPECT_EQ(steps[s].group.size(), 2u);
      }
      if (steps[s].kind != StepKind::kFw) {
        EXPECT_GT(steps[s].tag, last_tag) << "tags follow schedule order";
        last_tag = steps[s].tag;
      }
      for (std::size_t m = 0; m < steps[s].group.size(); ++m)
        want[static_cast<std::size_t>(steps[s].group[m])].push_back(
            {static_cast<std::uint32_t>(s), steps[s].uses[m]});
    }
    for (RankId r = 0; r < layout.num_ranks(); ++r) {
      const auto got = schedule.steps_of(r);
      const auto& w = want[static_cast<std::size_t>(r)];
      ASSERT_EQ(got.size(), w.size()) << "rank " << r;
      for (std::size_t n = 0; n < w.size(); ++n) {
        EXPECT_EQ(got[n].step, w[n].step);
        EXPECT_EQ(got[n].use, w[n].use);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Heights, SchedulePlan, ::testing::Values(2, 3, 4, 5));

TEST(SchedulePlan, SizeAtP961) {
  // The whole p = 961 schedule is small, so it is built once per solve
  // and not once per rank: 794 tags (26 of them diagonal mirrors that send
  // nothing), and no rank takes part in more than 22 tagged steps.
  const ApspSchedule schedule(bare_layout(5));
  std::size_t tagged = 0, memberships = 0, busiest = 0;
  for (const ScheduleStep& step : schedule.steps()) {
    if (step.kind == StepKind::kFw) continue;
    ++tagged;
    memberships += step.group.size();
  }
  for (RankId r = 0; r < 961; ++r) {
    std::size_t mine = 0;
    for (const RankStep& rs : schedule.steps_of(r))
      mine += schedule.steps()[rs.step].kind != StepKind::kFw;
    busiest = std::max(busiest, mine);
  }
  EXPECT_EQ(schedule.steps().back().tag, 793);
  EXPECT_EQ(tagged, 768u);
  EXPECT_EQ(memberships, 5298u);
  EXPECT_EQ(busiest, 22u);
}

}  // namespace
}  // namespace capsp
