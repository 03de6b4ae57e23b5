// Tests for the communication observatory (commledger.hpp + the
// cost_oracle message-optimality audit): per-channel bookkeeping, the
// logical/physical split under faults, deterministic JSON export, the
// telemetry hub, and the audit gates on a real solve.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/cost_oracle.hpp"
#include "core/sparse_apsp.hpp"
#include "graph/generators.hpp"
#include "machine/collectives.hpp"
#include "machine/commledger.hpp"
#include "machine/machine.hpp"
#include "machine/trace_export.hpp"
#include "semiring/block.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"

namespace capsp {
namespace {

std::vector<Dist> payload(std::size_t words) {
  return std::vector<Dist>(words, 1.0);
}

TEST(CommChannelStats, SizeBucketMatchesMetricsConvention) {
  // One rule for every size histogram: bucket 0 holds sizes <= 1,
  // bucket b holds (2^(b-1), 2^b].
  EXPECT_EQ(log2_bucket(0), 0);
  EXPECT_EQ(log2_bucket(1), 0);
  EXPECT_EQ(log2_bucket(2), 1);
  EXPECT_EQ(log2_bucket(3), 2);
  EXPECT_EQ(log2_bucket(4), 2);
  EXPECT_EQ(log2_bucket(5), 3);
  EXPECT_EQ(log2_bucket(1024), 10);
  EXPECT_EQ(log2_bucket(1025), 11);
  EXPECT_EQ(log2_bucket(static_cast<double>(INT64_MAX)),
            Histogram::kBuckets - 1);
  // The ledger applies the same rule, clamped to its shorter table.
  for (const std::int64_t words : {0, 1, 2, 3, 4, 5, 1024, 1025})
    EXPECT_EQ(CommChannelStats::size_bucket(words),
              log2_bucket(static_cast<double>(words)))
        << words;
  EXPECT_EQ(CommChannelStats::size_bucket(INT64_MAX),
            CommChannelStats::kSizeBuckets - 1);
}

TEST(CommChannelStats, AccumulateAddsEveryCounter) {
  CommChannelStats a;
  a.logical_messages = 1;
  a.logical_words = 5;
  a.physical_frames = 2;
  a.physical_words = 9;
  a.retransmit_frames = 1;
  a.protocol_charges = 3;
  a.size_log2[3] = 2;
  CommChannelStats b = a;
  b += a;
  EXPECT_EQ(b.logical_messages, 2);
  EXPECT_EQ(b.logical_words, 10);
  EXPECT_EQ(b.physical_frames, 4);
  EXPECT_EQ(b.physical_words, 18);
  EXPECT_EQ(b.retransmit_frames, 2);
  EXPECT_EQ(b.protocol_charges, 6);
  EXPECT_EQ(b.size_log2[3], 4);
}

TEST(RankCommLedger, DrainMergesRepeatedKeysAndClears) {
  RankCommLedger rank;
  rank.record_logical(1, "p2p", "default", 5);
  rank.record_physical(1, "p2p", "default", 5, false, false, false);
  rank.record_logical(1, "p2p", "default", 3);
  rank.record_physical(1, "p2p", "default", 3, false, false, false);
  rank.record_logical(2, "bcast", "default", 7);
  std::map<CommChannelKey, CommChannelStats> merged;
  rank.drain_into(0, merged);
  EXPECT_TRUE(rank.empty());
  ASSERT_EQ(merged.size(), 2u);
  const CommChannelStats& to1 =
      merged.at(CommChannelKey{0, 1, "p2p", "default"});
  EXPECT_EQ(to1.logical_messages, 2);
  EXPECT_EQ(to1.logical_words, 8);
  EXPECT_EQ(to1.physical_frames, 2);
  const CommChannelStats& to2 =
      merged.at(CommChannelKey{0, 2, "bcast", "default"});
  EXPECT_EQ(to2.logical_messages, 1);
  EXPECT_EQ(to2.logical_words, 7);
  // Draining again into the same map must not double-count.
  rank.drain_into(0, merged);
  EXPECT_EQ(merged.at(CommChannelKey{0, 1, "p2p", "default"}).logical_words,
            8);
}

TEST(MachineLedger, SpmdSendRecordsExactChannel) {
  Machine machine(2);
  machine.enable_comm_ledger(true);
  machine.run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 7, payload(5));
    } else {
      EXPECT_EQ(comm.recv(0, 7).size(), 5u);
    }
  });
  const CommLedger& ledger = machine.comm_ledger();
  ASSERT_TRUE(ledger.present);
  EXPECT_EQ(ledger.num_ranks, 2);
  ASSERT_EQ(ledger.channels.size(), 1u);
  const auto& [key, stats] = *ledger.channels.begin();
  EXPECT_EQ(key.src, 0);
  EXPECT_EQ(key.dst, 1);
  EXPECT_EQ(key.tag_class, "p2p");
  EXPECT_EQ(key.phase, "default");
  EXPECT_EQ(stats.logical_messages, 1);
  EXPECT_EQ(stats.logical_words, 5);
  // Raw transport: one frame, no header, no protocol charges.
  EXPECT_EQ(stats.physical_frames, 1);
  EXPECT_EQ(stats.physical_words, 5);
  EXPECT_EQ(stats.retransmit_frames, 0);
  EXPECT_EQ(stats.protocol_charges, 0);
  EXPECT_EQ(stats.size_log2[CommChannelStats::size_bucket(5)], 1);
  // Rollups agree with the single channel.
  const CommChannelStats totals = ledger.totals();
  EXPECT_EQ(totals.logical_messages, 1);
  EXPECT_EQ(totals.logical_words, 5);
  const auto phases = ledger.by_phase();
  ASSERT_EQ(phases.size(), 1u);
  EXPECT_EQ(phases.at("default").messages, 1);
  EXPECT_EQ(phases.at("default").max_channel_words, 5);
  const auto heat = ledger.heat_words();
  ASSERT_EQ(heat.size(), 4u);
  EXPECT_EQ(heat[0 * 2 + 1], 5);
  EXPECT_EQ(heat[1 * 2 + 0], 0);
}

TEST(MachineLedger, PhaseLabelsPartitionTraffic) {
  Machine machine(2);
  machine.enable_comm_ledger(true);
  machine.run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.set_phase("alpha");
      comm.send(1, 1, payload(2));
      comm.set_phase("beta");
      comm.send(1, 2, payload(3));
    } else {
      comm.recv(0, 1);
      comm.recv(0, 2);
    }
  });
  const auto phases = machine.comm_ledger().by_phase();
  ASSERT_EQ(phases.size(), 2u);
  EXPECT_EQ(phases.at("alpha").words, 2);
  EXPECT_EQ(phases.at("beta").words, 3);
}

TEST(MachineLedger, CollectivesCarryTheirTagClass) {
  Machine machine(4);
  machine.enable_comm_ledger(true);
  const std::vector<RankId> group{0, 1, 2, 3};
  machine.run([&group](Comm& comm) {
    DistBlock block(4, 4, comm.rank() == 0 ? 1.0 : kInf);
    group_broadcast(comm, group, 0, block, 11);
    EXPECT_EQ(block.at(0, 0), 1.0);
  });
  const CommLedger& ledger = machine.comm_ledger();
  ASSERT_FALSE(ledger.channels.empty());
  for (const auto& [key, stats] : ledger.channels)
    EXPECT_EQ(key.tag_class, "bcast") << key.src << "->" << key.dst;
}

TEST(MachineLedger, OffByDefaultAndResetBetweenRuns) {
  Machine machine(2);
  const auto exchange = [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 7, payload(5));
    } else {
      comm.recv(0, 7);
    }
  };
  machine.run(exchange);
  EXPECT_FALSE(machine.comm_ledger().present);
  machine.enable_comm_ledger(true);
  machine.run(exchange);
  EXPECT_TRUE(machine.comm_ledger().present);
  EXPECT_EQ(machine.comm_ledger().totals().logical_messages, 1);
  // A second ledger-enabled run starts from zero, not cumulative.
  machine.run(exchange);
  EXPECT_EQ(machine.comm_ledger().totals().logical_messages, 1);
}

// Under a drop-heavy plan the reliable layer retries, but the ledger's
// *logical* book must match the clean run exactly, channel by channel;
// only the physical book inflates.
TEST(MachineLedger, RetriesInflatePhysicalBookOnly) {
  const auto chatter = [](Comm& comm) {
    for (int i = 0; i < 40; ++i) {
      if (comm.rank() == 0) {
        comm.send(1, 100 + i, payload(8));
      } else {
        EXPECT_EQ(comm.recv(0, 100 + i).size(), 8u);
      }
    }
  };
  Machine clean(2);
  clean.enable_reliable_transport(true);
  clean.enable_comm_ledger(true);
  clean.run(chatter);

  Machine faulty(2);
  faulty.enable_reliable_transport(true);
  faulty.enable_comm_ledger(true);
  FaultPlan plan;
  plan.seed = 5;
  plan.drop = 0.3;
  faulty.set_fault_plan(plan);
  faulty.run(chatter);

  // Logical application traffic is identical on every channel: no
  // retry/ack inflation of the logical book.
  const auto logical = [](const CommLedger& ledger) {
    std::map<CommChannelKey, std::pair<std::int64_t, std::int64_t>> out;
    for (const auto& [key, stats] : ledger.channels)
      if (stats.logical_messages > 0)
        out[key] = {stats.logical_messages, stats.logical_words};
    return out;
  };
  EXPECT_FALSE(logical(clean.comm_ledger()).empty());
  EXPECT_EQ(logical(clean.comm_ledger()), logical(faulty.comm_ledger()));
  const CommChannelStats clean_totals = clean.comm_ledger().totals();
  const CommChannelStats faulty_totals = faulty.comm_ledger().totals();
  EXPECT_EQ(clean_totals.logical_messages, faulty_totals.logical_messages);
  EXPECT_EQ(clean_totals.logical_words, faulty_totals.logical_words);

  // The physical book shows the cost of surviving the drops: frame
  // headers on every frame, retransmissions, dropped frames, and the
  // ack/backoff protocol charges.
  EXPECT_GT(clean_totals.physical_words, clean_totals.logical_words);
  EXPECT_GT(faulty_totals.retransmit_frames, 0);
  EXPECT_GT(faulty_totals.dropped_frames, 0);
  EXPECT_GT(faulty_totals.physical_frames, clean_totals.physical_frames);
  EXPECT_GT(faulty_totals.protocol_charges, 0);
  EXPECT_EQ(clean_totals.retransmit_frames, 0);
}

// Every frame is counted once, in RankCost; the run-level views built
// from it must agree with each other and with the ledger's physical book.
TEST(MachineLedger, CommMetricsAreViewsOfTheRankBooks) {
  MetricsRegistry caller;
  const ScopedMetricsSink sink(caller);
  Machine machine(3);
  machine.enable_reliable_transport(true);
  machine.enable_comm_ledger(true);
  FaultPlan plan;
  plan.seed = 5;
  plan.drop = 0.3;
  machine.set_fault_plan(plan);
  machine.run([](Comm& comm) {
    // Setup traffic before the reset lands in the setup_* segment.
    if (comm.rank() == 0) {
      comm.send(1, 1, payload(3));
      comm.send(2, 1, payload(70));
    } else {
      comm.recv(0, 1);
    }
    comm.reset_clock();
    for (int i = 0; i < 20; ++i) {
      const RankId next = (comm.rank() + 1) % comm.size();
      const RankId prev = (comm.rank() + comm.size() - 1) % comm.size();
      comm.send(next, 100 + i, payload(static_cast<std::size_t>(i) + 1));
      comm.recv(prev, 100 + i);
    }
  });
  const CostReport& report = machine.report();
  ASSERT_GT(report.setup_messages, 0);
  ASSERT_GT(report.reliability.retransmissions, 0);
  const MetricsSnapshot snap = caller.snapshot();
  const CommChannelStats ledger = machine.comm_ledger().totals();

  const std::int64_t frames = snap.at("machine.comm.frames").counter;
  EXPECT_EQ(frames, report.total_messages + report.setup_messages);
  EXPECT_EQ(frames, report.reliability.frames_sent);
  EXPECT_EQ(frames, ledger.physical_frames);

  const std::int64_t words = snap.at("machine.comm.words").counter;
  EXPECT_EQ(words, report.total_words + report.setup_words);
  EXPECT_EQ(words, ledger.physical_words);

  const std::int64_t retransmits =
      snap.at("machine.comm.retransmit_frames").counter;
  EXPECT_EQ(retransmits, report.reliability.retransmissions);
  EXPECT_EQ(retransmits, ledger.retransmit_frames);

  const Histogram& sizes = snap.at("machine.comm.frame_words").histogram;
  EXPECT_EQ(sizes.count, frames);
  EXPECT_EQ(sizes.sum, static_cast<double>(words));

  // A single rank sends nothing, so no machine.comm.* key appears.
  MetricsRegistry lone_caller;
  {
    const ScopedMetricsSink lone_sink(lone_caller);
    Machine lone(1);
    lone.run([](Comm&) {});
  }
  for (const auto& [name, metric] : lone_caller.snapshot())
    EXPECT_NE(name.rfind("machine.comm.", 0), 0u) << name;
  EXPECT_EQ(lone_caller.snapshot().count("machine.run.count"), 1u);
}

TEST(MachineLedger, LedgerIsObservational) {
  // The ledger must not perturb the metered costs or the answer.
  Rng rng1(3), rng2(3);
  const Graph g1 = make_grid2d(9, 9, rng1);
  const Graph g2 = make_grid2d(9, 9, rng2);
  SparseApspOptions options;
  options.height = 2;
  const SparseApspResult off = run_sparse_apsp(g1, options);
  options.comm_ledger = true;
  const SparseApspResult on = run_sparse_apsp(g2, options);
  EXPECT_EQ(off.costs.critical_latency, on.costs.critical_latency);
  EXPECT_EQ(off.costs.critical_bandwidth, on.costs.critical_bandwidth);
  EXPECT_EQ(off.costs.total_messages, on.costs.total_messages);
  EXPECT_EQ(off.costs.total_words, on.costs.total_words);
  EXPECT_FALSE(off.comm.present);
  EXPECT_TRUE(on.comm.present);
  for (Vertex u = 0; u < off.distances.rows(); ++u)
    for (Vertex v = 0; v < off.distances.cols(); ++v)
      EXPECT_EQ(off.distances.at(u, v), on.distances.at(u, v));
}

// Satellite 3: repeated runs produce byte-identical comm sections.
TEST(MachineLedger, JsonExportIsDeterministicAcrossRuns) {
  const auto solve_json = [] {
    Rng rng(17);
    const Graph graph = make_grid2d(13, 13, rng);
    SparseApspOptions options;
    options.height = 2;
    options.comm_ledger = true;
    const SparseApspResult result = run_sparse_apsp(graph, options);
    std::ostringstream out;
    write_comm_ledger_json(out, result.comm);
    return out.str();
  };
  const std::string first = solve_json();
  const std::string second = solve_json();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(MachineLedger, HubServesLiveAndPublishedSnapshots) {
  Machine machine(2);
  machine.enable_comm_ledger(true);
  machine.run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 7, payload(5));
    } else {
      comm.recv(0, 7);
    }
  });
  // After the run the hub holds the published final ledger (this is what
  // apsp_tool's /comm.json endpoint serves).
  const CommLedger snapshot = CommLedgerHub::global().snapshot();
  ASSERT_TRUE(snapshot.present);
  EXPECT_EQ(snapshot.totals().logical_messages,
            machine.comm_ledger().totals().logical_messages);
  EXPECT_EQ(snapshot.totals().logical_words,
            machine.comm_ledger().totals().logical_words);
}

TEST(MachineLedger, ReportAndTraceJsonCarryCommSection) {
  Machine machine(2);
  machine.enable_comm_ledger(true);
  machine.enable_tracing(true);
  machine.run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 7, payload(5));
    } else {
      comm.recv(0, 7);
    }
  });
  std::ostringstream report;
  write_cost_report_json(report, machine.report(), nullptr, nullptr,
                         &machine.comm_ledger());
  EXPECT_NE(report.str().find("\"comm\""), std::string::npos);
  EXPECT_NE(report.str().find("\"heat_words\""), std::string::npos);
  std::ostringstream trace;
  write_chrome_trace(trace, machine.trace(), nullptr, nullptr,
                     &machine.comm_ledger());
  EXPECT_NE(trace.str().find("\"comm\""), std::string::npos);
}

TEST(CommAudit, PassesOnRealSolveWithinCheckOracleTolerance) {
  Rng rng(42);
  const Graph graph = make_grid2d(17, 17, rng);
  SparseApspOptions options;
  options.height = 2;
  options.comm_ledger = true;
  options.collect_distances = true;
  const SparseApspResult result = run_sparse_apsp(graph, options);
  ASSERT_TRUE(result.comm_audit.present);
  EXPECT_EQ(result.comm_audit.model, "2d-sparse-apsp");
  // Same tolerance the clock oracle uses for real solves.
  EXPECT_NO_THROW(check_comm_audit(result.comm_audit, 8.0));
  EXPECT_TRUE(comm_audit_within(result.comm_audit, 8.0));
  // The collect phase ran, so the Dufoulon floor gate is active and the
  // measured volume sits above the (1 - 1/p)·n² output floor.
  EXPECT_TRUE(result.comm_audit.has_collect);
  EXPECT_GE(result.comm_audit.word_optimality_factor, 1.0);
}

TEST(CommAudit, FlagsALedgerThatBlowsTheMessageBound) {
  CommLedger ledger;
  ledger.present = true;
  ledger.num_ranks = 4;
  CommChannelStats& stats =
      ledger.channels[CommChannelKey{0, 1, "p2p", "L1/R2"}];
  stats.logical_messages = 1'000'000;  // p·h·log₂p is ~16 here
  stats.logical_words = 1'000'000;
  stats.physical_frames = 1'000'000;
  stats.physical_words = 1'000'000;
  const CommAudit audit = audit_sparse_apsp_comm(ledger, 16, 4, 4, 2);
  EXPECT_FALSE(comm_audit_within(audit, 8.0));
  EXPECT_THROW(check_comm_audit(audit, 8.0), check_error);
}

TEST(CommAudit, SingleRankRunsAreVacuouslyWithin) {
  CommLedger ledger;
  ledger.present = true;
  ledger.num_ranks = 1;
  const CommAudit audit = audit_sparse_apsp_comm(ledger, 16, 4, 1, 1);
  EXPECT_TRUE(comm_audit_within(audit, 8.0));
}

TEST(CommAudit, AuditFieldsAppearInJson) {
  Rng rng(7);
  const Graph graph = make_grid2d(9, 9, rng);
  SparseApspOptions options;
  options.height = 2;
  options.comm_ledger = true;
  const SparseApspResult result = run_sparse_apsp(graph, options);
  std::ostringstream out;
  JsonWriter json(out);
  json.begin_object();
  write_comm_audit_fields(json, result.comm_audit);
  json.end_object();
  const std::string text = out.str();
  EXPECT_NE(text.find("\"comm_audit\""), std::string::npos);
  EXPECT_NE(text.find("\"total_message_ratio\""), std::string::npos);
  EXPECT_NE(text.find("\"word_optimality_factor\""), std::string::npos);
  EXPECT_NE(text.find("\"regions\""), std::string::npos);
}

}  // namespace
}  // namespace capsp
