// Tests for the deadlock watchdog (watchdog.hpp): wait-for cycle
// detection, the golden hand-built recv cycle, kill/stall fault
// interaction, and post-mortem observability.
#include <gtest/gtest.h>

#include <algorithm>

#include "machine/machine.hpp"
#include "machine/watchdog.hpp"

namespace capsp {
namespace {

std::vector<Dist> payload(std::initializer_list<Dist> values) {
  return values;
}

BlockedRecv blocked(RankId rank, RankId src) {
  BlockedRecv b;
  b.rank = rank;
  b.src = src;
  return b;
}

TEST(WaitCycle, FindsThreeCycle) {
  const std::vector<BlockedRecv> waits = {blocked(0, 1), blocked(1, 2),
                                          blocked(2, 0)};
  EXPECT_EQ(find_wait_cycle(waits), (std::vector<RankId>{0, 1, 2}));
}

TEST(WaitCycle, ChainIntoUnblockedRankIsNoCycle) {
  // 0 waits on 1, 1 waits on 2, but 2 is not blocked (e.g. dead).
  const std::vector<BlockedRecv> waits = {blocked(0, 1), blocked(1, 2)};
  EXPECT_TRUE(find_wait_cycle(waits).empty());
}

TEST(WaitCycle, FindsCycleBehindAChain) {
  // 5 -> 0 -> 1 -> 0: the cycle is {0, 1}, entered from a tail.
  const std::vector<BlockedRecv> waits = {blocked(5, 0), blocked(0, 1),
                                          blocked(1, 0)};
  EXPECT_EQ(find_wait_cycle(waits), (std::vector<RankId>{0, 1}));
}

TEST(WaitCycle, StartsAtSmallestRankPreservingOrder)
{
  // Cycle 3 -> 1 -> 2 -> 3 normalizes to 1 -> 2 -> 3.
  const std::vector<BlockedRecv> waits = {blocked(3, 1), blocked(1, 2),
                                          blocked(2, 3)};
  EXPECT_EQ(find_wait_cycle(waits), (std::vector<RankId>{1, 2, 3}));
}

TEST(WaitCycle, TwoRankHandshakeDeadlock) {
  const std::vector<BlockedRecv> waits = {blocked(0, 1), blocked(1, 0)};
  EXPECT_EQ(find_wait_cycle(waits), (std::vector<RankId>{0, 1}));
}

/// The golden test of ISSUE.md: a hand-built receive cycle must produce a
/// structured DeadlockReport naming every blocked (rank, src, tag) and
/// the cycle.
TEST(Watchdog, ReportsHandBuiltRecvCycle) {
  Machine machine(3);
  machine.set_recv_timeout(0.2);
  bool threw = false;
  try {
    machine.run([](Comm& comm) {
      comm.set_phase("waiting");
      // Every rank waits on its right neighbor: a 3-cycle, no messages.
      comm.recv((comm.rank() + 1) % 3, /*tag=*/42);
    });
  } catch (const DeadlockError& e) {
    threw = true;
    const DeadlockReport& report = e.report;
    EXPECT_EQ(report.budget_seconds, 0.2);
    EXPECT_EQ(report.cycle, (std::vector<RankId>{0, 1, 2}));
    EXPECT_TRUE(report.dead.empty());
    ASSERT_EQ(report.blocked.size(), 3u);
    double longest_wait = 0;
    for (const BlockedRecv& b : report.blocked) {
      EXPECT_EQ(b.src, (b.rank + 1) % 3);
      EXPECT_EQ(b.tag, 42);
      EXPECT_EQ(b.phase, "waiting");
      EXPECT_EQ(b.clock.latency, 0);  // blocked before any traffic
      EXPECT_GT(b.waited_seconds, 0);
      longest_wait = std::max(longest_wait, b.waited_seconds);
    }
    // The watchdog fires once the *longest* wait passes the budget; a
    // rank that reached its receive late under load has waited less.
    EXPECT_GE(longest_wait, 0.2);
    // The human rendering names the pieces apsp_tool prints.
    const std::string text = report.to_string();
    EXPECT_NE(text.find("deadlock: watchdog fired"), std::string::npos);
    EXPECT_NE(text.find("rank 0 <- (src 1, tag 42)"), std::string::npos);
    EXPECT_NE(text.find("wait cycle: 0 -> 1 -> 2 -> 0"), std::string::npos);
  }
  EXPECT_TRUE(threw);
  // The report stays readable on the machine after the throw.
  ASSERT_NE(machine.deadlock_report(), nullptr);
  EXPECT_EQ(machine.deadlock_report()->cycle, (std::vector<RankId>{0, 1, 2}));
}

TEST(Watchdog, KilledRankShowsUpAsDeadNotCycle) {
  Machine machine(2);
  FaultPlan plan;
  plan.rank_faults[1] = RankFault{0, 0};  // rank 1 dies at its first op
  machine.set_fault_plan(plan);
  machine.set_recv_timeout(0.2);
  bool threw = false;
  try {
    machine.run([](Comm& comm) {
      if (comm.rank() == 0) {
        comm.recv(1, 7);  // waits forever: the sender is dead
      } else {
        comm.send(0, 7, payload({1.0}));  // killed before this sends
      }
    });
  } catch (const DeadlockError& e) {
    threw = true;
    EXPECT_EQ(e.report.dead, (std::vector<RankId>{1}));
    EXPECT_TRUE(e.report.cycle.empty());  // a chain into a corpse
    ASSERT_EQ(e.report.blocked.size(), 1u);
    EXPECT_EQ(e.report.blocked[0].rank, 0);
    EXPECT_EQ(e.report.blocked[0].src, 1);
  }
  EXPECT_TRUE(threw);
  EXPECT_EQ(machine.report().faults.kills, 1);
}

TEST(Watchdog, StallBeyondBudgetTripsTheWatchdog) {
  Machine machine(2);
  FaultPlan plan;
  plan.rank_faults[1] = RankFault{0, 0.6};  // rank 1 naps past the budget
  machine.set_fault_plan(plan);
  machine.set_recv_timeout(0.15);
  EXPECT_THROW(machine.run([](Comm& comm) {
                 if (comm.rank() == 0) {
                   comm.recv(1, 7);
                 } else {
                   comm.send(0, 7, payload({1.0}));
                 }
               }),
               DeadlockError);
  EXPECT_EQ(machine.report().faults.stalls, 1);
}

TEST(Watchdog, StallWithinBudgetSurvives) {
  Machine machine(2);
  FaultPlan plan;
  plan.rank_faults[1] = RankFault{0, 0.05};
  machine.set_fault_plan(plan);
  machine.set_recv_timeout(1.0);
  machine.run([](Comm& comm) {
    if (comm.rank() == 0) {
      EXPECT_EQ(comm.recv(1, 7), payload({1.0}));
    } else {
      comm.send(0, 7, payload({1.0}));
    }
  });
  EXPECT_EQ(machine.report().faults.stalls, 1);
  EXPECT_EQ(machine.report().faults.kills, 0);
}

TEST(Watchdog, QuietWhenScheduleIsSound) {
  Machine machine(2);
  machine.set_recv_timeout(0.5);
  machine.run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 1, payload({2.0}));
    } else {
      EXPECT_EQ(comm.recv(0, 1), payload({2.0}));
    }
  });
  EXPECT_EQ(machine.deadlock_report(), nullptr);
  EXPECT_EQ(machine.report().total_messages, 1);
}

TEST(Watchdog, PostMortemKeepsPartialCostsAndTrace) {
  Machine machine(2);
  machine.enable_tracing(true);
  machine.set_recv_timeout(0.2);
  EXPECT_THROW(machine.run([](Comm& comm) {
                 if (comm.rank() == 0) {
                   comm.send(1, 1, payload({1.0, 2.0}));
                   comm.recv(1, 99);  // never sent
                 } else {
                   comm.recv(0, 1);
                 }
               }),
               DeadlockError);
  // The send that did happen is still metered and traced — that is the
  // (L, B)-stamped context the DeadlockReport is read against.
  EXPECT_EQ(machine.report().total_messages, 1);
  EXPECT_EQ(machine.report().total_words, 2);
  ASSERT_TRUE(machine.trace().enabled());
  EXPECT_GT(machine.trace().num_events(), 0u);
  ASSERT_NE(machine.deadlock_report(), nullptr);
  ASSERT_EQ(machine.deadlock_report()->blocked.size(), 1u);
  EXPECT_EQ(machine.deadlock_report()->blocked[0].rank, 0);
  // The blocked receive carries the rank's clock: one send = (1, 2).
  EXPECT_EQ(machine.deadlock_report()->blocked[0].clock.latency, 1);
  EXPECT_EQ(machine.deadlock_report()->blocked[0].clock.words, 2);
}

}  // namespace
}  // namespace capsp
