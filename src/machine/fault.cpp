#include "machine/fault.hpp"

#include <chrono>
#include <sstream>
#include <thread>

#include "util/check.hpp"
#include "util/faultplan.hpp"
#include "util/log.hpp"

namespace capsp {
namespace {

constexpr faultplan::Grammar kGrammar{"fault plan"};

/// kill=R@K or stall=R@K:S.
void parse_rank_fault(FaultPlan& plan, const std::string& key,
                      const std::string& value, bool stall) {
  const faultplan::IndexedFault parsed =
      kGrammar.indexed(key, value, "rank@op", stall);
  const RankId rank = parsed.who;
  CAPSP_CHECK_MSG(plan.rank_faults.count(rank) == 0,
                  "fault plan: duplicate kill/stall for rank " << rank);
  plan.rank_faults[rank] = RankFault{parsed.index, parsed.seconds};
}

}  // namespace

FaultPlan FaultPlan::parse(const std::string& spec) {
  FaultPlan plan;
  kGrammar.for_each_item(spec, [&plan](const std::string& key,
                                       const std::string& value) {
    if (key == "seed") {
      plan.seed = static_cast<std::uint64_t>(kGrammar.count(key, value));
    } else if (key == "drop") {
      plan.drop = kGrammar.probability(key, value);
    } else if (key == "dup") {
      plan.duplicate = kGrammar.probability(key, value);
    } else if (key == "corrupt") {
      plan.corrupt = kGrammar.probability(key, value);
    } else if (key == "delay") {
      plan.delay = kGrammar.probability(key, value);
    } else if (key == "kill") {
      parse_rank_fault(plan, key, value, /*stall=*/false);
    } else if (key == "stall") {
      parse_rank_fault(plan, key, value, /*stall=*/true);
    } else {
      CAPSP_CHECK_MSG(false, "fault plan: unknown key '"
                                 << key << "' (seed|drop|dup|corrupt|delay|"
                                    "kill|stall)");
    }
  });
  CAPSP_CHECK_MSG(
      plan.drop + plan.duplicate + plan.corrupt + plan.delay <= 1.0,
      "fault plan: probabilities sum to "
          << plan.drop + plan.duplicate + plan.corrupt + plan.delay
          << " > 1");
  return plan;
}

std::string FaultPlan::to_string() const {
  std::ostringstream os;
  os << "seed=" << seed;
  if (drop > 0) os << ",drop=" << drop;
  if (duplicate > 0) os << ",dup=" << duplicate;
  if (corrupt > 0) os << ",corrupt=" << corrupt;
  if (delay > 0) os << ",delay=" << delay;
  for (const auto& [rank, fault] : rank_faults) {
    if (fault.stall_seconds > 0) {
      os << ",stall=" << rank << '@' << fault.op_index << ':'
         << fault.stall_seconds;
    } else {
      os << ",kill=" << rank << '@' << fault.op_index;
    }
  }
  return os.str();
}

FaultInjector::FaultInjector(const FaultPlan& plan, int num_ranks)
    : plan_(plan), ranks_(static_cast<std::size_t>(num_ranks)) {
  for (const auto& [rank, fault] : plan_.rank_faults)
    CAPSP_CHECK_MSG(rank >= 0 && rank < num_ranks,
                    "fault plan targets rank " << rank << " but the machine "
                                               << "has " << num_ranks
                                               << " ranks");
  // Per-rank streams: decisions depend only on (seed, rank, index), never
  // on thread scheduling.
  for (std::size_t r = 0; r < ranks_.size(); ++r)
    ranks_[r].rng.reseed(plan_.seed ^
                         (0x9e3779b97f4a7c15ull * (r + 1)));
}

void FaultInjector::on_op(RankId rank) {
  auto& state = ranks_[static_cast<std::size_t>(rank)];
  const std::int64_t index = state.ops++;
  const auto it = plan_.rank_faults.find(rank);
  if (it == plan_.rank_faults.end() || index != it->second.op_index) return;
  if (it->second.stall_seconds > 0) {
    ++state.counts.stalls;
    CAPSP_LOG(kWarn, "machine.fault.stall", {"rank", rank},
              {"op_index", index},
              {"seconds", it->second.stall_seconds});
    std::this_thread::sleep_for(
        std::chrono::duration<double>(it->second.stall_seconds));
    return;
  }
  ++state.counts.kills;
  state.dead.store(true);
  CAPSP_LOG(kWarn, "machine.fault.kill", {"rank", rank},
            {"op_index", index});
  throw RankKilledError(rank, index);
}

FaultDecision FaultInjector::decide(RankId src) {
  if (!plan_.has_message_faults()) return FaultDecision::kDeliver;
  auto& state = ranks_[static_cast<std::size_t>(src)];
  switch (faultplan::pick(state.rng.uniform_real(),
                          {plan_.drop, plan_.duplicate, plan_.corrupt,
                           plan_.delay})) {
    case 0:
      ++state.counts.drops;
      // Debug (ring-bound, rate-limited): drops are the common chaos
      // event; the black box wants them, the sink usually does not.
      CAPSP_LOG(kDebug, "machine.fault.drop", {"src", src});
      return FaultDecision::kDrop;
    case 1:
      ++state.counts.duplicates;
      return FaultDecision::kDuplicate;
    case 2:
      ++state.counts.corruptions;
      CAPSP_LOG(kDebug, "machine.fault.corrupt", {"src", src});
      return FaultDecision::kCorrupt;
    case 3:
      ++state.counts.delays;
      return FaultDecision::kDelay;
    default:
      return FaultDecision::kDeliver;
  }
}

void FaultInjector::corrupt_payload(RankId src, std::vector<Dist>& payload) {
  // A corrupted infinity becomes a NaN the checksum (or, in raw mode, the
  // victim) gets to meet.
  faultplan::flip_mantissa_bit(payload,
                               ranks_[static_cast<std::size_t>(src)].rng);
}

std::vector<RankId> FaultInjector::dead_ranks() const {
  std::vector<RankId> dead;
  for (std::size_t r = 0; r < ranks_.size(); ++r)
    if (ranks_[r].dead.load()) dead.push_back(static_cast<RankId>(r));
  return dead;
}

FaultCounts FaultInjector::counts() const {
  FaultCounts total;
  for (const auto& rank : ranks_) total += rank.counts;
  return total;
}

}  // namespace capsp
