#include "serve/servefault.hpp"

#include <sstream>

#include "util/check.hpp"
#include "util/faultplan.hpp"
#include "util/log.hpp"

namespace capsp {
namespace {

constexpr faultplan::Grammar kGrammar{"serve fault plan"};

/// "T:K" -> tile T's first K read attempts fail.
void parse_bad_tile(ServeFaultPlan& plan, const std::string& key,
                    const std::string& value) {
  const auto colon = value.find(':');
  CAPSP_CHECK_MSG(colon != std::string::npos,
                  "serve fault plan: " << key << "=" << value
                                       << " must be tile:failures");
  plan.bad_tile = kGrammar.count(key, value.substr(0, colon));
  plan.bad_tile_fails = kGrammar.count(key, value.substr(colon + 1));
  CAPSP_CHECK_MSG(plan.bad_tile_fails > 0,
                  "serve fault plan: " << key << "=" << value
                                       << " needs failures >= 1");
}

/// "W@J:S" -> worker W sleeps S seconds at its J-th job.
void parse_stuck(ServeFaultPlan& plan, const std::string& key,
                 const std::string& value) {
  const faultplan::IndexedFault parsed =
      kGrammar.indexed(key, value, "worker@job", /*with_seconds=*/true);
  const int worker = parsed.who;
  CAPSP_CHECK_MSG(plan.stuck.count(worker) == 0,
                  "serve fault plan: duplicate stuck for worker " << worker);
  plan.stuck[worker] = WorkerStick{parsed.index, parsed.seconds};
}

}  // namespace

ServeFaultPlan ServeFaultPlan::parse(const std::string& spec) {
  ServeFaultPlan plan;
  kGrammar.for_each_item(spec, [&plan](const std::string& key,
                                       const std::string& value) {
    if (key == "seed") {
      plan.seed = static_cast<std::uint64_t>(kGrammar.count(key, value));
    } else if (key == "read_error") {
      plan.read_error = kGrammar.probability(key, value);
    } else if (key == "eintr") {
      plan.eintr = kGrammar.probability(key, value);
    } else if (key == "short") {
      plan.short_read = kGrammar.probability(key, value);
    } else if (key == "flip") {
      plan.flip = kGrammar.probability(key, value);
    } else if (key == "delay") {
      plan.delay = kGrammar.probability(key, value);
    } else if (key == "delay_ms") {
      plan.delay_ms = kGrammar.positive(key, value);
    } else if (key == "alloc") {
      plan.alloc = kGrammar.probability(key, value);
    } else if (key == "bad_tile") {
      parse_bad_tile(plan, key, value);
    } else if (key == "stuck") {
      parse_stuck(plan, key, value);
    } else {
      CAPSP_CHECK_MSG(false, "serve fault plan: unknown key '"
                                 << key
                                 << "' (seed|read_error|eintr|short|flip|"
                                    "delay|delay_ms|alloc|bad_tile|stuck)");
    }
  });
  const double sum = plan.read_error + plan.eintr + plan.short_read +
                     plan.flip + plan.delay;
  CAPSP_CHECK_MSG(sum <= 1.0,
                  "serve fault plan: read probabilities sum to " << sum
                                                                 << " > 1");
  return plan;
}

std::string ServeFaultPlan::to_string() const {
  std::ostringstream os;
  os << "seed=" << seed;
  if (read_error > 0) os << ",read_error=" << read_error;
  if (eintr > 0) os << ",eintr=" << eintr;
  if (short_read > 0) os << ",short=" << short_read;
  if (flip > 0) os << ",flip=" << flip;
  if (delay > 0) os << ",delay=" << delay;
  if (delay > 0 && delay_ms != 2) os << ",delay_ms=" << delay_ms;
  if (alloc > 0) os << ",alloc=" << alloc;
  if (bad_tile >= 0)
    os << ",bad_tile=" << bad_tile << ':' << bad_tile_fails;
  for (const auto& [worker, stick] : stuck)
    os << ",stuck=" << worker << '@' << stick.job_index << ':'
       << stick.seconds;
  return os.str();
}

ServeFaultInjector::ServeFaultInjector(ServeFaultPlan plan)
    : plan_(std::move(plan)) {}

Rng ServeFaultInjector::decision_rng(std::int64_t tile_id,
                                     std::int64_t attempt,
                                     std::uint64_t salt) const {
  // One fresh splitmix-seeded stream per (tile, attempt): the decision is
  // a pure function of the plan and the tile's own history, independent
  // of which worker thread happens to issue the read.
  std::uint64_t key = plan_.seed;
  key ^= 0x9e3779b97f4a7c15ull * (static_cast<std::uint64_t>(tile_id) + 1);
  key ^= 0xbf58476d1ce4e5b9ull * (static_cast<std::uint64_t>(attempt) + 1);
  key ^= salt;
  return Rng(key);
}

ServeFaultInjector::ReadFault ServeFaultInjector::next_read_fault(
    std::int64_t tile_id) {
  std::int64_t attempt = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    attempt = read_attempts_[tile_id]++;
  }
  // Every injected fault is logged at kDebug under one event name, so a
  // flight-recorder dump of a dying chaos run names the faults that
  // preceded the death (docs/observability.md).
  const auto injected = [&](const char* kind, ReadFault fault) {
    CAPSP_LOG(kDebug, "serve.fault.inject", {"kind", kind},
              {"tile", tile_id}, {"attempt", attempt});
    return fault;
  };
  // The deterministic bad sector overrides the probabilistic draws while
  // its failure budget lasts, then the tile heals.
  if (tile_id == plan_.bad_tile && attempt < plan_.bad_tile_fails) {
    eio_.fetch_add(1, std::memory_order_relaxed);
    return injected("bad_tile_eio", ReadFault::kEio);
  }
  if (plan_.read_error + plan_.eintr + plan_.short_read + plan_.flip +
          plan_.delay <=
      0)
    return ReadFault::kNone;
  Rng rng = decision_rng(tile_id, attempt, /*salt=*/0x726561640ull);
  switch (faultplan::pick(rng.uniform_real(),
                          {plan_.read_error, plan_.eintr, plan_.short_read,
                           plan_.flip, plan_.delay})) {
    case 0:
      eio_.fetch_add(1, std::memory_order_relaxed);
      return injected("eio", ReadFault::kEio);
    case 1:
      eintr_.fetch_add(1, std::memory_order_relaxed);
      return injected("eintr", ReadFault::kEintr);
    case 2:
      short_reads_.fetch_add(1, std::memory_order_relaxed);
      return injected("short_read", ReadFault::kShort);
    case 3:
      flips_.fetch_add(1, std::memory_order_relaxed);
      return injected("flip", ReadFault::kFlip);
    case 4:
      delays_.fetch_add(1, std::memory_order_relaxed);
      return injected("delay", ReadFault::kDelay);
    default:
      return ReadFault::kNone;
  }
}

bool ServeFaultInjector::next_alloc_fails(std::int64_t tile_id) {
  if (plan_.alloc <= 0) return false;
  std::int64_t attempt = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    attempt = alloc_attempts_[tile_id]++;
  }
  Rng rng = decision_rng(tile_id, attempt, /*salt=*/0x616c6c6f63ull);
  if (!rng.bernoulli(plan_.alloc)) return false;
  allocs_.fetch_add(1, std::memory_order_relaxed);
  CAPSP_LOG(kDebug, "serve.fault.inject", {"kind", "alloc"},
            {"tile", tile_id}, {"attempt", attempt});
  return true;
}

void ServeFaultInjector::flip_payload(std::int64_t tile_id,
                                      std::span<Dist> payload) {
  if (payload.empty()) return;
  // Keyed off the tile alone so the flipped bit is stable for a given
  // plan; which *attempt* flips was already decided by next_read_fault.
  // The FNV checksum catches the flip either way.
  Rng rng = decision_rng(tile_id, /*attempt=*/0, /*salt=*/0x666c6970ull);
  faultplan::flip_mantissa_bit(payload, rng);
}

double ServeFaultInjector::stick_seconds(int worker_index,
                                         std::int64_t job_index) {
  const auto it = plan_.stuck.find(worker_index);
  if (it == plan_.stuck.end() || it->second.job_index != job_index)
    return 0;
  sticks_.fetch_add(1, std::memory_order_relaxed);
  CAPSP_LOG(kWarn, "serve.fault.inject", {"kind", "stuck_worker"},
            {"worker", worker_index}, {"job_index", job_index},
            {"seconds", it->second.seconds});
  return it->second.seconds;
}

ServeFaultInjector::Counts ServeFaultInjector::counts() const {
  return {eio_.load(std::memory_order_relaxed),
          eintr_.load(std::memory_order_relaxed),
          short_reads_.load(std::memory_order_relaxed),
          flips_.load(std::memory_order_relaxed),
          delays_.load(std::memory_order_relaxed),
          allocs_.load(std::memory_order_relaxed),
          sticks_.load(std::memory_order_relaxed)};
}

}  // namespace capsp
