// Tests for the shared fault-plan core (util/faultplan, util/backoff):
// the seeded mutation test over both fault-plan grammars (FaultPlan and
// ServeFaultPlan), the per-grammar error prefixes, the cumulative ladder,
// the mantissa bit flip, and the capped doubling under both retry ladders.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "machine/fault.hpp"
#include "serve/servefault.hpp"
#include "util/backoff.hpp"
#include "util/check.hpp"
#include "util/faultplan.hpp"
#include "util/rng.hpp"

namespace capsp {
namespace {

// Valid specs from test_fault and test_servefault: the mutation seeds.
const std::vector<std::string> kMachineSpecs = {
    "seed=7,drop=0.05,dup=0.01,corrupt=0.02,delay=0.05,kill=3@120,"
    "stall=2@10:0.5",
    "seed=9,drop=0.1,corrupt=0.25,kill=1@4,stall=5@2:0.125",
    "seed=5,drop=0.3,dup=0.2,delay=0.2",
    "seed=21,drop=0.15",
    "kill=0@0",
};
const std::vector<std::string> kServeSpecs = {
    "seed=7,read_error=0.02,eintr=0.03,short=0.03,flip=0.02,delay=0.04,"
    "delay_ms=1,alloc=0.005,bad_tile=5:4,stuck=0@40:0.4",
    "seed=9,read_error=0.08,flip=0.05,bad_tile=5:60",
    "stuck=0@0:0.2",
    "seed=3,corrupt=1",
    "seed=3",
};

/// One random edit: truncate, splice with another seed spec, flip a
/// byte, or duplicate one of the spec's own items (a repeated key).
std::string mutate(const std::string& spec,
                   const std::vector<std::string>& corpus, Rng& rng) {
  std::string out = spec;
  switch (rng.uniform(4)) {
    case 0:
      out.resize(rng.uniform(out.size() + 1));
      break;
    case 1: {
      const std::string& other = corpus[rng.uniform(corpus.size())];
      out = out.substr(0, rng.uniform(out.size() + 1)) +
            other.substr(rng.uniform(other.size() + 1));
      break;
    }
    case 2:
      if (!out.empty()) {
        // Half grammar characters, half arbitrary bytes.
        static const std::string kAlphabet = "0123456789.,=@:-+e";
        out[rng.uniform(out.size())] =
            rng.bernoulli(0.5)
                ? kAlphabet[rng.uniform(kAlphabet.size())]
                : static_cast<char>(rng.uniform(256));
      }
      break;
    default: {
      std::vector<std::string> items;
      std::string::size_type start = 0;
      for (;;) {
        const auto comma = out.find(',', start);
        items.push_back(out.substr(start, comma - start));
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
      out += "," + items[rng.uniform(items.size())];
      break;
    }
  }
  return out;
}

/// Mutate every seed spec repeatedly; each mutant must either be refused
/// with a check_error or parse to a plan whose to_string() is a fixed
/// point of parse.  Returns {accepted, rejected} counts.
template <typename Plan>
std::pair<int, int> fuzz_grammar(const std::vector<std::string>& corpus,
                                 std::uint64_t seed) {
  Rng rng(seed);
  int accepted = 0, rejected = 0;
  for (int round = 0; round < 3000; ++round) {
    std::string spec = corpus[rng.uniform(corpus.size())];
    const int edits = 1 + static_cast<int>(rng.uniform(3));
    for (int e = 0; e < edits; ++e) spec = mutate(spec, corpus, rng);
    Plan plan;
    try {
      plan = Plan::parse(spec);
    } catch (const check_error&) {
      ++rejected;
      continue;
    }
    ++accepted;
    const std::string printed = plan.to_string();
    Plan again;
    try {
      again = Plan::parse(printed);
    } catch (const check_error& e) {
      ADD_FAILURE() << "'" << spec << "' parsed, but its to_string() '"
                    << printed << "' did not: " << e.what();
      continue;
    }
    EXPECT_EQ(again.to_string(), printed) << "from '" << spec << "'";
    EXPECT_EQ(again.seed, plan.seed) << "from '" << spec << "'";
  }
  return {accepted, rejected};
}

TEST(FaultPlanGrammar, MutatedSpecsAreRefusedOrRoundTrip) {
  const auto [machine_ok, machine_bad] =
      fuzz_grammar<FaultPlan>(kMachineSpecs, 13);
  const auto [serve_ok, serve_bad] =
      fuzz_grammar<ServeFaultPlan>(kServeSpecs, 14);
  // Both outcomes must actually occur, or the mutator is not probing.
  EXPECT_GT(machine_ok, 100);
  EXPECT_GT(machine_bad, 100);
  EXPECT_GT(serve_ok, 100);
  EXPECT_GT(serve_bad, 100);
}

TEST(FaultPlanGrammar, ErrorsNameTheirGrammar) {
  const auto error_of = [](auto parse, const std::string& spec) {
    try {
      parse(spec);
    } catch (const check_error& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  const std::string machine =
      error_of([](const std::string& s) { FaultPlan::parse(s); }, "drop=2");
  const std::string serve = error_of(
      [](const std::string& s) { ServeFaultPlan::parse(s); }, "flip=2");
  EXPECT_NE(machine.find("fault plan: drop=2 is not a probability"),
            std::string::npos)
      << machine;
  EXPECT_EQ(machine.find("serve fault plan"), std::string::npos) << machine;
  EXPECT_NE(serve.find("serve fault plan: flip=2 is not a probability"),
            std::string::npos)
      << serve;
  // Ids past int range are refused, not wrapped to a negative rank.
  EXPECT_THROW(FaultPlan::parse("kill=4294967295@1"), check_error);
  EXPECT_THROW(ServeFaultPlan::parse("stuck=4294967296@1:0.1"), check_error);
}

TEST(FaultPlanCore, PickWalksTheCumulativeLadder) {
  EXPECT_EQ(faultplan::pick(0.0, {0.25, 0.25}), 0u);
  EXPECT_EQ(faultplan::pick(0.24, {0.25, 0.25}), 0u);
  EXPECT_EQ(faultplan::pick(0.25, {0.25, 0.25}), 1u);
  EXPECT_EQ(faultplan::pick(0.5, {0.25, 0.25}), 2u);  // past the ladder
  EXPECT_EQ(faultplan::pick(0.1, {0.0, 0.2}), 1u);    // zero rung skipped
  EXPECT_EQ(faultplan::pick(0.0, {}), 0u);
}

TEST(FaultPlanCore, FlipChangesExactlyOneMantissaBit) {
  Rng rng(3);
  for (int round = 0; round < 200; ++round) {
    std::vector<double> payload = {1.5, -2.0, 1e300, 0.0};
    const std::vector<double> before = payload;
    faultplan::flip_mantissa_bit(payload, rng);
    int changed = 0;
    for (std::size_t i = 0; i < payload.size(); ++i) {
      const std::uint64_t diff = std::bit_cast<std::uint64_t>(payload[i]) ^
                                 std::bit_cast<std::uint64_t>(before[i]);
      if (diff == 0) continue;
      ++changed;
      EXPECT_EQ(std::popcount(diff), 1);
      EXPECT_LT(diff, std::uint64_t{1} << 52);  // mantissa only
    }
    EXPECT_EQ(changed, 1);
  }
  // Empty payloads are a no-op that leaves the stream untouched.
  Rng a(5), b(5);
  faultplan::flip_mantissa_bit({}, a);
  EXPECT_EQ(a(), b());
}

TEST(Backoff, CappedDoublingMatchesRepeatedMin) {
  for (const double base : {1.0, 0.2, 0.1, 3.0}) {
    const double cap = 64 * base;
    double expected = base;
    for (int retry = 0; retry < 40; ++retry) {
      EXPECT_EQ(capped_doubling(base, retry, cap), expected)
          << "base " << base << " retry " << retry;
      expected = std::min(2 * expected, cap);
    }
  }
  EXPECT_EQ(capped_doubling(1, 1 << 30, 20), 20);  // no overflow
}

}  // namespace
}  // namespace capsp
