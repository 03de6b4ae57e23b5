// The shared grammar and decision core of the seeded fault plans
// (docs/robustness.md): machine/fault makes the simulated network hostile,
// serve/servefault the serving disk and workers.  Both plans are one
// comma-separated list of key=value items, e.g.
//   "seed=7,drop=0.05,kill=3@120"            (FaultPlan)
//   "seed=7,flip=0.02,stuck=0@40:0.4"        (ServeFaultPlan)
// Each plan owns its key table, fields and to_string(); this file owns
// what they share: the tokenizer, the value parsers, the who@index[:seconds]
// form, the cumulative-probability ladder and the mantissa bit flip.  The
// injectors keep their own RNG derivations, so this code never draws on
// its own — it only consumes the Rng it is handed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <span>
#include <string>

#include "util/rng.hpp"

namespace capsp::faultplan {

/// A parsed who@index[:seconds] value: rank (or worker) `who` faults at
/// its `index`-th operation (or job) for `seconds` (0 when the form has
/// no seconds part).
struct IndexedFault {
  int who = 0;
  std::int64_t index = 0;
  double seconds = 0;
};

/// One fault-plan grammar's parsers.  `name` prefixes every error, e.g.
/// "fault plan: drop=2 is not a probability in [0, 1]".  Every parser
/// CHECK-fails (check_error) on a malformed value.
struct Grammar {
  const char* name;

  using ItemFn =
      std::function<void(const std::string& key, const std::string& value)>;

  /// Call `on_item` for each comma-separated key=value item of `spec`,
  /// in order; empty items are skipped.
  void for_each_item(const std::string& spec, const ItemFn& on_item) const;

  /// A probability in [0, 1].
  double probability(const std::string& key, const std::string& value) const;
  /// A non-negative integer.
  std::int64_t count(const std::string& key, const std::string& value) const;
  /// A number > 0.
  double positive(const std::string& key, const std::string& value) const;

  /// "who@index", or "who@index:seconds" with seconds > 0 when
  /// `with_seconds`.  `form` names the two fields in errors ("rank@op").
  IndexedFault indexed(const std::string& key, const std::string& value,
                       const char* form, bool with_seconds) const;
};

/// The cumulative-probability ladder over mutually exclusive outcomes:
/// the index of the first outcome whose running probability sum exceeds
/// the uniform draw `u`, or probs.size() when `u` falls past them all.
std::size_t pick(double u, std::initializer_list<double> probs);

/// Flip one of the low 52 bits (the mantissa) of one entry of `payload`,
/// drawing the entry and then the bit from `rng`.  A finite value stays
/// finite but differs; an infinite one becomes a NaN.  No-op, with no
/// draws, when `payload` is empty.
void flip_mantissa_bit(std::span<double> payload, Rng& rng);

}  // namespace capsp::faultplan
