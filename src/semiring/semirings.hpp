// Closed-semiring generalization of the kernels (Carré 1971, the paper's
// reference [8]): the Floyd–Warshall/elimination machinery is not
// specific to min-plus — any closed semiring (⊕, ⊗, 0̄, 1̄) yields a
// path problem:
//
//   MinPlus   ⊕=min ⊗=+    0̄=+inf 1̄=0     shortest distances
//   MaxMin    ⊕=max ⊗=min  0̄=0    1̄=+inf  bottleneck / widest paths
//   BoolOrAnd ⊕=∨   ⊗=∧    0̄=0    1̄=1     reachability (on {0,1} values)
//
// A semiring policy provides the two operations, the two constants, and
// an `is_zero` predicate used for the sparsity skipping (a 0̄ operand
// annihilates the product, exactly like +inf in min-plus).  The kernels
// in this header run the non-min-plus semirings (closure.hpp builds the
// graph-level solvers on top).  Min-plus runs on the vectorized kernels of
// semiring/kernels.hpp, which SemiringKernels::of<MinPlusSemiring>()
// binds; the min-plus instantiations here are only the reference the
// kernel tests compare against.
#pragma once

#include <cstdint>
#include <type_traits>

#include "semiring/block.hpp"
#include "semiring/kernels.hpp"
#include "util/metrics.hpp"
#include "util/prof.hpp"

namespace capsp {

/// Tropical (min, +): shortest paths.  The default everywhere else.
struct MinPlusSemiring {
  static constexpr Dist zero() { return kInf; }
  static constexpr Dist one() { return 0; }
  static constexpr Dist plus(Dist a, Dist b) { return a < b ? a : b; }
  static constexpr Dist times(Dist a, Dist b) { return a + b; }
  static constexpr bool is_zero(Dist a) { return a == kInf; }
  /// ⊕-improvement test: does candidate beat current?
  static constexpr bool improves(Dist candidate, Dist current) {
    return candidate < current;
  }
};

/// (max, min): bottleneck / widest paths — the value of a path is its
/// smallest edge capacity; the problem maximizes it.
struct MaxMinSemiring {
  static constexpr Dist zero() { return 0; }
  static constexpr Dist one() { return kInf; }
  static constexpr Dist plus(Dist a, Dist b) { return a > b ? a : b; }
  static constexpr Dist times(Dist a, Dist b) { return a < b ? a : b; }
  static constexpr bool is_zero(Dist a) { return a <= 0; }
  static constexpr bool improves(Dist candidate, Dist current) {
    return candidate > current;
  }
};

/// Boolean (∨, ∧) on {0, 1}: transitive closure / reachability.
/// Numerically identical to MaxMin restricted to {0, 1}, but kept as its
/// own policy so intent is explicit and 1̄ is finite.
struct BoolSemiring {
  static constexpr Dist zero() { return 0; }
  static constexpr Dist one() { return 1; }
  static constexpr Dist plus(Dist a, Dist b) { return a > b ? a : b; }
  static constexpr Dist times(Dist a, Dist b) { return a < b ? a : b; }
  static constexpr bool is_zero(Dist a) { return a <= 0; }
  static constexpr bool improves(Dist candidate, Dist current) {
    return candidate > current;
  }
};

/// In-place Floyd–Warshall over semiring S (a(i,j) ⊕= a(i,k) ⊗ a(k,j)
/// for all k, i, j).  Returns the number of ⊗ evaluations.
template <typename S>
std::int64_t semiring_fw(DistBlock& a) {
  CAPSP_CHECK(a.rows() == a.cols());
  ProfScope prof("semiring.generic_fw");
  const std::int64_t n = a.rows();
  std::int64_t ops = 0;
  for (std::int64_t k = 0; k < n; ++k) {
    const Dist* rk = a.row(k);
    for (std::int64_t i = 0; i < n; ++i) {
      const Dist aik = a.at(i, k);
      if (S::is_zero(aik)) continue;
      Dist* ri = a.row(i);
      for (std::int64_t j = 0; j < n; ++j) {
        const Dist cand = S::times(aik, rk[j]);
        if (S::improves(cand, ri[j])) ri[j] = cand;
      }
      ops += n;
    }
  }
  metrics().counter_add("semiring.kernels.fw_ops", ops);
  metrics().observe("semiring.kernels.block_dim", static_cast<double>(n));
  prof.add_ops(ops);
  prof.add_bytes(n * n * static_cast<std::int64_t>(sizeof(Dist)));
  return ops;
}

/// c ← c ⊕ other elementwise over semiring S (the reduce combiner).
template <typename S>
void semiring_elementwise_plus(DistBlock& c, const DistBlock& other) {
  CAPSP_CHECK(c.rows() == other.rows() && c.cols() == other.cols());
  auto cd = c.data();
  auto od = other.data();
  for (std::size_t i = 0; i < cd.size(); ++i) cd[i] = S::plus(cd[i], od[i]);
}

/// C ← C ⊕ A ⊗ B over semiring S, with the same absorbing-operand
/// skipping as the min-plus kernel.
template <typename S>
std::int64_t semiring_accumulate(DistBlock& c, const DistBlock& a,
                                 const DistBlock& b) {
  CAPSP_CHECK(a.cols() == b.rows());
  CAPSP_CHECK(c.rows() == a.rows() && c.cols() == b.cols());
  ProfScope prof("semiring.generic_accumulate");
  const std::int64_t m = a.rows(), kk = a.cols(), nn = b.cols();
  std::int64_t ops = 0;
  if (m == 0 || nn == 0) return 0;
  bool b_all_zero = true;
  for (Dist v : b.data())
    if (!S::is_zero(v)) {
      b_all_zero = false;
      break;
    }
  if (b_all_zero) {
    // The sparsity saving of Sec. 4.1: an absorbing operand annihilates
    // the whole multiply.
    metrics().counter_add("semiring.kernels.empty_skips");
    return 0;
  }
  for (std::int64_t i = 0; i < m; ++i) {
    Dist* ci = c.row(i);
    const Dist* ai = a.row(i);
    for (std::int64_t k = 0; k < kk; ++k) {
      const Dist aik = ai[k];
      if (S::is_zero(aik)) continue;
      const Dist* bk = b.row(k);
      for (std::int64_t j = 0; j < nn; ++j) {
        const Dist cand = S::times(aik, bk[j]);
        if (S::improves(cand, ci[j])) ci[j] = cand;
      }
      ops += nn;
    }
  }
  metrics().counter_add("semiring.kernels.minplus_ops", ops);
  prof.add_ops(ops);
  prof.add_bytes((m * kk + kk * nn + m * nn) *
                 static_cast<std::int64_t>(sizeof(Dist)));
  return ops;
}

/// Type-erased kernel bundle: lets runtime code (the distributed
/// scheduler, the collectives) run over any semiring without templating
/// the whole call graph.  The indirection is per *block operation*
/// (O(n³) work each), so its cost is noise.
struct SemiringKernels {
  std::int64_t (*fw)(DistBlock&) = nullptr;
  std::int64_t (*accumulate)(DistBlock&, const DistBlock&,
                             const DistBlock&) = nullptr;
  void (*combine)(DistBlock&, const DistBlock&) = nullptr;
  Dist zero = 0;  ///< 0̄, the fill value for "no path yet"
  Dist one = 0;   ///< 1̄, the diagonal value

  template <typename S>
  static SemiringKernels of() {
    if constexpr (std::is_same_v<S, MinPlusSemiring>)
      return {&classical_fw, &minplus_accumulate, &elementwise_min,
              S::zero(), S::one()};
    else
      return {&semiring_fw<S>, &semiring_accumulate<S>,
              &semiring_elementwise_plus<S>, S::zero(), S::one()};
  }
};

}  // namespace capsp
