// Region decomposition, the computing-unit → processor map, and the
// schedule built from them (paper Sec. 5.2, Lemmas 5.2–5.4, Cor. 5.5).
//
// Eliminating the level-l supernodes Q_l updates the region
//   R_l = ∪_{k∈Q_l} (k ∪ A(k) ∪ D(k)) × (k ∪ A(k) ∪ D(k)),
// split into four disjoint sub-regions handled by different schedules:
//   R¹ diagonal blocks (k,k)            — local ClassicalFW
//   R² panels (i,k), (k,j)              — broadcast from the diagonal
//   R³ blocks with a descendant side    — one computing unit each
//   R⁴ ancestor×ancestor blocks         — 2^(a-l) units each, fanned out
//                                         one-to-one onto worker ranks P_fg
// ApspSchedule builds Algorithm 1's steps from these tables once per
// solve, before Machine::run; sparse_apsp_rank walks its rank's slice.
// The tests check the schedule against the tables (its R³ updates are
// region_r3, its R⁴ reductions are r4_units), so the paper's counting
// lemmas are checked against the very tables the algorithm runs from.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/layout.hpp"
#include "machine/collectives.hpp"
#include "tree/etree.hpp"

namespace capsp {

/// A block index pair (supernode labels).
struct BlockId {
  Snode i = 0;
  Snode j = 0;
  friend bool operator==(const BlockId&, const BlockId&) = default;
  friend auto operator<=>(const BlockId&, const BlockId&) = default;
};

/// One computing unit A(i,k) ⊗ A(k,j) of an R⁴ update (Cor. 5.5).
struct ComputingUnit {
  Snode i = 0;  ///< row supernode, level(i) = a
  Snode j = 0;  ///< column supernode, level(j) = c >= a (j ∈ {i} ∪ A(i))
  Snode k = 0;  ///< pivot supernode, k ∈ Q_l ∩ D(i)
  Snode f = 0;  ///< worker grid row (Lemma 5.4)
  Snode g = 0;  ///< worker grid column (index of k within Q_l)
  friend bool operator==(const ComputingUnit&,
                         const ComputingUnit&) = default;
};

/// A(k) ∪ D(k), ascending: the supernodes a pivot k's elimination
/// touches.
std::vector<Snode> related_set(const EliminationTree& tree, Snode k);

/// R¹_l: diagonal blocks (k,k), k ∈ Q_l.
std::vector<BlockId> region_r1(const EliminationTree& tree, int l);

/// R²_l: panel blocks (i,k) and (k,j) with i,j ∈ A(k) ∪ D(k), k ∈ Q_l.
std::vector<BlockId> region_r2(const EliminationTree& tree, int l);

/// R³_l: ∪_k (A(k)∪D(k)) × D(k)  ∪  D(k) × (A(k)∪D(k)) — blocks updated by
/// exactly one computing unit.
std::vector<BlockId> region_r3(const EliminationTree& tree, int l);

/// R⁴_l: ∪_k A(k) × A(k) (including ancestor diagonal blocks) — blocks
/// updated by 2^(a-l) computing units, a = min level.
std::vector<BlockId> region_r4(const EliminationTree& tree, int l);

/// The unique pivot k ∈ Q_l through which block (i,j) ∈ R³_l is updated.
Snode r3_pivot(const EliminationTree& tree, int l, Snode i, Snode j);

/// Worker grid row for subset R⁴_l(a, c):  f = Σ_{b=h+a-c}^{h-1} 2^b + (a-l)
/// (Lemma 5.4).  Requires l < a <= c <= h.
Snode r4_worker_row(const EliminationTree& tree, int l, int a, int c);

/// Worker grid column for pivot k ∈ Q_l:  g = k - Σ_{b=h-l+1}^{h-1} 2^b,
/// i.e. k's 1-based index within Q_l (Cor. 5.5).
Snode r4_worker_col(const EliminationTree& tree, int l, Snode k);

/// All computing units of level l for the computed half of R⁴ (blocks with
/// level(i) <= level(j); the other half arrives by transposition, Alg. 1
/// line 25).  Sorted by (i, j, k).
std::vector<ComputingUnit> r4_units(const EliminationTree& tree, int l);

/// Number of computing units Lemma 5.2 predicts for the computed half:
/// Σ_{a=l+1}^{h} (h-a+1) · 2^(h-l).... evaluated exactly (for tests).
std::int64_t r4_unit_count(const EliminationTree& tree, int l);

/// How the R⁴ computing units are assigned to processors (Sec. 5.2.2
/// discusses all three; the paper's contribution is the last one).
enum class R4Strategy {
  /// The "trivial strategy ... used in SuperLU_DIST": the block owner
  /// P_ij receives all 2q operand messages itself and computes the units
  /// sequentially.  Per-level latency Θ(2^(h-l)) — Θ(√p) at level 1.
  kSequential,
  /// Units fan out to worker processors, but workers are *reused* across
  /// blocks (all subsets share grid row 1), so blocks serialize on their
  /// common workers.  The intermediate design point the paper's Lemma 5.1
  /// warns about.
  kSharedWorkers,
  /// The paper's one-to-one mapping (Lemmas 5.3-5.4, Cor. 5.5): every
  /// unit on its own processor; per-level latency O(log p).
  kOneToOne,
};

/// The region update of Alg. 1 a step belongs to.
enum class Region : std::uint8_t { kR1, kR2, kR3, kR4 };

enum class StepKind : std::uint8_t {
  kFw,         ///< ClassicalFW on the member's diagonal block (R¹)
  kBroadcast,  ///< group_broadcast of `block` from `root`
  kReduce,     ///< group_reduce of R⁴ unit contributions to `root`
  kSend,       ///< point-to-point message; group = {root, destination}
};

/// What a member does with the step's block.  A kept operand is keyed by
/// the level of its non-pivot supernode and lives until the region ends.
enum class BlockUse : std::uint8_t {
  kRelay,   ///< nothing (the root's own block; a forwarding member)
  kLeft,    ///< local ← local ⊕ block ⊗ local (R² row panel)
  kRight,   ///< local ← local ⊕ local ⊗ block (R² column panel)
  kKeepA,   ///< keep as an A(i,k) operand
  kKeepB,   ///< keep as an A(k,j) operand
  kApplyB,  ///< local ← local ⊕ A ⊗ block, A the kept operand of the
            ///< member's row (R³, sequential R⁴)
  kUnit,    ///< contribute its unit A ⊗ B to the reduction (R⁴ worker)
  kMirror,  ///< local ← blockᵀ (Alg. 1 line 25)
};

struct ScheduleStep {
  int level = 0;
  Region region = Region::kR1;
  StepKind kind = StepKind::kFw;
  BlockId block;  ///< block moved (kReduce: the target; kFw: the diagonal)
  RankId root = 0;
  Tag tag = -1;   ///< -1 for kFw
  std::vector<RankId> group;
  std::vector<BlockUse> uses;  ///< parallel to group
};

/// One entry of a rank's slice: a step it is a member of, and its use.
struct RankStep {
  std::uint32_t step = 0;
  BlockUse use = BlockUse::kRelay;
};

/// Algorithm 1's schedule for one layout, R⁴ strategy and collective
/// algorithm — never the distances — shared read-only by every rank.
/// Tags number the steps in order (a diagonal R⁴ block's mirror sends
/// nothing but still takes one); members are listed in the order the
/// paper's loops visit them, which fixes each collective's tree and so
/// (L,B).
class ApspSchedule {
 public:
  explicit ApspSchedule(
      const ApspLayout& layout,
      R4Strategy strategy = R4Strategy::kOneToOne,
      CollectiveAlgorithm collectives = CollectiveAlgorithm::kBinomialTree);

  const ApspLayout& layout() const { return layout_; }
  CollectiveAlgorithm collectives() const { return collectives_; }
  const std::vector<ScheduleStep>& steps() const { return steps_; }

  /// The steps `rank` takes part in, in schedule order.
  std::span<const RankStep> steps_of(RankId rank) const {
    return by_rank_.at(static_cast<std::size_t>(rank));
  }

 private:
  ApspLayout layout_;
  CollectiveAlgorithm collectives_;
  std::vector<ScheduleStep> steps_;
  std::vector<std::vector<RankStep>> by_rank_;
};

}  // namespace capsp
