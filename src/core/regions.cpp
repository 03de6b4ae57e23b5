#include "core/regions.hpp"

#include <algorithm>
#include <set>
#include <tuple>

namespace capsp {

std::vector<Snode> related_set(const EliminationTree& tree, Snode k) {
  std::vector<Snode> out = tree.descendants(k);
  const auto anc = tree.ancestors(k);
  out.insert(out.end(), anc.begin(), anc.end());
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<BlockId> region_r1(const EliminationTree& tree, int l) {
  std::vector<BlockId> out;
  for (Snode k : tree.level_set(l)) out.push_back({k, k});
  return out;
}

std::vector<BlockId> region_r2(const EliminationTree& tree, int l) {
  std::set<BlockId> out;
  for (Snode k : tree.level_set(l)) {
    for (Snode i : related_set(tree, k)) {
      out.insert({i, k});
      out.insert({k, i});
    }
  }
  return {out.begin(), out.end()};
}

std::vector<BlockId> region_r3(const EliminationTree& tree, int l) {
  std::set<BlockId> out;
  for (Snode k : tree.level_set(l)) {
    const auto related = related_set(tree, k);
    for (Snode i : related) {
      for (Snode j : related) {
        // Exclude the pure ancestor×ancestor pairs: those are R⁴.
        const bool i_desc = tree.is_descendant(i, k);
        const bool j_desc = tree.is_descendant(j, k);
        if (i_desc || j_desc) out.insert({i, j});
      }
    }
  }
  return {out.begin(), out.end()};
}

std::vector<BlockId> region_r4(const EliminationTree& tree, int l) {
  std::set<BlockId> out;
  for (Snode k : tree.level_set(l)) {
    const auto ancestors = tree.ancestors(k);
    for (Snode i : ancestors)
      for (Snode j : ancestors) out.insert({i, j});
  }
  return {out.begin(), out.end()};
}

Snode r3_pivot(const EliminationTree& tree, int l, Snode i, Snode j) {
  Snode found = 0;
  for (Snode k : tree.level_set(l)) {
    const bool i_rel = (i == k) || tree.related(i, k);
    const bool j_rel = (j == k) || tree.related(j, k);
    const bool i_desc = tree.is_descendant(i, k);
    const bool j_desc = tree.is_descendant(j, k);
    if (i_rel && j_rel && (i_desc || j_desc)) {
      CAPSP_CHECK_MSG(found == 0, "block (" << i << "," << j
                                            << ") has two R3 pivots at level "
                                            << l);
      found = k;
    }
  }
  CAPSP_CHECK_MSG(found != 0,
                  "block (" << i << "," << j << ") not in R3 of level " << l);
  return found;
}

Snode r4_worker_row(const EliminationTree& tree, int l, int a, int c) {
  const int h = tree.height();
  CAPSP_CHECK_MSG(l < a && a <= c && c <= h,
                  "r4 subset (l=" << l << ",a=" << a << ",c=" << c << ")");
  Snode f = static_cast<Snode>(a - l);
  for (int b = h + a - c; b <= h - 1; ++b) f += Snode{1} << b;
  CAPSP_CHECK_MSG(f >= 1 && f <= tree.num_supernodes(),
                  "f=" << f << " outside grid (Lemma 5.4 violated)");
  return f;
}

Snode r4_worker_col(const EliminationTree& tree, int l, Snode k) {
  CAPSP_CHECK(tree.level_of(k) == l);
  const Snode g = k - tree.level_begin(l) + 1;  // 1-based index within Q_l
  CAPSP_CHECK(g >= 1 && g <= tree.level_size(l));
  return g;
}

std::vector<ComputingUnit> r4_units(const EliminationTree& tree, int l) {
  const int h = tree.height();
  std::vector<ComputingUnit> units;
  for (Snode k : tree.level_set(l)) {
    const Snode g = r4_worker_col(tree, l, k);
    for (int a = l + 1; a <= h; ++a) {
      const Snode i = tree.ancestor_at_level(k, a);
      for (int c = a; c <= h; ++c) {
        const Snode j = tree.ancestor_at_level(k, c);
        units.push_back({i, j, k, r4_worker_row(tree, l, a, c), g});
      }
    }
  }
  std::sort(units.begin(), units.end(),
            [](const ComputingUnit& x, const ComputingUnit& y) {
              return std::tie(x.i, x.j, x.k) < std::tie(y.i, y.j, y.k);
            });
  return units;
}

std::int64_t r4_unit_count(const EliminationTree& tree, int l) {
  const int h = tree.height();
  std::int64_t count = 0;
  // Per subset R⁴(a,c): 2^(h-l) units (Lemma 5.3); subsets: pairs a <= c.
  for (int a = l + 1; a <= h; ++a)
    for (int c = a; c <= h; ++c) count += std::int64_t{1} << (h - l);
  return count;
}

namespace {

/// Appends Algorithm 1's steps in the order its loops visit them.
class Builder {
 public:
  Builder(const ApspLayout& layout, R4Strategy strategy,
          std::vector<ScheduleStep>& steps)
      : layout_(layout), strategy_(strategy), steps_(steps) {}

  void level(int l) {
    l_ = l;
    region_ = Region::kR1;
    for (Snode k : tree_.level_set(l)) {
      open(StepKind::kFw, {k, k});
      join(rank({k, k}), BlockUse::kRelay);
    }
    region_ = Region::kR2;
    for (Snode k : tree_.level_set(l)) r2(k);
    region_ = Region::kR3;
    for (Snode k : tree_.level_set(l)) r3(k);
    region_ = Region::kR4;
    if (strategy_ == R4Strategy::kSequential) {
      r4_sequential();
    } else {
      for (Snode k : tree_.level_set(l)) r4_operands(k);
      r4_reduces();
    }
  }

 private:
  RankId rank(BlockId b) const { return layout_.rank_of(b.i, b.j); }
  static BlockId flip(BlockId b, bool yes) {
    return yes ? BlockId{b.j, b.i} : b;
  }

  /// Starts a step; every kind but kFw takes the next tag.
  void open(StepKind kind, BlockId block) {
    ScheduleStep& s = steps_.emplace_back();
    s.level = l_;
    s.region = region_;
    s.kind = kind;
    s.block = block;
    s.root = rank(block);
    if (kind != StepKind::kFw) s.tag = tag_++;
  }

  /// Adds a member to the open step.  Worker groups may coincide with a
  /// panel owner or a reduce root on small grids: the rank keeps its first
  /// slot and takes the data use.
  void join(RankId member, BlockUse use) {
    ScheduleStep& s = steps_.back();
    const auto at = std::find(s.group.begin(), s.group.end(), member);
    if (at == s.group.end()) {
      s.group.push_back(member);
      s.uses.push_back(use);
    } else if (use != BlockUse::kRelay) {
      s.uses[static_cast<std::size_t>(at - s.group.begin())] = use;
    }
  }

  void send(BlockId block, RankId to, BlockUse use) {
    open(StepKind::kSend, block);
    join(rank(block), BlockUse::kRelay);
    join(to, use);
  }

  /// Alg. 1 line 25: the owner of an updated R⁴ block sends it to the
  /// transposed owner.  A diagonal block still consumes its tag.
  void mirror(BlockId b) {
    if (b.i == b.j) {
      ++tag_;
      return;
    }
    send(b, rank(flip(b, true)), BlockUse::kMirror);
  }

  /// Worker grid row of subset R⁴(a,c) under the strategy: the paper's
  /// injective map, or the shared row 1 Lemma 5.1 warns about.
  Snode worker_row(int a, int c) const {
    return strategy_ == R4Strategy::kOneToOne
               ? r4_worker_row(tree_, l_, a, c)
               : Snode{1};
  }

  /// R² (lines 5-8): P_kk broadcasts A(k,k) down column k, then along
  /// row k.
  void r2(Snode k) {
    for (const bool row : {false, true}) {
      open(StepKind::kBroadcast, {k, k});
      join(rank({k, k}), BlockUse::kRelay);
      for (Snode s : related_set(tree_, k))
        join(rank(flip({s, k}, row)),
             row ? BlockUse::kLeft : BlockUse::kRight);
    }
  }

  /// R³ (lines 9-11): P_ik broadcasts A(i,k) along row i, then P_kj
  /// broadcasts A(k,j) down column j; each R³ block keeps the first and
  /// applies the second.  An ancestor panel only reaches descendant
  /// lines (ancestor×ancestor blocks belong to R⁴).
  void r3(Snode k) {
    const auto related = related_set(tree_, k);
    for (const bool col : {false, true}) {
      for (Snode x : related) {
        open(StepKind::kBroadcast, flip({x, k}, col));
        join(steps_.back().root, BlockUse::kRelay);
        for (Snode y : related) {
          if (!tree_.is_descendant(x, k) && !tree_.is_descendant(y, k))
            continue;
          join(rank(flip({x, y}, col)),
               col ? BlockUse::kApplyB : BlockUse::kKeepA);
        }
      }
    }
  }

  /// R⁴, sequential strategy: the owner of each block receives every
  /// operand pair itself, then mirrors the block.
  void r4_sequential() {
    for (int a = l_ + 1; a <= tree_.height(); ++a) {
      for (Snode i : tree_.level_set(a)) {
        const auto [k_begin, k_end] = tree_.descendant_range_at_level(i, l_);
        for (int c = a; c <= tree_.height(); ++c) {
          const Snode j = tree_.ancestor_at_level(i, c);
          for (Snode k = k_begin; k < k_end; ++k) {
            send({i, k}, rank({i, j}), BlockUse::kKeepA);
            send({k, j}, rank({i, j}), BlockUse::kApplyB);
          }
          mirror({i, j});
        }
      }
    }
  }

  /// R⁴ operands (lines 13-18): the R² panels A(i,k), i = anc(k,a), and
  /// A(k,j), j = anc(k,c), reach the workers P_fg of every subset
  /// R⁴(a,c) they feed.
  void r4_operands(Snode k) {
    const int h = tree_.height();
    const Snode g = r4_worker_col(tree_, l_, k);
    for (const bool col : {false, true}) {
      for (int x = l_ + 1; x <= h; ++x) {
        open(StepKind::kBroadcast,
             flip({tree_.ancestor_at_level(k, x), k}, col));
        join(steps_.back().root, BlockUse::kRelay);
        // A(i,k) feeds (x, c) for c >= x; A(k,j) feeds (a, x) for a <= x.
        for (int y = col ? l_ + 1 : x; y <= (col ? x : h); ++y)
          join(layout_.rank_of(col ? worker_row(y, x) : worker_row(x, y), g),
               col ? BlockUse::kKeepB : BlockUse::kKeepA);
      }
    }
  }

  /// R⁴ units (lines 19-25): per block, the workers reduce their units
  /// to the owner, which then mirrors the block.
  void r4_reduces() {
    const int h = tree_.height();
    for (int a = l_ + 1; a <= h; ++a) {
      for (int c = a; c <= h; ++c) {
        const Snode f = worker_row(a, c);
        for (Snode i : tree_.level_set(a)) {
          const BlockId target{i, tree_.ancestor_at_level(i, c)};
          const auto [k_begin, k_end] =
              tree_.descendant_range_at_level(i, l_);
          open(StepKind::kReduce, target);
          for (Snode k = k_begin; k < k_end; ++k)
            join(layout_.rank_of(f, r4_worker_col(tree_, l_, k)),
                 BlockUse::kUnit);
          join(rank(target), BlockUse::kRelay);
          mirror(target);
        }
      }
    }
  }

  const ApspLayout& layout_;
  const EliminationTree& tree_ = layout_.tree();
  R4Strategy strategy_;
  std::vector<ScheduleStep>& steps_;
  Tag tag_ = 0;
  int l_ = 0;
  Region region_ = Region::kR1;
};

}  // namespace

ApspSchedule::ApspSchedule(const ApspLayout& layout, R4Strategy strategy,
                           CollectiveAlgorithm collectives)
    : layout_(layout),
      collectives_(collectives),
      by_rank_(static_cast<std::size_t>(layout.num_ranks())) {
  Builder builder(layout_, strategy, steps_);
  for (int l = 1; l <= layout_.tree().height(); ++l) builder.level(l);
  for (std::size_t s = 0; s < steps_.size(); ++s) {
    const ScheduleStep& step = steps_[s];
    for (std::size_t m = 0; m < step.group.size(); ++m)
      by_rank_[static_cast<std::size_t>(step.group[m])].push_back(
          {static_cast<std::uint32_t>(s), step.uses[m]});
  }
}

}  // namespace capsp
