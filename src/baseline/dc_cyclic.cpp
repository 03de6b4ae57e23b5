#include "baseline/dc_cyclic.hpp"

#include <map>

#include "machine/collectives.hpp"
#include "semiring/graph_matrix.hpp"
#include "semiring/kernels.hpp"
#include "util/bits.hpp"

namespace capsp {
namespace {

/// Per-rank state of the cyclic computation: the layout and this rank's
/// blocks.
struct CyclicState {
  const CyclicLayout& layout;
  CyclicBlocks mine;
  std::int64_t ops = 0;
};

/// Broadcast panel t over the block range [lo, hi): column panels, the
/// stacked blocks A(b, t), go along each grid row; row panels, B(t, b),
/// go down each grid column.  Each group carries the range's blocks with
/// b ≡ its grid row (column) index (mod q); every member receives and
/// unpacks them.  Returns the unpacked blocks keyed by b.  One tag per
/// call.
std::map<int, DistBlock> bcast_panel(Comm& comm, CyclicState& s, int t,
                                     std::pair<int, int> range, bool column,
                                     Tag tag) {
  const CyclicLayout& layout = s.layout;
  const auto [gr, gc] = layout.grid_coords(comm.rank());
  const auto member = [&](int k) {
    return column ? layout.rank_at(gr, k) : layout.rank_at(k, gc);
  };
  const auto key = [&](int b) {
    return column ? std::pair<int, int>{b, t} : std::pair<int, int>{t, b};
  };

  std::vector<int> ids;
  for (int b = range.first; b < range.second; ++b)
    if (b % layout.q == (column ? gr : gc)) ids.push_back(b);
  // Every member of the group computes the same ids; skip the collective
  // entirely when this group holds no blocks of the range.
  if (ids.empty()) return {};

  std::int64_t words = 0;
  for (int b : ids) words += layout.block_size(b) * layout.block_size(t);
  DistBlock panel(words, 1);
  const RankId root = member(t % layout.q);
  if (comm.rank() == root) {
    std::int64_t cursor = 0;
    for (int b : ids) {
      const auto& block = s.mine.at(key(b));
      std::copy(block.data().begin(), block.data().end(),
                panel.data().begin() + cursor);
      cursor += block.size();
    }
  }
  std::vector<RankId> group;
  for (int k = 0; k < layout.q; ++k) group.push_back(member(k));
  group_broadcast(comm, group, root, panel, tag);

  std::map<int, DistBlock> out;
  std::int64_t cursor = 0;
  for (int b : ids) {
    const auto [bi, bj] = key(b);
    DistBlock block(layout.block_size(bi), layout.block_size(bj));
    std::copy(panel.data().begin() + cursor,
              panel.data().begin() + cursor + block.size(),
              block.data().begin());
    cursor += block.size();
    out.emplace(b, std::move(block));
  }
  return out;
}

/// C[rows × cols] op= A[rows × inner] ⊗ B[inner × cols], SUMMA over the
/// cyclic layout.  When `replace` is true, C is recomputed from scratch
/// (C ← A⊗B); otherwise accumulated (C ⊕= A⊗B).  Ranges are block-index
/// half-open intervals; all three operands live in s.mine.
void cyclic_multiply(Comm& comm, CyclicState& s, std::pair<int, int> rows,
                     std::pair<int, int> cols, std::pair<int, int> inner,
                     bool replace, Tag& tag) {
  const CyclicLayout& layout = s.layout;
  const int q = layout.q;
  const auto [gr, gc] = layout.grid_coords(comm.rank());

  // Fresh accumulation targets when replacing.
  CyclicBlocks fresh;
  if (replace) {
    for (int bi = rows.first; bi < rows.second; ++bi) {
      if (bi % q != gr) continue;
      for (int bj = cols.first; bj < cols.second; ++bj) {
        if (bj % q != gc) continue;
        fresh.emplace(std::pair<int, int>{bi, bj},
                      DistBlock(layout.block_size(bi), layout.block_size(bj)));
      }
    }
  }

  for (int t = inner.first; t < inner.second; ++t) {
    const auto a_by_bi = bcast_panel(comm, s, t, rows, true, tag++);
    const auto b_by_bj = bcast_panel(comm, s, t, cols, false, tag++);
    for (const auto& [bi, aik] : a_by_bi) {
      for (const auto& [bj, btj] : b_by_bj) {
        DistBlock& target =
            replace ? fresh.at({bi, bj}) : s.mine.at({bi, bj});
        s.ops += minplus_accumulate(target, aik, btj);
      }
    }
  }

  if (replace)
    for (auto& [key, block] : fresh) s.mine.at(key) = std::move(block);
}

/// Kleene recursion over the block range [lo, hi).
void dc_cyclic_recurse(Comm& comm, CyclicState& s, int lo, int hi,
                       Tag& tag) {
  if (hi - lo == 1) {
    const RankId owner = s.layout.owner(lo, lo);
    if (comm.rank() == owner) s.ops += classical_fw(s.mine.at({lo, lo}));
    return;
  }
  const int mid = lo + (hi - lo) / 2;
  const std::pair<int, int> top{lo, mid}, bottom{mid, hi};

  dc_cyclic_recurse(comm, s, lo, mid, tag);                  // A ← A*
  cyclic_multiply(comm, s, top, bottom, top, true, tag);     // B ← A⊗B
  cyclic_multiply(comm, s, bottom, top, top, true, tag);     // C ← C⊗A
  cyclic_multiply(comm, s, bottom, bottom, top, false, tag); // D ⊕= C⊗B
  dc_cyclic_recurse(comm, s, mid, hi, tag);                  // D ← D*
  cyclic_multiply(comm, s, top, bottom, bottom, true, tag);  // B ← B⊗D
  cyclic_multiply(comm, s, bottom, top, bottom, true, tag);  // C ← D⊗C
  cyclic_multiply(comm, s, top, top, bottom, false, tag);    // A ⊕= B⊗C
}

}  // namespace

DistributedApspResult run_dc_apsp_cyclic(const Graph& graph, int q,
                                         int blocks_per_dim) {
  const std::int64_t n = graph.num_vertices();
  CAPSP_CHECK(q >= 1);
  CAPSP_CHECK_MSG(is_power_of_two(static_cast<std::uint64_t>(blocks_per_dim)),
                  "blocks_per_dim=" << blocks_per_dim
                                    << " must be a power of two");
  CAPSP_CHECK_MSG(blocks_per_dim >= q &&
                      blocks_per_dim <= std::max<std::int64_t>(n, 1),
                  "blocks_per_dim=" << blocks_per_dim << " outside [" << q
                                    << "," << n << "]");
  const int p = q * q;
  const int nb = blocks_per_dim;
  Machine machine(p);
  const DistBlock full = to_distance_matrix(graph);

  const CyclicLayout layout(n, q, nb);
  DistributedApspResult result;
  result.ops_per_rank.assign(static_cast<std::size_t>(p), 0);

  machine.run([&](Comm& comm) {
    comm.set_phase("setup");
    CyclicState s{layout, cyclic_blocks_of(layout, full, comm.rank())};

    comm.reset_clock();
    comm.set_phase("apsp");
    Tag tag = 0;
    dc_cyclic_recurse(comm, s, 0, nb, tag);
    result.ops_per_rank[static_cast<std::size_t>(comm.rank())] = s.ops;
    comm.stop_clock();

    comm.set_phase("collect");
    DistBlock collected = collect_cyclic(comm, layout, s.mine, tag);
    if (comm.rank() == 0) result.distances = std::move(collected);
  });

  result.costs = machine.report();
  return result;
}

}  // namespace capsp
