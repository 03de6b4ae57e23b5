// Distributed dense matrices on processor grids — the substrate for the
// dense baselines (2D-DC-APSP and the 2D Floyd–Warshall variants).
//
// A GridLayout describes how a (possibly rectangular) matrix is split in
// block layout across a rectangular subgrid of ranks: explicit row/column
// offset vectors plus the rank list, so subgrids, uneven splits, and
// windowed views compose uniformly.  The free functions are SPMD: every
// rank of the machine may call them; ranks that own no part of the source
// or destination do nothing.  CyclicLayout is the block-cyclic counterpart
// the cyclic baselines (fw2d.cpp, dc_cyclic.cpp) share.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "machine/collectives.hpp"
#include "machine/machine.hpp"
#include "semiring/block.hpp"

namespace capsp {

/// Global index rectangle [row_begin,row_end) × [col_begin,col_end).
struct IndexRect {
  std::int64_t row_begin = 0, row_end = 0;
  std::int64_t col_begin = 0, col_end = 0;

  std::int64_t rows() const { return row_end - row_begin; }
  std::int64_t cols() const { return col_end - col_begin; }
  bool empty() const { return rows() <= 0 || cols() <= 0; }

  IndexRect intersect(const IndexRect& o) const {
    return {std::max(row_begin, o.row_begin), std::min(row_end, o.row_end),
            std::max(col_begin, o.col_begin), std::min(col_end, o.col_end)};
  }
};

/// Block layout of a matrix window on a grid of ranks.
class GridLayout {
 public:
  GridLayout() = default;

  /// General constructor: `ranks` is row-major grid_rows×grid_cols;
  /// row_offsets/col_offsets are *global* matrix coordinates (the window
  /// spans [row_offsets.front(), row_offsets.back()) × ...).
  GridLayout(std::vector<RankId> ranks, int grid_rows, int grid_cols,
             std::vector<std::int64_t> row_offsets,
             std::vector<std::int64_t> col_offsets);

  /// Even split of an n×n window starting at global (0,0) over a q×q grid.
  static GridLayout square(std::vector<RankId> ranks, int q, std::int64_t n);

  /// Even split of the window `rect` over a grid_rows×grid_cols grid.
  static GridLayout windowed(std::vector<RankId> ranks, int grid_rows,
                             int grid_cols, const IndexRect& rect);

  int grid_rows() const { return grid_rows_; }
  int grid_cols() const { return grid_cols_; }
  std::int64_t rows() const { return row_offsets_.back() - row_offsets_.front(); }
  std::int64_t cols() const { return col_offsets_.back() - col_offsets_.front(); }

  const std::vector<RankId>& ranks() const { return ranks_; }
  const std::vector<std::int64_t>& row_offsets() const { return row_offsets_; }
  const std::vector<std::int64_t>& col_offsets() const { return col_offsets_; }

  IndexRect window() const {
    return {row_offsets_.front(), row_offsets_.back(), col_offsets_.front(),
            col_offsets_.back()};
  }

  RankId rank_at(int gr, int gc) const {
    CAPSP_CHECK(gr >= 0 && gr < grid_rows_ && gc >= 0 && gc < grid_cols_);
    return ranks_[static_cast<std::size_t>(gr * grid_cols_ + gc)];
  }

  /// Grid coordinates of `rank`, or (-1,-1) if it is not in this layout.
  std::pair<int, int> coords_of(RankId rank) const;

  bool contains(RankId rank) const { return coords_of(rank).first >= 0; }

  /// Global rectangle of the block at grid position (gr, gc).
  IndexRect block_rect(int gr, int gc) const {
    return {row_offsets_[static_cast<std::size_t>(gr)],
            row_offsets_[static_cast<std::size_t>(gr) + 1],
            col_offsets_[static_cast<std::size_t>(gc)],
            col_offsets_[static_cast<std::size_t>(gc) + 1]};
  }

  /// All-infinite local block shaped for `rank` (empty if not a member).
  DistBlock make_local(RankId rank) const;

  /// Subgrid layout over grid rows [gr0, gr1) × cols [gc0, gc1), keeping
  /// the corresponding window.
  GridLayout subgrid(int gr0, int gr1, int gc0, int gc1) const;

 private:
  std::vector<RankId> ranks_;
  int grid_rows_ = 0, grid_cols_ = 0;
  std::vector<std::int64_t> row_offsets_, col_offsets_;
};

/// Block-cyclic layout of an n×n matrix on a q×q grid: nb×nb blocks,
/// block (bi, bj) on rank (bi mod q, bj mod q).
struct CyclicLayout {
  CyclicLayout(std::int64_t n, int grid_side, int blocks);

  int q;                              ///< grid side
  int nb;                             ///< blocks per dimension
  std::vector<std::int64_t> offsets;  ///< nb+1 global boundaries

  std::int64_t offset(int b) const {
    return offsets[static_cast<std::size_t>(b)];
  }
  std::int64_t block_size(int b) const { return offset(b + 1) - offset(b); }
  RankId owner(int bi, int bj) const { return (bi % q) * q + (bj % q); }
  std::pair<int, int> grid_coords(RankId r) const { return {r / q, r % q}; }
  RankId rank_at(int gr, int gc) const { return gr * q + gc; }
};

/// One rank's blocks of a CyclicLayout, keyed by global block coordinates.
using CyclicBlocks = std::map<std::pair<int, int>, DistBlock>;

/// `rank`'s blocks of the full matrix (read directly, no messages).
CyclicBlocks cyclic_blocks_of(const CyclicLayout& layout,
                              const DistBlock& full, RankId rank);

/// Collect every rank's blocks into the full matrix on rank 0 by direct
/// sends, block (bi, bj) under tag + bi·nb + bj.  Every rank must call;
/// returns the matrix on rank 0 and an empty block elsewhere.
DistBlock collect_cyclic(Comm& comm, const CyclicLayout& layout,
                         const CyclicBlocks& mine, Tag tag);

/// Move a distributed window between layouts.  The layouts' windows must
/// coincide.  Every rank in either layout must call; returns the local
/// destination block (members of dst) or an empty block.  Consumes
/// src_grid_size × dst_grid_size tags starting at `tag`.
DistBlock redistribute(Comm& comm, const GridLayout& src,
                       const DistBlock& src_local, const GridLayout& dst,
                       Tag tag);

/// Number of tags redistribute() consumes for these layouts.
Tag redistribute_tag_span(const GridLayout& src, const GridLayout& dst);

/// SUMMA min-plus multiply-accumulate: C ⊕= A ⊗ B, all three distributed
/// on the *same* square subgrid (identical rank lists).  A's column split
/// must equal B's row split; C's splits must equal A's rows × B's cols.
/// Consumes 2 * grid_size tags starting at `tag`.  Returns the scalar ⊗
/// operations this rank performed.
std::int64_t summa_minplus(Comm& comm, const GridLayout& a_layout,
                           const DistBlock& a_local,
                           const GridLayout& b_layout,
                           const DistBlock& b_local,
                           const GridLayout& c_layout, DistBlock& c_local,
                           Tag tag);

Tag summa_tag_span(const GridLayout& layout);

/// Gather the distributed window into a full matrix on `root` (returned
/// empty elsewhere).  For verification/result collection.
DistBlock gather_matrix(Comm& comm, const GridLayout& layout,
                        const DistBlock& local, RankId root, Tag tag);

/// Scatter a full window from `root` to the layout; returns the local
/// block on every member.
DistBlock scatter_matrix(Comm& comm, const GridLayout& layout,
                         const DistBlock& full, RankId root, Tag tag);

}  // namespace capsp
