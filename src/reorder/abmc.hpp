// Algebraic Block Multi-Color ordering (Iwashita et al.; paper §III-D).
//
// Pipeline: aggregate rows into blocks -> build the block quotient graph
// of the (symmetrized) matrix pattern straight from CSR -> greedily
// color it -> emit a permutation that lays blocks out color-by-color.
// After permutation, blocks of one color occupy contiguous row ranges
// and share no matrix edges, so they can be processed in parallel with
// one barrier per color — exactly the schedule parallel FBMPK needs
// (DESIGN.md §1).
#pragma once

#include <vector>

#include "reorder/blocking.hpp"
#include "reorder/coloring.hpp"
#include "reorder/permutation.hpp"

namespace fbmpk {

/// ABMC configuration. The paper's default block count is 512 or 1024.
struct AbmcOptions {
  index_t num_blocks = 512;
  BlockingStrategy blocking = BlockingStrategy::kContiguous;
  ColoringOrder coloring = ColoringOrder::kNatural;
};

/// The color schedule in the *permuted* index space.
struct AbmcOrdering {
  Permutation perm;  ///< new -> old row map (split_triangular(a, perm.order()))
  /// Row ranges of each block in the permuted matrix; blocks are sorted
  /// by color, so block b covers rows [block_ptr[b], block_ptr[b+1]).
  std::vector<index_t> block_ptr;
  /// Blocks of color c are [color_ptr[c], color_ptr[c+1]) in block_ptr.
  std::vector<index_t> color_ptr;
  index_t num_blocks = 0;
  index_t num_colors = 0;

  index_t color_of_block(index_t b) const {
    for (index_t c = 0; c < num_colors; ++c)
      if (b >= color_ptr[c] && b < color_ptr[c + 1]) return c;
    return -1;
  }
};

/// ABMC ordering from a matrix pattern and its row blocking: colors
/// the blocks' quotient graph (block_quotient) and lays them out color
/// by color.
AbmcOrdering abmc_order(const CsrPattern& pattern, const Blocking& blocking,
                        ColoringOrder coloring);

/// Compute the ABMC ordering for a square matrix's pattern. Only BFS
/// blocking walks the row-level graph; the quotient comes straight from
/// the CSR pattern either way.
template <class T>
AbmcOrdering abmc_order(const CsrMatrix<T>& a, const AbmcOptions& opts) {
  FBMPK_CHECK(a.rows() == a.cols() && a.rows() > 0);
  const Blocking blocking = build_blocking(
      opts.blocking == BlockingStrategy::kBfs ? adjacency_from_matrix(a)
                                              : AdjacencyGraph{},
      a.rows(), opts.num_blocks, opts.blocking);
  return abmc_order(pattern_of(a), blocking, opts.coloring);
}

/// Check the schedule invariant on the *permuted* matrix: no stored
/// entry connects two distinct blocks of the same color. Returns true
/// when the schedule is safe for parallel execution.
template <class T>
bool is_valid_schedule(const CsrMatrix<T>& permuted, const AbmcOrdering& o) {
  if (o.block_ptr.empty() || o.block_ptr.back() != permuted.rows())
    return false;
  // Map each permuted row to its (block, color).
  std::vector<index_t> block_of(static_cast<std::size_t>(permuted.rows()));
  std::vector<index_t> color_of(static_cast<std::size_t>(permuted.rows()));
  for (index_t c = 0; c < o.num_colors; ++c)
    for (index_t b = o.color_ptr[c]; b < o.color_ptr[c + 1]; ++b)
      for (index_t r = o.block_ptr[b]; r < o.block_ptr[b + 1]; ++r) {
        block_of[r] = b;
        color_of[r] = c;
      }
  const auto rp = permuted.row_ptr();
  const auto ci = permuted.col_idx();
  for (index_t i = 0; i < permuted.rows(); ++i)
    for (index_t k = rp[i]; k < rp[i + 1]; ++k) {
      const index_t j = ci[k];
      if (block_of[i] != block_of[j] && color_of[i] == color_of[j])
        return false;
    }
  return true;
}

}  // namespace fbmpk
