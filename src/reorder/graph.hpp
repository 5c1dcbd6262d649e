// Undirected adjacency graphs derived from sparse-matrix patterns.
//
// RCM, blocking and coloring all operate on the symmetrized structure of
// the matrix (an edge {i, j} exists when A(i,j) or A(j,i) is stored,
// i != j). This header provides that graph, which RCM and BFS blocking
// walk, and the block quotient graph ABMC colors and the stage schedule
// reads, built straight from CSR patterns.
#pragma once

#include <span>
#include <vector>

#include "sparse/csr.hpp"
#include "support/error.hpp"

namespace fbmpk {

/// CSR-style undirected adjacency list. No self loops; neighbor lists
/// are sorted and duplicate-free.
struct AdjacencyGraph {
  index_t n = 0;
  std::vector<index_t> ptr;  ///< size n+1
  std::vector<index_t> adj;  ///< concatenated neighbor lists

  index_t degree(index_t v) const { return ptr[v + 1] - ptr[v]; }

  void validate() const {
    FBMPK_CHECK(ptr.size() == static_cast<std::size_t>(n) + 1);
    FBMPK_CHECK(ptr.front() == 0);
    FBMPK_CHECK(ptr.back() == static_cast<index_t>(adj.size()));
    for (index_t v = 0; v < n; ++v)
      for (index_t k = ptr[v]; k < ptr[v + 1]; ++k) {
        FBMPK_CHECK(adj[k] >= 0 && adj[k] < n && adj[k] != v);
        if (k > ptr[v]) FBMPK_CHECK(adj[k - 1] < adj[k]);
      }
  }
};

/// Build the symmetrized adjacency graph of a square matrix's pattern.
template <class T>
AdjacencyGraph adjacency_from_matrix(const CsrMatrix<T>& a) {
  FBMPK_CHECK(a.rows() == a.cols());
  const index_t n = a.rows();
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();

  // Count each undirected edge's contribution to both endpoints. An edge
  // stored in both directions would be counted twice, so dedupe with a
  // per-row merge after bucketing.
  std::vector<std::vector<index_t>> nbrs(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i)
    for (index_t k = rp[i]; k < rp[i + 1]; ++k) {
      const index_t j = ci[k];
      if (j == i) continue;
      nbrs[i].push_back(j);
      nbrs[j].push_back(i);
    }

  AdjacencyGraph g;
  g.n = n;
  g.ptr.assign(static_cast<std::size_t>(n) + 1, 0);
  std::size_t total = 0;
  for (index_t v = 0; v < n; ++v) {
    auto& list = nbrs[v];
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
    total += list.size();
  }
  g.adj.reserve(total);
  for (index_t v = 0; v < n; ++v) {
    g.adj.insert(g.adj.end(), nbrs[v].begin(), nbrs[v].end());
    g.ptr[v + 1] = static_cast<index_t>(g.adj.size());
  }
  return g;
}

/// Row pointers and column indices of a square CSR matrix — all the
/// structure routines below read (values are never touched).
struct CsrPattern {
  std::span<const index_t> row_ptr;
  std::span<const index_t> col_idx;
};

template <class T>
CsrPattern pattern_of(const CsrMatrix<T>& a) {
  return {a.row_ptr(), a.col_idx()};
}

/// Block quotient graph of the symmetrized union of CSR patterns:
/// vertices are blocks, and blocks P != Q are adjacent iff some stored
/// entry (i, j) of any pattern has one end in P and the other in Q —
/// the quotient of adjacency_from_matrix's row graph, without building
/// it. Block b holds the rows row_order[block_ptr[b] .. block_ptr[b+1])
/// (an empty row_order means the rows block_ptr[b] .. block_ptr[b+1]
/// themselves); row_order must be a permutation of the rows.
///
/// One parallel pass over blocks collects each block's distinct foreign
/// blocks with a per-thread stamp array; every crossing pair is then
/// emitted in both directions, and a per-block sort + unique yields
/// sorted lists. The result does not depend on the team size.
AdjacencyGraph block_quotient(std::span<const CsrPattern> patterns,
                              std::span<const index_t> block_ptr,
                              std::span<const index_t> row_order = {});

}  // namespace fbmpk
