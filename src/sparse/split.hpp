// Triangular split A = L + D + U (paper §III-A).
//
// L holds the strictly-lower triangle, U the strictly-upper triangle
// (both CSR), and the diagonal D is stored as a dense vector to cut
// storage and kernel overhead. Positions without a stored diagonal entry
// get an explicit zero in d — the FBMPK kernels then never branch on
// diagonal presence.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "sparse/csr.hpp"
#include "support/aligned_buffer.hpp"
#include "support/threading.hpp"

namespace fbmpk {

/// Result of splitting a square matrix into strict triangles + diagonal.
template <class T>
struct TriangularSplit {
  CsrMatrix<T> lower;     ///< strictly lower triangle L
  CsrMatrix<T> upper;     ///< strictly upper triangle U
  AlignedVector<T> diag;  ///< dense diagonal d (zeros where unstored)

  /// Bytes used by the L + U + d representation (Table IV row 2).
  std::size_t storage_bytes() const {
    return lower.storage_bytes() + upper.storage_bytes() +
           diag.size() * sizeof(T);
  }
};

/// Split a square CSR matrix into (L, U, d), optionally in a permuted
/// index space: with `order` (order[new] = old, a permutation of
/// [0, n)) the result is the split of P A P^T — row/column `new` of it
/// is row/column order[new] of A — without building P A P^T. Four
/// steps, all but the prefix sum on the OpenMP team: invert the
/// permutation, count each new row's L and U entries, prefix-sum the
/// counts, fill each new row's L and U sorted by new column. The result
/// does not depend on the team size.
template <class T>
TriangularSplit<T> split_triangular(const CsrMatrix<T>& a,
                                    std::span<const index_t> order = {}) {
  FBMPK_CHECK_MSG(a.rows() == a.cols(), "triangular split needs square A");
  const index_t n = a.rows();
  const bool permuted = !order.empty();
  FBMPK_CHECK_MSG(!permuted || order.size() == static_cast<std::size_t>(n),
                  "split permutation has " << order.size() << " entries, A "
                                           << n << " rows");
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  const auto va = a.values();
  const auto old_row = [&](index_t i) { return permuted ? order[i] : i; };
  const int team = team_for_work(a.nnz());

  // Step 1: inverse permutation (old -> new).
  std::vector<index_t> inv(permuted ? static_cast<std::size_t>(n) : 0);
  std::atomic<bool> out_of_range{false};
  if (permuted)
    parallel_for_n(team, n, [&](index_t i) {
      if (order[i] < 0 || order[i] >= n)
        out_of_range.store(true, std::memory_order_relaxed);
      else
        inv[order[i]] = i;
    });
  FBMPK_CHECK_MSG(!out_of_range.load(), "split permutation entry out of range");
  const auto new_col = [&](index_t k) { return permuted ? inv[ci[k]] : ci[k]; };

  // Step 2: count each new row's strict-lower / strict-upper entries.
  AlignedVector<index_t> l_ptr(static_cast<std::size_t>(n) + 1, 0);
  AlignedVector<index_t> u_ptr(static_cast<std::size_t>(n) + 1, 0);
  parallel_for_n(team, n, [&](index_t i) {
    const index_t r = old_row(i);
    index_t lo = 0, up = 0;
    for (index_t k = rp[r]; k < rp[r + 1]; ++k) {
      const index_t j = new_col(k);
      lo += j < i ? 1 : 0;
      up += j > i ? 1 : 0;
    }
    l_ptr[i + 1] = lo;
    u_ptr[i + 1] = up;
  });

  // Step 3: prefix sums, and the longest row for step 4's scratch.
  index_t longest = 0;
  for (index_t i = 0; i < n; ++i) {
    longest = std::max(longest, rp[i + 1] - rp[i]);
    l_ptr[i + 1] += l_ptr[i];
    u_ptr[i + 1] += u_ptr[i];
  }

  AlignedVector<index_t> l_col(static_cast<std::size_t>(l_ptr[n]));
  AlignedVector<T> l_val(static_cast<std::size_t>(l_ptr[n]));
  AlignedVector<index_t> u_col(static_cast<std::size_t>(u_ptr[n]));
  AlignedVector<T> u_val(static_cast<std::size_t>(u_ptr[n]));
  AlignedVector<T> diag(static_cast<std::size_t>(n), T{});

  // Step 4: fill. A permuted row's (new column, source entry) pairs are
  // sorted in per-thread scratch allocated before the region; in
  // natural order the source columns are sorted already.
  if (!permuted) longest = 0;
  using Entry = std::pair<index_t, index_t>;
  std::vector<Entry> scratch(static_cast<std::size_t>(team) *
                             static_cast<std::size_t>(longest));
  parallel_region_n(team, [&](int t, int size) {
    Entry* row = scratch.data() + static_cast<std::size_t>(t) *
                                      static_cast<std::size_t>(longest);
    const ThreadRange rows = static_chunk(n, t, size);
    for (auto i = static_cast<index_t>(rows.begin); i < rows.end; ++i) {
      const index_t r = old_row(i);
      index_t lk = l_ptr[i];
      index_t uk = u_ptr[i];
      const auto place = [&](index_t j, index_t k) {
        if (j < i) {
          l_col[lk] = j;
          l_val[lk] = va[k];
          ++lk;
        } else if (j > i) {
          u_col[uk] = j;
          u_val[uk] = va[k];
          ++uk;
        } else {
          diag[i] = va[k];
        }
      };
      if (!permuted) {
        for (index_t k = rp[r]; k < rp[r + 1]; ++k) place(ci[k], k);
        continue;
      }
      const index_t len = rp[r + 1] - rp[r];
      for (index_t e = 0; e < len; ++e)
        row[e] = {inv[ci[rp[r] + e]], rp[r] + e};
      std::sort(row, row + len, [](const Entry& x, const Entry& y) {
        return x.first < y.first;
      });
      for (index_t e = 0; e < len; ++e) place(row[e].first, row[e].second);
    }
  });

  TriangularSplit<T> out;
  out.lower = CsrMatrix<T>(n, n, std::move(l_ptr), std::move(l_col),
                           std::move(l_val));
  out.upper = CsrMatrix<T>(n, n, std::move(u_ptr), std::move(u_col),
                           std::move(u_val));
  out.diag = std::move(diag);
  return out;
}

/// Reassemble A from a split — inverse of split_triangular up to dropped
/// explicit diagonal zeros (test utility).
template <class T>
CsrMatrix<T> merge_triangular(const TriangularSplit<T>& s) {
  const index_t n = s.lower.rows();
  FBMPK_CHECK(s.upper.rows() == n &&
              s.diag.size() == static_cast<std::size_t>(n));
  CooMatrix<T> coo(n, n);
  coo.reserve(static_cast<std::size_t>(s.lower.nnz()) + s.upper.nnz() + n);
  for (index_t i = 0; i < n; ++i) {
    for (index_t k = s.lower.row_ptr()[i]; k < s.lower.row_ptr()[i + 1]; ++k)
      coo.add(i, s.lower.col_idx()[k], s.lower.values()[k]);
    if (s.diag[i] != T{}) coo.add(i, i, s.diag[i]);
    for (index_t k = s.upper.row_ptr()[i]; k < s.upper.row_ptr()[i + 1]; ++k)
      coo.add(i, s.upper.col_idx()[k], s.upper.values()[k]);
  }
  return CsrMatrix<T>::from_sorted_coo(coo);
}

}  // namespace fbmpk
