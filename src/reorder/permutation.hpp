// Row/column permutations and their application to matrices and vectors.
//
// Convention: a Permutation stores `order`, where order[new_index] =
// old_index — i.e. it is the list of old indices in their new order.
// The inverse map (old -> new) is materialized on demand.
#pragma once

#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "sparse/csr.hpp"
#include "support/aligned_buffer.hpp"
#include "support/error.hpp"

namespace fbmpk {

class Permutation {
 public:
  Permutation() = default;

  /// Identity permutation on n elements.
  static Permutation identity(index_t n) {
    std::vector<index_t> v(static_cast<std::size_t>(n));
    std::iota(v.begin(), v.end(), 0);
    return Permutation(std::move(v));
  }

  /// Construct from an order vector; validates it is a permutation.
  explicit Permutation(std::vector<index_t> order) : order_(std::move(order)) {
    std::vector<char> seen(order_.size(), 0);
    for (index_t old : order_) {
      FBMPK_CHECK_MSG(old >= 0 && static_cast<std::size_t>(old) < order_.size(),
                      "order entry out of range: " << old);
      FBMPK_CHECK_MSG(!seen[old], "duplicate order entry: " << old);
      seen[old] = 1;
    }
  }

  index_t size() const { return static_cast<index_t>(order_.size()); }

  /// old index occupying new position i.
  index_t old_of(index_t i) const { return order_[i]; }

  std::span<const index_t> order() const { return order_; }

  /// Inverse map: inverse()[old_index] = new_index.
  std::vector<index_t> inverse() const {
    std::vector<index_t> inv(order_.size());
    for (std::size_t i = 0; i < order_.size(); ++i)
      inv[order_[i]] = static_cast<index_t>(i);
    return inv;
  }

  /// Composition: (this ∘ other) — apply `other` first, then this.
  Permutation compose(const Permutation& other) const {
    FBMPK_CHECK(size() == other.size());
    std::vector<index_t> v(order_.size());
    for (std::size_t i = 0; i < order_.size(); ++i)
      v[i] = other.order_[order_[i]];
    return Permutation(std::move(v));
  }

  bool is_identity() const {
    for (std::size_t i = 0; i < order_.size(); ++i)
      if (order_[i] != static_cast<index_t>(i)) return false;
    return true;
  }

  friend bool operator==(const Permutation&, const Permutation&) = default;

 private:
  std::vector<index_t> order_;
};

/// old_of(i) through an optional permutation (nullptr: the identity) —
/// the gather/scatter index of a sweep that runs in a plan's permuted
/// space.
inline index_t old_index(const Permutation* p, index_t i) {
  return p == nullptr ? i : p->old_of(i);
}

/// Symmetric permutation B = P A P^T: row/column new_i of B is
/// row/column order[new_i] of A.
template <class T>
CsrMatrix<T> permute_symmetric(const CsrMatrix<T>& a, const Permutation& p) {
  FBMPK_CHECK(a.rows() == a.cols());
  FBMPK_CHECK(p.size() == a.rows());
  const auto inv = p.inverse();
  const index_t n = a.rows();
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  const auto va = a.values();

  AlignedVector<index_t> b_ptr(static_cast<std::size_t>(n) + 1, 0);
  for (index_t i = 0; i < n; ++i)
    b_ptr[i + 1] = b_ptr[i] + a.row_nnz(p.old_of(i));

  AlignedVector<index_t> b_col(static_cast<std::size_t>(b_ptr[n]));
  AlignedVector<T> b_val(static_cast<std::size_t>(b_ptr[n]));
  std::vector<std::pair<index_t, T>> row;
  for (index_t i = 0; i < n; ++i) {
    const index_t old = p.old_of(i);
    row.clear();
    for (index_t k = rp[old]; k < rp[old + 1]; ++k)
      row.emplace_back(inv[ci[k]], va[k]);
    std::sort(row.begin(), row.end(),
              [](const auto& x, const auto& y) { return x.first < y.first; });
    index_t out = b_ptr[i];
    for (const auto& [c, v] : row) {
      b_col[out] = c;
      b_val[out] = v;
      ++out;
    }
  }
  return CsrMatrix<T>(n, n, std::move(b_ptr), std::move(b_col),
                      std::move(b_val));
}

/// Gather: out[new_i] = x[order[new_i]] — carries a vector from old to
/// new index space.
template <class T>
void permute_vector(const Permutation& p, std::span<const T> x,
                    std::span<T> out) {
  FBMPK_CHECK(x.size() == static_cast<std::size_t>(p.size()) &&
              out.size() == x.size());
  for (index_t i = 0; i < p.size(); ++i) out[i] = x[p.old_of(i)];
}

/// Scatter: out[order[new_i]] = x[new_i] — carries a vector from new back
/// to old index space (inverse of permute_vector).
template <class T>
void unpermute_vector(const Permutation& p, std::span<const T> x,
                      std::span<T> out) {
  FBMPK_CHECK(x.size() == static_cast<std::size_t>(p.size()) &&
              out.size() == x.size());
  for (index_t i = 0; i < p.size(); ++i) out[p.old_of(i)] = x[i];
}

}  // namespace fbmpk
