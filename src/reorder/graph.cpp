#include "reorder/graph.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>

#include "support/threading.hpp"

namespace fbmpk {

AdjacencyGraph block_quotient(std::span<const CsrPattern> patterns,
                              std::span<const index_t> block_ptr,
                              std::span<const index_t> row_order) {
  FBMPK_CHECK(!block_ptr.empty() && block_ptr.front() == 0);
  const index_t n = block_ptr.back();
  const auto nb = static_cast<index_t>(block_ptr.size()) - 1;
  FBMPK_CHECK(row_order.empty() ||
              row_order.size() == static_cast<std::size_t>(n));
  for (const CsrPattern& p : patterns)
    FBMPK_CHECK(p.row_ptr.size() == static_cast<std::size_t>(n) + 1);
  for (index_t b = 0; b < nb; ++b) FBMPK_CHECK(block_ptr[b] <= block_ptr[b + 1]);
  const auto row = [&](index_t k) {
    return row_order.empty() ? k : row_order[k];
  };
  long long work = 0;
  for (const CsrPattern& p : patterns)
    work += static_cast<long long>(p.col_idx.size());
  const int team = team_for_work(work);

  // Forward lists: each block's distinct foreign blocks, in discovery
  // order. A block has at most nb - 1 of them and at most one per
  // stored entry of its rows, which bounds its slice of `out`. The
  // same pass inverts the row -> block map.
  std::vector<index_t> block_of(static_cast<std::size_t>(n));
  std::vector<index_t> out_ptr(static_cast<std::size_t>(nb) + 1, 0);
  parallel_for_n(team, nb, [&](index_t b) {
    std::int64_t entries = 0;
    for (index_t k = block_ptr[b]; k < block_ptr[b + 1]; ++k) {
      block_of[row(k)] = b;
      for (const CsrPattern& p : patterns)
        entries += p.row_ptr[row(k) + 1] - p.row_ptr[row(k)];
    }
    out_ptr[b + 1] =
        static_cast<index_t>(std::min<std::int64_t>(entries, nb - 1));
  });
  for (index_t b = 0; b < nb; ++b) out_ptr[b + 1] += out_ptr[b];
  std::vector<index_t> out(static_cast<std::size_t>(out_ptr[nb]));
  std::vector<index_t> out_len(static_cast<std::size_t>(nb), 0);

  // Blocks vary in size (hub rows), so threads claim them in small
  // chunks. Every scratch array is allocated before the region.
  constexpr index_t kChunk = 4;
  std::vector<index_t> stamp(
      static_cast<std::size_t>(team) * static_cast<std::size_t>(nb), -1);
  std::atomic<index_t> next{0};
  parallel_region_n(team, [&](int t, int) {
    index_t* seen = stamp.data() + static_cast<std::size_t>(t) * nb;
    for (index_t lo = next.fetch_add(kChunk, std::memory_order_relaxed);
         lo < nb; lo = next.fetch_add(kChunk, std::memory_order_relaxed))
      for (index_t b = lo; b < std::min(lo + kChunk, nb); ++b) {
        index_t* dst = out.data() + out_ptr[b];
        index_t len = 0;
        for (index_t k = block_ptr[b]; k < block_ptr[b + 1]; ++k) {
          const index_t i = row(k);
          for (const CsrPattern& p : patterns)
            for (index_t e = p.row_ptr[i]; e < p.row_ptr[i + 1]; ++e) {
              const index_t q = block_of[p.col_idx[e]];
              if (q != b && seen[q] != b) {
                seen[q] = b;
                dst[len++] = q;
              }
            }
        }
        out_len[b] = len;
      }
  });

  // Symmetrize: block b's list is its forward list plus every block
  // whose forward list names b. The transposed half is O(quotient
  // edges) and filled serially in block order.
  std::vector<index_t> ptr(static_cast<std::size_t>(nb) + 1, 0);
  for (index_t b = 0; b < nb; ++b) {
    ptr[b + 1] += out_len[b];
    for (index_t e = out_ptr[b]; e < out_ptr[b] + out_len[b]; ++e)
      ++ptr[out[e] + 1];
  }
  for (index_t b = 0; b < nb; ++b) ptr[b + 1] += ptr[b];
  std::vector<index_t> adj(static_cast<std::size_t>(ptr[nb]));
  std::vector<index_t> fill(ptr.begin(), ptr.end() - 1);
  for (index_t b = 0; b < nb; ++b) fill[b] += out_len[b];
  for (index_t b = 0; b < nb; ++b)
    for (index_t e = out_ptr[b]; e < out_ptr[b] + out_len[b]; ++e)
      adj[fill[out[e]]++] = b;

  // Own half, then sort + unique each list in place.
  std::vector<index_t> len(static_cast<std::size_t>(nb));
  parallel_for_n(team, nb, [&](index_t b) {
    std::copy_n(out.data() + out_ptr[b], out_len[b], adj.data() + ptr[b]);
    index_t* first = adj.data() + ptr[b];
    index_t* last = adj.data() + ptr[b + 1];
    std::sort(first, last);
    len[b] = static_cast<index_t>(std::unique(first, last) - first);
  });

  AdjacencyGraph q;
  q.n = nb;
  q.ptr.assign(static_cast<std::size_t>(nb) + 1, 0);
  for (index_t b = 0; b < nb; ++b) q.ptr[b + 1] = q.ptr[b] + len[b];
  q.adj.resize(static_cast<std::size_t>(q.ptr[nb]));
  parallel_for_n(team, nb, [&](index_t b) {
    std::copy_n(adj.data() + ptr[b], len[b], q.adj.data() + q.ptr[b]);
  });
  return q;
}

}  // namespace fbmpk
