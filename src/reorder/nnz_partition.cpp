#include "reorder/nnz_partition.hpp"

#include <algorithm>

namespace fbmpk {

std::vector<index_t> block_nnz_weights(const AbmcOrdering& o,
                                       std::span<const index_t> lower_rp,
                                       std::span<const index_t> upper_rp) {
  FBMPK_CHECK(!o.block_ptr.empty());
  const index_t n = o.block_ptr.back();
  FBMPK_CHECK(lower_rp.size() == static_cast<std::size_t>(n) + 1 &&
              upper_rp.size() == static_cast<std::size_t>(n) + 1);
  std::vector<index_t> w(static_cast<std::size_t>(o.num_blocks), 0);
  for (index_t b = 0; b < o.num_blocks; ++b) {
    const index_t lo = o.block_ptr[b];
    const index_t hi = o.block_ptr[b + 1];
    // Row ranges are contiguous, so the block's L/U nnz are pointer
    // differences; the +rows term charges the diagonal FMA per row.
    w[b] = (lower_rp[hi] - lower_rp[lo]) + (upper_rp[hi] - upper_rp[lo]) +
           (hi - lo);
  }
  return w;
}

ColorPartition partition_colors(const AbmcOrdering& o,
                                std::span<const index_t> weights,
                                index_t num_threads) {
  FBMPK_CHECK(num_threads >= 1);
  FBMPK_CHECK(weights.size() == static_cast<std::size_t>(o.num_blocks));
  const index_t C = o.num_colors;
  const index_t T = num_threads;

  ColorPartition p;
  p.num_threads = T;
  p.num_colors = C;
  p.block_ptr.assign(static_cast<std::size_t>(T) * C + 1, 0);
  p.owner_of.assign(static_cast<std::size_t>(o.num_blocks), 0);
  p.load.assign(static_cast<std::size_t>(T) * C, 0);

  for (index_t c = 0; c < C; ++c) {
    const index_t first = o.color_ptr[c];
    const index_t last = o.color_ptr[c + 1];
    long long total = 0;
    for (index_t b = first; b < last; ++b) total += weights[b];
    // Block b goes to thread ⌊T·(prefix + w/2) / W⌋ = ⌊T·(2·prefix + w)
    // / 2W⌋. The midpoints ascend with b, so the owners do too: each
    // thread gets one contiguous chunk. A weightless color stays on
    // thread 0.
    long long prefix = 0;
    for (index_t b = first; b < last; ++b) {
      const long long w = weights[b];
      const index_t t =
          total == 0 ? 0
                     : static_cast<index_t>(std::min<long long>(
                           T - 1, T * (2 * prefix + w) / (2 * total)));
      prefix += w;
      p.owner_of[b] = t;
      p.load[p.slot(t, c)] += weights[b];
    }
    // Chunk boundaries: slot (t, c) starts at its first block owned by
    // a thread >= t.
    index_t b = first;
    for (index_t t = 0; t < T; ++t) {
      p.block_ptr[p.slot(t, c)] = b;
      while (b < last && p.owner_of[b] == t) ++b;
    }
  }
  p.block_ptr.back() = o.num_blocks;
  return p;
}

}  // namespace fbmpk
