// Work-balanced partitioning of ABMC color blocks across threads.
//
// Each block is weighted by the nonzeros its rows touch in one forward
// + backward pass (L row range + U row range + diagonal). A color's
// blocks are one contiguous run in the permuted order; the partition
// cuts that run into `T` contiguous chunks by the prefix sum of the
// weights: block b goes to thread ⌊T·(prefix_b + w_b/2) / W_c⌋, where
// prefix_b is the weight of the color's blocks before b and W_c the
// color's total. Every (thread, color) slot is therefore one row range
// (the row loop keeps its locality), and every slot's load is at most
// W_c/T + max_b w_b. The ABMC front-end of the stage schedule uses it
// (reorder/stage_schedule.hpp); stage_imbalance scores the result.
#pragma once

#include <span>
#include <vector>

#include "reorder/abmc.hpp"

namespace fbmpk {

/// Per-block work weight: nnz(L rows) + nnz(U rows) + rows (diagonal).
/// `lower_rp` / `upper_rp` are the split triangles' row_ptr arrays in
/// the permuted index space (size n+1 each).
std::vector<index_t> block_nnz_weights(const AbmcOrdering& o,
                                       std::span<const index_t> lower_rp,
                                       std::span<const index_t> upper_rp);

/// Assignment of every color's blocks to `num_threads` threads. Slots
/// are color-major, so the slots tile the block order: slot (t, c) runs
/// blocks [block_ptr[slot(t, c)], block_ptr[slot(t, c) + 1]).
struct ColorPartition {
  index_t num_threads = 0;
  index_t num_colors = 0;
  std::vector<index_t> block_ptr;
  /// owner_of[b] = thread that executes block b.
  std::vector<index_t> owner_of;
  /// Work per slot in nnz weight, indexed by slot(t, c).
  std::vector<index_t> load;

  std::size_t slot(index_t t, index_t c) const {
    return static_cast<std::size_t>(c) * num_threads + t;
  }
};

/// Split each color's blocks into `num_threads` contiguous chunks
/// balanced by the given per-block weights (from block_nnz_weights).
/// num_threads >= 1.
ColorPartition partition_colors(const AbmcOrdering& o,
                                std::span<const index_t> weights,
                                index_t num_threads);

}  // namespace fbmpk
