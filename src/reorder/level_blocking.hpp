// Level blocking: cache-aware aggregation of dependency levels into
// point-to-point-schedulable stages (the RACE idea, arXiv:2205.01598,
// applied to the BtB sweep pair).
//
// One team barrier per dependency level would cost thousands of
// barriers per sweep on matrices with long dependency chains. Level
// blocking recovers ABMC's stage structure without recoloring or
// permuting the matrix:
//
//  - consecutive levels are aggregated into STAGES sized to a cache
//    budget (reorder/level_schedule.hpp, aggregate_levels), so the
//    iterate slices a stage touches stay resident across its levels;
//  - within a multi-level stage, rows are grouped by connected
//    component of the triangle subgraph induced by the stage's rows:
//    rows of different components share no edges, so components are
//    independent units a greedy LPT pass balances across threads
//    (components are not contiguous, so unlike ABMC's color blocks,
//    reorder/nnz_partition.hpp, they cannot be cut by prefix sum). Every
//    intra-stage edge is therefore *intra-thread*, and each thread
//    runs its rows in level order so producers precede consumers —
//    the blocking invariant validate_stage_schedule enforces;
//  - cross-stage edges become point-to-point dependencies
//    (derive_stage_deps, reorder/stage_schedule.hpp). Forward and
//    backward sweeps own rows independently (their level structures
//    differ), so the transitive argument that lets ABMC cover the
//    previous pair with within-pair waits does not apply: every thread
//    lists every other thread as a pair-boundary and head/tail dep.
//
// The result is a StageSchedule, run by the same engine and barrier
// rung as the ABMC front-end's (kernels/fbmpk_parallel.hpp). Rows of
// one dependency level are independent, so each slot stores its rows as
// maximal runs: ascending within a level for the forward sweep,
// descending for the backward sweep.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "reorder/level_schedule.hpp"
#include "reorder/stage_schedule.hpp"
#include "sparse/split.hpp"

namespace fbmpk {

/// The level front-end's schedule is the shared stage schedule.
using LevelSweepSchedule = StageSchedule;

struct LevelBlockingOptions {
  /// Per-stage working-set budget in bytes (iterate slices + triangle
  /// data touched by the stage's rows). Levels are merged until the
  /// budget fills.
  std::size_t stage_bytes = 512 * 1024;
  /// A merged range is accepted when its heaviest connected component
  /// weighs at most `balance_slack * total / num_threads`; rejected
  /// ranges are recursively bisected.
  double balance_slack = 1.5;
};

/// Level front-end: the stage schedule for `num_threads` threads from
/// the level schedules and the split triangle patterns (original matrix
/// order — level scheduling never permutes).
StageSchedule build_level_sweep_schedule(
    const LevelSchedulePair& levels, std::span<const index_t> lower_rp,
    std::span<const index_t> lower_ci, std::span<const index_t> upper_rp,
    std::span<const index_t> upper_ci, index_t num_threads,
    const LevelBlockingOptions& opts = {});

/// Convenience overload on a TriangularSplit.
template <class T>
StageSchedule build_level_sweep_schedule(const LevelSchedulePair& levels,
                                         const TriangularSplit<T>& s,
                                         index_t num_threads,
                                         const LevelBlockingOptions& opts = {}) {
  return build_level_sweep_schedule(levels, s.lower.row_ptr(),
                                    s.lower.col_idx(), s.upper.row_ptr(),
                                    s.upper.col_idx(), num_threads, opts);
}

}  // namespace fbmpk
