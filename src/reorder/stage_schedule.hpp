// One stage schedule for every parallel FBMPK sweep (docs/PARALLELISM.md).
//
// RACE (arXiv:2205.01598) treats graph coloring and level blocking as
// one structure: stages of rows, with dependencies between stages. A
// StageSchedule is that structure for a fixed thread count, and both
// schedulers are front-ends that build it:
//
//  - ABMC (build_sweep_schedule, below): color c is forward stage c and
//    backward stage C-1-c; each color's blocks are split across threads
//    into contiguous chunks balanced by nnz (reorder/nnz_partition.hpp);
//  - levels (build_level_sweep_schedule, reorder/level_blocking.hpp):
//    cache-budgeted runs of dependency levels become stages, and their
//    connected components are balanced across threads.
//
// Execution model, shared by the engine and the barrier rung
// (kernels/fbmpk_parallel.hpp). Per pair iteration a thread walks the
// pair's stage list F_0..F_{SF-1}, B_0..B_{SB-1}. Slot (t, s) of a
// direction holds row ranges [begin, end): forward slots walk their
// ranges in order, each ascending; backward slots walk their ranges in
// reverse, each descending. Head and tail stages walk the thread's
// forward slots. A dependency names a foreign thread and a stage index
// in the pair list: "that thread finished that stage of this pair".
// Besides the per-slot deps, every thread has head/tail deps (threads
// whose head0 / last pair it reads) and pair-boundary deps (threads
// whose previous pair must be complete before its F_0). ABMC needs no
// pair-boundary deps (its within-pair waits cover the previous pair
// transitively); the level front-end lists every thread.
//
// A schedule is plain data — CSR-style POD vectors that plan_io frames
// directly. validate_stage_schedule checks any schedule edge by edge
// against the triangles it claims to order, whichever front-end built
// it.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "reorder/abmc.hpp"
#include "sparse/split.hpp"

namespace fbmpk {

/// Contiguous rows [begin, end) executed by one slot.
struct RowRange {
  index_t begin = 0;
  index_t end = 0;
  friend bool operator==(const RowRange&, const RowRange&) = default;
};

/// One point-to-point wait: foreign `thread` must have finished stage
/// `stage` of the current pair (index into F_0..F_{SF-1},
/// B_0..B_{SB-1}).
struct StageDep {
  index_t thread = 0;
  index_t stage = 0;
  friend bool operator==(const StageDep&, const StageDep&) = default;
};

/// Stages of one sweep direction. Slots are thread-major:
/// slot(t, s) = t * num_stages + s.
struct StageDirection {
  index_t num_stages = 0;
  /// Ranges of slot q: ranges[range_ptr[q] .. range_ptr[q+1]).
  std::vector<index_t> range_ptr;
  std::vector<RowRange> ranges;
  /// Waits of slot q before it runs: deps[dep_ptr[q] .. dep_ptr[q+1]),
  /// at most one per foreign thread.
  std::vector<index_t> dep_ptr;
  std::vector<StageDep> deps;
  /// nnz weight executed by each slot — the imbalance diagnostic.
  std::vector<index_t> load;

  std::size_t slot(index_t t, index_t s) const {
    return static_cast<std::size_t>(t) * num_stages + s;
  }
};

/// The precomputed stage schedule for `num_threads` threads over an
/// n = num_rows matrix.
struct StageSchedule {
  index_t num_threads = 0;
  index_t num_rows = 0;
  StageDirection fwd;
  StageDirection bwd;
  /// Head/tail waits of thread t: edge_deps[edge_dep_ptr[t] ..
  /// edge_dep_ptr[t+1]) (thread ids).
  std::vector<index_t> edge_dep_ptr;
  std::vector<index_t> edge_deps;
  /// Pair-boundary waits of thread t before F_0 of every pair.
  std::vector<index_t> pair_dep_ptr;
  std::vector<index_t> pair_deps;

  bool empty() const { return num_threads == 0; }
  /// Stages per forward/backward pair.
  index_t pair_stages() const { return fwd.num_stages + bwd.num_stages; }
};

/// ABMC front-end: the stage schedule for `num_threads` threads from
/// the ABMC ordering and the permuted matrix's split triangle patterns.
StageSchedule build_sweep_schedule(const AbmcOrdering& o,
                                   std::span<const index_t> lower_rp,
                                   std::span<const index_t> lower_ci,
                                   std::span<const index_t> upper_rp,
                                   std::span<const index_t> upper_ci,
                                   index_t num_threads);

template <class T>
StageSchedule build_sweep_schedule(const AbmcOrdering& o,
                                   const TriangularSplit<T>& s,
                                   index_t num_threads) {
  return build_sweep_schedule(o, s.lower.row_ptr(), s.lower.col_idx(),
                              s.upper.row_ptr(), s.upper.col_idx(),
                              num_threads);
}

/// Critical-path imbalance of the schedule's loads: Σ over the stages
/// of both directions of the most-loaded slot, divided by Σ of the
/// mean slot load. A stage ends when its most-loaded thread does, so
/// this is the slowdown the partition itself costs the sweep (waits
/// aside). 1.0 is a perfect split (and the value of an empty or
/// weightless schedule).
double stage_imbalance(const StageSchedule& s);

/// Fill both directions' dep_ptr/deps with the within-pair waits the
/// rows of each slot need (the data they read this pair, and the
/// readers of the data they overwrite), one dep per foreign thread at
/// the largest stage it owes. Front-end helper: `s` must already hold
/// its ranges.
void derive_stage_deps(StageSchedule& s, std::span<const index_t> lower_rp,
                       std::span<const index_t> lower_ci,
                       std::span<const index_t> upper_rp,
                       std::span<const index_t> upper_ci);

/// Edge-by-edge validation against the split triangles: shapes; every
/// row in exactly one slot per direction; every dep on a legal thread
/// and a strictly earlier stage (no deadlock); no cross-thread edge
/// inside a stage and intra-thread producers first; every within-pair
/// hazard covered by a slot dep; every cross-pair hazard on thread u
/// covered by a pair-boundary dep on u, a dep on u at or before the
/// consuming stage, or a dep on u in the previous pair at or after the
/// producing stage; head/tail reads covered by head/tail deps. Returns
/// false on any violation (plan loading maps it to kCorruptPlan).
bool validate_stage_schedule(const StageSchedule& s,
                             std::span<const index_t> lower_rp,
                             std::span<const index_t> lower_ci,
                             std::span<const index_t> upper_rp,
                             std::span<const index_t> upper_ci);

template <class T>
bool validate_stage_schedule(const StageSchedule& sched,
                             const TriangularSplit<T>& s) {
  return validate_stage_schedule(sched, s.lower.row_ptr(), s.lower.col_idx(),
                                 s.upper.row_ptr(), s.upper.col_idx());
}

}  // namespace fbmpk
