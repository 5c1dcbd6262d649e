// Analytic parallel cost model — the substitute for the paper's four
// physical multicore platforms (Table I; DESIGN.md §4).
//
// This container exposes one CPU core, so multi-thread *timings* are
// meaningless here. The model predicts the execution time of standard
// MPK and color-scheduled FBMPK on a described platform from first
// principles:
//
//   - each sweep is memory-bound: time >= bytes / bw(t), where the
//     achievable bandwidth bw(t) ramps with thread count and saturates
//     at the platform's stream bandwidth;
//   - compute time scales as work/t but cannot beat the per-color block
//     granularity: a color with b blocks uses at most min(t, b) threads;
//   - every color boundary costs one barrier; standard MPK pays one
//     barrier per SpMV sweep.
//
// It reproduces the *shape* of Fig 12 (near-linear scaling for large
// matrices, barrier-dominated flattening for small ones like cant) and
// of Fig 7/8's platform spread, not absolute times.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "reorder/abmc.hpp"
#include "reorder/stage_schedule.hpp"
#include "sparse/csr.hpp"

namespace fbmpk::perf {

/// A platform description (values follow Table I plus public spec
/// sheets; bandwidth/barrier numbers are representative, not measured).
struct PlatformSpec {
  std::string name;
  int cores = 1;
  double freq_ghz = 2.0;
  double stream_bw_gbps = 100.0;  ///< saturated memory bandwidth, GB/s
  double bw_per_core_gbps = 12.0; ///< single-core achievable bandwidth
  double barrier_us = 2.0;        ///< cost of one OpenMP barrier
  double flops_per_cycle = 4.0;   ///< per-core FP throughput (FMA lanes)
};

/// The four evaluation platforms of Table I.
const std::vector<PlatformSpec>& paper_platforms();
PlatformSpec platform_by_name(const std::string& name);

/// Work summary of one matrix for the model.
struct WorkloadShape {
  index_t rows = 0;
  index_t nnz = 0;
  /// Blocks per color (from the ABMC schedule); empty means "one
  /// implicit color with one block per thread" (standard MPK).
  std::vector<index_t> blocks_per_color;
  /// nnz per color, aligned with blocks_per_color.
  std::vector<index_t> nnz_per_color;

  template <class T>
  static WorkloadShape of(const CsrMatrix<T>& permuted,
                          const AbmcOrdering& o) {
    WorkloadShape w;
    w.rows = permuted.rows();
    w.nnz = permuted.nnz();
    w.blocks_per_color.resize(static_cast<std::size_t>(o.num_colors));
    w.nnz_per_color.assign(static_cast<std::size_t>(o.num_colors), 0);
    for (index_t c = 0; c < o.num_colors; ++c) {
      w.blocks_per_color[c] = o.color_ptr[c + 1] - o.color_ptr[c];
      for (index_t b = o.color_ptr[c]; b < o.color_ptr[c + 1]; ++b)
        for (index_t r = o.block_ptr[b]; r < o.block_ptr[b + 1]; ++r)
          w.nnz_per_color[c] += permuted.row_nnz(r);
    }
    return w;
  }
};

/// Predicted seconds for standard MPK (k sweeps of the full matrix).
double predict_standard_mpk_seconds(const PlatformSpec& p,
                                    const WorkloadShape& w, int k,
                                    int threads);

/// Predicted seconds for color-scheduled FBMPK with power k.
double predict_fbmpk_seconds(const PlatformSpec& p, const WorkloadShape& w,
                             int k, int threads);

/// Speedup of t-thread FBMPK over 1-thread standard MPK (Fig 12's
/// normalization).
double predict_fbmpk_scalability(const PlatformSpec& p,
                                 const WorkloadShape& w, int k, int threads);

/// Load imbalance of a stage schedule's thread partition. 1.0 is a
/// perfect split; a stage finishes when its most-loaded thread does.
struct PartitionImbalance {
  double worst = 1.0;  ///< max over stages of max/mean slot load
  double mean = 1.0;   ///< critical path: stage_imbalance(s)
};

/// Evaluate the partition of a stage schedule (either front-end).
PartitionImbalance partition_imbalance(const StageSchedule& s);

}  // namespace fbmpk::perf
