// Plan-level measurement shared by the workloads: default and autotuned
// plans timed against mpk_power in interleaved rounds, their outputs
// checked against the serial oracle, and the per-layer probes.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "bench.hpp"
#include "kernels/mpk_baseline.hpp"
#include "service/service.hpp"

namespace perfbench {

/// One (matrix, k) pair timed on three sides: the default plan, the
/// autotuned plan and the standard kernel mpk_power.
struct Cell {
  std::size_t input = 0;
  int k = 0;
  std::vector<double> y_ref;        ///< serial twin of the default plan
  std::vector<double> y_tuned_ref;  ///< serial twin of the tuned plan
  std::vector<double> y_mpk;        ///< mpk_power reference
  double tuned_bound = 0.0;  ///< tolerance when the tuned plan is inexact
  std::vector<double> t_plan, t_tuned, t_mpk;  ///< untraced seconds
  std::vector<double> tr_plan;  ///< traced-round seconds (trace runs)
  int reruns = 0;
  double cv() const;  ///< largest robust CV of the three sides
};

/// The state of one workload run.
struct Bench {
  Bench(const Args& a, Sheet& s, Ledger& l);

  const Args& args;
  Sheet& sheet;
  Ledger& ledger;
  int threads = 0;  ///< OpenMP team size of both sides, fixed for the run

  std::vector<Input> inputs;
  std::vector<std::vector<double>> xs;  ///< the x of each input's cells
  std::vector<std::unique_ptr<fbmpk::MpkPlan>> plans;  ///< default options
  std::vector<std::unique_ptr<fbmpk::MpkPlan>> tuned;  ///< autotuned
  std::vector<double> setup_rounds;  ///< seconds to build every plan, per round
  std::vector<double> build_s;       ///< per input, median over rounds
  std::vector<double> tune_s;        ///< per input
  std::vector<Cell> cells;
  fbmpk::MpkWorkspace<double> mpk_ws;

  /// Abort unless the plan and the baseline run on one team size.
  void check_threads(const fbmpk::MpkPlan& plan) const;
};

/// Build every input's default plan `repeats` times; keep the last.
void build_default_plans(Bench& b, int repeats);
/// build_autotuned_plan for every input at Settings::kTuneK.
void build_tuned_plans(Bench& b);

/// Called with each input's serial default-options twin while it is
/// alive, so a workload can draw further oracle outputs from it.
using TwinHook =
    std::function<void(std::size_t input, const fbmpk::MpkPlan& twin)>;

/// Create the cells for `ks` and their oracle outputs. Oracle outputs
/// are cross-checked against mpk_power within the kernel bound.
void prepare_cells(Bench& b, const std::vector<int>& ks,
                   const TwinHook& hook = {});

/// Interleaved rounds over all cells until `budget_s` has passed (at
/// least Settings::kMinRounds), then re-runs of cells past the CV bound.
void measure_cells(Bench& b, double budget_s);

/// power_gflops, speedup_vs_mpk and the tuned_* metrics from the cells.
void plan_metrics(Bench& b);

/// Per-layer probes of the kernels, reorder, sparse and core layers
/// (traced runs only).
void layer_probes(Bench& b);

/// Serving-layer metrics read from a service after its traffic ran.
/// `submit_ms` are submit() call times, `overhead_ms` request latency
/// minus the standalone power() median of the same (matrix, k).
void service_metrics(Bench& b, fbmpk::service::MpkService& svc,
                     const std::vector<double>& submit_ms,
                     const std::vector<double>& overhead_ms);

/// Median default-plan time of the cell (input, k), in seconds.
double standalone_seconds(const Bench& b, std::size_t input, int k);

/// Service options: library defaults plus coalescing.
fbmpk::service::ServiceOptions serve_options();

/// STREAM-triad roof: host.* metrics (traced runs only).
void host_roof(Sheet& sheet);

}  // namespace perfbench
