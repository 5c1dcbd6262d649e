// MpkPlan — the FBMPK library's public entry point.
//
// Usage:
//   auto plan = fbmpk::MpkPlan::build(A);          // one-off preprocessing
//   plan.power(x, k, y);                           // y = A^k x
//   plan.power_all(x, k, basis);                   // full Krylov basis
//   plan.polynomial(coeffs, x, y);                 // y = sum_i c_i A^i x
//
// build() performs the one-off preprocessing the paper amortizes over
// many kernel invocations (§V-F): ABMC reorder (optional), triangular
// split, and workspace sizing. All run methods operate in the caller's
// original index space — permutation in/out is handled internally.
//
// Thread-safety: a built plan is immutable; concurrent run calls are
// safe when each call uses its own Workspace. The convenience overloads
// without a Workspace argument use a per-plan internal workspace and
// must not be called concurrently on one plan.
#pragma once

#include <complex>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>

#include "kernels/fb_batch.hpp"
#include "kernels/fb_simd.hpp"
#include "kernels/fbmpk.hpp"
#include "kernels/fbmpk_parallel.hpp"
#include "kernels/fbmpk_recurrence.hpp"
#include "sparse/packed_tri.hpp"
#include "reorder/abmc.hpp"
#include "reorder/level_blocking.hpp"
#include "reorder/permutation.hpp"
#include "reorder/stage_schedule.hpp"
#include "sparse/csr.hpp"
#include "sparse/split.hpp"
#include "sparse/validate.hpp"

namespace fbmpk {

class MpkPlan;

namespace detail {
/// plan_io.cpp's loader worker; `total_size` (0 = unknown) lets file
/// loads validate the header's claimed payload length against the
/// artifact's real size before buffering anything.
MpkPlan load_plan_impl(std::istream& in, std::uint64_t total_size);
}  // namespace detail

/// Which front-end builds the parallel plan's stage schedule
/// (reorder/stage_schedule.hpp).
enum class Scheduler {
  kAbmc,    ///< ABMC coloring (paper §III-D): permutes the matrix; one
            ///< stage per color and direction (2 x colors per pair)
  kLevels,  ///< level scheduling (paper §VII): original order, no
            ///< permutation; cache-blocked runs of dependency levels
            ///< become stages (reorder/level_blocking.hpp)
  kAuto,    ///< resolved at build: a structural probe (mean level
            ///< width vs thread count) in MpkPlan::build, a measured
            ///< pick (autotune_scheduler) in build_autotuned_plan.
            ///< Plans never persist kAuto — the resolved choice is
            ///< stored (docs/PARALLELISM.md §choosing-a-scheduler)
};

/// Human-readable scheduler name: "abmc" | "levels" | "auto".
const char* scheduler_name(Scheduler s);

/// Inverse of scheduler_name; throws kUnsupported on unknown names.
Scheduler parse_scheduler(const std::string& name);

/// Execution-path override for MpkPlan::try_power — the knob the
/// serving layer's degradation ladder turns (docs/SERVICE.md). kDefault
/// runs whatever the plan options selected; the explicit rungs force
/// one concrete sweep implementation. All rungs issue the same per-row
/// kernels, so results are bitwise identical across them for a fixed
/// plan configuration. Both parallel rungs run the plan's stage
/// schedule, whichever scheduler built it.
enum class ExecPath {
  kDefault = 0,  ///< the plan's own selection (options-driven)
  kEngine,       ///< persistent-threads p2p engine (kPointToPoint plans)
  kBarrier,      ///< one team barrier per stage (any parallel plan)
  kSerial,       ///< serial sweep (always available)
};

/// How the parallel sweep synchronizes between the stages of the
/// plan's schedule.
enum class SweepSync {
  kBarrier,       ///< one team barrier per stage
  kPointToPoint,  ///< persistent threads, per-thread epoch counters
                  ///< (docs/PARALLELISM.md)
};

/// Parallel sweep options (both schedulers).
struct SweepOptions {
  SweepSync sync = SweepSync::kBarrier;
  /// Thread count the stage schedule is built for; 0 means the runtime
  /// default (max_threads()) at build time. A loaded plan whose stored
  /// count differs from the runtime default is rebuilt transparently.
  index_t threads = 0;
  /// Pin team threads compactly (thread t -> cpu t). Skipped when the
  /// user configured OMP_PLACES/OMP_PROC_BIND.
  bool pin_threads = false;
};

/// Plan construction options.
struct PlanOptions {
  /// Apply the ABMC reorder. Required for ABMC-scheduled parallel
  /// execution; optional for the level scheduler.
  bool reorder = true;
  /// ABMC parameters (block count default 512, per the paper).
  AbmcOptions abmc;
  /// Use a parallel kernel (scheduled per `scheduler`).
  bool parallel = true;
  /// Parallel schedule construction.
  Scheduler scheduler = Scheduler::kAbmc;
  /// Sweep synchronization (either scheduler).
  SweepOptions sweep;
  /// Serial pipeline flavor: BtB interleaved (default) or split vectors.
  FbVariant variant = FbVariant::kBtb;
  /// Run the matrix sanitizer on the input at build. The default
  /// rejects non-finite values (a NaN matrix would otherwise poison
  /// every sequence run through the plan); structural soundness is
  /// guaranteed by CsrMatrix regardless. Set check_diagonal for
  /// D^-1-consuming workloads, or policy kWarnOnly to opt out.
  bool validate_input = true;
  SanitizeOptions sanitize;
  /// Row-kernel backend (kernels/dispatch.hpp). kScalar (default) is
  /// the exact mode: bitwise-identical serial <-> parallel, required
  /// by the solvers' reproducibility contract. Anything else opts into
  /// fast mode — vectorized row dots with a bounded reassociation
  /// error (see docs/KERNELS.md). kAuto resolves via CPUID once per
  /// process. Fast mode covers the BtB variant only (either
  /// scheduler).
  KernelBackend kernel_backend = KernelBackend::kScalar;
  /// Store triangle column indices band-compressed (u16 offsets from a
  /// per-band base, full-width fallback per band). Cuts index traffic
  /// roughly in half on banded matrices; results stay bitwise
  /// identical under the scalar backend (the decode twins replicate
  /// the exact accumulation order).
  bool index_compress = false;
  /// Software-prefetch lookahead (in nonzeros) for the col/val streams
  /// of dispatched kernels; 0 disables. Ignored by the exact scalar
  /// backend.
  int prefetch_dist = 16;
  /// How triangle/diagonal values are *stored* for the sweeps. kFp64
  /// (default) reads the CSR doubles. kFp32 stores floats (4 bytes/nnz,
  /// per-value rounding <= eps_f32 relative — see docs/KERNELS.md);
  /// kSplit stores a hi/lo float pair whose sum reconstructs the
  /// double (lossless on many matrices). Accumulation is always fp64,
  /// and results stay bitwise deterministic across schedules for a
  /// fixed precision. Non-fp64 requires the BtB variant and all
  /// values finite within float range.
  ValuePrecision value_precision = ValuePrecision::kFp64;
  /// Let build_autotuned_plan consult the cache-simulator traffic
  /// oracle (perf/sweep_replay, docs/AUTOTUNING.md): every candidate is
  /// scored by predicted DRAM bytes and only the top few are timed,
  /// cutting plan-build latency several-fold. Set false to fall back to
  /// the exhaustive measured sweep (the right call when the oracle's
  /// assumptions break — see docs/AUTOTUNING.md §fallback). Ignored by
  /// the plain MpkPlan::build path, which never times candidates.
  bool autotune_oracle = true;
};

/// Autotuned kernel configuration, persisted with the plan (format v5
/// TUNE section) so later processes skip the re-measurement. `valid`
/// is false when the plan was never autotuned. On load the config is
/// revalidated via tuned_config_stale(); a stale config is kept for
/// inspection but flagged so callers re-measure instead of trusting
/// a choice made for different hardware or thread counts.
struct TunedConfig {
  bool valid = false;
  KernelBackend backend = KernelBackend::kScalar;
  bool index_compress = false;
  ValuePrecision value_precision = ValuePrecision::kFp64;
  index_t tuned_threads = 0;  ///< max_threads() when measured
  double best_seconds = 0.0;  ///< measured median kernel time
  bool stale = false;         ///< set on load when revalidation fails
  /// Oracle provenance (format v6). When the traffic oracle pruned the
  /// search, the predicted-vs-measured ranking is kept with the plan so
  /// a later load can judge whether the pruned choice deserves a
  /// re-measure: oracle_rank_of_winner > 1 means the model mis-ranked
  /// the timed survivors and the exhaustive sweep might disagree.
  bool oracle_used = false;
  double oracle_predicted_bytes = 0.0;  ///< winner's predicted DRAM bytes
  index_t candidates_scored = 0;  ///< total candidates ranked by the model
  index_t candidates_timed = 0;   ///< survivors actually measured
  index_t oracle_rank_of_winner = 0;  ///< 1 = model's top pick won (0 = n/a)
  /// Scheduler provenance (format v7). When autotune_scheduler raced
  /// the ABMC and level schedulers, the losing side's measured time is
  /// kept so a later load can see the margin the pick rests on.
  Scheduler scheduler = Scheduler::kAbmc;  ///< scheduler the plan executes
  bool scheduler_measured = false;  ///< true when both sides were timed
  double scheduler_alt_seconds = 0.0;  ///< losing scheduler's median time
};

/// Pure revalidation predicate: a persisted tuned config is stale when
/// its backend is unavailable on the executing CPU or the runtime
/// thread count differs from the one it was measured with. Invalid
/// (never-tuned) configs are never stale.
bool tuned_config_stale(const TunedConfig& cfg, index_t runtime_threads);

/// Timing/shape metadata captured at build.
struct PlanStats {
  double build_seconds = 0.0;    ///< total preprocessing time
  double reorder_seconds = 0.0;  ///< ABMC portion of the above
  index_t num_blocks = 0;
  index_t num_colors = 0;
  index_t num_levels_forward = 0;   ///< dependency levels; 0 for ABMC
  index_t num_levels_backward = 0;  ///< dependency levels; 0 for ABMC
  index_t sweep_threads = 0;  ///< stage schedule threads; 0 when serial
  std::size_t storage_bytes = 0;  ///< bytes held by L + U + d
  /// Bytes of the compressed column sidecar (0 when index_compress is
  /// off). Compare against 2 * nnz(L) … see perf/traffic_model.
  std::size_t packed_index_bytes = 0;
  /// Bytes of the reduced-precision value sidecar (0 for fp64).
  std::size_t packed_value_bytes = 0;
};

class MpkPlan {
 public:
  /// Scratch vectors for one concurrent run stream.
  struct Workspace {
    FbWorkspace<double> fb;        ///< serial sweep scratch
    SweepWorkspace<double> sweep;  ///< parallel (stage schedule) scratch
    /// Permuted input/output of recurrence(). The other run methods
    /// gather x and scatter y inside the sweep (head and final-power
    /// stages) and never touch these.
    AlignedVector<double> px;
    AlignedVector<double> py;
  };

  /// Preprocess matrix `a` (square). Throws fbmpk::Error on invalid
  /// input or inconsistent options.
  static MpkPlan build(const CsrMatrix<double>& a, PlanOptions opts = {});

  MpkPlan(MpkPlan&&) noexcept = default;
  MpkPlan& operator=(MpkPlan&&) noexcept = default;

  index_t rows() const { return n_; }
  const PlanOptions& options() const { return opts_; }
  const PlanStats& stats() const { return stats_; }
  const Permutation& permutation() const { return perm_; }
  const AbmcOrdering& schedule() const { return schedule_; }
  /// Stage schedule both parallel rungs run (empty for serial plans).
  const StageSchedule& stage_schedule() const { return stages_; }
  const TriangularSplit<double>& split() const { return split_; }
  const PackedSplitIndex& packed_index() const { return packed_; }
  /// Reduced-precision value sidecar (empty for fp64 plans).
  const PackedSplitValues& packed_values() const { return values_; }
  /// Persisted autotune choice (valid == false when never tuned).
  const TunedConfig& tuned_config() const { return tuned_; }
  /// Record an autotune result for serialization with the plan
  /// (core/autotune.cpp calls this from build_autotuned_plan).
  void set_tuned_config(const TunedConfig& cfg) { tuned_ = cfg; }
  /// Concrete backend this plan executes with (kAuto already resolved;
  /// a loaded plan whose stored backend is unavailable on this CPU is
  /// re-resolved portably).
  KernelBackend resolved_backend() const { return resolved_backend_; }

  /// y = A^k x (k >= 0). x and y may alias only if identical spans.
  void power(std::span<const double> x, int k, std::span<double> y,
             Workspace& ws) const;
  void power(std::span<const double> x, int k, std::span<double> y);

  /// Cancellable, path-overridable power — the serving layer's entry
  /// point (degradation-ladder rungs + per-request deadlines). Instead
  /// of throwing, failures come back as a typed Status: kUnsupported
  /// when the forced path needs structures this plan lacks, kCancelled
  /// / kTimeout when `ctl` fired mid-sweep (y is then unspecified, and
  /// so is x when it is y),
  /// kResourceLimit on allocation failure. The token is polled at
  /// sweep color/k boundaries; cancellation never throws across a
  /// parallel region.
  Status try_power(std::span<const double> x, int k, std::span<double> y,
                   Workspace& ws, ExecPath path = ExecPath::kDefault,
                   RunControl* ctl = nullptr) const;

  /// Batched right-hand sides: ys[b] = A^k xs[b] for b in [0, nvec) in
  /// multi-vector sweeps over the xy[2·B·n] interleaved layout, so the
  /// triangles are read once per chunk instead of once per vector.
  /// nvec is chunked greedily over widths {16, 8, 4, 2, 1}; each lane's
  /// result is bitwise identical to the serial scalar-backend sweep of
  /// that vector alone at the same stored precision (the batch kernels
  /// replicate the exact per-lane accumulation order for every backend
  /// and schedule). Inputs are gathered straight from xs and scattered
  /// straight to ys — no staging copies. Same Status contract as
  /// try_power; on cancellation the ys are unspecified. Allocates its
  /// own per-call workspace, so concurrent calls on one plan are safe.
  Status try_power_batch(const double* const* xs, index_t nvec, int k,
                         double* const* ys, ExecPath path = ExecPath::kDefault,
                         RunControl* ctl = nullptr) const;

  /// out[p*n + i] = (A^p x)[i] for p in [0, k] (row-major basis).
  void power_all(std::span<const double> x, int k, std::span<double> out,
                 Workspace& ws) const;
  void power_all(std::span<const double> x, int k, std::span<double> out);

  /// y = sum_{p=0..k} coeffs[p] * A^p x, k = coeffs.size()-1. x and y
  /// must not overlap.
  void polynomial(std::span<const double> coeffs, std::span<const double> x,
                  std::span<double> y, Workspace& ws) const;
  void polynomial(std::span<const double> coeffs, std::span<const double> x,
                  std::span<double> y);

  /// Three-term recurrence x_p = a_p A x_{p-1} + b_p x_{p-1} +
  /// c_p x_{p-2} (x_{-1} = 0): y = x_k with k = steps.size(). Covers
  /// Chebyshev-stable polynomial bases at FBMPK traffic. Runs the
  /// ABMC-colored parallel sweep on parallel plans that carry an ABMC
  /// ordering (reorder on) and the serial sweep otherwise. Returns a
  /// breakdown status instead of propagating NaN: non-finite inputs
  /// are rejected before the sweep, non-finite iterates are reported
  /// after it (y is written either way).
  KernelStatus recurrence(std::span<const RecurrenceStep<double>> steps,
                          std::span<const double> x, std::span<double> y,
                          Workspace& ws) const;
  KernelStatus recurrence(std::span<const RecurrenceStep<double>> steps,
                          std::span<const double> x, std::span<double> y);

  /// Complex-coefficient SSpMV (paper §I: "alpha_i are real or complex
  /// constants"): y = sum_p coeffs[p] * A^p x with real A and x. One
  /// FBMPK pass; each emitted iterate feeds both components.
  void polynomial(std::span<const std::complex<double>> coeffs,
                  std::span<const double> x,
                  std::span<std::complex<double>> y, Workspace& ws) const;
  void polynomial(std::span<const std::complex<double>> coeffs,
                  std::span<const double> x,
                  std::span<std::complex<double>> y);

 private:
  MpkPlan() = default;

  friend void save_plan(const MpkPlan&, std::ostream&);
  friend MpkPlan load_plan(std::istream&);
  friend MpkPlan detail::load_plan_impl(std::istream&, std::uint64_t);

  /// The scheduler's front-end: build the stage schedule for `threads`
  /// threads from the split (and, for ABMC, the ordering).
  StageSchedule build_stages(index_t threads);
  /// kUnsupported unless this plan can run the forced `path` — a
  /// capability gap the service's rung ladder steps past, so it comes
  /// back as a Status rather than a throw.
  Status check_path(ExecPath path) const;
  /// True when the sweeps route through the runtime-dispatched row
  /// kernels (non-scalar backend and/or compressed indices) instead of
  /// the exact fb_detail path.
  bool use_dispatch() const {
    return resolved_backend_ != KernelBackend::kScalar ||
           opts_.index_compress ||
           opts_.value_precision != ValuePrecision::kFp64;
  }
  DispatchRows dispatch_rows() const;

  /// The one sweep behind every run method: serial, barrier rung or
  /// engine rung per `path` and the plan's options, over row policy
  /// `rows` (the engine falls back to the barrier rung when it cannot
  /// run). emit(p, i, v) receives every power p in [1, k].
  template <class TI, class Rows, class X0, class Emit>
  void sweep_rows(const Rows& rows, const X0& x0, int k,
                  FbWorkspace<TI>& serial_ws, SweepWorkspace<TI>& ws,
                  Emit&& emit, ExecPath path, RunControl* ctl) const;
  /// sweep_rows over the plan's single-vector row policy. emit gets
  /// permuted row indices; the caller scatters through gather_perm().
  template <class Emit>
  void sweep(const GatherX0& x0, int k, Workspace& ws, Emit&& emit,
             ExecPath path = ExecPath::kDefault,
             RunControl* ctl = nullptr) const;
  /// The reorder permutation the sweeps gather x and scatter y
  /// through; nullptr when it is the identity (O(1): the flag is
  /// recorded when the permutation is built or loaded).
  const Permutation* gather_perm() const {
    return perm_.is_identity() ? nullptr : &perm_;
  }

  void run_power_path(std::span<const double> x, int k, std::span<double> y,
                      Workspace& ws, ExecPath path, RunControl* ctl) const;
  template <int B>
  Status run_power_batch_chunk(const double* const* xs, int k,
                               double* const* ys, ExecPath path,
                               RunControl* ctl) const;

  index_t n_ = 0;
  PlanOptions opts_;
  PlanStats stats_;
  Permutation perm_;         ///< identity when reorder is off
  AbmcOrdering schedule_;    ///< empty when reorder is off
  StageSchedule stages_;     ///< empty for serial plans
  TriangularSplit<double> split_;
  PackedSplitIndex packed_;  ///< populated when index_compress is on
  PackedSplitValues values_; ///< populated when value_precision != fp64
  TunedConfig tuned_;        ///< persisted autotune choice (may be invalid)
  /// Concrete executing backend; derived from opts_.kernel_backend at
  /// build/load time, never serialized.
  KernelBackend resolved_backend_ = KernelBackend::kScalar;
  std::unique_ptr<Workspace> internal_ws_;  // for convenience overloads
};

}  // namespace fbmpk
