#include "core/autotune.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "perf/sweep_replay.hpp"
#include "support/fault_inject.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/timer.hpp"
#include "telemetry/telemetry.hpp"

namespace fbmpk {

namespace {

/// Bytes per stored triangle/diagonal value under a precision mode
/// (the split pair is two floats — same stream bytes as fp64).
std::size_t stored_value_bytes(ValuePrecision p) {
  return p == ValuePrecision::kFp32 ? sizeof(float) : sizeof(double);
}

struct ProbeVectors {
  AlignedVector<double> x, y;
  explicit ProbeVectors(index_t n)
      : x(static_cast<std::size_t>(n)), y(static_cast<std::size_t>(n)) {
    Rng rng(0x47u);
    for (auto& v : x) v = rng.next_double(-1.0, 1.0);
  }
};

double measure_power(MpkPlan& plan, ProbeVectors& v, int k, int reps) {
  MpkPlan::Workspace ws;
  plan.power(v.x, k, v.y, ws);  // warmup (first touch of workspaces)
  RunningStats stats;
  for (int r = 0; r < reps; ++r) {
    Timer t;
    plan.power(v.x, k, v.y, ws);
    stats.add(t.seconds());
  }
  return stats.median();
}

/// Consulted before every candidate build so tests can force a typed
/// failure deterministically.
void maybe_inject_build_fault() {
  if (fault::should_fire(fault::Point::kAutotuneBuild))
    throw Error(ErrorCode::kResourceLimit, "injected autotune build fault");
}

/// Structural scoring target for the traffic oracle. Scoring a
/// candidate costs one ABMC ordering plus one sampled replay; on a
/// large matrix the O(n + nnz) ordering would dominate and the oracle
/// could never beat simply timing the candidate. Since replay accuracy
/// is flat under row sampling (docs/AUTOTUNING.md), big matrices are
/// scored on the principal submatrix of a contiguous window of rows
/// from the middle of the matrix — a slab of the underlying mesh —
/// with every candidate block count scaled by the same row ratio, so
/// the per-block row count (the locality knob actually being ranked)
/// is preserved. Predictions are rescaled to full-matrix bytes by the
/// nnz ratio, which also absorbs the slab's truncated-stencil border.
struct ScoringView {
  CsrMatrix<double> sub;     ///< populated iff `sampled`
  bool sampled = false;
  double traffic_scale = 1.0;  ///< full-matrix bytes per scored byte
  double block_scale = 1.0;    ///< candidate num_blocks multiplier

  const CsrMatrix<double>& matrix(const CsrMatrix<double>& full) const {
    return sampled ? sub : full;
  }
  index_t scaled_blocks(index_t blocks) const {
    return std::max<index_t>(
        1, static_cast<index_t>(
               std::lround(static_cast<double>(blocks) * block_scale)));
  }
};

ScoringView make_scoring_view(const CsrMatrix<double>& a, index_t window) {
  ScoringView v;
  // Below 2x the window the extraction would not pay for itself.
  if (window <= 0 || a.rows() <= 2 * window) return v;
  const index_t lo = (a.rows() - window) / 2;
  const index_t hi = lo + window;
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  const auto vals = a.values();
  AlignedVector<index_t> sub_rp(static_cast<std::size_t>(window) + 1, 0);
  AlignedVector<index_t> sub_ci;
  AlignedVector<double> sub_v;
  for (index_t i = lo; i < hi; ++i) {
    for (index_t k = rp[i]; k < rp[i + 1]; ++k) {
      const index_t j = ci[k];
      if (j < lo || j >= hi) continue;  // truncate edges leaving the slab
      sub_ci.push_back(j - lo);
      sub_v.push_back(vals[k]);
    }
    sub_rp[static_cast<std::size_t>(i - lo) + 1] =
        static_cast<index_t>(sub_ci.size());
  }
  if (sub_ci.empty()) return v;  // degenerate window: score the full matrix
  v.traffic_scale = static_cast<double>(a.nnz()) /
                    static_cast<double>(sub_ci.size());
  v.block_scale =
      static_cast<double>(window) / static_cast<double>(a.rows());
  v.sub = CsrMatrix<double>(window, window, std::move(sub_rp),
                            std::move(sub_ci), std::move(sub_v));
  v.sampled = true;
  return v;
}

/// Stable predicted-traffic ranking: candidate indices sorted ascending
/// by predicted bytes, original order preserved on ties so earlier
/// (more conservative) candidates win within a traffic class.
std::vector<std::size_t> rank_by_prediction(
    const std::vector<double>& predicted) {
  std::vector<std::size_t> order(predicted.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t l, std::size_t r) {
                     return predicted[l] < predicted[r];
                   });
  return order;
}

}  // namespace

std::span<const index_t> default_block_candidates() {
  static const index_t kCandidates[] = {128, 256, 512, 1024, 2048};
  return kCandidates;
}

AutotuneResult autotune_block_count(const CsrMatrix<double>& a, int k,
                                    std::span<const index_t> candidates,
                                    int reps, PlanOptions base,
                                    const OracleOptions& oracle) {
  FBMPK_CHECK(!candidates.empty());
  FBMPK_CHECK(k >= 1 && reps >= 1);
  for (index_t blocks : candidates)
    FBMPK_CHECK_MSG(blocks >= 1, "block candidate must be positive");

  AutotuneResult result;
  result.samples.resize(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i)
    result.samples[i].num_blocks = candidates[i];

  FBMPK_TSPAN(kAutotune, "autotune.block_count");

  // Oracle pass: replay every candidate's ABMC structure through the
  // sampled cache simulator, keep the top_k by predicted traffic. The
  // model needs the reorder to exist; without it the block count does
  // not change the access pattern and pruning would be arbitrary.
  std::vector<std::size_t> to_time(candidates.size());
  std::iota(to_time.begin(), to_time.end(), std::size_t{0});
  const bool use_oracle =
      oracle.enabled && oracle.top_k >= 1 && base.reorder &&
      candidates.size() > static_cast<std::size_t>(oracle.top_k);
  if (use_oracle) {
    FBMPK_TSPAN(kAutotune, "autotune.oracle_score");
    result.oracle_used = true;
    const ScoringView view = make_scoring_view(a, oracle.max_sample_rows);
    const CsrMatrix<double>& s = view.matrix(a);
    perf::ReplayConfig rc;
    rc.k = k;
    rc.threads = base.parallel ? max_threads() : 1;
    // Replay accuracy is flat down to ~1k-row samples, so when the
    // structure is already a slab, replaying half of it buys the same
    // ranking at half the simulation cost.
    rc.max_sample_rows = view.sampled
                             ? std::max<index_t>(1024, oracle.max_sample_rows / 2)
                             : oracle.max_sample_rows;
    rc.matrix_value_bytes = stored_value_bytes(base.value_precision);
    std::vector<double> predicted(candidates.size(), 0.0);
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      AbmcOptions ao = base.abmc;
      ao.num_blocks = view.scaled_blocks(candidates[i]);
      const AbmcOrdering ord = abmc_order(s, ao);
      rc.col_index_bytes =
          base.index_compress
              ? perf::estimate_packed_index_bytes_per_nnz(s, &ord)
              : static_cast<double>(sizeof(index_t));
      predicted[i] =
          static_cast<double>(
              perf::replay_fbmpk_traffic(s, &ord, rc).dram_total_bytes()) *
          view.traffic_scale;
      result.samples[i].predicted_bytes = predicted[i];
      // Approximate under sampled scoring; the timing pass overwrites
      // it with the real plan's color count for the survivors.
      result.samples[i].num_colors = ord.num_colors;
    }
    to_time = rank_by_prediction(predicted);
    for (std::size_t j = static_cast<std::size_t>(oracle.top_k);
         j < to_time.size(); ++j) {
      result.samples[to_time[j]].pruned = true;
      ++result.candidates_pruned;
    }
    to_time.resize(static_cast<std::size_t>(oracle.top_k));
    FBMPK_TCOUNT("autotune.candidates_pruned", result.candidates_pruned);
  }

  ProbeVectors v(a.rows());
  ErrorCode last_error = ErrorCode::kInternal;
  for (std::size_t i : to_time) {
    AutotuneSample& sample = result.samples[i];
    FBMPK_TSPAN_ARGS(kAutotune, "autotune.block_probe",
                     {.value = static_cast<std::int64_t>(sample.num_blocks)});
    PlanOptions opts = base;
    opts.abmc.num_blocks = sample.num_blocks;
    try {
      maybe_inject_build_fault();
      Timer build_timer;
      MpkPlan plan = MpkPlan::build(a, opts);
      sample.num_colors = plan.stats().num_colors;
      sample.build_seconds = build_timer.seconds();
      sample.seconds = measure_power(plan, v, k, reps);
    } catch (const Error& e) {
      sample.failed = true;
      sample.error = e.code();
      last_error = e.code();
      continue;
    }
    ++result.candidates_timed;
    if (result.best_blocks == 0 || sample.seconds < result.best_seconds) {
      result.best_blocks = sample.num_blocks;
      result.best_seconds = sample.seconds;
      result.best_predicted_bytes = std::max(0.0, sample.predicted_bytes);
      result.oracle_rank_of_winner =
          use_oracle ? result.candidates_timed : 0;
    }
  }
  if (result.candidates_timed == 0)
    throw Error(last_error, "every autotune block-count candidate failed");
  return result;
}

SweepSyncResult autotune_sweep_sync(const CsrMatrix<double>& a, int k,
                                    int reps, PlanOptions base) {
  FBMPK_CHECK(k >= 1 && reps >= 1);
  SweepSyncResult result;
  if (!base.parallel || max_threads() <= 1)
    return result;  // point-to-point cannot win; keep the barrier

  ProbeVectors v(a.rows());
  FBMPK_TSPAN(kAutotune, "autotune.sweep_sync");
  auto measure = [&](SweepSync sync) {
    FBMPK_TSPAN_ARGS(kAutotune, "autotune.sync_probe",
                     {.value = sync == SweepSync::kPointToPoint ? 1 : 0});
    PlanOptions opts = base;
    opts.sweep.sync = sync;
    MpkPlan plan = MpkPlan::build(a, opts);
    return measure_power(plan, v, k, reps);
  };

  result.barrier_seconds = measure(SweepSync::kBarrier);
  result.point_to_point_seconds = measure(SweepSync::kPointToPoint);
  result.best = result.point_to_point_seconds < result.barrier_seconds
                    ? SweepSync::kPointToPoint
                    : SweepSync::kBarrier;
  return result;
}

SchedulerRaceResult autotune_scheduler(const CsrMatrix<double>& a, int k,
                                       int reps, PlanOptions base,
                                       const OracleOptions& oracle) {
  FBMPK_CHECK(k >= 1 && reps >= 1);
  SchedulerRaceResult result;
  if (!base.parallel || max_threads() <= 1) return result;  // kAbmc, forced
  if (!base.reorder) {
    // ABMC without its permutation is not a candidate; the level
    // scheduler is exactly the keep-the-order strategy.
    result.best = Scheduler::kLevels;
    FBMPK_TCOUNT("autotune.scheduler_pick", 1);
    return result;
  }

  FBMPK_TSPAN(kAutotune, "autotune.scheduler");

  bool time_abmc = true, time_levels = true;
  if (oracle.enabled && oracle.top_k >= 1) {
    FBMPK_TSPAN(kAutotune, "autotune.oracle_score");
    result.oracle_used = true;
    const ScoringView view = make_scoring_view(a, oracle.max_sample_rows);
    const CsrMatrix<double>& s = view.matrix(a);
    perf::ReplayConfig rc;
    rc.k = k;
    rc.threads = max_threads();
    rc.max_sample_rows = view.sampled
                             ? std::max<index_t>(1024, oracle.max_sample_rows / 2)
                             : oracle.max_sample_rows;
    rc.matrix_value_bytes = stored_value_bytes(base.value_precision);

    AbmcOptions ao = base.abmc;
    ao.num_blocks = view.scaled_blocks(base.abmc.num_blocks);
    const AbmcOrdering ord = abmc_order(s, ao);
    rc.col_index_bytes =
        base.index_compress
            ? perf::estimate_packed_index_bytes_per_nnz(s, &ord)
            : static_cast<double>(sizeof(index_t));
    result.abmc_predicted_bytes =
        static_cast<double>(
            perf::replay_fbmpk_traffic(s, &ord, rc).dram_total_bytes()) *
        view.traffic_scale;

    // The level scheduler never permutes and the band-compressed
    // sidecar is sized on the natural order.
    rc.col_index_bytes =
        base.index_compress
            ? perf::estimate_packed_index_bytes_per_nnz(s, nullptr)
            : static_cast<double>(sizeof(index_t));
    const TriangularSplit<double> split = split_triangular(s);
    const LevelSchedulePair levels = LevelSchedulePair::of(split);
    result.levels_predicted_bytes =
        static_cast<double>(perf::replay_fbmpk_level_traffic(
                                s, levels.forward, levels.backward, rc)
                                .dram_total_bytes()) *
        view.traffic_scale;

    if (oracle.top_k < 2) {
      // Trust the model: time only its pick.
      const bool levels_win =
          result.levels_predicted_bytes < result.abmc_predicted_bytes;
      time_abmc = !levels_win;
      time_levels = levels_win;
    }
  }

  ProbeVectors v(a.rows());
  auto measure = [&](Scheduler sched) {
    FBMPK_TSPAN_ARGS(kAutotune, "autotune.scheduler_probe",
                     {.value = sched == Scheduler::kLevels ? 1 : 0});
    PlanOptions opts = base;
    opts.scheduler = sched;
    if (sched == Scheduler::kLevels) {
      // Levels is the keep-the-order strategy: race it the way a levels
      // plan ships — natural order, blocked stages, p2p engine — which
      // is also the configuration the oracle scored above. Leaving the
      // base reorder on would time level stages over the permuted
      // matrix, a configuration no production levels plan runs.
      opts.reorder = false;
      opts.sweep.sync = SweepSync::kPointToPoint;
    }
    MpkPlan plan = MpkPlan::build(a, opts);
    return measure_power(plan, v, k, reps);
  };
  if (time_abmc) result.abmc_seconds = measure(Scheduler::kAbmc);
  if (time_levels) result.levels_seconds = measure(Scheduler::kLevels);
  result.measured = time_abmc && time_levels;
  if (result.measured)
    result.best = result.levels_seconds < result.abmc_seconds
                      ? Scheduler::kLevels
                      : Scheduler::kAbmc;
  else
    result.best = time_levels ? Scheduler::kLevels : Scheduler::kAbmc;
  FBMPK_TCOUNT("autotune.scheduler_pick",
               result.best == Scheduler::kLevels ? 1 : 0);
  return result;
}

KernelConfigResult autotune_kernel_config(const CsrMatrix<double>& a, int k,
                                          int reps, PlanOptions base,
                                          bool allow_fast,
                                          const OracleOptions& oracle) {
  FBMPK_CHECK(k >= 1 && reps >= 1);
  KernelConfigResult result;

  // The plan builder only routes dispatched kernels through the BtB
  // variant (either scheduler); elsewhere the scalar/plain baseline is
  // the only legal configuration.
  const bool dispatch_ok = base.variant == FbVariant::kBtb;

  struct Candidate {
    KernelBackend backend;
    bool compress;
    ValuePrecision precision;
  };
  std::vector<Candidate> candidates;
  candidates.push_back({KernelBackend::kScalar, false, ValuePrecision::kFp64});
  if (dispatch_ok) {
    candidates.push_back({KernelBackend::kScalar, true, ValuePrecision::kFp64});

    // Reduced value precision needs every value inside float range; the
    // split pair is additionally *exact* when each value survives the
    // hi/lo round-trip, which makes it eligible without allow_fast.
    const auto vals = std::span<const double>(a.values());
    const bool fits = values_fit_fp32(vals);
    bool lossless = fits;
    if (fits) {
      for (double v : vals) {
        float hi = 0.0f, lo = 0.0f;
        split_value(v, hi, lo);
        if (join_split(hi, lo) != v) {
          lossless = false;
          break;
        }
      }
    }
    if (lossless) {
      candidates.push_back(
          {KernelBackend::kScalar, false, ValuePrecision::kSplit});
      candidates.push_back(
          {KernelBackend::kScalar, true, ValuePrecision::kSplit});
    }
    if (allow_fast) {
      const KernelBackend fast = resolve_backend(KernelBackend::kAuto);
      if (fast != KernelBackend::kScalar) {
        candidates.push_back({fast, false, ValuePrecision::kFp64});
        candidates.push_back({fast, true, ValuePrecision::kFp64});
      }
      if (fits) {
        candidates.push_back({fast, false, ValuePrecision::kFp32});
        candidates.push_back({fast, true, ValuePrecision::kFp32});
        if (!lossless)  // approximate split: fast-mode only
          candidates.push_back({fast, true, ValuePrecision::kSplit});
      }
    }
  }
  result.samples.resize(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    result.samples[i].backend = candidates[i].backend;
    result.samples[i].index_compress = candidates[i].compress;
    result.samples[i].value_precision = candidates[i].precision;
  }

  FBMPK_TSPAN(kAutotune, "autotune.kernel_config");

  // Oracle pass. The backend never changes the traffic, so candidates
  // collapse into at most four (col_index_bytes, value_bytes) classes;
  // each class is replayed once and its prediction shared. Stable
  // ranking keeps the conservative (scalar, exact) candidate first
  // within a class.
  std::vector<std::size_t> to_time(candidates.size());
  std::iota(to_time.begin(), to_time.end(), std::size_t{0});
  const bool use_oracle =
      oracle.enabled && oracle.top_k >= 1 && base.reorder &&
      candidates.size() > static_cast<std::size_t>(oracle.top_k);
  if (use_oracle) {
    FBMPK_TSPAN(kAutotune, "autotune.oracle_score");
    result.oracle_used = true;
    const ScoringView view = make_scoring_view(a, oracle.max_sample_rows);
    const CsrMatrix<double>& s = view.matrix(a);
    AbmcOptions ao = base.abmc;
    ao.num_blocks = view.scaled_blocks(base.abmc.num_blocks);
    const AbmcOrdering ord = abmc_order(s, ao);
    const double packed_cib =
        std::any_of(candidates.begin(), candidates.end(),
                    [](const Candidate& c) { return c.compress; })
            ? perf::estimate_packed_index_bytes_per_nnz(s, &ord)
            : static_cast<double>(sizeof(index_t));
    perf::ReplayConfig rc;
    rc.k = k;
    rc.threads = base.parallel ? max_threads() : 1;
    rc.max_sample_rows = view.sampled
                             ? std::max<index_t>(1024, oracle.max_sample_rows / 2)
                             : oracle.max_sample_rows;

    std::vector<std::pair<double, std::size_t>> classes;  // (cib, vb) seen
    std::vector<double> class_bytes;
    std::vector<double> predicted(candidates.size(), 0.0);
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const double cib = candidates[i].compress
                             ? packed_cib
                             : static_cast<double>(sizeof(index_t));
      const std::size_t vb = stored_value_bytes(candidates[i].precision);
      std::size_t ci = 0;
      for (; ci < classes.size(); ++ci)
        if (classes[ci] == std::pair<double, std::size_t>{cib, vb}) break;
      if (ci == classes.size()) {
        classes.emplace_back(cib, vb);
        rc.col_index_bytes = cib;
        rc.matrix_value_bytes = vb;
        class_bytes.push_back(
            static_cast<double>(
                perf::replay_fbmpk_traffic(s, &ord, rc).dram_total_bytes()) *
            view.traffic_scale);
      }
      predicted[i] = class_bytes[ci];
      result.samples[i].predicted_bytes = predicted[i];
    }
    to_time = rank_by_prediction(predicted);
    for (std::size_t j = static_cast<std::size_t>(oracle.top_k);
         j < to_time.size(); ++j) {
      result.samples[to_time[j]].pruned = true;
      ++result.candidates_pruned;
    }
    to_time.resize(static_cast<std::size_t>(oracle.top_k));
    FBMPK_TCOUNT("autotune.candidates_pruned", result.candidates_pruned);
  }

  ProbeVectors v(a.rows());
  ErrorCode last_error = ErrorCode::kInternal;
  for (std::size_t i : to_time) {
    const Candidate& c = candidates[i];
    KernelConfigSample& sample = result.samples[i];
    FBMPK_TSPAN_ARGS(
        kAutotune, "autotune.kernel_probe",
        {.value = static_cast<std::int64_t>(c.backend) * 100 +
                  (c.compress ? 10 : 0) + static_cast<int>(c.precision)});
    PlanOptions opts = base;
    opts.kernel_backend = c.backend;
    opts.index_compress = c.compress;
    opts.value_precision = c.precision;
    try {
      maybe_inject_build_fault();
      MpkPlan plan = MpkPlan::build(a, opts);
      sample.seconds = measure_power(plan, v, k, reps);
      sample.packed_index_bytes = plan.stats().packed_index_bytes;
      sample.packed_value_bytes = plan.stats().packed_value_bytes;
    } catch (const Error& e) {
      sample.failed = true;
      sample.error = e.code();
      last_error = e.code();
      continue;
    }
    ++result.candidates_timed;
    if (result.candidates_timed == 1 || sample.seconds < result.best_seconds) {
      result.best_backend = c.backend;
      result.best_index_compress = c.compress;
      result.best_value_precision = c.precision;
      result.best_seconds = sample.seconds;
      result.best_predicted_bytes = std::max(0.0, sample.predicted_bytes);
      result.oracle_rank_of_winner =
          use_oracle ? result.candidates_timed : 0;
    }
  }
  if (result.candidates_timed == 0)
    throw Error(last_error, "every autotune kernel-config candidate failed");
  return result;
}

MpkPlan build_autotuned_plan(const CsrMatrix<double>& a, int k,
                             PlanOptions base, bool allow_fast_kernels) {
  OracleOptions oracle;
  oracle.enabled = base.autotune_oracle;

  // Resolve kAuto by measurement — the structural probe in
  // MpkPlan::build is the cheap fallback for plain builds; here the
  // race is affordable and its verdict is persisted (format v7).
  SchedulerRaceResult race;
  const bool raced = base.scheduler == Scheduler::kAuto;
  if (raced) {
    race = autotune_scheduler(a, k, /*reps=*/3, base, oracle);
    base.scheduler = race.best;
    // The race timed levels in its shipping configuration (natural
    // order); carry that into the plan the remaining stages tune.
    if (race.best == Scheduler::kLevels) base.reorder = false;
  }

  const AutotuneResult tuned = autotune_block_count(
      a, k, default_block_candidates(), /*reps=*/3, base, oracle);
  base.abmc.num_blocks = tuned.best_blocks;
  if (base.parallel)
    base.sweep.sync = autotune_sweep_sync(a, k, /*reps=*/3, base).best;
  const KernelConfigResult kcfg = autotune_kernel_config(
      a, k, /*reps=*/3, base, allow_fast_kernels, oracle);
  base.kernel_backend = kcfg.best_backend;
  base.index_compress = kcfg.best_index_compress;
  base.value_precision = kcfg.best_value_precision;
  MpkPlan plan = MpkPlan::build(a, base);

  TunedConfig chosen;
  chosen.valid = true;
  chosen.backend = kcfg.best_backend;
  chosen.index_compress = kcfg.best_index_compress;
  chosen.value_precision = kcfg.best_value_precision;
  chosen.tuned_threads = static_cast<index_t>(max_threads());
  chosen.best_seconds = kcfg.best_seconds;
  chosen.oracle_used = tuned.oracle_used || kcfg.oracle_used;
  chosen.oracle_predicted_bytes = kcfg.best_predicted_bytes > 0.0
                                      ? kcfg.best_predicted_bytes
                                      : tuned.best_predicted_bytes;
  chosen.candidates_scored =
      static_cast<index_t>(tuned.samples.size() + kcfg.samples.size());
  chosen.candidates_timed =
      tuned.candidates_timed + kcfg.candidates_timed;
  chosen.oracle_rank_of_winner =
      std::max(tuned.oracle_rank_of_winner, kcfg.oracle_rank_of_winner);
  chosen.scheduler = base.scheduler;
  if (raced) {
    chosen.scheduler_measured = race.measured;
    chosen.scheduler_alt_seconds = race.best == Scheduler::kLevels
                                       ? race.abmc_seconds
                                       : race.levels_seconds;
    chosen.oracle_used = chosen.oracle_used || race.oracle_used;
  }
  if (chosen.oracle_used)
    FBMPK_TGAUGE("plan.oracle_predicted_bytes",
                 static_cast<std::int64_t>(chosen.oracle_predicted_bytes));
  plan.set_tuned_config(chosen);
  return plan;
}

}  // namespace fbmpk
