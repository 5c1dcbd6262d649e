#include "core/plan.hpp"

#include <algorithm>
#include <cmath>
#include <new>
#include <type_traits>

#include "kernels/fb_batch.hpp"
#include "kernels/fbmpk_parallel.hpp"
#include "support/timer.hpp"
#include "telemetry/telemetry.hpp"

namespace fbmpk {

const char* scheduler_name(Scheduler s) {
  switch (s) {
    case Scheduler::kAbmc:
      return "abmc";
    case Scheduler::kLevels:
      return "levels";
    case Scheduler::kAuto:
      return "auto";
  }
  return "abmc";
}

Scheduler parse_scheduler(const std::string& name) {
  if (name == "abmc") return Scheduler::kAbmc;
  if (name == "levels") return Scheduler::kLevels;
  if (name == "auto") return Scheduler::kAuto;
  throw Error(ErrorCode::kUnsupported,
              "unknown scheduler '" + name + "' (abmc | levels | auto)");
}

MpkPlan MpkPlan::build(const CsrMatrix<double>& a, PlanOptions opts) {
  FBMPK_CHECK_CODE(a.rows() == a.cols(), ErrorCode::kInvalidMatrix,
                   "MpkPlan needs a square matrix, got " << a.rows() << " x "
                                                         << a.cols());
  FBMPK_CHECK_CODE(a.rows() > 0, ErrorCode::kInvalidMatrix,
                   "MpkPlan needs a non-empty matrix");
  FBMPK_CHECK_MSG(
      !opts.parallel || opts.reorder || opts.scheduler != Scheduler::kAbmc,
      "ABMC-scheduled parallel execution requires the reorder; use "
      "Scheduler::kLevels (or kAuto) to run parallel without reordering");
  const bool wants_dispatch =
      opts.kernel_backend != KernelBackend::kScalar || opts.index_compress ||
      opts.value_precision != ValuePrecision::kFp64;
  FBMPK_CHECK_CODE(!wants_dispatch || opts.variant == FbVariant::kBtb,
                   ErrorCode::kUnsupported,
                   "fast kernel backends / index compression cover the BtB "
                   "variant only");
  FBMPK_CHECK_MSG(opts.prefetch_dist >= 0 && opts.prefetch_dist <= 1024,
                  "prefetch_dist must be in [0, 1024], got "
                      << opts.prefetch_dist);
  if (opts.validate_input) {
    FBMPK_TSPAN(kPlan, "plan.validate");
    check_matrix(a, opts.sanitize);
  }

  FBMPK_TSPAN(kPlan, "plan.build");
  Timer total;
  MpkPlan plan;
  plan.n_ = a.rows();
  plan.opts_ = opts;

  if (opts.reorder) {
    Timer reorder_timer;
    {
      FBMPK_TSPAN(kPlan, "plan.abmc");
      plan.schedule_ = abmc_order(a, opts.abmc);
    }
    plan.perm_ = plan.schedule_.perm;
    plan.stats_.reorder_seconds = reorder_timer.seconds();
    plan.stats_.num_blocks = plan.schedule_.num_blocks;
    plan.stats_.num_colors = plan.schedule_.num_colors;
  } else {
    plan.perm_ = Permutation::identity(a.rows());
  }
  {
    // Permute and split in one pass; natural order skips the sort.
    FBMPK_TSPAN(kPlan, "plan.split");
    plan.split_ = split_triangular(
        a, opts.reorder ? plan.perm_.order() : std::span<const index_t>{});
  }

  if (opts.parallel && opts.scheduler == Scheduler::kAuto) {
    // Structural probe for the unmeasured build path: level scheduling
    // wins when the dependency levels are wide enough to keep every
    // thread busy without ABMC's recoloring barriers; long narrow
    // chains favor ABMC (docs/PARALLELISM.md §choosing-a-scheduler).
    // build_autotuned_plan replaces this with a measured race
    // (autotune_scheduler). Plans never carry kAuto past this point.
    FBMPK_TSPAN(kPlan, "plan.scheduler_probe");
    if (!opts.reorder) {
      opts.scheduler = Scheduler::kLevels;  // ABMC needs the reorder
    } else {
      const index_t threads = opts.sweep.threads > 0
                                  ? opts.sweep.threads
                                  : static_cast<index_t>(max_threads());
      const index_t nl = forward_levels(plan.split_.lower).num_levels;
      const double mean_width =
          static_cast<double>(plan.n_) / static_cast<double>(std::max<index_t>(nl, 1));
      opts.scheduler = mean_width >= 4.0 * static_cast<double>(threads)
                           ? Scheduler::kLevels
                           : Scheduler::kAbmc;
    }
    plan.opts_.scheduler = opts.scheduler;
  } else if (opts.scheduler == Scheduler::kAuto) {
    // Serial plans never consult the scheduler; resolve to the default
    // so persisted options stay concrete.
    opts.scheduler = Scheduler::kAbmc;
    plan.opts_.scheduler = opts.scheduler;
  }

  if (opts.parallel) {
    FBMPK_TSPAN(kPlan, "plan.stage_schedule");
    const index_t threads = opts.sweep.threads > 0
                                ? opts.sweep.threads
                                : static_cast<index_t>(max_threads());
    plan.stages_ = plan.build_stages(threads);
    plan.stats_.sweep_threads = threads;
    // Per-stage critical-path imbalance in parts per million (1e6 ==
    // perfectly balanced).
    FBMPK_TGAUGE("plan.partition_imbalance_ppm",
                 static_cast<std::int64_t>(stage_imbalance(plan.stages_) * 1e6));
  }

  if (opts.index_compress) {
    FBMPK_TSPAN(kPlan, "plan.pack_index");
    plan.packed_.lower = PackedTriangleIndex::build(plan.split_.lower);
    plan.packed_.upper = PackedTriangleIndex::build(plan.split_.upper);
    plan.stats_.packed_index_bytes = plan.packed_.index_bytes();
  }
  if (opts.value_precision != ValuePrecision::kFp64) {
    FBMPK_TSPAN(kPlan, "plan.pack_values");
    const auto lv = std::span<const double>(plan.split_.lower.values());
    const auto uv = std::span<const double>(plan.split_.upper.values());
    const auto dv = std::span<const double>(plan.split_.diag);
    FBMPK_CHECK_CODE(
        values_fit_fp32(lv) && values_fit_fp32(uv) && values_fit_fp32(dv),
        ErrorCode::kUnsupported,
        "matrix values exceed float range; "
            << precision_name(opts.value_precision)
            << " storage needs every value finite and within float range");
    plan.values_.precision = opts.value_precision;
    plan.values_.lower =
        PackedTriangleValues::build(lv, opts.value_precision);
    plan.values_.upper =
        PackedTriangleValues::build(uv, opts.value_precision);
    plan.values_.diag = PackedTriangleValues::build(dv, opts.value_precision);
    plan.stats_.packed_value_bytes = plan.values_.value_bytes();
  }
  // Resolve the executing backend now so an impossible explicit request
  // fails at build, not at the first power() call. kAuto goes through
  // the CPUID probe.
  if (opts.kernel_backend != KernelBackend::kAuto)
    FBMPK_CHECK_CODE(backend_available(opts.kernel_backend),
                     ErrorCode::kUnsupported,
                     "kernel backend "
                         << backend_name(opts.kernel_backend)
                         << " is not available on this CPU");
  plan.resolved_backend_ = resolve_backend(opts.kernel_backend);

  plan.stats_.storage_bytes = plan.split_.storage_bytes();
  plan.internal_ws_ = std::make_unique<Workspace>();
  plan.stats_.build_seconds = total.seconds();
  FBMPK_TCOUNT("plan.builds", 1);
  FBMPK_TGAUGE("plan.num_blocks", plan.stats_.num_blocks);
  FBMPK_TGAUGE("plan.num_colors", plan.stats_.num_colors);
  FBMPK_TGAUGE("plan.scheduler",
               plan.opts_.scheduler == Scheduler::kLevels ? 1 : 0);
  return plan;
}

StageSchedule MpkPlan::build_stages(index_t threads) {
  if (opts_.scheduler == Scheduler::kLevels) {
    const LevelSchedulePair levels = LevelSchedulePair::of(split_);
    stats_.num_levels_forward = levels.forward.num_levels;
    stats_.num_levels_backward = levels.backward.num_levels;
    return build_level_sweep_schedule(levels, split_, threads);
  }
  return build_sweep_schedule(schedule_, split_, threads);
}

DispatchRows MpkPlan::dispatch_rows() const {
  return make_dispatch_rows(split_,
                            opts_.index_compress ? &packed_ : nullptr,
                            &values_, row_kernels(resolved_backend_),
                            opts_.prefetch_dist);
}

bool tuned_config_stale(const TunedConfig& cfg, index_t runtime_threads) {
  if (!cfg.valid) return false;
  if (!backend_available(cfg.backend)) return true;
  return cfg.tuned_threads != runtime_threads;
}

Status MpkPlan::check_path(ExecPath path) const {
  if (path != ExecPath::kEngine && path != ExecPath::kBarrier) return {};
  if (!opts_.parallel || stages_.empty())
    return FBMPK_MAKE_ERROR(ErrorCode::kUnsupported,
                            "engine/barrier execution override needs a "
                            "scheduled parallel plan");
  if (path == ExecPath::kEngine &&
      opts_.sweep.sync != SweepSync::kPointToPoint)
    return FBMPK_MAKE_ERROR(ErrorCode::kUnsupported,
                            "engine execution override needs a plan built "
                            "for point-to-point sync");
  return {};
}

template <class TI, class Rows, class X0, class Emit>
void MpkPlan::sweep_rows(const Rows& rows, const X0& x0, int k,
                         FbWorkspace<TI>& serial_ws, SweepWorkspace<TI>& ws,
                         Emit&& emit, ExecPath path, RunControl* ctl) const {
  if (path == ExecPath::kSerial || !opts_.parallel) {
    // Serial sweeps run outside any parallel region, so cancellation
    // can safely unwind via a typed Error from the emit wrapper. The
    // token is polled per row (one relaxed load); the heartbeat /
    // stall checkpoint fires once per k boundary.
    int last_p = 0;
    auto cemit = [&](int p, index_t i, const TI& v) {
      if (ctl != nullptr) {
        if (p != last_p) {
          last_p = p;
          (void)ctl->checkpoint();
        }
        if (ctl->cancelled())
          throw Error(ctl->cancel_reason(), "serial sweep cancelled");
      }
      emit(p, i, v);
    };
    if constexpr (std::is_same_v<Rows, ScalarRows<double>>)
      fbmpk_sweep(split_, x0, k, serial_ws, cemit, opts_.variant);
    else
      fbmpk_sweep_btb_fast(split_, rows, x0, k, serial_ws, cemit);
    return;
  }
  const bool engine =
      path == ExecPath::kEngine ||
      (path == ExecPath::kDefault &&
       opts_.sweep.sync == SweepSync::kPointToPoint);
  if (!engine ||
      !fbmpk_engine_try_sweep_rows(split_, stages_, rows, x0, k, ws,
                                   opts_.sweep.pin_threads, emit, ctl))
    fbmpk_barrier_sweep_rows(split_, stages_, rows, x0, k, ws, emit, ctl);
}

template <class Emit>
void MpkPlan::sweep(const GatherX0& x0, int k, Workspace& ws, Emit&& emit,
                    ExecPath path, RunControl* ctl) const {
  if (use_dispatch())
    sweep_rows(dispatch_rows(), x0, k, ws.fb, ws.sweep, emit, path, ctl);
  else
    sweep_rows(ScalarRows<double>(split_), x0, k, ws.fb, ws.sweep, emit, path,
               ctl);
}

void MpkPlan::run_power_path(std::span<const double> x, int k,
                             std::span<double> y, Workspace& ws,
                             ExecPath path, RunControl* ctl) const {
  if (k == 0) {
    if (x.data() != y.data()) std::copy(x.begin(), x.end(), y.begin());
    return;
  }
  // Row i's input is read in the head stage and its output written by
  // its final-power emit, which runs after that head stage: x and y may
  // be the same vector.
  const Permutation* perm = gather_perm();
  double* yp = y.data();
  sweep(
      {x.data(), perm, n_}, k, ws,
      [&](int p, index_t i, double v) {
        if (p == k) yp[old_index(perm, i)] = v;
      },
      path, ctl);
}

Status MpkPlan::try_power(std::span<const double> x, int k,
                          std::span<double> y, Workspace& ws, ExecPath path,
                          RunControl* ctl) const {
  try {
    FBMPK_CHECK(x.size() == static_cast<std::size_t>(n_));
    FBMPK_CHECK(y.size() == static_cast<std::size_t>(n_));
    FBMPK_CHECK(k >= 0);
    if (Status st = check_path(path); !st.ok()) return st;
    if (ctl != nullptr && ctl->cancelled())
      return Status(FBMPK_MAKE_ERROR(ctl->cancel_reason(),
                                     "request cancelled before execution"));
    FBMPK_TSPAN_ARGS(kSweep, "plan.try_power", {.k = k});

    run_power_path(x, k, y, ws, path, ctl);
    if (ctl != nullptr && ctl->cancelled())
      return Status(FBMPK_MAKE_ERROR(ctl->cancel_reason(),
                                     "sweep cancelled at a stage boundary"));
    return Status();
  } catch (const Error& e) {
    return Status(e);
  } catch (const std::bad_alloc&) {
    return Status(FBMPK_MAKE_ERROR(ErrorCode::kResourceLimit,
                                   "allocation failed during sweep"));
  }
}

/// One B-wide chunk of a batched power: gather lanes straight from the
/// request buffers (permutation applied inline), run the pipeline over
/// Pack<double, B> iterates, scatter each lane's final power straight
/// back to its ys[b]. Workspaces are per-call: the batched iterate
/// array is a different shape per B, so sharing the plan Workspace
/// would thrash its single-vector buffers.
template <int B>
Status MpkPlan::run_power_batch_chunk(const double* const* xs, int k,
                                      double* const* ys, ExecPath path,
                                      RunControl* ctl) const {
  using P = Pack<double, B>;
  const Permutation* perm = gather_perm();
  const BatchX0<B> x0{xs, perm, n_};
  auto emit = [&](int p, index_t i, const P& v) {
    if (p != k) return;
    const index_t dst = old_index(perm, i);
    for (int b = 0; b < B; ++b) ys[b][dst] = v.v[b];
  };

  // Skip the NUMA warm pass: the matrix arrays are typically resident
  // from prior single-vector runs, and the head stage first-touches xy
  // regardless.
  FbWorkspace<P> serial_ws;
  SweepWorkspace<P> ws;
  ws.resize(n_);
  ws.warmed = true;
  if (use_dispatch())
    sweep_rows(make_batch_dispatch_rows<B>(
                   split_, opts_.index_compress ? &packed_ : nullptr,
                   &values_, batch_row_kernels(resolved_backend_),
                   opts_.prefetch_dist),
               x0, k, serial_ws, ws, emit, path, ctl);
  else
    sweep_rows(BatchScalarRows<B>(split_), x0, k, serial_ws, ws, emit, path,
               ctl);
  return Status();
}

Status MpkPlan::try_power_batch(const double* const* xs, index_t nvec, int k,
                                double* const* ys, ExecPath path,
                                RunControl* ctl) const {
  try {
    FBMPK_CHECK(xs != nullptr && ys != nullptr);
    FBMPK_CHECK(nvec >= 1);
    FBMPK_CHECK(k >= 0);
    if (Status st = check_path(path); !st.ok()) return st;
    if (ctl != nullptr && ctl->cancelled())
      return Status(FBMPK_MAKE_ERROR(ctl->cancel_reason(),
                                     "request cancelled before execution"));
    FBMPK_TSPAN_ARGS(kSweep, "plan.try_power_batch", {.k = k});

    if (k == 0) {
      for (index_t b = 0; b < nvec; ++b)
        std::copy(xs[b], xs[b] + n_, ys[b]);
      return Status();
    }

    index_t done = 0;
    while (done < nvec) {
      const index_t rem = nvec - done;
      Status st;
      index_t width;
      if (rem >= 16) {
        width = 16;
        st = run_power_batch_chunk<16>(xs + done, k, ys + done, path, ctl);
      } else if (rem >= 8) {
        width = 8;
        st = run_power_batch_chunk<8>(xs + done, k, ys + done, path, ctl);
      } else if (rem >= 4) {
        width = 4;
        st = run_power_batch_chunk<4>(xs + done, k, ys + done, path, ctl);
      } else if (rem >= 2) {
        width = 2;
        st = run_power_batch_chunk<2>(xs + done, k, ys + done, path, ctl);
      } else {
        // Width 1 stays on the batch kernels (not try_power): the
        // per-lane contract is "bitwise equal to the exact scalar
        // accumulation order", and the single-vector path of a SIMD
        // backend uses its own reduction shape.
        width = 1;
        st = run_power_batch_chunk<1>(xs + done, k, ys + done, path, ctl);
      }
      if (!st.ok()) return st;
      if (ctl != nullptr && ctl->cancelled())
        return Status(FBMPK_MAKE_ERROR(
            ctl->cancel_reason(), "batched sweep cancelled at a chunk boundary"));
      done += width;
    }
    return Status();
  } catch (const Error& e) {
    return Status(e);
  } catch (const std::bad_alloc&) {
    return Status(FBMPK_MAKE_ERROR(ErrorCode::kResourceLimit,
                                   "allocation failed during batched sweep"));
  }
}

void MpkPlan::power(std::span<const double> x, int k, std::span<double> y,
                    Workspace& ws) const {
  FBMPK_CHECK(x.size() == static_cast<std::size_t>(n_));
  FBMPK_CHECK(y.size() == static_cast<std::size_t>(n_));
  FBMPK_CHECK(k >= 0);
  FBMPK_TSPAN_ARGS(kSweep, "plan.power", {.k = k});
  FBMPK_TCOUNT("plan.power_calls", 1);
  run_power_path(x, k, y, ws, ExecPath::kDefault, nullptr);
}

void MpkPlan::power(std::span<const double> x, int k, std::span<double> y) {
  power(x, k, y, *internal_ws_);
}

void MpkPlan::power_all(std::span<const double> x, int k,
                        std::span<double> out, Workspace& ws) const {
  const auto n = static_cast<std::size_t>(n_);
  FBMPK_CHECK(x.size() == n);
  FBMPK_CHECK(out.size() == n * static_cast<std::size_t>(k + 1));
  FBMPK_CHECK(k >= 0);
  FBMPK_TSPAN_ARGS(kSweep, "plan.power_all", {.k = k});
  FBMPK_TCOUNT("plan.power_all_calls", 1);
  std::copy(x.begin(), x.end(), out.begin());
  if (k == 0) return;
  const Permutation* perm = gather_perm();
  double* op = out.data();
  sweep({x.data(), perm, n_}, k, ws, [&](int p, index_t i, double v) {
    op[static_cast<std::size_t>(p) * n +
       static_cast<std::size_t>(old_index(perm, i))] = v;
  });
}

void MpkPlan::power_all(std::span<const double> x, int k,
                        std::span<double> out) {
  power_all(x, k, out, *internal_ws_);
}

void MpkPlan::polynomial(std::span<const double> coeffs,
                         std::span<const double> x, std::span<double> y,
                         Workspace& ws) const {
  const auto n = static_cast<std::size_t>(n_);
  FBMPK_CHECK(x.size() == n && y.size() == n);
  FBMPK_CHECK(!coeffs.empty());
  FBMPK_CHECK_MSG(x.data() != y.data(),
                  "polynomial needs distinct x and y vectors");
  FBMPK_TSPAN_ARGS(kSweep, "plan.polynomial",
                   {.k = static_cast<int>(coeffs.size()) - 1});
  const int k = static_cast<int>(coeffs.size()) - 1;
  for (std::size_t i = 0; i < n; ++i) y[i] = coeffs[0] * x[i];
  if (k == 0) return;
  const Permutation* perm = gather_perm();
  double* yp = y.data();
  const double* cp = coeffs.data();
  sweep({x.data(), perm, n_}, k, ws, [&](int p, index_t i, double v) {
    yp[old_index(perm, i)] += cp[p] * v;
  });
}

void MpkPlan::polynomial(std::span<const double> coeffs,
                         std::span<const double> x, std::span<double> y) {
  polynomial(coeffs, x, y, *internal_ws_);
}

KernelStatus MpkPlan::recurrence(std::span<const RecurrenceStep<double>> steps,
                                 std::span<const double> x,
                                 std::span<double> y, Workspace& ws) const {
  const auto n = static_cast<std::size_t>(n_);
  FBMPK_CHECK(x.size() == n && y.size() == n);
  FBMPK_CHECK(!steps.empty());
  const int k = static_cast<int>(steps.size());

  // Breakdown detection up front: a non-finite input or coefficient
  // would NaN-poison every row of the sweep.
  for (const auto& st : steps)
    if (!std::isfinite(st.alpha) || !std::isfinite(st.beta) ||
        !std::isfinite(st.gamma))
      return KernelStatus::breakdown(-1, "non-finite recurrence coefficient");
  if (auto st = check_finite(x, "non-finite input vector"); !st.ok)
    return st;

  auto run = [&](std::span<const double> px, std::span<double> py) {
    double* yp = py.data();
    auto emit = [&](int p, index_t i, double v) {
      if (p == k) yp[i] = v;
    };
    // The recurrence runs on the ABMC coloring, which any reordered plan
    // carries (the split is permuted by it whichever scheduler built the
    // stage schedule); otherwise serial, with identical numerics.
    if (opts_.parallel && !schedule_.block_ptr.empty())
      fbmpk_recurrence_parallel_sweep(split_, schedule_, steps, px, ws.fb,
                                      emit);
    else
      fbmpk_recurrence_sweep(split_, steps, px, ws.fb, emit);
  };

  if (perm_.is_identity()) {
    run(x, y);
  } else {
    ws.px.resize(n);
    ws.py.resize(n);
    permute_vector<double>(perm_, x, ws.px);
    run(std::span<const double>(ws.px), std::span<double>(ws.py));
    unpermute_vector<double>(perm_, std::span<const double>(ws.py), y);
  }
  return check_finite(std::span<const double>(y.data(), y.size()),
                      "non-finite recurrence iterate");
}

KernelStatus MpkPlan::recurrence(std::span<const RecurrenceStep<double>> steps,
                                 std::span<const double> x,
                                 std::span<double> y) {
  return recurrence(steps, x, y, *internal_ws_);
}

void MpkPlan::polynomial(std::span<const std::complex<double>> coeffs,
                         std::span<const double> x,
                         std::span<std::complex<double>> y,
                         Workspace& ws) const {
  const auto n = static_cast<std::size_t>(n_);
  FBMPK_CHECK(x.size() == n && y.size() == n);
  FBMPK_CHECK(!coeffs.empty());
  const int k = static_cast<int>(coeffs.size()) - 1;
  for (std::size_t i = 0; i < n; ++i) y[i] = coeffs[0] * x[i];
  if (k == 0) return;
  const Permutation* perm = gather_perm();
  std::complex<double>* yp = y.data();
  const std::complex<double>* cp = coeffs.data();
  sweep({x.data(), perm, n_}, k, ws, [&](int p, index_t i, double v) {
    yp[old_index(perm, i)] += cp[p] * v;
  });
}

void MpkPlan::polynomial(std::span<const std::complex<double>> coeffs,
                         std::span<const double> x,
                         std::span<std::complex<double>> y) {
  polynomial(coeffs, x, y, *internal_ws_);
}

}  // namespace fbmpk
