// Plan-level measurement shared by the workloads (see measure.hpp).
#include "measure.hpp"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "core/autotune.hpp"
#include "core/plan_io.hpp"
#include "perf/traffic_model.hpp"
#include "reorder/abmc.hpp"
#include "reorder/level_blocking.hpp"
#include "sparse/split.hpp"
#include "stats.hpp"
#include "support/threading.hpp"

namespace perfbench {

using fbmpk::ExecPath;
using fbmpk::MpkPlan;
namespace telemetry = fbmpk::telemetry;

double Cell::cv() const {
  return std::max({robust_cv(t_plan), robust_cv(t_tuned), robust_cv(t_mpk)});
}

Bench::Bench(const Args& a, Sheet& s, Ledger& l)
    : args(a), sheet(s), ledger(l), threads(fbmpk::max_threads()) {}

void Bench::check_threads(const MpkPlan& plan) const {
  const int now = fbmpk::max_threads();
  const int engine = plan.stats().sweep_threads;
  const auto& tc = plan.tuned_config();
  if (now != threads || (engine != 0 && engine != threads) ||
      (tc.valid && tc.tuned_threads != threads)) {
    std::ostringstream os;
    os << "thread counts differ: baseline team " << now << ", run team "
       << threads << ", plan engine " << engine << ", plan tuned at "
       << tc.tuned_threads;
    throw std::runtime_error(os.str());
  }
}

void build_default_plans(Bench& b, int repeats) {
  const std::size_t n = b.inputs.size();
  b.plans.resize(n);
  std::vector<std::vector<double>> per_input(n);
  for (int r = 0; r < repeats; ++r) {
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      b.plans[i].reset();  // one plan of each input alive at a time
      const double t = timed([&] {
        LayerSpan span("core.build");
        b.plans[i] = std::make_unique<MpkPlan>(MpkPlan::build(b.inputs[i].a));
      });
      per_input[i].push_back(t);
      total += t;
    }
    b.setup_rounds.push_back(total);
  }
  b.build_s.clear();
  for (const auto& v : per_input) b.build_s.push_back(median(v));
}

void build_tuned_plans(Bench& b) {
  b.tuned.resize(b.inputs.size());
  b.tune_s.clear();
  for (std::size_t i = 0; i < b.inputs.size(); ++i) {
    b.tune_s.push_back(timed([&] {
      LayerSpan span("core.autotune");
      b.tuned[i] = std::make_unique<MpkPlan>(
          fbmpk::build_autotuned_plan(b.inputs[i].a, Settings::kTuneK));
    }));
    b.check_threads(*b.tuned[i]);
  }
}

namespace {

MpkPlan serial_twin(const CsrMatrix<double>& a, const MpkPlan& plan) {
  fbmpk::PlanOptions opts = plan.options();
  opts.parallel = false;
  return MpkPlan::build(a, opts);
}

std::vector<double> power_of(const MpkPlan& plan, std::span<const double> x,
                             int k) {
  std::vector<double> y(x.size());
  MpkPlan::Workspace ws;
  plan.power(x, k, y, ws);
  return y;
}

}  // namespace

void prepare_cells(Bench& b, const std::vector<int>& ks, const TwinHook& hook) {
  b.cells.clear();
  for (std::size_t i = 0; i < b.inputs.size(); ++i) {
    const auto& a = b.inputs[i].a;
    const auto& x = b.xs[i];
    std::vector<Cell> mine;
    for (int k : ks) {
      Cell c;
      c.input = i;
      c.k = k;
      c.y_mpk = mpk_reference(a, x, k);
      mine.push_back(std::move(c));
    }
    {
      const MpkPlan twin = serial_twin(a, *b.plans[i]);
      const double bound = kernel_bound(a, twin.options().value_precision,
                                        x, ks.back());
      for (Cell& c : mine) {
        c.y_ref = power_of(twin, x, c.k);
        // The oracle itself must agree with the standard kernel.
        if (!within(c.y_ref, c.y_mpk, bound))
          b.ledger.mismatch(b.inputs[i].name + " serial oracle vs mpk_power");
        else
          b.ledger.ok();
      }
      if (hook) hook(i, twin);
    }
    const MpkPlan& tuned = *b.tuned[i];
    if (plan_is_exact(tuned)) {
      const MpkPlan twin = serial_twin(a, tuned);
      for (Cell& c : mine) c.y_tuned_ref = power_of(twin, x, c.k);
    } else {
      for (Cell& c : mine)
        c.tuned_bound = kernel_bound(a, tuned.options().value_precision, x,
                                     c.k);
    }
    for (Cell& c : mine) b.cells.push_back(std::move(c));
  }
}

namespace {

enum Side { kPlan = 0, kTuned = 1, kMpk = 2 };

/// Time one side of a cell and check its output outside the timing.
double run_side(Bench& b, Cell& c, Side side, std::vector<double>& y) {
  const auto& in = b.inputs[c.input];
  const auto& x = b.xs[c.input];
  double t = 0.0;
  bool good = false;
  std::string what;
  switch (side) {
    case kPlan: {
      MpkPlan& plan = *b.plans[c.input];
      b.check_threads(plan);
      t = timed([&] {
        LayerSpan span("kernels.power");
        plan.power(x, c.k, y);
      });
      good = bitwise_equal(y, c.y_ref);
      what = "default plan";
      break;
    }
    case kTuned: {
      MpkPlan& plan = *b.tuned[c.input];
      b.check_threads(plan);
      t = timed([&] {
        LayerSpan span("kernels.power_tuned");
        plan.power(x, c.k, y);
      });
      good = c.y_tuned_ref.empty() ? within(y, c.y_mpk, c.tuned_bound)
                                   : bitwise_equal(y, c.y_tuned_ref);
      what = "tuned plan";
      break;
    }
    case kMpk: {
      if (fbmpk::max_threads() != b.threads)
        throw std::runtime_error("baseline thread count changed");
      t = timed([&] {
        LayerSpan span("kernels.mpk");
        fbmpk::mpk_power<double>(in.a, x, c.k, y, b.mpk_ws,
                                 fbmpk::SpmvExec::kParallel);
      });
      good = bitwise_equal(y, c.y_mpk);
      what = "mpk_power";
      break;
    }
  }
  if (good)
    b.ledger.ok();
  else
    b.ledger.mismatch(in.name + " k=" + std::to_string(c.k) + " " + what);
  return t;
}

/// One interleaved round of a cell: the three sides in an order that
/// rotates with the round, so each side runs first equally often.
void run_round(Bench& b, Cell& c, int round, bool traced,
               std::vector<double>& y) {
  y.resize(b.xs[c.input].size());
  for (int j = 0; j < 3; ++j) {
    const auto side = static_cast<Side>((round + j) % 3);
    const double t = run_side(b, c, side, y);
    if (traced) {
      if (side == kPlan) c.tr_plan.push_back(t);
      continue;
    }
    (side == kPlan ? c.t_plan : side == kTuned ? c.t_tuned : c.t_mpk)
        .push_back(t);
  }
}

void set_tracing(const Bench& b, bool on) {
  if (b.args.trace) telemetry::Registry::instance().set_enabled(on);
}

}  // namespace

void measure_cells(Bench& b, double budget_s) {
  std::vector<double> y;
  // Untimed (but checked) rounds first: workspaces are allocated and
  // the caches and thread team warmed before any sample is kept.
  for (Cell& c : b.cells) {
    for (int r = 0; r < 3; ++r) run_round(b, c, r, false, y);
    c.t_plan.clear();
    c.t_tuned.clear();
    c.t_mpk.clear();
  }
  const double deadline = now_s() + budget_s;
  // Traced runs keep only every other round untraced, so they run twice
  // the minimum to keep as many untraced samples.
  const int min_rounds = Settings::kMinRounds * (b.args.trace ? 2 : 1);
  for (int round = 0; round < min_rounds || now_s() < deadline; ++round) {
    // Traced runs alternate traced and untraced rounds; the untraced
    // ones give the baseline of trace.overhead_pct.
    const bool traced = b.args.trace && round % 2 == 1;
    set_tracing(b, traced);
    LayerSpan span("bench.round");
    for (std::size_t ci = 0; ci < b.cells.size(); ++ci)
      run_round(b, b.cells[ci], round + static_cast<int>(ci), traced, y);
  }
  // A cell whose samples spread past the CV bound is measured again,
  // alone, and kept whatever its final CV.
  set_tracing(b, false);
  const double rerun_deadline = now_s() + 0.25 * budget_s;
  for (Cell& c : b.cells) {
    while (c.cv() > Settings::kCellCvBound && c.reruns < Settings::kCellReruns &&
           now_s() < rerun_deadline) {
      const std::size_t rounds = c.t_plan.size();
      c.t_plan.clear();
      c.t_tuned.clear();
      c.t_mpk.clear();
      for (std::size_t r = 0; r < rounds; ++r)
        run_round(b, c, static_cast<int>(r), false, y);
      ++c.reruns;
    }
  }
  set_tracing(b, b.args.trace);
}

double standalone_seconds(const Bench& b, std::size_t input, int k) {
  for (const Cell& c : b.cells)
    if (c.input == input && c.k == k) return median(c.t_plan);
  throw std::logic_error("no cell for the requested (input, k)");
}

void plan_metrics(Bench& b) {
  std::vector<double> gflops, speedup, tgflops, tspeedup, cvs;
  int reruns = 0;
  std::printf("%-12s %2s %10s %10s %10s %7s %7s %6s %4s\n", "matrix", "k",
              "plan_ms", "tuned_ms", "mpk_ms", "x_mpk", "tx_mpk", "cv",
              "n");
  for (const Cell& c : b.cells) {
    const double flops = 2.0 * b.inputs[c.input].a.nnz() * c.k;
    const double tp = median(c.t_plan), tt = median(c.t_tuned),
                 tm = median(c.t_mpk);
    gflops.push_back(flops / tp / 1e9);
    tgflops.push_back(flops / tt / 1e9);
    speedup.push_back(tm / tp);
    tspeedup.push_back(tm / tt);
    cvs.push_back(c.cv());
    reruns += c.reruns;
    std::printf("%-12s %2d %10.4f %10.4f %10.4f %7.3f %7.3f %6.3f %4zu%s\n",
                b.inputs[c.input].name.c_str(), c.k, tp * 1e3, tt * 1e3,
                tm * 1e3, tm / tp, tm / tt, c.cv(), c.t_plan.size(),
                c.cv() > Settings::kCellCvBound ? "  (over CV bound)" : "");
  }
  for (std::size_t i = 0; i < b.inputs.size(); ++i) {
    const auto& o = b.tuned[i]->options();
    std::printf("setup %-12s build %.4f s  autotune %.4f s -> %s, %d blocks, "
                "%s sync, backend %d, compress %d\n",
                b.inputs[i].name.c_str(), b.build_s[i], b.tune_s[i],
                fbmpk::scheduler_name(o.scheduler), o.abmc.num_blocks,
                o.sweep.sync == fbmpk::SweepSync::kBarrier ? "barrier" : "p2p",
                static_cast<int>(b.tuned[i]->resolved_backend()),
                o.index_compress ? 1 : 0);
  }
  b.sheet.set("power_gflops", geomean(gflops), "GFLOP/s");
  b.sheet.set("speedup_vs_mpk", geomean(speedup), "x");
  b.sheet.set("kernels.tuned_gflops", geomean(tgflops), "GFLOP/s");
  b.sheet.set("tuned_speedup_vs_mpk", geomean(tspeedup), "x");
  b.sheet.set("bench.cv_max", *std::max_element(cvs.begin(), cvs.end()),
              "fraction");
  b.sheet.set("bench.cells_rerun", reruns, "count");
  b.sheet.set("bench.threads", b.threads, "count");

  // Trace overhead: traced rounds against the untraced rounds between
  // them, per cell, on the default plan.
  std::vector<double> ratio;
  for (const Cell& c : b.cells)
    if (!c.tr_plan.empty()) ratio.push_back(median(c.tr_plan) / median(c.t_plan));
  if (!ratio.empty())
    b.sheet.set("trace.overhead_pct", (geomean(ratio) - 1.0) * 100.0, "%");
}

namespace {

/// Median of `reps` timed calls of `f`, each wrapped in a span.
template <class F>
double median_time(const char* span_name, int reps, F&& f) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r)
    t.push_back(timed([&] {
      LayerSpan span(span_name);
      f();
    }));
  return median(t);
}

}  // namespace

void layer_probes(Bench& b) {
  telemetry::Registry::instance().set_enabled(true);
  const int k = Settings::kProbeK;
  const double triad = b.sheet.find("host.triad_gbs")->value;
  double abmc_s = 0, split_s = 0, level_s = 0, save_s = 0, load_s = 0;
  double plan_bytes = 0, colors = 0, stages = 0, autotune_s = 0;
  double scored = 0, timed_c = 0, levels_picks = 0, race_s = 0;
  std::vector<double> build_equiv, serial_ms, barrier_ms, engine_ms, eff,
      batch_gflops, pair_ms, headtail_ms, p50, p95, samples;

  for (std::size_t i = 0; i < b.inputs.size(); ++i) {
    const auto& in = b.inputs[i];
    const auto& a = in.a;
    const auto& x = b.xs[i];
    const MpkPlan& plan = *b.plans[i];
    const MpkPlan& tuned = *b.tuned[i];
    const Cell* probe = nullptr;
    for (const Cell& c : b.cells)
      if (c.input == i && c.k == k) probe = &c;
    if (probe == nullptr) throw std::logic_error("no probe cell");
    std::vector<double> y(x.size());
    auto expect = [&](bool good, const std::string& what) {
      if (good)
        b.ledger.ok();
      else
        b.ledger.mismatch(in.name + " " + what);
    };

    // reorder + sparse
    abmc_s += timed([&] {
      LayerSpan span("reorder.abmc");
      (void)fbmpk::abmc_order(a, plan.options().abmc);
    });
    std::optional<fbmpk::TriangularSplit<double>> split;
    split_s += timed([&] {
      LayerSpan span("sparse.split");
      split = fbmpk::split_triangular(a);
    });
    fbmpk::LevelSweepSchedule ls;
    level_s += timed([&] {
      LayerSpan span("reorder.level_block");
      const auto levels = fbmpk::LevelSchedulePair::of(*split);
      ls = fbmpk::build_level_sweep_schedule(levels, *split, b.threads);
    });
    split.reset();
    stages += ls.fwd.num_stages + ls.bwd.num_stages;
    colors += plan.stats().num_colors;
    plan_bytes += static_cast<double>(plan.stats().storage_bytes +
                                      plan.stats().packed_index_bytes +
                                      plan.stats().packed_value_bytes);

    // core: plan_io round trip, build cost in SpMV equivalents, autotune
    std::ostringstream os;
    save_s += timed([&] {
      LayerSpan span("core.plan_save");
      fbmpk::save_plan(plan, os);
    });
    std::istringstream is(os.str());
    std::optional<fbmpk::Expected<MpkPlan>> loaded;
    load_s += timed([&] {
      LayerSpan span("core.plan_load");
      loaded.emplace(fbmpk::try_load_plan(is));
    });
    if (loaded->has_value()) {
      loaded->value().power(x, k, y);
      expect(bitwise_equal(y, probe->y_ref), "plan_io round trip");
    } else {
      b.ledger.fail(in.name + " try_load_plan: " + loaded->error().what());
    }
    loaded.reset();
    const double spmv = median_time("kernels.spmv", 5, [&] {
      fbmpk::mpk_power<double>(a, x, 1, y, b.mpk_ws,
                               fbmpk::SpmvExec::kParallel);
    });
    build_equiv.push_back(b.build_s[i] / spmv);
    autotune_s += b.tune_s[i];
    const auto& tc = tuned.tuned_config();
    scored += tc.candidates_scored;
    timed_c += tc.candidates_timed;
    fbmpk::SchedulerRaceResult race;
    race_s += timed([&] {
      LayerSpan span("core.scheduler_race");
      race = fbmpk::autotune_scheduler(a, Settings::kTuneK);
    });
    if (race.best == fbmpk::Scheduler::kLevels) ++levels_picks;
    std::printf("layer %-12s colors=%d level_stages=%d scheduler race: %s "
                "(abmc %.4f ms, levels %.4f ms) tuned: blocks=%d scored=%d "
                "timed=%d\n",
                in.name.c_str(), plan.stats().num_colors,
                ls.fwd.num_stages + ls.bwd.num_stages,
                fbmpk::scheduler_name(race.best), race.abmc_seconds * 1e3,
                race.levels_seconds * 1e3, tuned.options().abmc.num_blocks,
                tc.candidates_scored, tc.candidates_timed);

    // kernels: each execution path, on the default plan and on a
    // point-to-point twin for the engine path
    MpkPlan::Workspace ws;
    auto path_ms = [&](const MpkPlan& p, ExecPath path, const char* name) {
      b.check_threads(p);
      const double t = median_time(name, 3, [&] {
        const fbmpk::Status st = p.try_power(x, k, y, ws, path);
        if (!st.ok()) throw st.error();
      });
      expect(bitwise_equal(y, probe->y_ref), name);
      return t * 1e3;
    };
    serial_ms.push_back(path_ms(plan, ExecPath::kSerial, "kernels.serial"));
    barrier_ms.push_back(path_ms(plan, ExecPath::kBarrier, "kernels.barrier"));
    {
      fbmpk::PlanOptions opts = plan.options();
      opts.sweep.sync = fbmpk::SweepSync::kPointToPoint;
      std::unique_ptr<MpkPlan> p2p;
      {
        LayerSpan span("core.build");
        p2p = std::make_unique<MpkPlan>(MpkPlan::build(a, opts));
      }
      engine_ms.push_back(path_ms(*p2p, ExecPath::kEngine, "kernels.engine"));
    }
    const double default_s = median(probe->t_plan);
    eff.push_back(serial_ms.back() * 1e-3 / (b.threads * default_s));

    // kernels: eight coalesced right-hand sides in one batched sweep
    constexpr int kLanes = 8;
    std::vector<std::vector<double>> bx(kLanes), by(kLanes);
    std::vector<const double*> px(kLanes);
    std::vector<double*> py(kLanes);
    for (int l = 0; l < kLanes; ++l) {
      bx[l] = l == 0 ? x
                     : random_vector(a.rows(), mix_seed(b.args.seed, 1000 + l));
      by[l].assign(x.size(), 0.0);
      px[l] = bx[l].data();
      py[l] = by[l].data();
    }
    const double tb = median_time("kernels.power_batch", 3, [&] {
      const fbmpk::Status st = plan.try_power_batch(px.data(), kLanes, k,
                                                    py.data());
      if (!st.ok()) throw st.error();
    });
    for (int l = 0; l < kLanes; ++l) {
      std::vector<double> ref(x.size());
      plan.power(bx[l], k, ref, ws);
      expect(bitwise_equal(by[l], ref), "batch lane");
    }
    batch_gflops.push_back(2.0 * a.nnz() * k / tb / 1e9);

    // kernels: pair and head/tail cost from the default plan's cells
    std::vector<int> ks;
    std::vector<double> secs;
    for (const Cell& c : b.cells)
      if (c.input == i) {
        ks.push_back(c.k);
        secs.push_back(median(c.t_plan));
      }
    const LineFit fit = fit_pair_headtail(ks, secs);
    pair_ms.push_back(fit.slope * 1e3);
    headtail_ms.push_back(fit.intercept * 1e3);
    const Quantile q50 = quantile(probe->t_plan, 0.5);
    const Quantile q95 = quantile(probe->t_plan, 0.95);
    p50.push_back(q50.value * 1e3);
    p95.push_back(q95.value * 1e3);
    samples.push_back(static_cast<double>(q50.n));
    std::printf("layer %-12s k=%d power_ms p50=%.4f p95=%.4f (n=%zu, %zu "
                "beyond p95) pair_ms=%.4f headtail_ms=%.4f\n",
                in.name.c_str(), k, q50.value * 1e3, q95.value * 1e3, q95.n,
                q95.beyond, fit.slope * 1e3, fit.intercept * 1e3);
  }

  // kernels: computed bytes from the perf traffic model
  std::vector<double> gbs, mpk_gbs, ratio, ns_per_nnz;
  std::vector<fbmpk::perf::MatrixShape> shapes;
  for (const auto& in : b.inputs)
    shapes.push_back(fbmpk::perf::MatrixShape::of(in.a));
  for (const Cell& c : b.cells) {
    const MpkPlan& plan = *b.plans[c.input];
    const double col_bytes =
        plan.options().index_compress ? plan.packed_index().bytes_per_nnz()
                                      : static_cast<double>(sizeof(index_t));
    const double fb = static_cast<double>(
        fbmpk::perf::fbmpk_traffic_mixed(shapes[c.input], c.k, col_bytes,
                                         plan.options().value_precision)
            .total());
    const double st = static_cast<double>(
        fbmpk::perf::standard_mpk_traffic(shapes[c.input], c.k).total());
    gbs.push_back(fb / median(c.t_plan) / 1e9);
    mpk_gbs.push_back(st / median(c.t_mpk) / 1e9);
    ratio.push_back(fb / st);
    ns_per_nnz.push_back(median(c.t_tuned) * 1e9 /
                         (static_cast<double>(b.inputs[c.input].a.nnz()) * c.k));
  }
  auto& s = b.sheet;
  s.set("kernels.power_gbs", geomean(gbs), "GB/s");
  s.set("kernels.roof_fraction", geomean(gbs) / triad, "fraction");
  s.set("kernels.mpk_gbs", geomean(mpk_gbs), "GB/s");
  s.set("kernels.mpk_roof_fraction", geomean(mpk_gbs) / triad, "fraction");
  s.set("kernels.traffic_ratio", geomean(ratio), "count");
  s.set("kernels.pair_ms", mean(pair_ms), "ms");
  s.set("kernels.headtail_ms", mean(headtail_ms), "ms");
  s.set("kernels.serial_ms", geomean(serial_ms), "ms");
  s.set("kernels.barrier_ms", geomean(barrier_ms), "ms");
  s.set("kernels.engine_ms", geomean(engine_ms), "ms");
  s.set("kernels.parallel_efficiency", geomean(eff), "fraction");
  s.set("kernels.tuned_ns_per_nnz", geomean(ns_per_nnz), "ns");
  s.set("kernels.batch8_gflops_per_vec", geomean(batch_gflops), "GFLOP/s");
  s.set("kernels.power_ms_p50", geomean(p50), "ms");
  s.set("kernels.power_ms_p95", geomean(p95), "ms");
  s.set("kernels.power_samples",
        *std::min_element(samples.begin(), samples.end()), "count");
  const double n = static_cast<double>(b.inputs.size());
  s.set("reorder.abmc_s", abmc_s, "s");
  s.set("reorder.colors", colors / n, "count");
  s.set("reorder.barriers_per_pair", 2.0 * colors / n, "count");
  s.set("reorder.level_block_s", level_s, "s");
  s.set("reorder.level_stages", stages / n, "count");
  s.set("sparse.split_s", split_s, "s");
  s.set("sparse.plan_bytes", plan_bytes, "bytes");
  double build_total = 0.0;
  for (double t : b.build_s) build_total += t;
  s.set("core.build_s", build_total, "s");
  s.set("core.build_spmv_equiv", geomean(build_equiv), "count");
  s.set("core.autotune_s", autotune_s, "s");
  s.set("core.autotune_candidates_scored", scored, "count");
  s.set("core.autotune_candidates_timed", timed_c, "count");
  s.set("core.scheduler_race_s", race_s, "s");
  s.set("core.scheduler_levels_picks", levels_picks, "count");
  s.set("core.plan_save_s", save_s, "s");
  s.set("core.plan_load_s", load_s, "s");
}

fbmpk::service::ServiceOptions serve_options() {
  fbmpk::service::ServiceOptions o;
  o.max_batch = Settings::kServeMaxBatch;
  o.batch_window_us = Settings::kServeBatchWindowUs;
  return o;
}

void service_metrics(Bench& b, fbmpk::service::MpkService& svc,
                     const std::vector<double>& submit_ms,
                     const std::vector<double>& overhead_ms) {
  const auto st = svc.stats();
  const auto win = svc.window(3600.0);
  std::vector<double> fp_ms, hit_ms;
  for (const auto& in : b.inputs) {
    std::uint64_t key = 0;
    fp_ms.push_back(1e3 * median_time("service.fingerprint", 3, [&] {
                      key = fbmpk::service::fingerprint(in.a);
                    }));
    auto builder = [&] { return MpkPlan::build(in.a); };
    svc.cache().acquire(key, builder);  // served once already: a hit
    hit_ms.push_back(1e3 * median_time("service.acquire", 21, [&] {
                       const auto lease = svc.cache().acquire(key, builder);
                       if (!lease.plan) throw std::runtime_error("null lease");
                     }));
  }
  auto& s = b.sheet;
  const double lookups =
      static_cast<double>(st.cache.hits + st.cache.misses);
  s.set("service.fingerprint_ms", geomean(fp_ms), "ms");
  s.set("service.cache_acquire_hit_ms", median(hit_ms), "ms");
  s.set("service.submit_ms_p99", quantile(submit_ms, 0.99).value, "ms");
  s.set("service.overhead_ms_p50", median(overhead_ms), "ms");
  s.set("service.cache_hit_ratio",
        lookups > 0 ? static_cast<double>(st.cache.hits) / lookups : 0.0,
        "fraction");
  s.set("service.coalesced_share",
        st.completed > 0 ? static_cast<double>(st.batch_coalesced) /
                               static_cast<double>(st.completed)
                         : 0.0,
        "fraction");
  s.set("service.batch_width_mean", win.batch_width_mean, "count");
  s.set("service.queue_depth_max", static_cast<double>(win.queue_depth_max),
        "count");
  s.set("service.rejected", static_cast<double>(st.rejected_overload),
        "count");
  s.set("service.timeouts", static_cast<double>(st.timeouts), "count");
  s.set("service.degrade_steps",
        static_cast<double>(st.degrade_engine_to_barrier +
                            st.degrade_barrier_to_serial),
        "count");
}

void host_roof(Sheet& sheet) {
  // Each array spans the reported LLC, so the three together are three
  // times its size and the triad streams from memory.
  const std::size_t llc = llc_bytes();
  sheet.set("host.llc_bytes", static_cast<double>(llc), "bytes");
  sheet.set("host.triad_array_bytes", static_cast<double>(llc), "bytes");
  sheet.set("host.triad_gbs", triad_gbs(llc), "GB/s");
}

}  // namespace perfbench
