// Sweep-engine comparison: per-color barrier kernel versus the
// persistent-threads point-to-point engine (docs/PARALLELISM.md).
//
// Both run the identical ABMC schedule and produce bitwise-identical
// results; the only difference is synchronization (2·colors team
// barriers per forward/backward pair versus per-thread epoch waits on
// actual neighbors). The gap is the price of the barriers, so it grows
// with color count and thread count.
//
// Results land in BENCH_sweep_engine.json.
#include "bench_common.hpp"

using namespace fbmpk;

int main(int argc, char** argv) {
  auto opts = perf::BenchOptions::parse(argc, argv);
  const int threads = opts.threads > 0 ? opts.threads : 4;
  const int k = opts.powers.empty() ? 8 : opts.powers.front();
  bench::print_banner("sweep engine — barrier vs point-to-point", opts);
  set_threads(threads);

  perf::Table table({"matrix", "colors", "barrier_ms", "p2p_ms", "speedup",
                     "meas/model"});
  bench::JsonReport report("sweep_engine");

  for (const auto& name : bench::selected_names(opts)) {
    const auto m = gen::make_suite_matrix(name, opts.scale);
    const auto x = bench::bench_vector(m.matrix.rows());
    const auto shape = perf::MatrixShape::of(m.matrix);

    PlanOptions barrier_opts;
    barrier_opts.abmc.num_blocks = opts.num_blocks;
    auto barrier_plan = MpkPlan::build(m.matrix, barrier_opts);

    PlanOptions p2p_opts = barrier_opts;
    p2p_opts.sweep.sync = SweepSync::kPointToPoint;
    p2p_opts.sweep.threads = threads;
    auto p2p_plan = MpkPlan::build(m.matrix, p2p_opts);

    MpkPlan::Workspace wb, wp;
    const double barrier_s =
        bench::time_plan_power(barrier_plan, wb, x, k, opts);
    const double p2p_s = bench::time_plan_power(p2p_plan, wp, x, k, opts);

    // Traffic validation (satellite of docs/OBSERVABILITY.md): the
    // analytic model's compulsory-byte estimate per A^k x evaluation,
    // cross-checked against hardware counters where a traffic-capable
    // PMU event opens. On restricted hosts measured stays null.
    const double sweeps = perf::fbmpk_sweep_count(k);
    const std::size_t bytes = perf::fbmpk_traffic(shape, k).total();
    const double modeled = static_cast<double>(bytes);
    AlignedVector<double> yb(static_cast<std::size_t>(m.matrix.rows()));
    AlignedVector<double> yp(static_cast<std::size_t>(m.matrix.rows()));
    std::string src_b, src_p;
    const double meas_b = bench::measure_dram_bytes(
        [&] { barrier_plan.power(x, k, yb, wb); }, opts.reps, &src_b);
    const double meas_p = bench::measure_dram_bytes(
        [&] { p2p_plan.power(x, k, yp, wp); }, opts.reps, &src_p);

    table.add_row({m.name, std::to_string(barrier_plan.stats().num_colors),
                   perf::Table::fmt(barrier_s * 1e3),
                   perf::Table::fmt(p2p_s * 1e3),
                   perf::Table::fmt_ratio(barrier_s / p2p_s),
                   meas_p >= 0 ? perf::Table::fmt_percent(meas_p / modeled)
                               : "n/a"});

    report.add({m.name, "barrier", k, threads, barrier_s,
                bench::JsonReport::gflops_of(shape, sweeps, barrier_s), bytes,
                modeled, meas_b, src_b});
    report.add({m.name, "engine_p2p", k, threads, p2p_s,
                bench::JsonReport::gflops_of(shape, sweeps, p2p_s), bytes,
                modeled, meas_p, src_p});
  }

  table.print();
  report.write();
  std::printf(
      "\nsame schedule, same FP ops, bitwise-identical results; the gap is "
      "synchronization:\n2 x colors full team barriers per pair (barrier) "
      "vs per-thread epoch waits on\nactual quotient-graph neighbors "
      "(point-to-point).\n");
  return 0;
}
