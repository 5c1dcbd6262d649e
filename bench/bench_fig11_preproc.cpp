// Figure 11 reproduction: one-off preprocessing cost, normalized to
// single-thread SpMV invocations of the same matrix.
//
// Paper result: on average the reorder costs ~36 SpMVs (range roughly
// 15-70), amortized away because the plan is reused across many MPK
// calls. We report the default ABMC reorder (contiguous blocking) and
// the whole default MpkPlan::build (reorder + permute-and-split + stage
// schedule), both on the OpenMP team, and additionally ablate the
// blocking strategy (BFS "algebraic" aggregation vs contiguous
// chunking) and the coloring order — design choices DESIGN.md §7 calls
// out.
#include "bench_common.hpp"
#include "core/plan.hpp"
#include "kernels/spmv.hpp"
#include "reorder/abmc.hpp"

using namespace fbmpk;

int main(int argc, char** argv) {
  const auto opts = perf::BenchOptions::parse(argc, argv);
  bench::print_banner("Figure 11 — ABMC preprocessing overhead", opts);

  perf::Table table({"matrix", "spmv_ms", "abmc_ms", "#spmv_equiv",
                     "build_ms", "#build_equiv", "bfs_ms", "colors(contig)",
                     "colors(bfs)", "colors(LF)"});
  RunningStats abmc_equiv, build_equiv, bfs_equiv;

  for (const auto& name : bench::selected_names(opts)) {
    const auto m = gen::make_suite_matrix(name, opts.scale);
    const index_t n = m.matrix.rows();
    const auto x = bench::bench_vector(n);
    AlignedVector<double> y(static_cast<std::size_t>(n));

    const double spmv_s =
        perf::time_runs(
            [&] { spmv<double>(m.matrix, x, y, SpmvExec::kUnrolled); },
            opts.reps, opts.warmup)
            .geomean();
    const auto time = [&](const std::function<void()>& fn) {
      return perf::time_runs(fn, opts.reps, opts.warmup).geomean();
    };

    AbmcOptions contig;  // the plan default: contiguous blocking
    contig.num_blocks = opts.num_blocks;
    AbmcOrdering o_contig;
    const double abmc_s = time([&] { o_contig = abmc_order(m.matrix, contig); });

    PlanOptions plan_opts;
    plan_opts.abmc = contig;
    const double build_s =
        time([&] { (void)MpkPlan::build(m.matrix, plan_opts); });

    AbmcOptions bfs = contig;
    bfs.blocking = BlockingStrategy::kBfs;
    AbmcOrdering o_bfs;
    const double bfs_s = time([&] { o_bfs = abmc_order(m.matrix, bfs); });

    AbmcOptions lf = contig;
    lf.coloring = ColoringOrder::kLargestDegreeFirst;
    const auto o_lf = abmc_order(m.matrix, lf);

    abmc_equiv.add(abmc_s / spmv_s);
    build_equiv.add(build_s / spmv_s);
    bfs_equiv.add(bfs_s / spmv_s);
    table.add_row({m.name, perf::Table::fmt(spmv_s * 1e3),
                   perf::Table::fmt(abmc_s * 1e3),
                   perf::Table::fmt(abmc_s / spmv_s, 1),
                   perf::Table::fmt(build_s * 1e3),
                   perf::Table::fmt(build_s / spmv_s, 1),
                   perf::Table::fmt(bfs_s * 1e3),
                   std::to_string(o_contig.num_colors),
                   std::to_string(o_bfs.num_colors),
                   std::to_string(o_lf.num_colors)});
  }

  table.print();
  std::printf("\naverage preprocessing cost in single-thread SpMV "
              "invocations, preprocessing on %d threads (paper average: "
              "36; one-off, amortized over reuse):\n"
              "  ABMC reorder (contiguous blocking) %.1f\n"
              "  whole plan build                   %.1f\n"
              "  ABMC reorder (BFS blocking)        %.1f\n",
              max_threads(), abmc_equiv.mean(), build_equiv.mean(),
              bfs_equiv.mean());
  return 0;
}
