// Figure 7 reproduction: FBMPK speedup over the standard MPK baseline
// with power k = 5 across the 14-matrix suite.
//
// Paper result: average speedups of 1.50x / 1.54x / 1.47x / 1.73x on
// FT-2000+ / ThunderX2 / KP920 / Xeon, max 2.32x. Every measured ratio
// times both sides at the same thread count: the headline divides the
// OpenMP mpk_power by the default (ABMC, parallel) plan on the whole
// team, and the single-thread pair divides the serial mpk_power by the
// serial FBMPK plan — the memory-traffic effect one core can express.
// The model columns use the platform cost model (DESIGN.md §4).
#include "bench_common.hpp"
#include "perf/cost_model.hpp"
#include "reorder/permutation.hpp"

using namespace fbmpk;

int main(int argc, char** argv) {
  const auto opts = perf::BenchOptions::parse(argc, argv);
  bench::print_banner("Figure 7 — overall speedup, k=5", opts);
  if (opts.threads > 0) set_threads(opts.threads);
  const int k = opts.powers.empty() ? 5 : opts.powers.front();

  perf::Table table({"matrix", "rows", "nnz", "mpk_ms", "fbmpk_ms",
                     "speedup", "mpk_1t_ms", "fbmpk_1t_ms", "speedup_1t",
                     "model:FT2000+", "model:Xeon"});
  RunningStats speedups, serial_speedups, model_ft, model_xeon;

  for (const auto& name : bench::selected_names(opts)) {
    const auto m = gen::make_suite_matrix(name, opts.scale);
    const auto x = bench::bench_vector(m.matrix.rows());
    const auto plan = bench::build_plan(m.matrix, opts);
    const auto plan_serial = bench::build_plan(
        m.matrix, opts, FbVariant::kBtb, /*parallel=*/false,
        /*reorder=*/false);
    MpkPlan::Workspace ws, ws1;

    // Full team on both sides, then one thread on both sides.
    const double base_s = bench::time_baseline_mpk(m.matrix, x, k, opts);
    const double fb_s = bench::time_plan_power(plan, ws, x, k, opts);
    const double base1_s = bench::time_baseline_mpk(m.matrix, x, k, opts,
                                                    SpmvExec::kSerial);
    const double fb1_s = bench::time_plan_power(plan_serial, ws1, x, k, opts);
    speedups.add(base_s / fb_s);
    serial_speedups.add(base1_s / fb1_s);

    // Platform-model predictions at full core counts.
    const auto permuted = permute_symmetric(m.matrix, plan.permutation());
    const auto shape = perf::WorkloadShape::of(permuted, plan.schedule());
    auto model_speedup = [&](const char* platform) {
      const auto p = perf::platform_by_name(platform);
      return perf::predict_standard_mpk_seconds(p, shape, k, p.cores) /
             perf::predict_fbmpk_seconds(p, shape, k, p.cores);
    };
    const double ft = model_speedup("FT2000+");
    const double xeon = model_speedup("Xeon");
    model_ft.add(ft);
    model_xeon.add(xeon);

    table.add_row({m.name, std::to_string(m.matrix.rows()),
                   std::to_string(m.matrix.nnz()),
                   perf::Table::fmt(base_s * 1e3),
                   perf::Table::fmt(fb_s * 1e3),
                   perf::Table::fmt_ratio(base_s / fb_s),
                   perf::Table::fmt(base1_s * 1e3),
                   perf::Table::fmt(fb1_s * 1e3),
                   perf::Table::fmt_ratio(base1_s / fb1_s),
                   perf::Table::fmt_ratio(ft),
                   perf::Table::fmt_ratio(xeon)});
  }

  table.print();
  std::printf(
      "\ngeomean speedup over mpk_power: %.2fx on %d threads, %.2fx on one "
      "thread | model FT2000+ %.2fx | model Xeon %.2fx\n",
      speedups.geomean(), max_threads(), serial_speedups.geomean(),
      model_ft.geomean(), model_xeon.geomean());
  std::printf("paper (k=5 averages): FT2000+ 1.50x, ThunderX2 1.54x, "
              "KP920 1.47x, Xeon 1.73x; max 2.32x\n");
  return 0;
}
