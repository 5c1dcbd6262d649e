// Kernel microbenchmarks (google-benchmark): SpMV flavors, FBMPK sweep
// variants across k, and the ABMC block-count sensitivity the paper
// leaves at a 512/1024 default (DESIGN.md §7 ablation).
#include <benchmark/benchmark.h>

#include "core/plan.hpp"
#include "gen/stencil.hpp"
#include "kernels/fbmpk.hpp"
#include "kernels/fbmpk_parallel.hpp"
#include "kernels/mpk_baseline.hpp"
#include "kernels/spmv.hpp"
#include "reorder/abmc.hpp"
#include "sparse/split.hpp"
#include "support/rng.hpp"

namespace {

using namespace fbmpk;

// One shared workload: a 3D 27-point block matrix, ~59k rows / ~1.5M
// nnz — big enough to stream from memory, small enough to iterate fast.
struct Workload {
  CsrMatrix<double> a;
  TriangularSplit<double> split;
  AlignedVector<double> x;

  Workload() {
    gen::BlockStencilOptions o;
    o.kind = gen::StencilKind::kBox;
    o.dof = 2;
    o.seed = 7;
    a = gen::make_block_stencil({31, 31, 31}, o);
    split = split_triangular(a);
    Rng rng(11);
    x.resize(static_cast<std::size_t>(a.rows()));
    for (auto& v : x) v = rng.next_double(-1.0, 1.0);
  }
};

const Workload& workload() {
  static const Workload w;
  return w;
}

void BM_SpmvSerial(benchmark::State& state) {
  const auto& w = workload();
  AlignedVector<double> y(w.x.size());
  for (auto _ : state) {
    spmv<double>(w.a, w.x, y, SpmvExec::kSerial);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(w.a.storage_bytes()));
}
BENCHMARK(BM_SpmvSerial);

void BM_SpmvUnrolled(benchmark::State& state) {
  const auto& w = workload();
  AlignedVector<double> y(w.x.size());
  for (auto _ : state) {
    spmv<double>(w.a, w.x, y, SpmvExec::kUnrolled);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(w.a.storage_bytes()));
}
BENCHMARK(BM_SpmvUnrolled);

void BM_SpmvParallel(benchmark::State& state) {
  const auto& w = workload();
  AlignedVector<double> y(w.x.size());
  for (auto _ : state) {
    spmv<double>(w.a, w.x, y, SpmvExec::kParallel);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_SpmvParallel);

void BM_StandardMpk(benchmark::State& state) {
  const auto& w = workload();
  const int k = static_cast<int>(state.range(0));
  MpkWorkspace<double> ws;
  AlignedVector<double> y(w.x.size());
  for (auto _ : state) {
    mpk_power<double>(w.a, w.x, k, y, ws, SpmvExec::kUnrolled);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_StandardMpk)->Arg(3)->Arg(5)->Arg(9);

void BM_FbmpkBtb(benchmark::State& state) {
  const auto& w = workload();
  const int k = static_cast<int>(state.range(0));
  FbWorkspace<double> ws;
  AlignedVector<double> y(w.x.size());
  for (auto _ : state) {
    fbmpk_power<double>(w.split, w.x, k, y, ws, FbVariant::kBtb);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_FbmpkBtb)->Arg(3)->Arg(5)->Arg(9);

void BM_FbmpkSplit(benchmark::State& state) {
  const auto& w = workload();
  const int k = static_cast<int>(state.range(0));
  FbWorkspace<double> ws;
  AlignedVector<double> y(w.x.size());
  for (auto _ : state) {
    fbmpk_power<double>(w.split, w.x, k, y, ws, FbVariant::kSplit);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_FbmpkSplit)->Arg(3)->Arg(5)->Arg(9);

void BM_FbmpkParallelBlocks(benchmark::State& state) {
  // ABMC block-count sensitivity at k = 5.
  const auto& w = workload();
  AbmcOptions opts;
  opts.num_blocks = static_cast<index_t>(state.range(0));
  const auto o = abmc_order(w.a, opts);
  const auto permuted = permute_symmetric(w.a, o.perm);
  const auto split = split_triangular(permuted);
  AlignedVector<double> px(w.x.size());
  permute_vector<double>(o.perm, w.x, px);
  const auto sched = build_sweep_schedule(o, split, max_threads());
  const ScalarRows<double> rows(split);
  SweepWorkspace<double> ws;
  AlignedVector<double> y(w.x.size());
  double* yp = y.data();
  for (auto _ : state) {
    fbmpk_barrier_sweep_rows(split, sched, rows, std::span<const double>(px),
                             5, ws, [&](int p, index_t i, double v) {
                               if (p == 5) yp[i] = v;
                             });
    benchmark::DoNotOptimize(y.data());
  }
  state.counters["colors"] = static_cast<double>(o.num_colors);
}
BENCHMARK(BM_FbmpkParallelBlocks)
    ->Arg(64)
    ->Arg(256)
    ->Arg(512)
    ->Arg(1024)
    ->Arg(4096);

void BM_PlanPolynomial(benchmark::State& state) {
  const auto& w = workload();
  auto plan = MpkPlan::build(w.a);
  MpkPlan::Workspace ws;
  const AlignedVector<double> coeffs{1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125};
  AlignedVector<double> y(w.x.size());
  for (auto _ : state) {
    plan.polynomial(coeffs, w.x, y, ws);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_PlanPolynomial);

}  // namespace

BENCHMARK_MAIN();
