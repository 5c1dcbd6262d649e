// Tests for the persistent-threads engine over the ABMC front-end's
// stage schedule (docs/PARALLELISM.md): the point-to-point engine must
// equal the serial FBMPK kernel bitwise for every thread count, power
// parity and matrix family, the schedule must validate and survive plan
// serialization, and every unsafe configuration must fall back to the
// barrier rung rather than produce a different answer.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <tuple>

#include "core/plan.hpp"
#include "core/plan_io.hpp"
#include "gen/kkt.hpp"
#include "gen/stencil.hpp"
#include "kernels/fbmpk.hpp"
#include "kernels/fbmpk_parallel.hpp"
#include "perf/cost_model.hpp"
#include "reorder/abmc.hpp"
#include "reorder/nnz_partition.hpp"
#include "reorder/stage_schedule.hpp"
#include "sparse/split.hpp"
#include "support/threading.hpp"
#include "test_util.hpp"

namespace fbmpk {
namespace {

struct Prepared {
  CsrMatrix<double> permuted;
  TriangularSplit<double> split;
  AbmcOrdering schedule;
};

Prepared prepare(const CsrMatrix<double>& a, index_t num_blocks) {
  AbmcOptions opts;
  opts.num_blocks = num_blocks;
  Prepared p;
  p.schedule = abmc_order(a, opts);
  p.permuted = permute_symmetric(a, p.schedule.perm);
  p.split = split_triangular(p.permuted);
  return p;
}

/// Restores the OpenMP thread default when a test body returns.
struct ThreadGuard {
  int saved = max_threads();
  ~ThreadGuard() { set_threads(saved); }
};

/// The matrix families named by the acceptance criteria: structured
/// stencil, random symmetric, random unsymmetric, and a KKT saddle
/// point (many colors, uneven block weights).
std::vector<std::pair<std::string, CsrMatrix<double>>> test_matrices() {
  std::vector<std::pair<std::string, CsrMatrix<double>>> out;
  out.emplace_back("laplacian_2d", gen::make_laplacian_2d(16, 16));
  out.emplace_back("random_sym", test::random_matrix(300, 7.0, true, 21));
  out.emplace_back("random_unsym", test::random_matrix(300, 6.0, false, 22));
  out.emplace_back("kkt_saddle", gen::make_kkt_saddle(5, 5, 5, {}));
  return out;
}

class SweepEngineTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SweepEngineTest, BitwiseEqualsSerialAcrossMatrixFamilies) {
  const auto [k, threads] = GetParam();
  ThreadGuard guard;
  set_threads(threads);
  for (const auto& [name, a] : test_matrices()) {
    const index_t n = a.rows();
    const auto p = prepare(a, 24);
    const auto sched =
        build_sweep_schedule(p.schedule, p.split, threads);
    ASSERT_TRUE(validate_stage_schedule(sched, p.split)) << name;
    const auto x = test::random_vector(n, 23);

    AlignedVector<double> y_eng(n), y_ser(n);
    FbWorkspace<double> ws;
    test::stage_power(p.split, sched, x, k, y_eng, /*engine=*/true);
    fbmpk_power<double>(p.split, x, k, y_ser, ws);
    for (index_t i = 0; i < n; ++i)
      ASSERT_EQ(y_eng[i], y_ser[i])
          << name << " row " << i << " k=" << k << " threads=" << threads;
  }
}

// Thread counts cross the container's core count on purpose
// (oversubscription exercises the futex-wait path); k values cover odd
// and even pair parities including the tail stage.
INSTANTIATE_TEST_SUITE_P(
    PowersAndThreads, SweepEngineTest,
    ::testing::Combine(::testing::Values(1, 2, 4, 5, 8),
                       ::testing::Values(1, 2, 4, 7)));

TEST(SweepEngine, PowerAllMatchesSerialBitwise) {
  ThreadGuard guard;
  set_threads(4);
  const auto a = test::random_matrix(200, 6.0, false, 31);
  const auto p = prepare(a, 16);
  const auto sched = build_sweep_schedule(p.schedule, p.split, 4);
  const auto x = test::random_vector(200, 32);
  const int k = 5;
  AlignedVector<double> b_eng(200 * (k + 1)), b_ser(200 * (k + 1));
  FbWorkspace<double> ws;
  std::copy(x.begin(), x.end(), b_eng.begin());
  test::stage_sweep(
      p.split, sched, x, k,
      [&](int pw, index_t i, double v) {
        b_eng[static_cast<std::size_t>(pw) * 200 + i] = v;
      },
      /*engine=*/true);
  fbmpk_power_all<double>(p.split, x, k, b_ser, ws);
  for (std::size_t i = 0; i < b_eng.size(); ++i)
    ASSERT_EQ(b_eng[i], b_ser[i]) << "entry " << i;
}

TEST(SweepEngine, PolynomialMatchesSerialBitwise) {
  ThreadGuard guard;
  set_threads(4);
  const auto a = test::random_matrix(200, 6.0, true, 33);
  const auto p = prepare(a, 16);
  const auto sched = build_sweep_schedule(p.schedule, p.split, 4);
  const auto x = test::random_vector(200, 34);
  const AlignedVector<double> coeffs{2.0, -1.0, 0.5, -0.25, 0.125};
  AlignedVector<double> y_eng(200), y_ser(200);
  FbWorkspace<double> ws;
  for (index_t i = 0; i < 200; ++i) y_eng[i] = coeffs[0] * x[i];
  test::stage_sweep(
      p.split, sched, x, 4,
      [&](int pw, index_t i, double v) { y_eng[i] += coeffs[pw] * v; },
      /*engine=*/true);
  fbmpk_polynomial<double>(p.split, coeffs, x, y_ser, ws);
  for (index_t i = 0; i < 200; ++i) ASSERT_EQ(y_eng[i], y_ser[i]);
}

TEST(SweepEngine, WorkspaceReusesAcrossPowersAndMatrices) {
  // One workspace across changing k and changing matrix size: resize
  // and the first-touch warm flag must not leak state between runs.
  ThreadGuard guard;
  set_threads(2);
  SweepWorkspace<double> we;
  for (const index_t n : {100, 240, 100}) {
    const auto a = test::random_matrix(n, 6.0, true, 40 + n);
    const auto p = prepare(a, 12);
    const auto sched = build_sweep_schedule(p.schedule, p.split, 2);
    const auto x = test::random_vector(n, 41);
    for (const int k : {0, 1, 4, 5}) {
      AlignedVector<double> y_eng(n), y_ser(n);
      FbWorkspace<double> ws;
      test::stage_power(p.split, sched, x, k, y_eng, /*engine=*/true, &we);
      fbmpk_power<double>(p.split, x, k, y_ser, ws);
      for (index_t i = 0; i < n; ++i)
        ASSERT_EQ(y_eng[i], y_ser[i]) << "n=" << n << " k=" << k;
    }
  }
}

TEST(SweepEngine, OversubscribedScheduleFallsBackBitwiseCorrect) {
  // A schedule built for more threads than the runtime offers cannot
  // run point-to-point; try must refuse, and the barrier rung — folding
  // 16 schedule threads onto the smaller team — must still produce the
  // serial answer.
  ThreadGuard guard;
  set_threads(2);
  const auto a = test::random_matrix(150, 6.0, true, 51);
  const auto p = prepare(a, 16);
  const auto sched =
      build_sweep_schedule(p.schedule, p.split, max_threads() + 14);
  const auto x = test::random_vector(150, 52);

  SweepWorkspace<double> we;
  const ScalarRows<double> rows(p.split);
  EXPECT_FALSE(fbmpk_engine_try_sweep_rows(p.split, sched, rows,
                                           std::span<const double>(x), 3, we,
                                           false,
                                           [](int, index_t, double) {}));

  AlignedVector<double> y_eng(150), y_ser(150);
  FbWorkspace<double> ws;
  test::stage_power(p.split, sched, x, 3, y_eng, /*engine=*/true, &we);
  fbmpk_power<double>(p.split, x, 3, y_ser, ws);
  for (index_t i = 0; i < 150; ++i) ASSERT_EQ(y_eng[i], y_ser[i]);
}

TEST(SweepSchedule, ValidatesAndRejectsTampering) {
  const auto a = test::random_matrix(250, 7.0, true, 61);
  const auto p = prepare(a, 20);
  for (const index_t t : {1, 2, 4, 7}) {
    const auto sched = build_sweep_schedule(p.schedule, p.split, t);
    EXPECT_TRUE(validate_stage_schedule(sched, p.split)) << t;
    EXPECT_EQ(sched.num_threads, t);
    EXPECT_EQ(sched.fwd.num_stages, p.schedule.num_colors);
    EXPECT_EQ(sched.bwd.num_stages, p.schedule.num_colors);
    EXPECT_TRUE(sched.pair_deps.empty());  // ABMC: covered transitively
  }

  auto sched = build_sweep_schedule(p.schedule, p.split, 3);
  {
    auto broken = sched;  // first color's rows swapped with the last's
    ASSERT_GE(broken.fwd.ranges.size(), 2u);
    std::swap(broken.fwd.ranges.front(), broken.fwd.ranges.back());
    EXPECT_FALSE(validate_stage_schedule(broken, p.split));
  }
  {
    auto broken = sched;  // dep pointing at a thread outside the team
    ASSERT_FALSE(broken.fwd.deps.empty());
    broken.fwd.deps.front().thread = broken.num_threads;
    EXPECT_FALSE(validate_stage_schedule(broken, p.split));
  }
  {
    auto broken = sched;  // non-monotone range pointer
    broken.fwd.range_ptr.back() += 1;
    EXPECT_FALSE(validate_stage_schedule(broken, p.split));
  }
}

TEST(SweepSchedule, WeightedSplitBoundsEveryColor) {
  {
    // One color, one heavy block: a by-count split put the heavy block
    // plus three light ones on thread 0 (load 11); the weighted split
    // cuts right after it (load 8 vs 7).
    AbmcOrdering o;
    o.num_blocks = 8;
    o.num_colors = 1;
    o.color_ptr = {0, 8};
    const std::vector<index_t> w{8, 1, 1, 1, 1, 1, 1, 1};
    const auto part = partition_colors(o, w, 2);
    EXPECT_EQ(*std::max_element(part.load.begin(), part.load.end()), 8);
  }
  const int seeds = test::property_seed_count();
  for (int seed = 0; seed < seeds; ++seed) {
    SCOPED_TRACE("FBMPK_PROP_SEED=" + std::to_string(seed));
    test::Xorshift64 rng(0x50415254ull ^
                         (static_cast<std::uint64_t>(seed) << 32));
    const auto p = prepare(test::draw_property_matrix(rng), 24);
    const AbmcOrdering& o = p.schedule;
    const auto w = block_nnz_weights(o, p.split.lower.row_ptr(),
                                     p.split.upper.row_ptr());
    for (const index_t T : {2, 4, 7}) {
      SCOPED_TRACE("threads=" + std::to_string(T));
      const auto part = partition_colors(o, w, T);
      std::vector<int> owned(static_cast<std::size_t>(o.num_blocks), 0);
      for (index_t c = 0; c < o.num_colors; ++c) {
        long long total = 0, heaviest = 0;
        for (index_t b = o.color_ptr[c]; b < o.color_ptr[c + 1]; ++b) {
          total += w[b];
          heaviest = std::max<long long>(heaviest, w[b]);
        }
        for (index_t t = 0; t < T; ++t) {
          const std::size_t q = part.slot(t, c);
          const index_t lo = part.block_ptr[q];
          const index_t hi = part.block_ptr[q + 1];
          ASSERT_LE(o.color_ptr[c], lo);
          ASSERT_LE(lo, hi);
          ASSERT_LE(hi, o.color_ptr[c + 1]);
          long long load = 0;
          for (index_t b = lo; b < hi; ++b) {
            ++owned[b];
            EXPECT_EQ(part.owner_of[b], t);
            load += w[b];
          }
          EXPECT_EQ(part.load[q], load);
          // load <= W_c/T + max w_b, in integers.
          EXPECT_LE(T * load, total + T * heaviest)
              << "color " << c << " thread " << t;
        }
      }
      for (index_t b = 0; b < o.num_blocks; ++b)
        EXPECT_EQ(owned[b], 1) << "block " << b;
      // The stage schedule stores every slot as at most one row range.
      const StageSchedule sched = build_sweep_schedule(o, p.split, T);
      ASSERT_TRUE(validate_stage_schedule(sched, p.split));
      for (const StageDirection* d : {&sched.fwd, &sched.bwd})
        for (std::size_t q = 0; q + 1 < d->range_ptr.size(); ++q)
          EXPECT_LE(d->range_ptr[q + 1] - d->range_ptr[q], 1) << "slot " << q;
    }
  }
}

TEST(SweepSchedule, ImbalanceMetricIsSaneOnRealMatrix) {
  const auto a = test::random_matrix(400, 8.0, true, 71);
  const auto p = prepare(a, 32);
  const auto imb =
      perf::partition_imbalance(build_sweep_schedule(p.schedule, p.split, 4));
  EXPECT_GE(imb.worst, imb.mean);
  EXPECT_GE(imb.mean, 1.0);
}

TEST(SweepSchedule, StageImbalanceChargesEveryStage) {
  // Two threads, two forward stages, no backward stages: each thread's
  // total load is 10, but each stage waits for its heavy slot. Summing
  // per thread first would report a perfect 1.0.
  StageSchedule s;
  s.num_threads = 2;
  s.fwd.num_stages = 2;
  s.fwd.load = {9, 1,   // thread 0: stage 0, stage 1
                1, 9};  // thread 1
  // Σ_s max = 9 + 9, Σ_s mean = 5 + 5.
  EXPECT_DOUBLE_EQ(stage_imbalance(s), 1.8);
  const auto imb = perf::partition_imbalance(s);
  EXPECT_DOUBLE_EQ(imb.mean, 1.8);
  EXPECT_DOUBLE_EQ(imb.worst, 1.8);
  s.fwd.load = {5, 5, 5, 5};
  EXPECT_DOUBLE_EQ(stage_imbalance(s), 1.0);
  EXPECT_DOUBLE_EQ(stage_imbalance(StageSchedule{}), 1.0);
}

TEST(SweepPlanIo, PointToPointPlanRoundTrips) {
  const auto a = gen::make_laplacian_3d(8, 8, 8);
  PlanOptions opts;
  opts.sweep.sync = SweepSync::kPointToPoint;
  opts.sweep.threads = 2;
  auto plan = MpkPlan::build(a, opts);
  ASSERT_FALSE(plan.stage_schedule().empty());
  EXPECT_EQ(plan.stage_schedule().num_threads, 2);
  EXPECT_EQ(plan.stats().sweep_threads, 2);

  std::stringstream buf;
  save_plan(plan, buf);
  auto loaded = load_plan(buf);
  EXPECT_EQ(loaded.options().sweep.sync, SweepSync::kPointToPoint);
  EXPECT_EQ(loaded.options().sweep.threads, 2);
  ASSERT_FALSE(loaded.stage_schedule().empty());
  EXPECT_EQ(loaded.stage_schedule().num_threads, 2);
  EXPECT_EQ(loaded.stage_schedule().fwd.ranges,
            plan.stage_schedule().fwd.ranges);
  EXPECT_TRUE(validate_stage_schedule(loaded.stage_schedule(), loaded.split()));

  const auto x = test::random_vector(a.rows(), 81);
  AlignedVector<double> ya(a.rows()), yb(a.rows());
  plan.power(x, 6, ya);
  loaded.power(x, 6, yb);
  for (index_t i = 0; i < a.rows(); ++i) ASSERT_EQ(ya[i], yb[i]);
}

TEST(SweepPlanIo, PointToPointPlanMatchesBarrierPlanBitwise) {
  // Same ABMC schedule, different synchronization: the engine performs
  // the identical FP operations per row, so the two plans must agree
  // bitwise, not just approximately.
  ThreadGuard guard;
  set_threads(4);
  const auto a = test::random_matrix(300, 7.0, true, 82);
  PlanOptions barrier_opts;
  auto barrier_plan = MpkPlan::build(a, barrier_opts);
  PlanOptions p2p_opts;
  p2p_opts.sweep.sync = SweepSync::kPointToPoint;
  auto p2p_plan = MpkPlan::build(a, p2p_opts);

  const auto x = test::random_vector(300, 83);
  for (const int k : {1, 4, 7}) {
    AlignedVector<double> yb(300), yp(300);
    barrier_plan.power(x, k, yb);
    p2p_plan.power(x, k, yp);
    for (index_t i = 0; i < 300; ++i) ASSERT_EQ(yb[i], yp[i]) << "k=" << k;
  }
}

TEST(SweepPlanIo, CorruptedSweepBytesAreTypedError) {
  const auto a = gen::make_laplacian_2d(12, 12);
  PlanOptions opts;
  opts.sweep.sync = SweepSync::kPointToPoint;
  opts.sweep.threads = 2;
  auto plan = MpkPlan::build(a, opts);
  std::stringstream buf;
  save_plan(plan, buf);
  const std::string full = buf.str();

  // Flip bytes at several payload offsets (the STGS section sits
  // between SCHD and SPLT; the CRC turns any flip into a typed error).
  for (const std::size_t pos :
       {full.size() / 3, full.size() / 2, full.size() - 9}) {
    std::string corrupt = full;
    corrupt[pos] = static_cast<char>(
        static_cast<unsigned char>(corrupt[pos]) ^ 0xff);
    std::stringstream cbuf(corrupt);
    const auto r = try_load_plan(cbuf);
    ASSERT_FALSE(r) << "flip at " << pos << " accepted";
    EXPECT_EQ(r.code(), ErrorCode::kCorruptPlan) << "flip at " << pos;
  }
}

TEST(SweepPlanIo, RebuildsScheduleWhenRuntimeThreadsDiffer) {
  if (!has_openmp()) GTEST_SKIP() << "thread count fixed without OpenMP";
  ThreadGuard guard;
  set_threads(4);
  const auto a = gen::make_laplacian_2d(14, 14);
  PlanOptions opts;
  opts.sweep.sync = SweepSync::kPointToPoint;  // threads = 0: runtime default
  auto plan = MpkPlan::build(a, opts);
  ASSERT_EQ(plan.stage_schedule().num_threads, 4);
  std::stringstream buf;
  save_plan(plan, buf);

  set_threads(2);  // loading host differs from the build host
  auto loaded = load_plan(buf);
  ASSERT_FALSE(loaded.stage_schedule().empty());
  EXPECT_EQ(loaded.stage_schedule().num_threads, 2);
  EXPECT_TRUE(validate_stage_schedule(loaded.stage_schedule(), loaded.split()));

  const auto x = test::random_vector(a.rows(), 91);
  AlignedVector<double> ya(a.rows()), yb(a.rows());
  plan.power(x, 5, ya);
  loaded.power(x, 5, yb);
  for (index_t i = 0; i < a.rows(); ++i) ASSERT_EQ(ya[i], yb[i]);
}

}  // namespace
}  // namespace fbmpk
