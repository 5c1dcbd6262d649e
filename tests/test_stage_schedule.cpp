// The stage schedule both schedulers build (reorder/stage_schedule.hpp):
//
//  - differential: both front-ends x both rungs x threads {1,2,4,7} on
//    the property-harness matrices, bitwise against the serial sweep of
//    the same split — including the barrier rung folding a schedule
//    onto a smaller OpenMP team; and the plan's run methods (which
//    gather x and scatter y through the reorder permutation inside the
//    sweep) on every rung, bitwise against a serial plan, with power
//    run in place;
//  - validator mutations: on schedules built by either front-end, a
//    dropped dep, a row in two slots or in none, a cross-thread edge
//    inside a stage, a consumer placed before its producer, and a
//    cross-pair hazard with no covering dep must all be rejected.
//
// The front-end axis honors FBMPK_SCHEDULER like the property harness.
#include <gtest/gtest.h>

#include <algorithm>
#include <complex>
#include <string>
#include <utility>
#include <vector>

#include "core/plan.hpp"
#include "kernels/fbmpk.hpp"
#include "kernels/fbmpk_parallel.hpp"
#include "reorder/abmc.hpp"
#include "reorder/level_blocking.hpp"
#include "reorder/stage_schedule.hpp"
#include "sparse/split.hpp"
#include "support/threading.hpp"
#include "test_util.hpp"

namespace fbmpk {
namespace {

/// Restores the OpenMP thread default when a test body returns.
struct ThreadGuard {
  int saved = max_threads();
  ~ThreadGuard() { set_threads(saved); }
};

/// One front-end's input: the split it schedules (ABMC-permuted or
/// natural order) and a builder for any thread count.
struct FrontEnd {
  std::string name;
  TriangularSplit<double> split;
  AbmcOrdering ordering;  ///< ABMC only

  StageSchedule build(index_t threads) const {
    if (ordering.block_ptr.empty())
      return build_level_sweep_schedule(LevelSchedulePair::of(split), split,
                                        threads);
    return build_sweep_schedule(ordering, split, threads);
  }
};

std::vector<FrontEnd> front_ends(const CsrMatrix<double>& a) {
  const test::SchedulerFilter f = test::scheduler_filter();
  std::vector<FrontEnd> out;
  if (f.abmc) {
    AbmcOptions opts;
    opts.num_blocks = 24;
    FrontEnd fe{"abmc", {}, abmc_order(a, opts)};
    fe.split = split_triangular(permute_symmetric(a, fe.ordering.perm));
    out.push_back(std::move(fe));
  }
  if (f.levels) out.push_back({"levels", split_triangular(a), {}});
  return out;
}

// One OpenMP team size per test: resizing the runtime's pool inside one
// process retires threads without a join ThreadSanitizer can see.
class StageScheduleDifferential : public ::testing::TestWithParam<int> {};

TEST_P(StageScheduleDifferential, BothFrontEndsBothRungsBitwiseEqualSerial) {
  ThreadGuard guard;
  const int threads = GetParam();
  set_threads(threads);
  const int seeds = test::property_seed_count();
  for (int seed = 0; seed < seeds; ++seed) {
    SCOPED_TRACE("FBMPK_PROP_SEED=" + std::to_string(seed));
    test::Xorshift64 rng(0x53544753ull ^
                         (static_cast<std::uint64_t>(seed) << 32));
    const auto a = test::draw_property_matrix(rng);
    const index_t n = a.rows();
    const auto x = test::random_vector(n, rng.next());
    const int k = static_cast<int>(rng.in_range(2, 7));
    for (const FrontEnd& fe : front_ends(a)) {
      SCOPED_TRACE("front-end=" + fe.name);
      const StageSchedule sched = fe.build(threads);
      // Twice the team plus one: the barrier rung folds it onto the
      // smaller team (the engine declines it and falls back).
      const StageSchedule wide = fe.build(2 * threads + 1);
      ASSERT_TRUE(validate_stage_schedule(sched, fe.split));
      ASSERT_TRUE(validate_stage_schedule(wide, fe.split));
      for (const int kk : {k, k + 1}) {  // both pair parities
        SCOPED_TRACE("k=" + std::to_string(kk));
        AlignedVector<double> ref(n), y(n);
        FbWorkspace<double> ws;
        fbmpk_power<double>(fe.split, x, kk, ref, ws);
        const auto expect_ref = [&](const char* rung) {
          for (index_t i = 0; i < n; ++i)
            ASSERT_EQ(y[i], ref[i]) << rung << " row " << i;
        };
        test::stage_power(fe.split, sched, x, kk, y, /*engine=*/true);
        expect_ref("engine");
        test::stage_power(fe.split, sched, x, kk, y, /*engine=*/false);
        expect_ref("barrier");
        test::stage_power(fe.split, wide, x, kk, y, /*engine=*/false);
        expect_ref("barrier-folded");
      }
    }
  }
}

// The plan's run methods gather x and scatter y through the reorder
// permutation inside the sweep. On reordered plans of either front-end,
// every rung must equal a serial plan bitwise, and power may run in
// place (x and y the same vector).
TEST_P(StageScheduleDifferential, PlanRunMethodsMatchSerialPlanAndAlias) {
  using cd = std::complex<double>;
  constexpr int kMaxK = 6;
  ThreadGuard guard;
  const int threads = GetParam();
  set_threads(threads);
  const test::SchedulerFilter filter = test::scheduler_filter();
  const int seeds = test::property_seed_count();
  for (int seed = 0; seed < seeds; ++seed) {
    SCOPED_TRACE("FBMPK_PROP_SEED=" + std::to_string(seed));
    test::Xorshift64 rng(0x50524d53ull ^
                         (static_cast<std::uint64_t>(seed) << 32));
    const auto a = test::draw_property_matrix(rng);
    const std::size_t n = static_cast<std::size_t>(a.rows());
    const auto x = test::random_vector(a.rows(), rng.next());
    // Every buffer the sweeps touch lives for the whole seed.
    MpkPlan::Workspace ws;
    AlignedVector<double> ref(n), y(n), z(n), basis_ref(n * (kMaxK + 1)),
        basis(n * (kMaxK + 1)), poly_ref(n), poly(n);
    std::vector<cd> cpoly_ref(n), cpoly(n);
    std::vector<double> coeffs;
    std::vector<cd> ccoeffs;
    const auto expect_eq = [](std::span<const double> got,
                              std::span<const double> want,
                              const std::string& what) {
      for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_EQ(got[i], want[i]) << what << " element " << i;
    };
    for (const Scheduler sch : {Scheduler::kAbmc, Scheduler::kLevels}) {
      if (!(sch == Scheduler::kAbmc ? filter.abmc : filter.levels)) continue;
      SCOPED_TRACE(std::string("scheduler=") + scheduler_name(sch));
      PlanOptions opts;
      opts.abmc.num_blocks = 24;
      opts.scheduler = sch;
      opts.sweep.threads = threads;
      PlanOptions serial_opts = opts;
      serial_opts.parallel = false;
      const MpkPlan serial = MpkPlan::build(a, serial_opts);
      ASSERT_FALSE(serial.permutation().is_identity());
      opts.sweep.sync = SweepSync::kPointToPoint;
      const MpkPlan p2p = MpkPlan::build(a, opts);
      opts.sweep.sync = SweepSync::kBarrier;
      const MpkPlan barrier = MpkPlan::build(a, opts);
      // Destroyed first: runs before the plans and buffers are freed.
      const test::OpenMpJoinFence fence;

      for (const int k : {1, 2, 5, kMaxK}) {
        SCOPED_TRACE("k=" + std::to_string(k));
        const std::size_t nb = n * static_cast<std::size_t>(k + 1);
        coeffs.assign(static_cast<std::size_t>(k) + 1, 0.0);
        ccoeffs.assign(coeffs.size(), cd{});
        for (std::size_t p = 0; p < coeffs.size(); ++p) {
          coeffs[p] = 1.0 / static_cast<double>(p + 1);
          ccoeffs[p] = cd(coeffs[p], -0.5 * coeffs[p]);
        }
        serial.power(x, k, ref, ws);
        serial.power_all(x, k, std::span(basis_ref).first(nb), ws);
        serial.polynomial(coeffs, x, poly_ref, ws);
        serial.polynomial(ccoeffs, x, cpoly_ref, ws);

        const std::pair<const char*, ExecPath> rungs[] = {
            {"engine", ExecPath::kEngine},
            {"barrier", ExecPath::kBarrier},
            {"serial", ExecPath::kSerial}};
        for (const auto& [rung, path] : rungs) {
          ASSERT_TRUE(p2p.try_power(x, k, y, ws, path).ok());
          expect_eq(y, ref, std::string("try_power ") + rung);
          std::copy(x.begin(), x.end(), z.begin());
          ASSERT_TRUE(p2p.try_power(z, k, z, ws, path).ok());
          expect_eq(z, ref, std::string("aliased try_power ") + rung);
        }
        for (const MpkPlan* plan : {&p2p, &barrier}) {
          const std::string sync =
              plan == &p2p ? " (point-to-point)" : " (barrier)";
          std::copy(x.begin(), x.end(), z.begin());
          plan->power(z, k, z, ws);
          expect_eq(z, ref, "aliased power" + sync);
          plan->power_all(x, k, std::span(basis).first(nb), ws);
          expect_eq(std::span(basis).first(nb), std::span(basis_ref).first(nb),
                    "power_all" + sync);
          plan->polynomial(coeffs, x, poly, ws);
          expect_eq(poly, poly_ref, "polynomial" + sync);
          plan->polynomial(ccoeffs, x, cpoly, ws);
          for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(cpoly[i], cpoly_ref[i])
                << "complex polynomial" << sync << " element " << i;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, StageScheduleDifferential,
                         ::testing::Values(1, 2, 4, 7));

// ---------------------------------------------------------------------
// Validator mutations.

/// Rows of slot (t, s) in execution order.
std::vector<index_t> slot_rows(const StageDirection& d, index_t t, index_t s,
                               bool backward) {
  std::vector<index_t> rows;
  const std::size_t q = d.slot(t, s);
  for (index_t r = d.range_ptr[q]; r < d.range_ptr[q + 1]; ++r)
    for (index_t i = d.ranges[r].begin; i < d.ranges[r].end; ++i)
      rows.push_back(i);
  if (backward) std::reverse(rows.begin(), rows.end());
  return rows;
}

/// Rebuild `d`'s ranges from per-slot execution-ordered row lists (one
/// single-row range per row; backward slots stored reversed).
void set_rows(StageDirection& d, std::vector<std::vector<index_t>> lists,
              bool backward) {
  d.ranges.clear();
  d.range_ptr.assign(lists.size() + 1, 0);
  for (std::size_t q = 0; q < lists.size(); ++q) {
    if (backward) std::reverse(lists[q].begin(), lists[q].end());
    for (index_t i : lists[q]) d.ranges.push_back({i, i + 1});
    d.range_ptr[q + 1] = static_cast<index_t>(d.ranges.size());
  }
}

/// Move forward row `i` into slot (t, s), before or after its rows.
void move_forward_row(StageSchedule& sched, index_t i, index_t t, index_t s,
                      bool front) {
  StageDirection& d = sched.fwd;
  std::vector<std::vector<index_t>> lists;
  for (index_t u = 0; u < sched.num_threads; ++u)
    for (index_t st = 0; st < d.num_stages; ++st) {
      auto rows = slot_rows(d, u, st, false);
      rows.erase(std::remove(rows.begin(), rows.end(), i), rows.end());
      lists.push_back(std::move(rows));
    }
  auto& dst = lists[d.slot(t, s)];
  dst.insert(front ? dst.begin() : dst.end(), i);
  set_rows(d, std::move(lists), false);
}

/// Forward placement (owner, stage) of every row.
void forward_placement(const StageSchedule& sched, std::vector<index_t>& owner,
                       std::vector<index_t>& stage) {
  owner.assign(static_cast<std::size_t>(sched.num_rows), -1);
  stage.assign(static_cast<std::size_t>(sched.num_rows), -1);
  for (index_t t = 0; t < sched.num_threads; ++t)
    for (index_t s = 0; s < sched.fwd.num_stages; ++s)
      for (index_t i : slot_rows(sched.fwd, t, s, false)) {
        owner[i] = t;
        stage[i] = s;
      }
}

/// Schedules from both front-ends over one matrix, 3 threads. The ABMC
/// input is structurally symmetric so each of its forward deps answers
/// a lower-triangle edge.
struct MutationCase {
  std::string name;
  TriangularSplit<double> split;
  StageSchedule sched;
};

std::vector<MutationCase> mutation_cases() {
  std::vector<MutationCase> out;
  {
    const auto a = test::random_matrix(240, 7.0, /*symmetric=*/true, 611);
    AbmcOptions opts;
    opts.num_blocks = 16;
    const AbmcOrdering o = abmc_order(a, opts);
    MutationCase c{"abmc", split_triangular(permute_symmetric(a, o.perm)), {}};
    c.sched = build_sweep_schedule(o, c.split, 3);
    out.push_back(std::move(c));
  }
  {
    const auto a = test::random_matrix(240, 6.0, /*symmetric=*/false, 612);
    MutationCase c{"levels", split_triangular(a), {}};
    c.sched = build_level_sweep_schedule(LevelSchedulePair::of(c.split),
                                         c.split, 3);
    out.push_back(std::move(c));
  }
  return out;
}

TEST(StageScheduleValidator, RejectsMutationsOfBothFrontEnds) {
  for (const MutationCase& c : mutation_cases()) {
    SCOPED_TRACE("front-end=" + c.name);
    const TriangularSplit<double>& split = c.split;
    ASSERT_TRUE(validate_stage_schedule(c.sched, split));
    const index_t n = c.sched.num_rows;

    {  // dropped dep: the first forward wait of a thread — nothing
       // earlier in its walk covers the producer it names
      StageSchedule bad = c.sched;
      auto& d = bad.fwd;
      const auto q = static_cast<std::size_t>(
          std::find_if(d.dep_ptr.begin() + 1, d.dep_ptr.end(),
                       [&](index_t p) { return p > 0; }) -
          d.dep_ptr.begin() - 1);
      ASSERT_LT(q + 1, d.dep_ptr.size()) << "schedule has no forward dep";
      d.deps.erase(d.deps.begin() + d.dep_ptr[q]);
      for (std::size_t r = q + 1; r < d.dep_ptr.size(); ++r) --d.dep_ptr[r];
      EXPECT_FALSE(validate_stage_schedule(bad, split)) << "dropped dep";
    }
    {  // a row in two slots
      StageSchedule bad = c.sched;
      bad.bwd.ranges.push_back(bad.bwd.ranges.front());
      ++bad.bwd.range_ptr.back();
      EXPECT_FALSE(validate_stage_schedule(bad, split)) << "row twice";
    }
    {  // a row in no slot
      StageSchedule bad = c.sched;
      RowRange& r = bad.fwd.ranges.back();
      ASSERT_LT(r.begin, r.end);
      if (r.end - r.begin == 1)
        r.end = r.begin;  // empty range: its row is placed nowhere
      else
        --r.end;
      EXPECT_FALSE(validate_stage_schedule(bad, split)) << "row missing";
    }

    // An L edge i -> j between rows of different forward stages.
    std::vector<index_t> owner, stage;
    forward_placement(c.sched, owner, stage);
    index_t ei = -1, ej = -1;
    for (index_t i = 0; i < n && ei < 0; ++i)
      for (index_t e = split.lower.row_ptr()[i];
           e < split.lower.row_ptr()[i + 1]; ++e)
        if (stage[split.lower.col_idx()[e]] < stage[i]) {
          ei = i;
          ej = split.lower.col_idx()[e];
          break;
        }
    ASSERT_GE(ei, 0);
    {  // cross-thread edge inside one stage: consumer i joins its
       // producer's stage on another thread
      StageSchedule bad = c.sched;
      const index_t other = (owner[ej] + 1) % bad.num_threads;
      move_forward_row(bad, ei, other, stage[ej], /*front=*/false);
      EXPECT_FALSE(validate_stage_schedule(bad, split)) << "cross edge";
    }
    {  // intra-thread consumer before its producer
      StageSchedule bad = c.sched;
      move_forward_row(bad, ei, owner[ej], stage[ej], /*front=*/true);
      EXPECT_FALSE(validate_stage_schedule(bad, split)) << "consumer first";
    }
    {  // cross-pair hazard with no covering dep: threads 0 and 1 trade
       // their last backward slots (slots of one stage share no edges),
       // so rows finish a pair on another thread than the one that
       // starts the next; keep exactly the within-pair waits (every
       // within-pair hazard stays covered), wait on every thread at
       // head/tail, and drop the pair-boundary rendezvous
      StageSchedule bad = c.sched;
      std::vector<std::vector<index_t>> lists;
      for (index_t t = 0; t < bad.num_threads; ++t)
        for (index_t s = 0; s < bad.bwd.num_stages; ++s)
          lists.push_back(slot_rows(bad.bwd, t, s, true));
      const index_t last = bad.bwd.num_stages - 1;
      std::swap(lists[bad.bwd.slot(0, last)], lists[bad.bwd.slot(1, last)]);
      set_rows(bad.bwd, std::move(lists), true);
      derive_stage_deps(bad, split.lower.row_ptr(), split.lower.col_idx(),
                        split.upper.row_ptr(), split.upper.col_idx());
      bad.edge_deps.clear();
      for (index_t t = 0; t < bad.num_threads; ++t) {
        for (index_t u = 0; u < bad.num_threads; ++u)
          if (u != t) bad.edge_deps.push_back(u);
        bad.edge_dep_ptr[t + 1] = static_cast<index_t>(bad.edge_deps.size());
      }
      std::fill(bad.pair_dep_ptr.begin(), bad.pair_dep_ptr.end(), 0);
      bad.pair_deps.clear();
      EXPECT_FALSE(validate_stage_schedule(bad, split)) << "cross pair";
      // The same within-pair waits plus an all-thread rendezvous at
      // every pair boundary are sufficient.
      StageSchedule good = bad;
      for (index_t t = 0; t < good.num_threads; ++t) {
        for (index_t u = 0; u < good.num_threads; ++u)
          if (u != t) good.pair_deps.push_back(u);
        good.pair_dep_ptr[t + 1] = static_cast<index_t>(good.pair_deps.size());
      }
      EXPECT_TRUE(validate_stage_schedule(good, split));
    }
  }
}

}  // namespace
}  // namespace fbmpk
