// Plan-build differential. The block quotient taken straight from CSR
// patterns (reorder/graph.hpp block_quotient) and the one-pass
// permute-and-split (sparse/split.hpp split_triangular(a, order)) are
// checked against a test-local copy of the algorithm they replaced: the
// row-level adjacency graph and its quotient, and P A P^T followed by a
// serial split. Quotients, ABMC orderings, splits, stage schedules and
// whole plans must agree exactly, for both blocking strategies, on
// property-harness draws (symmetric and unsymmetric) and on edge cases:
// rows with no off-diagonals, rows with no diagonal, n < num_blocks,
// n = 1 and hub rows, plus one hub graph above the parallel grain. The
// suite runs at threads {1, 2, 4, 7}, each team size in its own
// process; since every team size is compared with the same serial
// reference, the results are also independent of it.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/plan.hpp"
#include "gen/random_sparse.hpp"
#include "reorder/abmc.hpp"
#include "reorder/blocking.hpp"
#include "reorder/coloring.hpp"
#include "reorder/graph.hpp"
#include "reorder/permutation.hpp"
#include "reorder/stage_schedule.hpp"
#include "sparse/coo.hpp"
#include "sparse/split.hpp"
#include "support/threading.hpp"
#include "test_util.hpp"

namespace fbmpk {
namespace {

// ---------------------------------------------------------------------
// Reference: the row-graph build path.

/// Quotient of a row-level adjacency graph under a block assignment.
AdjacencyGraph ref_quotient(const AdjacencyGraph& g,
                            const std::vector<index_t>& block_of,
                            index_t num_blocks) {
  std::vector<std::vector<index_t>> nbrs(static_cast<std::size_t>(num_blocks));
  for (index_t v = 0; v < g.n; ++v)
    for (index_t k = g.ptr[v]; k < g.ptr[v + 1]; ++k) {
      const index_t bu = block_of[g.adj[k]];
      if (bu != block_of[v]) nbrs[block_of[v]].push_back(bu);
    }
  AdjacencyGraph q;
  q.n = num_blocks;
  q.ptr.assign(static_cast<std::size_t>(num_blocks) + 1, 0);
  for (index_t b = 0; b < num_blocks; ++b) {
    auto& list = nbrs[b];
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
    q.adj.insert(q.adj.end(), list.begin(), list.end());
    q.ptr[b + 1] = static_cast<index_t>(q.adj.size());
  }
  return q;
}

/// ABMC through the row graph: blocking, quotient, greedy coloring,
/// blocks laid out color by color (stable in block order).
AbmcOrdering ref_abmc(const CsrMatrix<double>& a, const AbmcOptions& opts) {
  const AdjacencyGraph g = adjacency_from_matrix(a);
  const Blocking blocking =
      build_blocking(g, g.n, opts.num_blocks, opts.blocking);
  const Coloring coloring = greedy_color(
      ref_quotient(g, blocking.block_of, blocking.num_blocks), opts.coloring);
  std::vector<index_t> block_order(
      static_cast<std::size_t>(blocking.num_blocks));
  std::iota(block_order.begin(), block_order.end(), 0);
  std::stable_sort(block_order.begin(), block_order.end(),
                   [&](index_t x, index_t y) {
                     return coloring.color_of[x] < coloring.color_of[y];
                   });
  AbmcOrdering out;
  out.num_blocks = blocking.num_blocks;
  out.num_colors = coloring.num_colors;
  out.color_ptr.assign(static_cast<std::size_t>(out.num_colors) + 1, 0);
  out.block_ptr.push_back(0);
  std::vector<index_t> order;
  index_t prev = 0;
  for (index_t pos = 0; pos < out.num_blocks; ++pos) {
    const index_t blk = block_order[pos];
    while (prev < coloring.color_of[blk]) out.color_ptr[++prev] = pos;
    for (index_t k = blocking.block_ptr[blk]; k < blocking.block_ptr[blk + 1];
         ++k)
      order.push_back(blocking.row_order[k]);
    out.block_ptr.push_back(static_cast<index_t>(order.size()));
  }
  while (prev < out.num_colors) out.color_ptr[++prev] = out.num_blocks;
  out.perm = Permutation(std::move(order));
  return out;
}

/// Serial split of an already permuted matrix.
TriangularSplit<double> ref_split(const CsrMatrix<double>& a) {
  const index_t n = a.rows();
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  const auto va = a.values();
  AlignedVector<index_t> lp(static_cast<std::size_t>(n) + 1, 0);
  AlignedVector<index_t> up(static_cast<std::size_t>(n) + 1, 0);
  AlignedVector<index_t> lc, uc;
  AlignedVector<double> lv, uv;
  TriangularSplit<double> s;
  s.diag.assign(static_cast<std::size_t>(n), 0.0);
  for (index_t i = 0; i < n; ++i) {
    for (index_t k = rp[i]; k < rp[i + 1]; ++k) {
      if (ci[k] < i) {
        lc.push_back(ci[k]);
        lv.push_back(va[k]);
      } else if (ci[k] > i) {
        uc.push_back(ci[k]);
        uv.push_back(va[k]);
      } else {
        s.diag[i] = va[k];
      }
    }
    lp[i + 1] = static_cast<index_t>(lc.size());
    up[i + 1] = static_cast<index_t>(uc.size());
  }
  s.lower = CsrMatrix<double>(n, n, std::move(lp), std::move(lc),
                              std::move(lv));
  s.upper = CsrMatrix<double>(n, n, std::move(up), std::move(uc),
                              std::move(uv));
  return s;
}

// ---------------------------------------------------------------------
// Exact comparisons.

void expect_same_graph(const AdjacencyGraph& got, const AdjacencyGraph& want) {
  EXPECT_EQ(got.n, want.n);
  EXPECT_EQ(got.ptr, want.ptr);
  EXPECT_EQ(got.adj, want.adj);
}

void expect_same_ordering(const AbmcOrdering& got, const AbmcOrdering& want) {
  EXPECT_EQ(got.perm, want.perm);
  EXPECT_EQ(got.block_ptr, want.block_ptr);
  EXPECT_EQ(got.color_ptr, want.color_ptr);
  EXPECT_EQ(got.num_blocks, want.num_blocks);
  EXPECT_EQ(got.num_colors, want.num_colors);
}

void expect_same_split(const TriangularSplit<double>& got,
                       const TriangularSplit<double>& want) {
  EXPECT_EQ(got.lower, want.lower);
  EXPECT_EQ(got.upper, want.upper);
  EXPECT_EQ(got.diag, want.diag);
}

void expect_same_direction(const StageDirection& got,
                           const StageDirection& want) {
  EXPECT_EQ(got.num_stages, want.num_stages);
  EXPECT_EQ(got.range_ptr, want.range_ptr);
  EXPECT_EQ(got.ranges, want.ranges);
  EXPECT_EQ(got.dep_ptr, want.dep_ptr);
  EXPECT_EQ(got.deps, want.deps);
  EXPECT_EQ(got.load, want.load);
}

void expect_same_schedule(const StageSchedule& got,
                          const StageSchedule& want) {
  EXPECT_EQ(got.num_threads, want.num_threads);
  EXPECT_EQ(got.num_rows, want.num_rows);
  expect_same_direction(got.fwd, want.fwd);
  expect_same_direction(got.bwd, want.bwd);
  EXPECT_EQ(got.edge_dep_ptr, want.edge_dep_ptr);
  EXPECT_EQ(got.edge_deps, want.edge_deps);
  EXPECT_EQ(got.pair_dep_ptr, want.pair_dep_ptr);
  EXPECT_EQ(got.pair_deps, want.pair_deps);
}

// ---------------------------------------------------------------------
// Inputs.

struct Case {
  std::string name;
  CsrMatrix<double> a;
  bool plannable = true;  ///< passes plan input validation
};

/// Row i stores its diagonal (when `diag`) and, unless `lonely(i)`,
/// a few pseudo-random off-diagonals in one direction only.
template <class Lonely>
CsrMatrix<double> sparse_rows(index_t n, bool diag, Lonely&& lonely,
                              std::uint64_t seed) {
  test::Xorshift64 rng(seed);
  CooMatrix<double> coo(n, n);
  for (index_t i = 0; i < n; ++i) {
    if (diag) coo.add(i, i, 8.0);
    if (lonely(i)) continue;
    for (int e = 0; e < 3; ++e) {
      const auto j = static_cast<index_t>(rng.in_range(0, n - 1));
      if (j != i) coo.add(i, j, -1.0 + 0.01 * static_cast<double>(e));
    }
  }
  return CsrMatrix<double>::from_coo(coo);
}

std::vector<Case> cases() {
  std::vector<Case> out;
  const int seeds = test::property_seed_count();
  for (int seed = 0; seed < seeds; ++seed) {
    test::Xorshift64 rng(0x42444946ull ^
                         (static_cast<std::uint64_t>(seed) << 32));
    for (int d = 0; d < 3; ++d)
      out.push_back({"draw" + std::to_string(seed) + "." + std::to_string(d),
                     test::draw_property_matrix(rng)});
    out.push_back({"unsym" + std::to_string(seed),
                   test::random_matrix(150, 6.0, /*symmetric=*/false,
                                       rng.next())});
  }
  {
    CooMatrix<double> coo(1, 1);
    coo.add(0, 0, 3.0);
    out.push_back({"n1", CsrMatrix<double>::from_coo(coo)});
  }
  out.push_back({"small", test::random_matrix(10, 3.0, false, 0x5a11)});
  out.push_back({"lonely_rows",
                 sparse_rows(90, true, [](index_t i) { return i % 3 == 0; },
                             0x10e1)});
  out.push_back({"diagonal_only",
                 sparse_rows(40, true, [](index_t) { return true; }, 0xd1a9)});
  out.push_back({"no_diagonal",
                 sparse_rows(70, false, [](index_t i) { return i % 5 == 0; },
                             0x0d1a),
                 /*plannable=*/false});
  gen::PowerLawOptions hub;
  hub.avg_row_nnz = 6.0;
  hub.bias = 4.0;
  hub.symmetric = false;
  hub.seed = 0x4ab;
  out.push_back({"hub", gen::make_power_law(700, hub)});
  // Above kParallelGrain, so teams of 2, 4 and 7 really fork; the
  // smaller cases run their passes on one thread.
  hub.avg_row_nnz = 8.0;
  hub.seed = 0x14a6e;
  out.push_back({"hub_large", gen::make_power_law(12000, hub)});
  return out;
}

/// One OpenMP team size per process: resizing the runtime's pool inside
/// one process retires threads without a join ThreadSanitizer can see.
class BuildDifferential : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { set_threads(GetParam()); }
  void TearDown() override { set_threads(saved_); }

 private:
  int saved_ = max_threads();
};

TEST_P(BuildDifferential, QuotientOrderingSplitAndScheduleMatchReference) {
  const int threads = GetParam();
  for (const Case& c : cases()) {
    SCOPED_TRACE("matrix=" + c.name);
    const CsrMatrix<double>& a = c.a;
    if (c.name == "hub_large") {
      ASSERT_GE(a.nnz(), kParallelGrain);
    }
    const AdjacencyGraph g = adjacency_from_matrix(a);
    const CsrPattern pattern = pattern_of(a);
    expect_same_split(split_triangular(a), ref_split(a));
    for (const auto blocking :
         {BlockingStrategy::kContiguous, BlockingStrategy::kBfs}) {
      for (const index_t blocks : {1, 7, 24, 512}) {
        SCOPED_TRACE("bfs=" + std::to_string(blocking ==
                                             BlockingStrategy::kBfs) +
                     " blocks=" + std::to_string(blocks));
        // Quotient of A under the blocking.
        const Blocking b = build_blocking(g, a.rows(), blocks, blocking);
        expect_same_graph(
            block_quotient(std::span(&pattern, 1), b.block_ptr, b.row_order),
            ref_quotient(g, b.block_of, b.num_blocks));

        for (const auto coloring :
             {ColoringOrder::kNatural, ColoringOrder::kLargestDegreeFirst}) {
          AbmcOptions opts;
          opts.num_blocks = blocks;
          opts.blocking = blocking;
          opts.coloring = coloring;
          const AbmcOrdering ord = abmc_order(a, opts);
          const AbmcOrdering ref = ref_abmc(a, opts);
          expect_same_ordering(ord, ref);

          // One-pass permute-and-split against P A P^T + split.
          const CsrMatrix<double> permuted = permute_symmetric(a, ref.perm);
          const TriangularSplit<double> split =
              split_triangular(a, ord.perm.order());
          const TriangularSplit<double> ref_s = ref_split(permuted);
          expect_same_split(split, ref_s);

          // The stage schedule's quotient of L + U is the permuted
          // matrix's quotient under its contiguous blocks.
          std::vector<index_t> block_of(static_cast<std::size_t>(a.rows()));
          for (index_t blk = 0; blk < ref.num_blocks; ++blk)
            for (index_t r = ref.block_ptr[blk]; r < ref.block_ptr[blk + 1];
                 ++r)
              block_of[r] = blk;
          const CsrPattern triangles[] = {pattern_of(split.lower),
                                          pattern_of(split.upper)};
          expect_same_graph(
              block_quotient(triangles, ord.block_ptr),
              ref_quotient(adjacency_from_matrix(permuted), block_of,
                           ref.num_blocks));
          const StageSchedule sched = build_sweep_schedule(ord, split, threads);
          expect_same_schedule(sched, build_sweep_schedule(ref, ref_s, threads));
          EXPECT_TRUE(validate_stage_schedule(sched, split));
        }
      }
    }
  }
}

TEST_P(BuildDifferential, PlansMatchReference) {
  const int threads = GetParam();
  for (const Case& c : cases()) {
    if (!c.plannable) continue;
    SCOPED_TRACE("matrix=" + c.name);
    const CsrMatrix<double>& a = c.a;
    for (const auto blocking :
         {BlockingStrategy::kContiguous, BlockingStrategy::kBfs}) {
      SCOPED_TRACE("bfs=" +
                   std::to_string(blocking == BlockingStrategy::kBfs));
      PlanOptions opts;
      opts.abmc.num_blocks = 24;
      opts.abmc.blocking = blocking;
      opts.sweep.threads = threads;
      const MpkPlan plan = MpkPlan::build(a, opts);
      const AbmcOrdering ref = ref_abmc(a, opts.abmc);
      const TriangularSplit<double> ref_s =
          ref_split(permute_symmetric(a, ref.perm));
      EXPECT_EQ(plan.permutation(), ref.perm);
      expect_same_ordering(plan.schedule(), ref);
      expect_same_split(plan.split(), ref_s);
      expect_same_schedule(plan.stage_schedule(),
                           build_sweep_schedule(ref, ref_s, threads));
    }
    // Natural order: the level scheduler's split is A's own.
    PlanOptions opts;
    opts.reorder = false;
    opts.scheduler = Scheduler::kLevels;
    opts.sweep.threads = threads;
    const MpkPlan plan = MpkPlan::build(a, opts);
    EXPECT_TRUE(plan.permutation().is_identity());
    expect_same_split(plan.split(), ref_split(a));
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, BuildDifferential,
                         ::testing::Values(1, 2, 4, 7));

TEST(BuildDifferential, SplitRejectsMalformedOrder) {
  const auto a = test::random_matrix(20, 4.0, false, 0x0bad);
  const std::vector<index_t> short_order(19, 0);
  EXPECT_THROW(split_triangular(a, short_order), Error);
  std::vector<index_t> out_of_range(20);
  std::iota(out_of_range.begin(), out_of_range.end(), 0);
  out_of_range[7] = 20;
  EXPECT_THROW(split_triangular(a, out_of_range), Error);
  // The identity order gives the natural split.
  std::vector<index_t> identity(20);
  std::iota(identity.begin(), identity.end(), 0);
  expect_same_split(split_triangular(a, identity), ref_split(a));
}

}  // namespace
}  // namespace fbmpk
