// Shared helpers for the FBMPK test suite.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <span>
#include <vector>

#include "gen/kkt.hpp"
#include "gen/random_sparse.hpp"
#include "gen/stencil.hpp"
#include "kernels/fbmpk_parallel.hpp"
#include "sparse/csr.hpp"
#include "sparse/ops.hpp"
#include "support/aligned_buffer.hpp"
#include "support/rng.hpp"

namespace fbmpk::test {

/// Minimal xorshift64* generator committed with the test suite. The
/// property harness derives every random choice from it instead of the
/// library's Xoshiro Rng, so a library RNG change can never silently
/// reshuffle the harness's case distribution: a failing seed printed
/// today reproduces the same case forever.
struct Xorshift64 {
  std::uint64_t state;

  explicit Xorshift64(std::uint64_t seed)
      : state(seed != 0 ? seed : 0x9e3779b97f4a7c15ULL) {}

  std::uint64_t next() {
    std::uint64_t x = state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    state = x;
    return x * 0x2545f4914f6cdd1dULL;
  }

  /// Uniform in [lo, hi] (inclusive); modulo bias is irrelevant here.
  std::uint64_t in_range(std::uint64_t lo, std::uint64_t hi) {
    return lo + next() % (hi - lo + 1);
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }
};

/// Number of randomized property-harness iterations: the
/// FBMPK_PROP_SEEDS environment variable when set (CI runs 5),
/// otherwise a quick default of 2.
inline int property_seed_count() {
  const char* env = std::getenv("FBMPK_PROP_SEEDS");
  if (env == nullptr || *env == '\0') return 2;
  const int n = std::atoi(env);
  return n > 0 ? n : 2;
}

/// Deterministic random vector with entries in [-1, 1).
inline AlignedVector<double> random_vector(index_t n, std::uint64_t seed) {
  Rng rng(seed);
  AlignedVector<double> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = rng.next_double(-1.0, 1.0);
  return v;
}

/// Small random square CSR matrix for property sweeps. Diagonally
/// dominant so powers stay well-scaled.
inline CsrMatrix<double> random_matrix(index_t n, double avg_row_nnz,
                                       bool symmetric, std::uint64_t seed) {
  gen::RandomBandedOptions o;
  o.bandwidth = std::max<index_t>(1, n / 2);
  o.avg_row_nnz = avg_row_nnz;
  o.symmetric = symmetric;
  o.seed = seed;
  return gen::make_random_banded(n, o);
}

/// Reference y = A^k x via the dense representation (O(n^2) per power;
/// use only on small matrices).
inline std::vector<double> dense_power_reference(const CsrMatrix<double>& a,
                                                 std::span<const double> x,
                                                 int k) {
  const index_t n = a.rows();
  const std::vector<double> d = to_dense(a);
  std::vector<double> cur(x.begin(), x.end());
  std::vector<double> nxt(static_cast<std::size_t>(n));
  for (int p = 0; p < k; ++p) {
    for (index_t i = 0; i < n; ++i) {
      double sum = 0.0;
      for (index_t j = 0; j < n; ++j)
        sum += d[static_cast<std::size_t>(i) * n + j] * cur[j];
      nxt[i] = sum;
    }
    cur.swap(nxt);
  }
  return cur;
}

/// Relative comparison robust to the large dynamic range of matrix
/// powers: |a - b| <= rtol * (1 + max(|a|, |b|)).
inline void expect_near_rel(std::span<const double> actual,
                            std::span<const double> expected, double rtol,
                            const char* label = "") {
  ASSERT_EQ(actual.size(), expected.size()) << label;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const double scale =
        1.0 + std::max(std::abs(actual[i]), std::abs(expected[i]));
    ASSERT_NEAR(actual[i], expected[i], rtol * scale)
        << label << " mismatch at index " << i;
  }
}

/// A property-harness matrix from one of four structurally distinct
/// families (test_property_random.cpp, test_stage_schedule.cpp).
inline CsrMatrix<double> draw_property_matrix(Xorshift64& rng) {
  switch (rng.next() % 4) {
    case 0:  // symmetric banded (stencil-like after reordering)
      return random_matrix(static_cast<index_t>(rng.in_range(120, 280)),
                           4.0 + 6.0 * rng.uniform(), /*symmetric=*/true,
                           rng.next());
    case 1:  // unsymmetric banded
      return random_matrix(static_cast<index_t>(rng.in_range(100, 240)),
                           4.0 + 5.0 * rng.uniform(), /*symmetric=*/false,
                           rng.next());
    case 2:  // 2D Laplacian stencil
      return gen::make_laplacian_2d(static_cast<index_t>(rng.in_range(9, 17)),
                                    static_cast<index_t>(rng.in_range(9, 17)));
    default: {  // KKT saddle point
      gen::KktOptions o;
      o.seed = rng.next();
      return gen::make_kkt_saddle(static_cast<index_t>(rng.in_range(3, 5)),
                                  static_cast<index_t>(rng.in_range(3, 5)),
                                  static_cast<index_t>(rng.in_range(3, 5)),
                                  o);
    }
  }
}

/// FBMPK_SCHEDULER env filter over the scheduler axis: "abmc" or
/// "levels" restricts it to one front-end, anything else runs both.
struct SchedulerFilter {
  bool abmc = true;
  bool levels = true;
};

inline SchedulerFilter scheduler_filter() {
  const char* e = std::getenv("FBMPK_SCHEDULER");
  if (e == nullptr) return {};
  const std::string s(e);
  if (s == "abmc") return {true, false};
  if (s == "levels") return {false, true};
  return {};
}

/// Run one stage-schedule rung over the exact row policy: the engine
/// (falling back to the barrier rung when it cannot run) or the barrier
/// rung. emit(p, i, v) as in the kernels.
template <class Emit>
void stage_sweep(const TriangularSplit<double>& s, const StageSchedule& sched,
                 std::span<const double> x, int k, Emit&& emit,
                 bool engine = false, SweepWorkspace<double>* ws = nullptr) {
  SweepWorkspace<double> local;
  SweepWorkspace<double>& w = ws != nullptr ? *ws : local;
  const ScalarRows<double> rows(s);
  if (!engine || !fbmpk_engine_try_sweep_rows(s, sched, rows, x, k, w,
                                              /*pin_threads=*/false, emit))
    fbmpk_barrier_sweep_rows(s, sched, rows, x, k, w, emit);
}

/// y = A^k x through stage_sweep (k = 0 copies x).
inline void stage_power(const TriangularSplit<double>& s,
                        const StageSchedule& sched, std::span<const double> x,
                        int k, std::span<double> y, bool engine = false,
                        SweepWorkspace<double>* ws = nullptr) {
  if (k == 0) {
    std::copy(x.begin(), x.end(), y.begin());
    return;
  }
  double* yp = y.data();
  stage_sweep(
      s, sched, x, k,
      [&](int p, index_t i, double v) {
        if (p == k) yp[i] = v;
      },
      engine, ws);
}

}  // namespace fbmpk::test
