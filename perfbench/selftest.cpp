// Checks of the benchmark's own arithmetic (stats.hpp) on inputs whose
// answers are computed by hand. run.py runs this before every
// benchmark run and refuses to report numbers if any check fails.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    std::printf("FAIL %s\n", what.c_str());
    ++failures;
  }
}

bool near(double a, double b, double tol = 1e-12) {
  return std::fabs(a - b) <= tol * std::max(1.0, std::fabs(b));
}

void test_quantile() {
  using perfbench::quantile;
  const std::vector<double> v = {5, 1, 4, 2, 3};
  check(near(quantile(v, 0.5).value, 3.0), "median of 1..5 is 3");
  check(quantile(v, 0.5).n == 5, "quantile reports its sample count");
  check(quantile(v, 0.5).beyond == 2, "two samples lie above the median");
  check(near(quantile(v, 0.0).value, 1.0), "q=0 is the minimum");
  check(near(quantile(v, 1.0).value, 5.0), "q=1 is the maximum");
  check(quantile(v, 1.0).beyond == 0, "nothing lies above the maximum");
  // position 0.25·3 = 0.75 between 10 and 20
  check(near(quantile({10, 20, 30, 40}, 0.25).value, 17.5),
        "interpolated lower quartile");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  // position 0.99·99 = 98.01 → 99 + 0.01
  check(near(quantile(hundred, 0.99).value, 99.01), "p99 of 1..100");
  check(quantile(hundred, 0.99).beyond == 1, "p99 of 100 has one beyond");
  check(quantile(hundred, 0.90).beyond == 10, "p90 of 100 has ten beyond");
  check(near(perfbench::median({2, 4}), 3.0), "even-count median");
  // Tail percentile: ten samples beyond, within [p50, p99].
  const auto t100 = perfbench::tail_quantile(hundred);
  check(t100.beyond == 10 && near(t100.value, 90.1), "tail of 100 is p90");
  std::vector<double> thousand;
  for (int i = 1; i <= 2000; ++i) thousand.push_back(i);
  check(perfbench::tail_quantile(thousand).beyond == 20,
        "tail of 2000 is capped at p99");
  check(near(perfbench::tail_quantile({1, 2, 3, 4, 5}).value, 3.0),
        "tail of a tiny sample falls back to the median");
  bool threw = false;
  try {
    (void)quantile({}, 0.5);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  check(threw, "empty quantile throws");
}

void test_geomean_cv() {
  using perfbench::geomean;
  check(near(geomean({2, 8}), 4.0), "geomean of 2 and 8 is 4");
  check(near(geomean({1, 10, 100}), 10.0, 1e-12), "geomean of decades");
  check(near(geomean({0.5, 2.0}), 1.0), "reciprocal ratios cancel");
  bool threw = false;
  try {
    (void)geomean({1.0, 0.0});
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  check(threw, "geomean rejects a zero");
  check(near(perfbench::robust_cv({3, 3, 3}), 0.0),
        "constant sample has CV 0");
  // 1..9: quartiles 3 and 7, median 5; an outlier moves neither.
  check(near(perfbench::robust_cv({1, 2, 3, 4, 5, 6, 7, 8, 9}),
             4.0 / 1.349 / 5.0),
        "robust CV from the interquartile range");
  check(near(perfbench::robust_cv({1, 2, 3, 4, 5, 6, 7, 8, 900}),
             4.0 / 1.349 / 5.0),
        "robust CV ignores a lone outlier");
}

void test_stratified_counts() {
  using perfbench::stratified_counts;
  using V = std::vector<std::size_t>;
  check(stratified_counts({1, 1, 1}, 9) == V{3, 3, 3}, "even thirds");
  check(stratified_counts({1, 1, 1}, 10) == V{4, 3, 3},
        "a tied remainder goes to the lower class");
  // Zipf 1/rank over three classes: shares 6/11, 3/11, 2/11 of 22.
  check(stratified_counts({1.0, 0.5, 1.0 / 3.0}, 22) == V{12, 6, 4},
        "exact Zipf shares");
  // Shares 5.5, 3.3, 2.2: floors 5, 3, 2 and the one left goes to the
  // largest remainder, class 0.
  check(stratified_counts({5, 3, 2}, 11) == V{6, 3, 2}, "largest remainder");
  check(stratified_counts({1, 0}, 3) == V{3, 0}, "a zero weight gets nothing");
  check(stratified_counts({2, 1}, 0) == V{0, 0}, "no draws");
  bool threw = false;
  try {
    stratified_counts({0, 0}, 4);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  check(threw, "all-zero weights throw");
}

void test_pair_headtail_fit() {
  // t(k) = 1.5 + 2·(k−1)/2: head+tail 1.5, one pair 2.
  const std::vector<int> ks = {3, 5, 9};
  std::vector<double> t;
  for (int k : ks) t.push_back(1.5 + 2.0 * (k - 1) / 2.0);
  const auto f = perfbench::fit_pair_headtail(ks, t);
  check(near(f.slope, 2.0), "pair slope");
  check(near(f.intercept, 1.5), "head/tail intercept");
  // Noisy points: least squares through (1,1) (2,3) (4,4).
  const auto g = perfbench::fit_line({1, 2, 4}, {1, 3, 4});
  // mx=7/3, my=8/3, sxy=13/3, sxx=14/3 → slope 13/14
  check(near(g.slope, 13.0 / 14.0), "least-squares slope");
  check(near(g.intercept, 8.0 / 3.0 - 13.0 / 14.0 * 7.0 / 3.0),
        "least-squares intercept");
}

void test_open_loop_times() {
  perfbench::RequestTimes r;
  r.scheduled_ns = 1'000'000'000;
  r.sent_ns = 1'002'000'000;  // generator 2 ms late
  r.done_ns = 1'007'500'000;
  check(near(perfbench::latency_ms(r), 7.5), "latency from scheduled time");
  check(near(perfbench::lateness_ms(r), 2.0), "lateness of the generator");
  check(!perfbench::grows({1, 1, 1, 1, 1, 1, 1, 1, 1}, 0.5),
        "a flat series does not grow");
  check(perfbench::grows({0, 0, 0, 1, 2, 3, 6, 7, 8}, 0.5),
        "a rising series grows");
  check(!perfbench::grows({0, 5, 0, 0, 0, 0, 0, 0}, 0.5),
        "too short a series never grows");
  check(!perfbench::grows({0, 0, 0, 0, 0, 0, 0, 0, 90}, 0.5),
        "a lone late spike is not growth");
}

void test_max_rate() {
  using perfbench::RungOutcome;
  std::vector<RungOutcome> rungs = {
      {10, 5.0, 0.0, false},
      {20, 8.0, 0.0, false},
      {40, 9.0, 0.0, true},    // backlog grows
      {80, 90.0, 0.0, false},  // p99 over the limit
  };
  check(perfbench::select_max_rate(rungs, 50.0, 0.01) == 1,
        "highest passing rung is 20 req/s");
  rungs[1].fail_share = 0.05;
  check(perfbench::select_max_rate(rungs, 50.0, 0.01) == 0,
        "a rung over the failure limit does not pass");
  rungs[0].p99_ms = 60.0;
  check(perfbench::select_max_rate(rungs, 50.0, 0.01) == -1,
        "no rung passes");
  // A failure is a latency sample at +inf, so it lands in the p99.
  std::vector<double> lat(99, 1.0);
  lat.push_back(perfbench::failed_latency());
  check(perfbench::quantile(lat, 0.995).value > 1e300,
        "a failed request counts as missing the limit");
}

void test_self_time() {
  using perfbench::Span;
  // Thread 0: bench [0,100) holds kernels [10,40) which holds
  // sparse [20,25), then core [50,90). Thread 1: service [0,30).
  std::vector<Span> spans = {
      {0, 0, 100, "bench"},  {0, 10, 30, "kernels"}, {0, 20, 5, "sparse"},
      {0, 50, 40, "core"},   {1, 0, 30, "service"},
  };
  auto self = perfbench::self_time_ns(spans);
  check(self["bench"] == 100 - 30 - 40, "parent minus direct children");
  check(self["kernels"] == 30 - 5, "grandchild charged to its parent");
  check(self["sparse"] == 5, "leaf span keeps its duration");
  check(self["core"] == 40, "sibling leaf");
  check(self["service"] == 30, "spans on another thread do not nest");
  // Same layer nested in itself: both parts land in one layer.
  auto same = perfbench::self_time_ns(
      {{0, 0, 10, "kernels"}, {0, 2, 3, "kernels"}});
  check(same["kernels"] == 10, "nested same-layer spans sum to the outer");
  check(perfbench::layer_of("service.fingerprint") == "service",
        "layer is the name before the first dot");
  check(perfbench::layer_of("bench") == "bench", "dotless name is a layer");
}

}  // namespace

int main() {
  test_quantile();
  test_geomean_cv();
  test_stratified_counts();
  test_pair_headtail_fit();
  test_open_loop_times();
  test_max_rate();
  test_self_time();
  if (failures != 0) {
    std::printf("perfbench_selftest: %d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}
