// The benchmark's own arithmetic: quantiles with their sample counts,
// geometric means, the stratified request mix, the pair/head-tail line
// fit, open-loop latency and lateness, the max-rate ladder selection
// and span self time.
//
// Header-only and free of library dependencies so perfbench_selftest
// can check every formula on hand-computed inputs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

/// A quantile together with the samples it rests on: `n` samples in
/// all, `beyond` of them strictly above the reported value.
struct Quantile {
  double value = 0.0;
  std::size_t n = 0;
  std::size_t beyond = 0;
};

/// q-quantile (q in [0, 1]) by linear interpolation between order
/// statistics (the "type 7" rule: position q·(n−1)). Throws on an empty
/// sample.
inline Quantile quantile(std::vector<double> v, double q) {
  if (v.empty()) throw std::invalid_argument("quantile of an empty sample");
  q = std::clamp(q, 0.0, 1.0);
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  Quantile r;
  r.value = v[lo] + frac * (v[hi] - v[lo]);
  r.n = v.size();
  r.beyond = static_cast<std::size_t>(
      v.end() - std::upper_bound(v.begin(), v.end(), r.value));
  return r;
}

/// The highest percentile that still has `min_beyond` samples above
/// it: q = 1 − min_beyond/n, kept within [0.5, 0.99]. A p99 needs a
/// thousand samples before ten lie beyond it; with fewer, this is the
/// tail the sample can actually support.
inline Quantile tail_quantile(const std::vector<double>& v,
                              std::size_t min_beyond = 10) {
  if (v.empty()) throw std::invalid_argument("quantile of an empty sample");
  const double q = 1.0 - static_cast<double>(min_beyond) /
                             static_cast<double>(v.size());
  return quantile(v, std::clamp(q, 0.5, 0.99));
}

inline double median(const std::vector<double>& v) {
  return quantile(v, 0.5).value;
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) throw std::invalid_argument("mean of an empty sample");
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Robust coefficient of variation: the interquartile range scaled to
/// a normal standard deviation (IQR / 1.349) over the median. A lone
/// outlier — a descheduled thread, a page-fault burst — barely moves
/// it, while a sample that is spread throughout does.
inline double robust_cv(const std::vector<double>& v) {
  if (v.size() < 2) return 0.0;
  const double iqr = quantile(v, 0.75).value - quantile(v, 0.25).value;
  return iqr / 1.349 / median(v);
}

/// Geometric mean of strictly positive values.
inline double geomean(const std::vector<double>& v) {
  if (v.empty()) throw std::invalid_argument("geomean of an empty sample");
  double s = 0.0;
  for (double x : v) {
    if (!(x > 0.0)) throw std::invalid_argument("geomean needs values > 0");
    s += std::log(x);
  }
  return std::exp(s / static_cast<double>(v.size()));
}

/// Split `n` draws over classes in proportion to `weights` by largest
/// remainder: each class gets the floor of its share, and the draws
/// left over go to the largest fractional parts (ties to the lower
/// class). The counts sum to `n`.
inline std::vector<std::size_t> stratified_counts(
    const std::vector<double>& weights, std::size_t n) {
  double total = 0.0;
  for (double w : weights) {
    if (!(w >= 0.0)) throw std::invalid_argument("weights must be >= 0");
    total += w;
  }
  if (!(total > 0.0)) throw std::invalid_argument("weights sum to zero");
  std::vector<std::size_t> count(weights.size());
  std::vector<std::pair<double, std::size_t>> rest;
  std::size_t placed = 0;
  for (std::size_t c = 0; c < weights.size(); ++c) {
    const double share = static_cast<double>(n) * weights[c] / total;
    count[c] = std::min(n - placed, static_cast<std::size_t>(share));
    placed += count[c];
    rest.push_back({share - static_cast<double>(count[c]), c});
  }
  std::stable_sort(rest.begin(), rest.end(), [](const auto& a, const auto& b) {
    return a.first > b.first;
  });
  for (std::size_t j = 0; placed < n; j = (j + 1) % rest.size(), ++placed)
    ++count[rest[j].second];
  return count;
}

/// Least-squares line y = intercept + slope·x.
struct LineFit {
  double slope = 0.0;
  double intercept = 0.0;
};

inline LineFit fit_line(const std::vector<double>& x,
                        const std::vector<double>& y) {
  if (x.size() != y.size() || x.size() < 2)
    throw std::invalid_argument("fit_line needs two or more (x, y) pairs");
  const double mx = mean(x), my = mean(y);
  double sxx = 0.0, sxy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sxx += (x[i] - mx) * (x[i] - mx);
    sxy += (x[i] - mx) * (y[i] - my);
  }
  if (sxx == 0.0) throw std::invalid_argument("fit_line needs distinct x");
  LineFit f;
  f.slope = sxy / sxx;
  f.intercept = my - f.slope * mx;
  return f;
}

/// FBMPK runs one head sweep, (k−1)/2 forward/backward pairs and a
/// tail, so median time against (k−1)/2 is a line whose slope is the
/// cost of one pair and whose intercept is the head + tail cost.
inline LineFit fit_pair_headtail(const std::vector<int>& ks,
                                 const std::vector<double>& seconds) {
  std::vector<double> x;
  for (int k : ks) x.push_back((k - 1) / 2.0);
  return fit_line(x, seconds);
}

/// One open-loop request, all times in nanoseconds on one clock.
/// Latency counts from when the request was due, so a stalled
/// generator charges its stall to every request it delayed.
struct RequestTimes {
  std::int64_t scheduled_ns = 0;  ///< due time on the arrival schedule
  std::int64_t sent_ns = 0;       ///< submit() actually called
  std::int64_t done_ns = 0;       ///< wait() returned
};

inline double latency_ms(const RequestTimes& r) {
  return static_cast<double>(r.done_ns - r.scheduled_ns) * 1e-6;
}

inline double lateness_ms(const RequestTimes& r) {
  return static_cast<double>(r.sent_ns - r.scheduled_ns) * 1e-6;
}

/// True when a series (generator lateness, queue depth, in schedule
/// order) grows: the median of its last third exceeds the median of its
/// first third by more than `slack` (absolute, in the series' unit).
/// Medians keep a lone spike from reading as growth; a series too short
/// for three samples per third never grows.
inline bool grows(const std::vector<double>& series, double slack) {
  if (series.size() < 9) return false;
  const std::size_t third = series.size() / 3;
  const std::vector<double> head(series.begin(), series.begin() + third);
  const std::vector<double> tail(series.end() - third, series.end());
  return median(tail) - median(head) > slack;
}

/// Outcome of one rung of the rate ladder.
struct RungOutcome {
  double rate = 0.0;        ///< offered requests per second
  double p99_ms = 0.0;      ///< latency p99, failures counted as misses
  double fail_share = 0.0;  ///< failed / attempted
  bool backlog_grows = false;  ///< queue depth or lateness grows
};

/// Index of the highest-rate rung that meets every condition: p99
/// within `p99_limit_ms`, failure share within `fail_limit`, and no
/// growing backlog. -1 when no rung passes.
inline int select_max_rate(const std::vector<RungOutcome>& rungs,
                           double p99_limit_ms, double fail_limit) {
  int best = -1;
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    const RungOutcome& r = rungs[i];
    const bool ok = r.p99_ms <= p99_limit_ms &&
                    r.fail_share <= fail_limit && !r.backlog_grows;
    if (ok && (best < 0 || r.rate > rungs[static_cast<std::size_t>(best)].rate))
      best = static_cast<int>(i);
  }
  return best;
}

/// Latency sample for a request that failed: it counts as missing any
/// limit, so it is charged as +infinity before taking quantiles.
inline double failed_latency() { return INFINITY; }

/// A closed span on one thread.
struct Span {
  int thread = 0;
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
  std::string layer;  ///< the span name's prefix before the first '.'
};

/// Layer of a span name: the part before the first '.', or the whole
/// name when it has none.
inline std::string layer_of(const std::string& name) {
  const auto dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

/// Self time per layer, in nanoseconds: each span's duration minus the
/// part of it covered by spans nested directly inside it on the same
/// thread. Spans on one thread are assumed properly nested (RAII); a
/// child overhanging its parent is clipped to the parent.
inline std::map<std::string, std::int64_t> self_time_ns(
    std::vector<Span> spans) {
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    if (a.thread != b.thread) return a.thread < b.thread;
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    return a.dur_ns > b.dur_ns;  // the enclosing span first
  });
  std::vector<std::int64_t> covered(spans.size(), 0);
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    while (!stack.empty()) {
      const Span& top = spans[stack.back()];
      if (top.thread == s.thread && top.start_ns + top.dur_ns > s.start_ns)
        break;
      stack.pop_back();
    }
    if (!stack.empty()) {
      const Span& parent = spans[stack.back()];
      const std::int64_t end = std::min(s.start_ns + s.dur_ns,
                                        parent.start_ns + parent.dur_ns);
      covered[stack.back()] += end - s.start_ns;
    }
    stack.push_back(i);
  }
  std::map<std::string, std::int64_t> self;
  for (std::size_t i = 0; i < spans.size(); ++i)
    self[spans[i].layer] += spans[i].dur_ns - covered[i];
  return self;
}

}  // namespace perfbench
