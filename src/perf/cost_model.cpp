#include "perf/cost_model.hpp"

#include <algorithm>
#include <cmath>

#include "support/error.hpp"

namespace fbmpk::perf {

const std::vector<PlatformSpec>& paper_platforms() {
  // Core counts, frequencies and cache hierarchy follow Table I; the
  // bandwidth and barrier figures are representative public numbers for
  // these parts (FT-2000+ is the 8-NUMA-node platform, hence the larger
  // barrier cost and lower per-core bandwidth efficiency).
  static const std::vector<PlatformSpec> specs = {
      {"FT2000+", 64, 2.2, 90.0, 5.0, 8.0, 4.0},
      {"ThunderX2", 64, 2.5, 240.0, 10.0, 3.0, 8.0},
      {"KP920", 128, 2.6, 380.0, 12.0, 3.5, 8.0},
      {"Xeon", 52, 2.1, 280.0, 14.0, 1.5, 16.0},
  };
  return specs;
}

PlatformSpec platform_by_name(const std::string& name) {
  for (const auto& p : paper_platforms())
    if (p.name == name) return p;
  FBMPK_CHECK_MSG(false, "unknown platform: " << name);
  return {};
}

namespace {

constexpr double kBytesPerNnz =
    sizeof(double) + sizeof(index_t);          // values + col_idx
constexpr double kBytesPerRow = sizeof(index_t);  // row_ptr
constexpr double kFlopsPerNnz = 2.0;              // multiply + add

/// Achievable aggregate bandwidth with t threads (GB/s). Real sockets
/// ramp sub-linearly as memory controllers contend, so we use a
/// saturating hyperbola bw(t) = BW * t / (t + t_half) calibrated so
/// bw(1) equals the single-core figure and bw(inf) the STREAM figure.
double bandwidth_gbps(const PlatformSpec& p, int threads) {
  const double t_half =
      std::max(0.0, p.stream_bw_gbps / p.bw_per_core_gbps - 1.0);
  return p.stream_bw_gbps * threads / (threads + t_half);
}

/// Time for a memory-streaming phase of `bytes` bytes and `flops` FP
/// operations spread over `threads` threads limited to `max_par`-way
/// parallelism (block granularity).
double phase_seconds(const PlatformSpec& p, double bytes, double flops,
                     int threads, double max_par) {
  const double t_eff = std::min<double>(threads, std::max(1.0, max_par));
  const double mem_s = bytes / (bandwidth_gbps(p, threads) * 1e9);
  const double compute_s =
      flops / (t_eff * p.freq_ghz * 1e9 * p.flops_per_cycle);
  // Memory and compute overlap imperfectly; the slower resource
  // dominates, with granularity-limited phases bound by compute.
  return std::max(mem_s, compute_s);
}

}  // namespace

double predict_standard_mpk_seconds(const PlatformSpec& p,
                                    const WorkloadShape& w, int k,
                                    int threads) {
  FBMPK_CHECK(k >= 1 && threads >= 1);
  const double bytes =
      w.nnz * kBytesPerNnz + w.rows * (kBytesPerRow + 2.0 * sizeof(double));
  const double flops = w.nnz * kFlopsPerNnz;
  // Row-parallel SpMV: parallelism bounded only by rows; one barrier
  // closes each sweep.
  const double sweep =
      phase_seconds(p, bytes, flops, threads, w.rows) + p.barrier_us * 1e-6;
  return k * sweep;
}

double predict_fbmpk_seconds(const PlatformSpec& p, const WorkloadShape& w,
                             int k, int threads) {
  FBMPK_CHECK(k >= 1 && threads >= 1);
  FBMPK_CHECK(!w.blocks_per_color.empty());
  const std::size_t colors = w.blocks_per_color.size();

  // Triangle sweeps touch half the matrix but double the vector work
  // (two iterates per pass). Per color: its share of nnz, limited to
  // blocks_per_color-way parallelism, plus a barrier.
  double color_sweep = 0.0;  // one L or U pass over all colors
  for (std::size_t c = 0; c < colors; ++c) {
    const double nnz_c = w.nnz_per_color[c] / 2.0;  // one triangle
    const double rows_c =
        static_cast<double>(w.rows) / static_cast<double>(colors);
    const double bytes = nnz_c * kBytesPerNnz +
                         rows_c * (kBytesPerRow + 4.0 * sizeof(double));
    const double flops = 2.0 * nnz_c * kFlopsPerNnz;  // two iterates
    color_sweep += phase_seconds(p, bytes, flops, threads,
                                 w.blocks_per_color[c]) +
                   p.barrier_us * 1e-6;
  }

  // Head / tail: one triangle each, row-parallel (no coloring needed).
  const double tri_bytes = (w.nnz / 2.0) * kBytesPerNnz +
                           w.rows * (kBytesPerRow + 2.0 * sizeof(double));
  const double head_tail =
      phase_seconds(p, tri_bytes, (w.nnz / 2.0) * kFlopsPerNnz, threads,
                    w.rows) +
      p.barrier_us * 1e-6;

  const int pairs = k / 2;
  const bool odd = (k % 2 != 0);
  // head + pairs * (forward + backward) + optional tail.
  return head_tail + pairs * 2.0 * color_sweep + (odd ? head_tail : 0.0);
}

double predict_fbmpk_scalability(const PlatformSpec& p,
                                 const WorkloadShape& w, int k,
                                 int threads) {
  const double base1 = predict_standard_mpk_seconds(p, w, k, 1);
  const double fb_t = predict_fbmpk_seconds(p, w, k, threads);
  return base1 / fb_t;
}

PartitionImbalance partition_imbalance(const StageSchedule& s) {
  PartitionImbalance result;
  result.mean = stage_imbalance(s);
  for (const StageDirection* d : {&s.fwd, &s.bwd})
    for (index_t st = 0; st < d->num_stages; ++st) {
      long long total = 0, peak = 0;
      for (index_t t = 0; t < s.num_threads; ++t) {
        const long long load = d->load[d->slot(t, st)];
        total += load;
        peak = std::max(peak, load);
      }
      if (total == 0) continue;
      result.worst = std::max(
          result.worst, static_cast<double>(peak) * s.num_threads /
                            static_cast<double>(total));
    }
  return result;
}

}  // namespace fbmpk::perf
