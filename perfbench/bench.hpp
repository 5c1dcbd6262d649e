// Shared pieces of the end-to-end benchmark: run context, the metric
// sheet, the correctness ledger and the span helper that attributes
// time to the library's layers.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "core/plan.hpp"
#include "sparse/csr.hpp"
#include "telemetry/telemetry.hpp"

namespace perfbench {

using fbmpk::CsrMatrix;
using fbmpk::index_t;

/// Command-line arguments of one run.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build/results";
};

/// Fixed measurement settings, printed in every provenance header.
struct Settings {
  static constexpr int kSetups = 5;  ///< set-ups per run (median)
  static constexpr double kCellCvBound = 0.10;  ///< re-run a cell past it
  static constexpr int kCellReruns = 2;    ///< re-runs before reporting
  static constexpr int kMinRounds = 10;    ///< untraced rounds per cell
  static constexpr int kTuneK = 5;         ///< k passed to the autotuner
  static constexpr int kProbeK = 5;        ///< k of per-layer probes
  static constexpr double kServeP99LimitMs = 250.0;
  static constexpr double kServeFailLimit = 0.01;
  static constexpr std::size_t kServeMaxBatch = 8;
  static constexpr double kServeBatchWindowUs = 200.0;
};

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// RAII span around one call into a library layer. `name` is the
/// per-layer metric prefix ("kernels.power", "service.submit", ...);
/// the text before the first '.' names the layer. Inert unless the
/// telemetry registry is enabled, which only traced runs do.
class LayerSpan {
 public:
  explicit LayerSpan(const char* name, std::int64_t req = -1)
      : span_(fbmpk::telemetry::Cat::kBench, name,
              fbmpk::telemetry::SpanArgs{.req = req}) {}

 private:
  fbmpk::telemetry::ScopedSpan span_;
};

/// Time one call in seconds.
template <class F>
double timed(F&& f) {
  const double t0 = now_s();
  f();
  return now_s() - t0;
}

/// Everything a run reports, in print order.
struct Sheet {
  struct Entry {
    double value;
    std::string unit;
  };
  std::vector<std::pair<std::string, Entry>> entries;

  void set(const std::string& name, double value, const std::string& unit) {
    for (auto& e : entries)
      if (e.first == name) {
        e.second = {value, unit};
        return;
      }
    entries.push_back({name, {value, unit}});
  }
  const Entry* find(const std::string& name) const {
    for (const auto& e : entries)
      if (e.first == name) return &e.second;
    return nullptr;
  }
};

/// Operations attempted, failed and wrong. `wrong` (an output that
/// fails its check) is the subset that makes the run incorrect;
/// `failed` also counts typed errors, rejections and timeouts.
struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;

  void ok() { ++attempted; }
  void fail(const std::string& what) {
    ++attempted;
    ++failed;
    std::printf("FAILED: %s\n", what.c_str());
  }
  void mismatch(const std::string& what) {
    ++wrong;
    fail("wrong output: " + what);
  }
};

/// Seeded inputs: a vector with entries uniform in [-1, 1].
inline std::vector<double> random_vector(index_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> x(static_cast<std::size_t>(n));
  for (double& v : x) v = dist(rng);
  return x;
}

/// Derive an independent stream seed from the run seed and a tag.
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + tag * 0xbf58476d1ce4e5b9ULL;
  z ^= z >> 31;
  z *= 0x94d049bb133111ebULL;
  return z ^ (z >> 29);
}

/// One generated input matrix of a workload.
struct Input {
  std::string name;
  CsrMatrix<double> a;
};

/// Output checks. An exact plan (fp64 values, bitwise-exact backend)
/// must equal the serial plan of identical options bit for bit; any
/// other plan must lie within the docs/KERNELS.md bound of the
/// standard kernel:
///   ‖y − y_mpk‖∞ ≤ 8·k·(m·eps64 + eps_prec)·‖A‖∞^k·‖x‖∞
bool plan_is_exact(const fbmpk::MpkPlan& plan);
bool bitwise_equal(std::span<const double> a, std::span<const double> b);
double kernel_bound(const CsrMatrix<double>& a, fbmpk::ValuePrecision precision,
                    std::span<const double> x, int k);
bool within(std::span<const double> y, std::span<const double> ref,
            double bound);

/// y = A^k x through the standard kernel at the run's thread count.
std::vector<double> mpk_reference(const CsrMatrix<double>& a,
                                  std::span<const double> x, int k);

/// Host facts for the provenance header and the roof.
std::size_t llc_bytes();
double peak_rss_mb();

/// STREAM triad a[i] = b[i] + s·c[i] at the run's thread count; each
/// array holds `array_bytes`. Returns the median computed GB/s (three
/// arrays' bytes per pass, no write-allocate) over several passes.
double triad_gbs(std::size_t array_bytes);

/// The workloads. Each fills `sheet` with every metric it measured and
/// records each checked operation in `ledger`.
void run_power_workload(const Args& args, Sheet& sheet, Ledger& ledger);
void run_serve_workload(const Args& args, Sheet& sheet, Ledger& ledger);

}  // namespace perfbench
