// Output checks, host facts and the STREAM-triad roof.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>

#include "bench.hpp"
#include "kernels/mpk_baseline.hpp"
#include "stats.hpp"
#include "support/aligned_buffer.hpp"

namespace perfbench {

bool plan_is_exact(const fbmpk::MpkPlan& plan) {
  const auto b = plan.resolved_backend();
  return (b == fbmpk::KernelBackend::kScalar ||
          b == fbmpk::KernelBackend::kGeneric) &&
         plan.options().value_precision == fbmpk::ValuePrecision::kFp64;
}

bool bitwise_equal(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

namespace {

double eps_of(fbmpk::ValuePrecision p) {
  switch (p) {
    case fbmpk::ValuePrecision::kFp32:
      return std::numeric_limits<float>::epsilon() / 2.0;
    case fbmpk::ValuePrecision::kFp64:
    case fbmpk::ValuePrecision::kSplit:
      break;
  }
  return 0.0;
}

}  // namespace

double kernel_bound(const CsrMatrix<double>& a, fbmpk::ValuePrecision precision,
                    std::span<const double> x, int k) {
  const auto rp = a.row_ptr();
  const auto va = a.values();
  double norm_a = 0.0;
  index_t m = 0;
  for (index_t i = 0; i < a.rows(); ++i) {
    double row = 0.0;
    for (index_t p = rp[i]; p < rp[i + 1]; ++p) row += std::fabs(va[p]);
    norm_a = std::max(norm_a, row);
    m = std::max(m, rp[i + 1] - rp[i]);
  }
  double norm_x = 0.0;
  for (double v : x) norm_x = std::max(norm_x, std::fabs(v));
  const double eps64 = std::numeric_limits<double>::epsilon();
  return 8.0 * k * (m * eps64 + eps_of(precision)) * std::pow(norm_a, k) *
         norm_x;
}

bool within(std::span<const double> y, std::span<const double> ref,
            double bound) {
  if (y.size() != ref.size()) return false;
  for (std::size_t i = 0; i < y.size(); ++i)
    if (!(std::fabs(y[i] - ref[i]) <= bound)) return false;
  return true;
}

std::vector<double> mpk_reference(const CsrMatrix<double>& a,
                                  std::span<const double> x, int k) {
  std::vector<double> y(x.size());
  fbmpk::MpkWorkspace<double> ws;
  fbmpk::mpk_power<double>(a, x, k, y, ws, fbmpk::SpmvExec::kParallel);
  return y;
}

std::size_t llc_bytes() {
  const long v = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (v > 0) return static_cast<std::size_t>(v);
  std::ifstream f("/sys/devices/system/cpu/cpu0/cache/index3/size");
  std::size_t kib = 0;
  if (f >> kib) return kib * 1024;
  return 32u << 20;  // unknown: assume a 32 MiB LLC
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double triad_gbs(std::size_t array_bytes) {
  const auto n = static_cast<long long>(array_bytes / sizeof(double));
  fbmpk::AlignedVector<double> a(static_cast<std::size_t>(n));
  fbmpk::AlignedVector<double> b(static_cast<std::size_t>(n));
  fbmpk::AlignedVector<double> c(static_cast<std::size_t>(n));
  double* pa = a.data();
  double* pb = b.data();
  double* pc = c.data();
  // First touch at the run's thread count, as the kernels' data is.
#pragma omp parallel for schedule(static)
  for (long long i = 0; i < n; ++i) {
    pa[i] = 0.0;
    pb[i] = 1.0;
    pc[i] = 2.0;
  }
  const double s = 3.0;
  std::vector<double> secs;
  for (int pass = 0; pass < 10; ++pass) {
    const double t = timed([&] {
#pragma omp parallel for schedule(static)
      for (long long i = 0; i < n; ++i) pa[i] = pb[i] + s * pc[i];
    });
    if (pass >= 2) secs.push_back(t);  // two passes warm TLB and pages
  }
  if (pa[n / 2] != 7.0) throw std::runtime_error("triad produced a wrong sum");
  return 3.0 * static_cast<double>(n) * sizeof(double) / median(secs) / 1e9;
}

}  // namespace perfbench
