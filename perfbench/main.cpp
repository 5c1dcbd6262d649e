// perfbench — the repository's end-to-end benchmark.
//
//   perfbench --workload <power-dram|power-llc|serve-open> --seed <n>
//             --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Prints a provenance header, the per-cell and per-layer tables, and
// as its last line one JSON object {correct, attempted, failed,
// metrics}: the end-to-end metrics with --trace 0, the per-layer ones
// with --trace 1. Exits 1 when any output fails its correctness check
// and 2 on a usage or run error (then no result line is printed).
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "stats.hpp"
#include "support/threading.hpp"
#include "telemetry/trace_export.hpp"

#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace perfbench {
namespace {

const std::set<std::string>& end_to_end_names() {
  static const std::set<std::string> names = {
      "setup_s",    "power_gflops", "speedup_vs_mpk", "tuned_speedup_vs_mpk",
      "req_ms_p50", "max_rate_rps", "peak_rss_mb"};
  return names;
}

/// Layers whose self time a traced run reports.
const char* const kLayers[] = {"sparse", "reorder", "kernels", "core",
                               "service"};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    if (key == "--workload")
      a.workload = val;
    else if (key == "--seed")
      a.seed = std::stoull(val);
    else if (key == "--seconds")
      a.seconds = std::stod(val);
    else if (key == "--trace")
      a.trace = val == "1";
    else if (key == "--out-dir")
      a.out_dir = val;
    else
      return false;
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0.0;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  return "unknown";
}

std::string provenance(const Args& a) {
  char host[256] = {};
  gethostname(host, sizeof(host) - 1);
  std::ostringstream os;
  os << "{\"host\": \"" << json_escape(host) << "\", \"cpu\": \""
     << json_escape(cpu_model()) << "\", \"llc_bytes\": " << llc_bytes()
     << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"compiler\": \"" << json_escape(__VERSION__)
     << "\", \"cxx_flags\": \"" << json_escape(PERFBENCH_CXX_FLAGS)
     << "\", \"commit\": \""
     << json_escape(std::getenv("PERFBENCH_COMMIT")
                        ? std::getenv("PERFBENCH_COMMIT")
                        : "unknown")
     << "\", \"omp_env\": {";
  bool first = true;
  for (char** e = environ; *e != nullptr; ++e)
    if (std::strncmp(*e, "OMP_", 4) == 0) {
      const std::string kv = *e;
      const auto eq = kv.find('=');
      os << (first ? "" : ", ") << '"' << json_escape(kv.substr(0, eq))
         << "\": \"" << json_escape(kv.substr(eq + 1)) << '"';
      first = false;
    }
  os << "}, \"threads\": " << fbmpk::max_threads() << ", \"workload\": \""
     << json_escape(a.workload) << "\", \"seed\": " << a.seed
     << ", \"seconds\": " << a.seconds << ", \"trace\": " << (a.trace ? 1 : 0)
     << ", \"seed_drives\": \"x vectors, hub graph, arrival schedule, "
        "request mix; suite matrices are fixed by gen\""
     << ", \"bytes\": \"computed (perf traffic model)\""
     << ", \"measured_bytes\": null"
     << ", \"cell_cv_bound\": " << Settings::kCellCvBound
     << ", \"setups\": " << Settings::kSetups
     << ", \"serve_p99_limit_ms\": " << Settings::kServeP99LimitMs
     << ", \"serve_fail_limit\": " << Settings::kServeFailLimit
     << ", \"serve_max_batch\": " << Settings::kServeMaxBatch
     << ", \"serve_batch_window_us\": " << Settings::kServeBatchWindowUs
     << "}";
  return os.str();
}

std::string number(double v) {
  if (!std::isfinite(v)) v = v > 0 ? 1e300 : -1e300;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Per-layer self time of the benchmark's spans, then the trace file.
void trace_metrics(const Args& a, Sheet& sheet) {
  auto& reg = fbmpk::telemetry::Registry::instance();
  reg.set_enabled(false);
  const auto snap = reg.snapshot();
  std::vector<Span> spans;
  for (const auto& t : snap.threads)
    for (const auto& e : t.events)
      if (e.cat == fbmpk::telemetry::Cat::kBench)
        spans.push_back({t.tid, e.start_ns, e.dur_ns, layer_of(e.name)});
  const auto self = self_time_ns(spans);
  for (const char* layer : kLayers) {
    const auto it = self.find(layer);
    sheet.set(std::string("self_ms.") + layer,
              it == self.end() ? 0.0 : static_cast<double>(it->second) * 1e-6,
              "ms");
  }
  const std::string path = a.out_dir + "/trace-" + a.workload + "-seed" +
                           std::to_string(a.seed) + ".json";
  const auto st = fbmpk::telemetry::export_trace_file(path, snap);
  std::printf("trace: %zu events -> %s%s\n", snap.total_events(), path.c_str(),
              st.ok() ? "" : " (export failed)");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  try {
    if (!parse(argc, argv, args)) throw std::invalid_argument("bad arguments");
  } catch (const std::exception&) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <power-dram|power-llc|"
                 "serve-open> --seed <n> --seconds <s> --trace <0|1> "
                 "[--out-dir <dir>]\n");
    return 2;
  }
  std::filesystem::create_directories(args.out_dir);
  const std::string prov = provenance(args);
  std::printf("provenance %s\n", prov.c_str());
  std::fflush(stdout);

  Sheet sheet;
  Ledger ledger;
  try {
    if (args.trace) fbmpk::telemetry::Registry::instance().set_enabled(true);
    if (args.workload == "power-dram" || args.workload == "power-llc")
      run_power_workload(args, sheet, ledger);
    else if (args.workload == "serve-open")
      run_serve_workload(args, sheet, ledger);
    else
      throw std::invalid_argument("unknown workload " + args.workload);
    if (args.trace) trace_metrics(args, sheet);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  sheet.set("bench.fail_ratio",
            static_cast<double>(ledger.failed) /
                static_cast<double>(std::max<std::uint64_t>(1, ledger.attempted)),
            "fraction");

  // Every metric, by name and unit, for the record; then the result.
  std::ostringstream all, chosen;
  bool first_all = true, first_chosen = true;
  for (const auto& [name, e] : sheet.entries) {
    const std::string item = "\"" + name + "\": {\"value\": " +
                             number(e.value) + ", \"unit\": \"" + e.unit +
                             "\"}";
    std::printf("metric %-36s %16.6g %s\n", name.c_str(), e.value,
                e.unit.c_str());
    all << (first_all ? "" : ", ") << item;
    first_all = false;
    if (end_to_end_names().count(name) != (args.trace ? 0u : 1u)) continue;
    chosen << (first_chosen ? "" : ", ") << item;
    first_chosen = false;
  }
  const bool correct = ledger.wrong == 0;
  const std::string result =
      std::string("{\"correct\": ") + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(ledger.attempted) +
      ", \"failed\": " + std::to_string(ledger.failed) + ", \"metrics\": {" +
      chosen.str() + "}}";
  const std::string record = args.out_dir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) + "-trace" +
                             (args.trace ? "1" : "0") + ".json";
  std::ofstream(record) << "{\"provenance\": " << prov << ", \"result\": "
                        << result << ", \"all_metrics\": {" << all.str()
                        << "}}\n";
  std::printf("%s\n", result.c_str());
  return correct ? 0 : 1;
}
