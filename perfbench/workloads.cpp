// The three workloads: power-dram, power-llc (plans against mpk_power)
// and serve-open (an open-loop rate ladder against MpkService).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>

#include "gen/random_sparse.hpp"
#include "gen/suite.hpp"
#include "measure.hpp"
#include "stats.hpp"

namespace perfbench {

using fbmpk::MpkPlan;
using fbmpk::service::MpkService;

namespace {

/// Smallest pwtk scale whose CSR footprint covers the reported LLC
/// (capped at 16 to bound set-up time), so the sweeps stream the
/// matrix from DRAM. The footprint grows linearly with the scale.
double dram_scale(std::size_t llc) {
  const auto unit = static_cast<double>(
      fbmpk::gen::make_suite_matrix("pwtk", 1.0).matrix.storage_bytes());
  return std::clamp(std::ceil(static_cast<double>(llc) / unit), 1.0, 16.0);
}

void seed_inputs(Bench& b) {
  b.xs.clear();
  for (std::size_t i = 0; i < b.inputs.size(); ++i)
    b.xs.push_back(random_vector(b.inputs[i].a.rows(),
                                 mix_seed(b.args.seed, 1 + i)));
}

void request_metrics_from_calls(Bench& b) {
  // On the power workloads a request is one direct MpkPlan::power call
  // of the default plan (one caller, closed loop).
  std::vector<double> ms;
  double busy = 0.0;
  for (const Cell& c : b.cells)
    for (double t : c.t_plan) {
      ms.push_back(t * 1e3);
      busy += t;
    }
  const Quantile p50 = quantile(ms, 0.5), tail = tail_quantile(ms);
  b.sheet.set("req_ms_p50", p50.value, "ms");
  b.sheet.set("loadgen.req_ms_tail", tail.value, "ms");
  b.sheet.set("max_rate_rps", static_cast<double>(ms.size()) / busy, "req/s");
  b.sheet.set("loadgen.sent", static_cast<double>(ms.size()), "count");
  b.sheet.set("loadgen.completed", static_cast<double>(ms.size()), "count");
  b.sheet.set("loadgen.late_ms_p99", 0.0, "ms");
  std::printf("requests (direct power calls): n=%zu p50=%.4f ms tail=%.4f "
              "ms (%zu beyond)\n",
              p50.n, p50.value, tail.value, tail.beyond);
}

/// Closed-loop probe of the serving layer on the workload's matrices:
/// one cold request each, then warm submit/wait pairs.
void service_probe(Bench& b) {
  MpkService svc(serve_options());
  const int k = Settings::kProbeK;
  std::vector<double> submit_ms, overhead_ms;
  std::int64_t seq = 0;
  for (std::size_t i = 0; i < b.inputs.size(); ++i) {
    const auto& a = b.inputs[i].a;
    const auto& x = b.xs[i];
    const Cell* probe = nullptr;
    for (const Cell& c : b.cells)
      if (c.input == i && c.k == k) probe = &c;
    std::vector<double> y(x.size());
    for (int rep = 0; rep < 4; ++rep) {
      const std::int64_t req = ++seq;
      const double t0 = now_s();
      MpkService::RequestId id = 0;
      submit_ms.push_back(1e3 * timed([&] {
                            LayerSpan span("service.submit", req);
                            id = svc.submit(a, x, k);
                          }));
      fbmpk::service::RequestResult r;
      {
        LayerSpan span("service.wait", req);
        r = svc.wait(id, y);
      }
      const double lat = now_s() - t0;
      if (!r.status.ok()) {
        b.ledger.fail(b.inputs[i].name + " service request: " +
                      r.status.error().what());
        continue;
      }
      if (!bitwise_equal(y, probe->y_ref)) {
        b.ledger.mismatch(b.inputs[i].name + " service request");
        continue;
      }
      b.ledger.ok();
      if (rep > 0)  // the first request builds the plan
        overhead_ms.push_back(1e3 *
                              (lat - standalone_seconds(b, i, k)));
    }
  }
  service_metrics(b, svc, submit_ms, overhead_ms);
}

}  // namespace

void run_power_workload(const Args& args, Sheet& sheet, Ledger& ledger) {
  Bench b(args, sheet, ledger);
  if (args.trace) host_roof(sheet);
  if (args.workload == "power-dram") {
    const double scale = dram_scale(llc_bytes());
    b.inputs.push_back(
        {"pwtk", fbmpk::gen::make_suite_matrix("pwtk", scale).matrix});
    std::printf("power-dram: pwtk scale %.0f, %lld nnz, CSR %.1f MB, LLC "
                "%.1f MB\n",
                scale, static_cast<long long>(b.inputs[0].a.nnz()),
                b.inputs[0].a.storage_bytes() / 1e6, llc_bytes() / 1e6);
  } else {
    for (const char* name : {"G3_circuit", "cage14", "nlpkkt120", "audikw_1"})
      b.inputs.push_back(
          {name, fbmpk::gen::make_suite_matrix(name, 1.0).matrix});
    // The hub graph of the level-scheduler bench, at 100k rows.
    fbmpk::gen::PowerLawOptions hub;
    hub.avg_row_nnz = 10.0;
    hub.bias = 4.0;
    hub.seed = mix_seed(args.seed, 77);
    b.inputs.push_back({"hub", fbmpk::gen::make_power_law(100000, hub)});
  }
  seed_inputs(b);

  build_default_plans(b, Settings::kSetups);
  sheet.set("setup_s", median(b.setup_rounds), "s");
  build_tuned_plans(b);
  prepare_cells(b, {3, 5, 9});
  measure_cells(b, args.seconds);
  plan_metrics(b);
  request_metrics_from_calls(b);
  if (args.trace) {
    layer_probes(b);
    service_probe(b);
  }
  sheet.set("peak_rss_mb", peak_rss_mb(), "MiB");
}

namespace {

/// The serve-open working set: six suite members at reduced scale,
/// listed from most to least popular (Zipf weights 1/rank).
struct ServeMember {
  const char* name;
  double scale;
};
constexpr ServeMember kServeSet[] = {
    {"G3_circuit", 1.0}, {"cage14", 0.3},   {"nlpkkt120", 0.5},
    {"pwtk", 0.2},       {"audikw_1", 0.2}, {"cant", 0.25},
};
constexpr int kServeKs[] = {3, 5, 8};
constexpr std::size_t kWarmK = 1;  ///< index of the warm-up request's k
constexpr int kPool = 4;  ///< x vectors per matrix
/// The fixed rate ladder (requests/s). The middle rung is nominal and
/// gets most of the ladder's time, so its median pools many requests
/// over several seconds of the host; the others only decide whether
/// they are met. At the nominal rate the submitting thread, which
/// fingerprints every matrix, is busy about a sixth of the time, so
/// most requests find it idle and the median does not ride on how
/// many queue behind a slow fingerprint. The top rung lies above what
/// one submitting thread can fingerprint, so the ladder's verdict does
/// not hinge on noise near the knee.
constexpr double kRates[] = {2.0, 4.0, 8.0, 16.0, 64.0};
constexpr int kNominal = 2;
constexpr double kRungShares[] = {0.5, 0.5, 7.0, 1.5, 0.5};

/// `n` class labels in the exact proportions of `weights`, in a seeded
/// random order: the seed moves which request comes when, not how many
/// of each class a rung holds.
std::vector<std::size_t> stratified(const std::vector<double>& weights,
                                    std::size_t n, std::mt19937_64& rng) {
  const auto count = stratified_counts(weights, n);
  std::vector<std::size_t> out;
  for (std::size_t c = 0; c < count.size(); ++c)
    out.insert(out.end(), count[c], c);
  std::shuffle(out.begin(), out.end(), rng);
  return out;
}

struct Request {
  std::size_t input = 0;
  int k_index = 0;
  int pool = 0;
  RequestTimes t;
  double inflight = 0.0;  ///< requests sent but not yet waited, at send
  double submit_ms = 0.0;
  bool ok = false;
};

struct Segment {
  double rate = 0.0;
  double start_s = 0.0;
  double last_done_s = 0.0;
  std::vector<Request> reqs;
  std::uint64_t failed = 0;

  double completion_rate() const {
    std::size_t ok = 0;
    for (const auto& r : reqs) ok += r.ok ? 1 : 0;
    return static_cast<double>(ok) / (last_done_s - start_s);
  }
  std::vector<double> latencies_ms() const {
    std::vector<double> v;
    for (const auto& r : reqs)
      v.push_back(r.ok ? latency_ms(r.t) : failed_latency());
    return v;
  }
};

struct ServeState {
  Bench& b;
  /// oracle[input][pool][k_index]: the serial twin's output
  std::vector<std::vector<std::vector<std::vector<double>>>> oracle;
  std::vector<std::vector<std::vector<double>>> pool;  ///< [input][j] = x
};

/// One rung: a generator thread submits on a seeded Poisson schedule
/// (exactly rate·duration arrivals, uniform order statistics), one
/// collector thread waits in submission order. The rung's matrices
/// follow the Zipf weights and its k values are even thirds, exactly.
Segment run_segment(ServeState& s, MpkService& svc, double rate,
                    double duration, std::uint64_t seed, std::int64_t& seq) {
  Bench& b = s.b;
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uni(0.0, duration);
  std::vector<double> weights;
  for (std::size_t r = 0; r < b.inputs.size(); ++r)
    weights.push_back(1.0 / static_cast<double>(r + 1));
  std::uniform_int_distribution<int> pick_x(0, kPool - 1);

  Segment seg;
  seg.rate = rate;
  const auto n = static_cast<std::size_t>(std::llround(rate * duration));
  std::vector<double> at(n);
  for (double& t : at) t = uni(rng);
  std::sort(at.begin(), at.end());
  const auto inputs = stratified(weights, n, rng);
  const auto ks = stratified({1.0, 1.0, 1.0}, n, rng);
  seg.reqs.resize(n);
  for (std::size_t r = 0; r < n; ++r) {
    seg.reqs[r].input = inputs[r];
    seg.reqs[r].k_index = static_cast<int>(ks[r]);
    seg.reqs[r].pool = pick_x(rng);
  }

  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::pair<std::size_t, MpkService::RequestId>> handoff;
  bool done_sending = false;
  std::atomic<std::size_t> waited{0};
  std::exception_ptr gen_err, col_err;
  const std::int64_t seq0 = seq;
  seq += static_cast<std::int64_t>(n);

  const std::int64_t t0 = fbmpk::telemetry::now_ns();
  seg.start_s = static_cast<double>(t0) * 1e-9;
  std::thread generator([&] {
    try {
      for (std::size_t r = 0; r < n; ++r) {
        Request& q = seg.reqs[r];
        q.t.scheduled_ns = t0 + static_cast<std::int64_t>(at[r] * 1e9);
        std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(q.t.scheduled_ns)));
        q.t.sent_ns = fbmpk::telemetry::now_ns();
        q.inflight = static_cast<double>(r - waited.load());
        const auto& x = s.pool[q.input][static_cast<std::size_t>(q.pool)];
        MpkService::RequestId id = 0;
        {
          LayerSpan span("service.submit", seq0 + static_cast<std::int64_t>(r));
          id = svc.submit(b.inputs[q.input].a, x, kServeKs[q.k_index]);
        }
        q.submit_ms = static_cast<double>(fbmpk::telemetry::now_ns() - q.t.sent_ns) *
                      1e-6;
        {
          std::lock_guard<std::mutex> lock(mu);
          handoff.push_back({r, id});
        }
        cv.notify_one();
      }
    } catch (...) {
      gen_err = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      done_sending = true;
    }
    cv.notify_one();
  });
  std::thread collector([&] {
    try {
      std::vector<double> y;
      for (;;) {
        std::pair<std::size_t, MpkService::RequestId> item;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return !handoff.empty() || done_sending; });
          if (handoff.empty()) break;
          item = handoff.front();
          handoff.pop_front();
        }
        Request& q = seg.reqs[item.first];
        y.resize(b.inputs[q.input].a.rows());
        fbmpk::service::RequestResult res;
        {
          LayerSpan span("service.wait",
                         seq0 + static_cast<std::int64_t>(item.first));
          res = svc.wait(item.second, y);
        }
        q.t.done_ns = fbmpk::telemetry::now_ns();
        waited.fetch_add(1);
        q.ok = res.status.ok() &&
               bitwise_equal(y, s.oracle[q.input][static_cast<std::size_t>(
                                    q.pool)][static_cast<std::size_t>(q.k_index)]);
        if (q.ok) {
          b.ledger.ok();
        } else if (res.status.ok()) {
          b.ledger.mismatch(b.inputs[q.input].name + " served output");
          ++seg.failed;
        } else {
          b.ledger.fail(b.inputs[q.input].name + " request: " +
                        res.status.error().what());
          ++seg.failed;
        }
      }
    } catch (...) {
      col_err = std::current_exception();
    }
  });
  generator.join();
  collector.join();
  if (gen_err) std::rethrow_exception(gen_err);
  if (col_err) std::rethrow_exception(col_err);
  for (const auto& q : seg.reqs)
    seg.last_done_s = std::max(seg.last_done_s, q.t.done_ns * 1e-9);
  return seg;
}

RungOutcome outcome(const Segment& seg) {
  RungOutcome o;
  o.rate = seg.rate;
  o.p99_ms = quantile(seg.latencies_ms(), 0.99).value;
  o.fail_share = static_cast<double>(seg.failed) /
                 static_cast<double>(seg.reqs.size());
  std::vector<double> late, depth;
  for (const auto& q : seg.reqs) {
    late.push_back(lateness_ms(q.t));
    depth.push_back(q.inflight);
  }
  o.backlog_grows = grows(late, 10.0) || grows(depth, 4.0);
  return o;
}

}  // namespace

void run_serve_workload(const Args& args, Sheet& sheet, Ledger& ledger) {
  Bench b(args, sheet, ledger);
  if (args.trace) host_roof(sheet);
  for (const auto& m : kServeSet)
    b.inputs.push_back(
        {m.name, fbmpk::gen::make_suite_matrix(m.name, m.scale).matrix});
  seed_inputs(b);
  ServeState s{b, {}, {}};
  s.pool.resize(b.inputs.size());
  s.oracle.resize(b.inputs.size());
  for (std::size_t i = 0; i < b.inputs.size(); ++i) {
    s.pool[i].push_back(b.xs[i]);
    for (int j = 1; j < kPool; ++j)
      s.pool[i].push_back(random_vector(b.inputs[i].a.rows(),
                                        mix_seed(args.seed, 100 * (i + 1) + j)));
  }

  // Standalone plans: the per-request sweep cost the service adds to.
  build_default_plans(b, 1);
  build_tuned_plans(b);
  prepare_cells(b, {3, 5, 8}, [&](std::size_t i, const MpkPlan& twin) {
    s.oracle[i].resize(kPool);
    for (int j = 0; j < kPool; ++j)
      for (int k : kServeKs) {
        std::vector<double> y(b.xs[i].size());
        MpkPlan::Workspace ws;
        twin.power(s.pool[i][static_cast<std::size_t>(j)], k, y, ws);
        s.oracle[i][static_cast<std::size_t>(j)].push_back(std::move(y));
      }
  });
  measure_cells(b, 0.25 * args.seconds);
  plan_metrics(b);

  // Set-up: a fresh service serves every working-set matrix once, which
  // runs each cold build; the last one stays warm for the ladder.
  std::unique_ptr<MpkService> svc;
  std::vector<double> setups;
  for (int r = 0; r < Settings::kSetups; ++r) {
    svc.reset();
    svc = std::make_unique<MpkService>(serve_options());
    setups.push_back(timed([&] {
      for (std::size_t i = 0; i < b.inputs.size(); ++i) {
        std::vector<double> y(b.xs[i].size());
        const auto res =
            svc->power(b.inputs[i].a, s.pool[i][0], kServeKs[kWarmK], y);
        if (!res.status.ok())
          b.ledger.fail(b.inputs[i].name + " warm-up: " +
                        res.status.error().what());
        else if (!bitwise_equal(y, s.oracle[i][0][kWarmK]))
          b.ledger.mismatch(b.inputs[i].name + " warm-up output");
        else
          b.ledger.ok();
      }
    }));
  }
  sheet.set("setup_s", median(setups), "s");

  double shares = 0.0;
  for (double w : kRungShares) shares += w;
  auto duration = [&](std::size_t r) {
    return std::max(0.25, args.seconds * kRungShares[r] / shares);
  };
  std::vector<Segment> segs;
  std::vector<RungOutcome> outs;
  std::int64_t seq = 0;
  for (std::size_t r = 0; r < std::size(kRates); ++r) {
    segs.push_back(run_segment(s, *svc, kRates[r], duration(r),
                               mix_seed(args.seed, 500 + r), seq));
    outs.push_back(outcome(segs.back()));
    const Segment& g = segs.back();
    std::vector<double> late;
    for (const auto& q : g.reqs) late.push_back(lateness_ms(q.t));
    const Quantile p50 = quantile(g.latencies_ms(), 0.5);
    const Quantile p99 = quantile(g.latencies_ms(), 0.99);
    std::printf("rung %5.1f req/s: sent=%zu failed=%llu p50=%.3f ms p99=%.3f "
                "ms (n=%zu, %zu beyond p99) late_p99=%.3f ms completion=%.2f "
                "req/s backlog_grows=%d\n",
                g.rate, g.reqs.size(),
                static_cast<unsigned long long>(g.failed), p50.value,
                p99.value, p99.n, p99.beyond, quantile(late, 0.99).value,
                g.completion_rate(), outs.back().backlog_grows ? 1 : 0);
  }
  const Segment& nom = segs[kNominal];
  for (std::size_t i = 0; i < b.inputs.size(); ++i) {
    std::vector<double> ms, late, sub, rest;
    for (const auto& q : nom.reqs)
      if (q.input == i) {
        ms.push_back(q.ok ? latency_ms(q.t) : failed_latency());
        late.push_back(lateness_ms(q.t));
        sub.push_back(q.submit_ms);
        rest.push_back(static_cast<double>(q.t.done_ns - q.t.sent_ns) * 1e-6 -
                       q.submit_ms);
      }
    if (ms.empty()) continue;  // short runs: too few requests for every matrix
    std::printf("nominal %-12s n=%zu p50=%.3f ms (late %.3f, submit %.3f, "
                "then %.3f)\n",
                b.inputs[i].name.c_str(), ms.size(), quantile(ms, 0.5).value,
                quantile(late, 0.5).value, quantile(sub, 0.5).value,
                quantile(rest, 0.5).value);
  }
  sheet.set("req_ms_p50", quantile(nom.latencies_ms(), 0.5).value, "ms");
  const Quantile tail = tail_quantile(nom.latencies_ms());
  sheet.set("loadgen.req_ms_tail", tail.value, "ms");
  std::printf("nominal rung: tail = p%.1f of %zu requests (%zu beyond)\n",
              100.0 * (1.0 - 10.0 / static_cast<double>(tail.n)), tail.n,
              tail.beyond);
  const int best =
      select_max_rate(outs, Settings::kServeP99LimitMs, Settings::kServeFailLimit);
  sheet.set("max_rate_rps",
            best < 0 ? 0.0 : segs[static_cast<std::size_t>(best)].completion_rate(),
            "req/s");
  std::size_t sent = 0, completed = 0;
  std::vector<double> submit_ms, overhead_ms, late;
  for (const auto& g : segs)
    for (const auto& q : g.reqs) {
      ++sent;
      completed += q.ok ? 1 : 0;
      submit_ms.push_back(q.submit_ms);
    }
  for (const auto& q : nom.reqs) {
    late.push_back(lateness_ms(q.t));
    if (q.ok)
      overhead_ms.push_back(latency_ms(q.t) -
                            1e3 * standalone_seconds(b, q.input,
                                                     kServeKs[q.k_index]));
  }
  sheet.set("loadgen.sent", static_cast<double>(sent), "count");
  sheet.set("loadgen.completed", static_cast<double>(completed), "count");
  sheet.set("loadgen.late_ms_p99", quantile(late, 0.99).value, "ms");

  if (args.trace) {
    // Tracing cost on the service: the nominal rung again, untraced.
    fbmpk::telemetry::Registry::instance().set_enabled(false);
    const Segment plain = run_segment(s, *svc, kRates[kNominal], duration(kNominal),
                                      mix_seed(args.seed, 500 + kNominal), seq);
    fbmpk::telemetry::Registry::instance().set_enabled(true);
    sheet.set("trace.overhead_pct",
              (quantile(nom.latencies_ms(), 0.5).value /
                   quantile(plain.latencies_ms(), 0.5).value -
               1.0) * 100.0,
              "%");
    service_metrics(b, *svc, submit_ms, overhead_ms);
    layer_probes(b);
  }
  svc.reset();
  sheet.set("peak_rss_mb", peak_rss_mb(), "MiB");
}

}  // namespace perfbench
