// Parallel FBMPK over a StageSchedule (paper Algorithm 2, §III-D/E;
// reorder/stage_schedule.hpp, docs/PARALLELISM.md).
//
// Both schedulers build the same stage schedule, and two rungs run it:
//
//  - fbmpk_engine_try_sweep_rows: persistent threads, one per schedule
//    thread, synchronized point-to-point by per-thread epoch counters;
//  - fbmpk_barrier_sweep_rows: the same slots with one team barrier
//    after each stage. A team smaller than the schedule's thread count
//    folds: team thread tid runs schedule threads tid, tid+team, ...
//    (slots of one stage share no edges, so any order is correct).
//
// Both issue exactly the per-row operations of the serial FBMPK sweep
// on the same matrix — only row completion order changes — so results
// are bitwise identical to the serial kernel for every schedule, thread
// count and rung.
#pragma once

#include <atomic>
#include <cstdlib>
#include <memory>
#include <type_traits>
#include <vector>

#include "kernels/fb_detail.hpp"
#include "kernels/fbmpk.hpp"
#include "reorder/stage_schedule.hpp"
#include "sparse/split.hpp"
#include "support/aligned_buffer.hpp"
#include "support/error.hpp"
#include "support/threading.hpp"
#include "telemetry/telemetry.hpp"

namespace fbmpk {

/// Exact row policy: every L/U row dot goes straight to the shared
/// fb_detail helpers, so any sweep parameterized on it performs exactly
/// the operations of the serial reference kernel (bitwise identical).
/// kernels/fb_simd.hpp provides DispatchRows, the fast-mode twin with
/// the same member signatures (runtime-dispatched SIMD + packed
/// indices); both parallel rungs below are templated on the policy.
template <class T>
struct ScalarRows {
  const index_t* lrp;
  const index_t* lci;
  const T* lva;
  const index_t* urp;
  const index_t* uci;
  const T* uva;
  const T* dgv;

  explicit ScalarRows(const TriangularSplit<T>& s)
      : lrp(s.lower.row_ptr().data()),
        lci(s.lower.col_idx().data()),
        lva(s.lower.values().data()),
        urp(s.upper.row_ptr().data()),
        uci(s.upper.col_idx().data()),
        uva(s.upper.values().data()),
        dgv(s.diag.data()) {}

  void l_dot2(index_t i, const T* xy, T& s0, T& s1) const {
    NullTracer tr;
    detail::row_dot2_btb(lci, lva, lrp[i], lrp[i + 1], xy, s0, s1, tr);
  }
  void u_dot2(index_t i, const T* xy, T& s0, T& s1) const {
    NullTracer tr;
    detail::row_dot2_btb(uci, uva, urp[i], urp[i + 1], xy, s0, s1, tr);
  }
  void l_dot1(index_t i, const T* xy, int offset, T& s) const {
    NullTracer tr;
    detail::row_dot1_btb(lci, lva, lrp[i], lrp[i + 1], xy, offset, s, tr);
  }
  void u_dot1(index_t i, const T* xy, int offset, T& s) const {
    NullTracer tr;
    detail::row_dot1_btb(uci, uva, urp[i], urp[i + 1], xy, offset, s, tr);
  }
  /// Diagonal entry i (exact storage — the fp64 reference stream).
  T diag(index_t i) const { return dgv[i]; }
  /// Stream row i's index/value data (engine NUMA warm pass).
  void warm(index_t i, T& acc) const {
    for (index_t q = lrp[i]; q < lrp[i + 1]; ++q)
      acc += lva[q] + static_cast<T>(lci[q]);
    for (index_t q = urp[i]; q < urp[i + 1]; ++q)
      acc += uva[q] + static_cast<T>(uci[q]);
  }
};

/// Workspace of the parallel rungs. The buffers are allocated
/// *uninitialized* on purpose: the head stage writes every element of
/// xy and tmp through the owning (thread, stage) slot, so on a
/// first-touch NUMA policy each page lands on the node of the thread
/// that will keep streaming it. A value-initializing vector would have
/// the allocating thread touch (and place) everything.
template <class T>
struct SweepWorkspace {
  SweepWorkspace() = default;

  void resize(index_t n) {
    if (n == n_) return;
    xy_.reset(raw_alloc(2 * static_cast<std::size_t>(n)));
    tmp_.reset(raw_alloc(static_cast<std::size_t>(n)));
    n_ = n;
    warmed = false;
  }

  T* xy() { return xy_.get(); }
  T* tmp() { return tmp_.get(); }
  index_t size() const { return n_; }

  /// Set once the split arrays have been streamed by their owning
  /// threads (cold-start cache/NUMA warm pass, done on first use).
  bool warmed = false;

 private:
  struct FreeDeleter {
    void operator()(T* p) const { std::free(p); }
  };
  static T* raw_alloc(std::size_t count) {
    if (count == 0) return nullptr;
    const std::size_t bytes =
        (count * sizeof(T) + kCacheLineBytes - 1) / kCacheLineBytes *
        kCacheLineBytes;
    void* p = std::aligned_alloc(kCacheLineBytes, bytes);
    FBMPK_CHECK_MSG(p != nullptr, "sweep workspace allocation failed");
    return static_cast<T*>(p);
  }
  std::unique_ptr<T[], FreeDeleter> xy_;
  std::unique_ptr<T[], FreeDeleter> tmp_;
  index_t n_ = 0;
};

namespace detail {

/// One cache line per thread's epoch counter — threads spin on foreign
/// counters, so sharing a line would turn every bump into a broadcast.
struct alignas(kCacheLineBytes) SweepEpoch {
  std::atomic<long long> value{0};
};

/// Wait until the epoch counter reaches `target`: a bounded spin phase
/// (tuned down to zero on oversubscribed teams, where spinning only
/// steals the awaited thread's timeslice), then a futex-style block on
/// the counter — the same sleeping a team barrier would do, but woken
/// by the one thread this stage actually depends on. Returns whether
/// the wait fell through to a futex block (telemetry classifies
/// spin-satisfied vs blocked waits; callers otherwise ignore it).
inline bool sweep_wait(std::atomic<long long>& e, long long target,
                       int spin_rounds) {
  SpinWaiter w;
  for (int i = 0; i < spin_rounds; ++i) {
    if (e.load(std::memory_order_acquire) >= target) return false;
    w.wait();
  }
  long long cur = e.load(std::memory_order_acquire);
  bool blocked = false;
  while (cur < target) {
    blocked = true;
    e.wait(cur, std::memory_order_acquire);
    cur = e.load(std::memory_order_acquire);
  }
  return blocked;
}

/// The row work of every stage, shared by both rungs. Head and tail
/// stages walk the thread's forward slots; forward slots walk their
/// ranges in order, each ascending; backward slots walk them in
/// reverse, each descending.
template <class T, class TI, class Rows, class X0, class Emit>
struct StageRows {
  const StageSchedule& sched;
  const Rows& rows;
  const X0& x0;
  TI* xy;
  TI* tmp;
  Emit& emit;

  template <class Fn>
  void own_rows(index_t t, Fn&& fn) const {
    const StageDirection& d = sched.fwd;
    for (index_t r = d.range_ptr[d.slot(t, 0)];
         r < d.range_ptr[d.slot(t, d.num_stages)]; ++r)
      for (index_t i = d.ranges[r].begin; i < d.ranges[r].end; ++i) fn(i);
  }

  /// head0: even slots <- x0. This is the first-touch pass for xy; with
  /// `warm` (the engine on a cold workspace) it also streams each row's
  /// split data (row i's CSR data is only ever read by its owner, so
  /// this races with nothing).
  void head0(index_t t, bool warm) const {
    T sink{};
    own_rows(t, [&](index_t i) {
      xy[2 * i] = x0[i];
      if (warm) {
        T acc{};
        rows.warm(i, acc);
        sink += acc + rows.diag(i);
      }
    });
    if (warm) {
      volatile T keep = sink;  // keep the warm reads observable
      (void)keep;
    }
  }

  /// head1: tmp <- U·x0.
  void head1(index_t t) const {
    own_rows(t, [&](index_t i) {
      TI sum{};
      rows.u_dot1(i, xy, 0, sum);
      tmp[i] = sum;
    });
  }

  /// Forward stage s: completes the odd iterate p of its rows.
  void forward(index_t t, index_t s, int p) const {
    const StageDirection& d = sched.fwd;
    const std::size_t q = d.slot(t, s);
    for (index_t r = d.range_ptr[q]; r < d.range_ptr[q + 1]; ++r)
      for (index_t i = d.ranges[r].begin; i < d.ranges[r].end; ++i) {
        const auto di = rows.diag(i);
        TI sum0 = madd(di, xy[2 * i], tmp[i]);
        TI sum1{};
        rows.l_dot2(i, xy, sum0, sum1);
        xy[2 * i + 1] = sum0;
        emit(p, i, sum0);
        tmp[i] = madd(di, sum0, sum1);
      }
  }

  /// Backward stage s: completes the even iterate p; primes tmp for the
  /// next pair unless this is the final pair of an even k.
  void backward(index_t t, index_t s, int p, bool prime_next) const {
    const StageDirection& d = sched.bwd;
    const std::size_t q = d.slot(t, s);
    for (index_t r = d.range_ptr[q + 1]; r-- > d.range_ptr[q];)
      for (index_t i = d.ranges[r].end; i-- > d.ranges[r].begin;) {
        TI sum0 = tmp[i];
        if (prime_next) {
          TI sum1{};
          rows.u_dot2(i, xy, sum1, sum0);
          xy[2 * i] = sum0;
          emit(p, i, sum0);
          tmp[i] = sum1;
        } else {
          rows.u_dot1(i, xy, 1, sum0);
          xy[2 * i] = sum0;
          emit(p, i, sum0);
        }
      }
  }

  /// tail (odd k): x_k = L·x_{k-1} + D·x_{k-1} + tmp.
  void tail(index_t t, int k) const {
    own_rows(t, [&](index_t i) {
      TI sum = madd(rows.diag(i), xy[2 * i], tmp[i]);
      rows.l_dot1(i, xy, 0, sum);
      emit(k, i, sum);
    });
  }
};

/// Shared preconditions of both rungs; returns n.
template <class T, class X0>
index_t check_stage_sweep(const TriangularSplit<T>& s,
                          const StageSchedule& sched, const X0& x0, int k) {
  const index_t n = s.lower.rows();
  FBMPK_CHECK(s.upper.rows() == n &&
              s.diag.size() == static_cast<std::size_t>(n));
  FBMPK_CHECK(x0.size() == static_cast<std::size_t>(n));
  FBMPK_CHECK(k >= 1);
  FBMPK_CHECK_MSG(!sched.empty() && sched.num_rows == n,
                  "stage schedule does not cover the matrix");
  return n;
}

}  // namespace detail

/// Barrier rung: every stage of the schedule, one team barrier after
/// each. emit(p, i, v) fires once per power p in [1, k] and row i; it
/// may be called concurrently for distinct rows and must be safe under
/// that.
///
/// `ctl` (optional) is a cooperative cancellation token, polled at
/// every stage boundary. Once it reports cancelled the remaining row
/// work is skipped but every thread still meets every barrier, so the
/// sweep terminates promptly with the outputs unspecified — the caller
/// must discard them. Never throws across the parallel region.
///
/// Generic over the iterate element TI (double, or Pack<double, B> for
/// batched multi-vector sweeps) and the x0 source X0 (a span, or a
/// gather adapter reading straight from request buffers); T stays the
/// split's element type.
template <class T, class TI, class Rows, class X0, class Emit>
void fbmpk_barrier_sweep_rows(const TriangularSplit<T>& s,
                              const StageSchedule& sched, const Rows& rows,
                              const X0& x0, int k, SweepWorkspace<TI>& ws,
                              Emit&& emit, RunControl* ctl = nullptr) {
  const index_t n = detail::check_stage_sweep(s, sched, x0, k);
  ws.resize(n);
  const detail::StageRows<T, TI, Rows, X0, std::remove_reference_t<Emit>>
      body{sched, rows, x0, ws.xy(), ws.tmp(), emit};
  const index_t T_n = sched.num_threads;
  const int pairs = k / 2;

  parallel_region([&](int tid, int team) {
    // Telemetry (compiled out when FBMPK_TELEMETRY is off): one span
    // per stage, recorded by thread 0 — the barrier after each stage
    // makes its timestamps bracket the whole team's stage.
    FBMPK_TELEMETRY_ONLY(telemetry::SweepRecorder fbmpk_rec{false};
                         const bool fbmpk_rec0 = tid == 0;)
    // Schedule threads this team thread runs.
    const auto each = [&](auto&& fn) {
      for (index_t t = tid; t < T_n; t += team) fn(t);
    };
    // Per-stage cancellation poll. Thread 0 additionally drives the
    // heartbeat / injected-stall checkpoint; diverging answers across
    // the team are harmless — every barrier is still met.
    bool dead = false;
    const auto stage_dead = [&]() -> bool {
      if (ctl != nullptr)
        dead = dead || (tid == 0 ? ctl->checkpoint() : ctl->cancelled());
      return dead;
    };

    FBMPK_TELEMETRY_ONLY(if (fbmpk_rec0) fbmpk_rec.stage_begin();)
    if (!stage_dead()) each([&](index_t t) { body.head0(t, /*warm=*/false); });
    team_barrier();
    if (!dead) each([&](index_t t) { body.head1(t); });
    team_barrier();
    FBMPK_TELEMETRY_ONLY(if (fbmpk_rec0) fbmpk_rec.stage_end("head", 0, -1);)

    for (int it = 0; it < pairs; ++it) {
      const int p_odd = 2 * it + 1;
      const int p_even = 2 * it + 2;
      const bool prime_next = !(it == pairs - 1 && k % 2 == 0);
      for (index_t st = 0; st < sched.fwd.num_stages; ++st) {
        FBMPK_TELEMETRY_ONLY(if (fbmpk_rec0) fbmpk_rec.stage_begin();)
        if (!stage_dead())
          each([&](index_t t) { body.forward(t, st, p_odd); });
        team_barrier();
        FBMPK_TELEMETRY_ONLY(if (fbmpk_rec0) fbmpk_rec.stage_end(
                                 "fwd", p_odd, static_cast<int>(st));)
      }
      for (index_t st = 0; st < sched.bwd.num_stages; ++st) {
        FBMPK_TELEMETRY_ONLY(if (fbmpk_rec0) fbmpk_rec.stage_begin();)
        if (!stage_dead())
          each([&](index_t t) { body.backward(t, st, p_even, prime_next); });
        team_barrier();
        FBMPK_TELEMETRY_ONLY(if (fbmpk_rec0) fbmpk_rec.stage_end(
                                 "bwd", p_even, static_cast<int>(st));)
      }
    }

    if (k % 2 == 1) {
      FBMPK_TELEMETRY_ONLY(if (fbmpk_rec0) fbmpk_rec.stage_begin();)
      if (!stage_dead()) each([&](index_t t) { body.tail(t, k); });
      team_barrier();
      FBMPK_TELEMETRY_ONLY(if (fbmpk_rec0) fbmpk_rec.stage_end("tail", k, -1);)
    }
  });
}

/// Engine rung: persistent threads with point-to-point waits. Returns
/// false without touching any output when it cannot run safely — the
/// caller then runs the barrier rung (same bitwise result). Reasons:
/// the schedule wants more threads than the runtime offers, or the
/// OpenMP runtime delivers a smaller team (nested parallelism, thread
/// limits). Same emit and ctl contracts as the barrier rung.
///
/// Epoch protocol: each thread owns one monotone counter, bumped with
/// release order after every stage. With P = SF + SB stages per pair,
/// each thread walks
///   head0, head1, {F_0..F_{SF-1}, B_0..B_{SB-1}} x pairs, [tail]
/// so its counter reads 1 after head0, 2 after head1, and
/// 2 + it*P + s + 1 after pair-stage s of pair `it`. A slot dep
/// (u, s) waits for u's counter to reach 2 + it*P + s + 1; pair deps
/// wait for 2 + it*P before F_0; head1 waits its head/tail deps for 1
/// and the tail for 2 + pairs*P. Every dep targets a strictly earlier
/// stage and every thread bumps through every stage (even with an
/// empty slot, even after cancellation), so the wait graph is acyclic:
/// no deadlock.
template <class T, class TI, class Rows, class X0, class Emit>
bool fbmpk_engine_try_sweep_rows(const TriangularSplit<T>& s,
                                 const StageSchedule& sched, const Rows& rows,
                                 const X0& x0, int k, SweepWorkspace<TI>& ws,
                                 bool pin_threads, Emit&& emit,
                                 RunControl* ctl = nullptr) {
  const index_t n = detail::check_stage_sweep(s, sched, x0, k);
  const index_t T_n = sched.num_threads;
  if (T_n > max_threads()) return false;
  ws.resize(n);
  const detail::StageRows<T, TI, Rows, X0, std::remove_reference_t<Emit>>
      body{sched, rows, x0, ws.xy(), ws.tmp(), emit};
  const int pairs = k / 2;
  const long long pair_stages = sched.pair_stages();
  const bool warm = !ws.warmed;

  const auto epochs = std::make_unique<detail::SweepEpoch[]>(
      static_cast<std::size_t>(T_n));
  std::atomic<bool> team_ok{true};

  parallel_region_n(static_cast<int>(T_n), [&](int tid, int team) {
    if (team != static_cast<int>(T_n)) {
      // Whole team sees the same size; everyone bails consistently
      // before touching shared state.
      if (tid == 0) team_ok.store(false, std::memory_order_relaxed);
      return;
    }
    if (pin_threads) pin_team_compact();

    // Telemetry (compiled out when FBMPK_TELEMETRY is off): every
    // thread records its own (k-step, stage) spans and spin-vs-futex
    // wait accounting into its thread-local buffer.
    FBMPK_TELEMETRY_ONLY(telemetry::SweepRecorder fbmpk_rec{true};)

    // Oversubscribed teams skip the spin phase entirely: the awaited
    // thread is not running concurrently, so spinning only delays its
    // next timeslice. Dedicated cores spin briefly before sleeping.
    const int pause_spins = team > hardware_cpus() ? 0 : 1024;
    const index_t t = static_cast<index_t>(tid);
    std::atomic<long long>& my = epochs[t].value;
    const auto bump = [&my] {
      my.fetch_add(1, std::memory_order_release);
      my.notify_all();
    };
    // Per-stage cancellation poll (thread 0 also drives the heartbeat /
    // injected-stall checkpoint). A cancelled thread skips row work but
    // keeps bumping its epoch, so every foreign wait still terminates.
    bool dead = false;
    const auto stage_dead = [&]() -> bool {
      if (ctl != nullptr)
        dead = dead || (tid == 0 ? ctl->checkpoint() : ctl->cancelled());
      return dead;
    };
    // Wait until thread waits(e) has reached epoch target(e) for every
    // e in [lo, hi).
    const auto wait_for = [&](index_t lo, index_t hi, auto&& thread_of,
                              auto&& target_of) {
      FBMPK_TELEMETRY_ONLY(
          if (lo < hi && fbmpk_rec.active()) fbmpk_rec.wait_begin();
          bool fbmpk_blocked = false;)
      for (index_t e = lo; e < hi; ++e) {
        const bool blocked = detail::sweep_wait(
            epochs[thread_of(e)].value, target_of(e), pause_spins);
        (void)blocked;
        FBMPK_TELEMETRY_ONLY(fbmpk_blocked = fbmpk_blocked || blocked;)
      }
      FBMPK_TELEMETRY_ONLY(if (lo < hi && fbmpk_rec.active())
                               fbmpk_rec.wait_end(fbmpk_blocked);)
    };
    const auto wait_threads = [&](const std::vector<index_t>& ptr,
                                  const std::vector<index_t>& list,
                                  long long target) {
      wait_for(
          ptr[t], ptr[t + 1], [&](index_t e) { return list[e]; },
          [&](index_t) { return target; });
    };
    const auto wait_slot = [&](const StageDirection& d, std::size_t q,
                               long long base) {
      wait_for(
          d.dep_ptr[q], d.dep_ptr[q + 1],
          [&](index_t e) { return d.deps[e].thread; },
          [&](index_t e) { return base + d.deps[e].stage + 1; });
    };

    FBMPK_TELEMETRY_ONLY(fbmpk_rec.stage_begin();)
    if (!stage_dead()) body.head0(t, warm);
    bump();  // epoch 1
    FBMPK_TELEMETRY_ONLY(fbmpk_rec.stage_end("head0", 0, -1);)

    wait_threads(sched.edge_dep_ptr, sched.edge_deps, 1);
    FBMPK_TELEMETRY_ONLY(fbmpk_rec.stage_begin();)
    if (!stage_dead()) body.head1(t);
    bump();  // epoch 2
    FBMPK_TELEMETRY_ONLY(fbmpk_rec.stage_end("head1", 0, -1);)

    for (int it = 0; it < pairs; ++it) {
      const int p_odd = 2 * it + 1;
      const int p_even = 2 * it + 2;
      const long long base = 2 + it * pair_stages;
      const bool prime_next = !(it == pairs - 1 && k % 2 == 0);

      wait_threads(sched.pair_dep_ptr, sched.pair_deps, base);
      for (index_t st = 0; st < sched.fwd.num_stages; ++st) {
        wait_slot(sched.fwd, sched.fwd.slot(t, st), base);
        FBMPK_TELEMETRY_ONLY(fbmpk_rec.stage_begin();)
        if (!stage_dead()) body.forward(t, st, p_odd);
        bump();  // epoch base + st + 1
        FBMPK_TELEMETRY_ONLY(
            fbmpk_rec.stage_end("F", p_odd, static_cast<int>(st));)
      }
      for (index_t st = 0; st < sched.bwd.num_stages; ++st) {
        wait_slot(sched.bwd, sched.bwd.slot(t, st), base);
        FBMPK_TELEMETRY_ONLY(fbmpk_rec.stage_begin();)
        if (!stage_dead()) body.backward(t, st, p_even, prime_next);
        bump();  // epoch base + SF + st + 1
        FBMPK_TELEMETRY_ONLY(
            fbmpk_rec.stage_end("B", p_even, static_cast<int>(st));)
      }
    }

    if (k % 2 == 1) {
      wait_threads(sched.edge_dep_ptr, sched.edge_deps,
                   2 + pairs * pair_stages);
      FBMPK_TELEMETRY_ONLY(fbmpk_rec.stage_begin();)
      if (!stage_dead()) body.tail(t, k);
      bump();
      FBMPK_TELEMETRY_ONLY(fbmpk_rec.stage_end("tail", k, -1);)
    }
  });

  if (!team_ok.load(std::memory_order_relaxed)) return false;
  // A cancelled run may have skipped part of the warm pass; only a
  // completed head stage marks the workspace warm.
  if (ctl == nullptr || !ctl->cancelled()) ws.warmed = true;
  return true;
}

}  // namespace fbmpk
