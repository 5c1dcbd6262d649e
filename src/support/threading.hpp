// Thin OpenMP abstraction. Everything compiles (serially) when OpenMP is
// unavailable, so the library has no hard dependency on it.
//
// Beyond the basic queries, this header centralizes the parallel idioms
// the kernels used to hand-roll behind #ifdef _OPENMP ladders:
//
//  - parallel_for(n, f):      row-parallel static loop (own region)
//  - parallel_for_n(T, n, f): the same static loop on a team of T
//                             (inline when T = 1)
//  - team_for_work(work):     team size for an O(work) pass (one
//                             thread below kParallelGrain)
//  - parallel_region(f):      f(thread_id, team_size) on every thread
//  - team_barrier():          orphaned barrier inside a region
//  - static_chunk(n, t, T):   the [begin, end) range `omp for
//                             schedule(static)` would give thread t
//  - spin-wait helpers:       cpu_pause() + SpinWaiter (pause, then
//                             yield — mandatory on oversubscribed hosts)
//  - pinning helpers:         optional compact thread->cpu pinning for
//                             the persistent-threads sweep engine
//                             (docs/PARALLELISM.md)
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <thread>

#include "support/error.hpp"
#include "support/fault_inject.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace fbmpk {

/// Number of threads an upcoming parallel region will use.
inline int max_threads() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

/// Calling thread's id inside a parallel region (0 outside one).
inline int thread_id() {
#ifdef _OPENMP
  return omp_get_thread_num();
#else
  return 0;
#endif
}

/// Team size of the innermost enclosing parallel region (1 outside one).
inline int team_size() {
#ifdef _OPENMP
  return omp_get_num_threads();
#else
  return 1;
#endif
}

/// True while executing inside an active parallel region.
inline bool in_parallel() {
#ifdef _OPENMP
  return omp_in_parallel() != 0;
#else
  return false;
#endif
}

/// Set the global OpenMP thread count (no-op without OpenMP).
inline void set_threads(int n) {
#ifdef _OPENMP
  if (n > 0) omp_set_num_threads(n);
#else
  (void)n;
#endif
}

/// True when compiled with OpenMP support.
inline constexpr bool has_openmp() {
#ifdef _OPENMP
  return true;
#else
  return false;
#endif
}

/// Synchronize the current team. Orphaned barrier: legal in any function
/// called (by all threads) from inside a parallel region; no-op outside.
inline void team_barrier() {
#ifdef _OPENMP
#pragma omp barrier
#endif
}

/// Contiguous range [begin, end) — the unit parallel loops hand out.
struct ThreadRange {
  long long begin = 0;
  long long end = 0;
  bool empty() const { return begin >= end; }
};

/// The chunk `#pragma omp for schedule(static)` would assign thread t of
/// T over n iterations: one contiguous block per thread, remainder
/// spread over the leading threads.
inline ThreadRange static_chunk(long long n, int t, int T) {
  if (T <= 0 || t < 0 || t >= T || n <= 0) return {};
  const long long base = n / T;
  const long long rem = n % T;
  const long long begin = t * base + (t < rem ? t : rem);
  return {begin, begin + base + (t < rem ? 1 : 0)};
}

#if defined(__SANITIZE_THREAD__)
#define FBMPK_TSAN_REGION_FENCE 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define FBMPK_TSAN_REGION_FENCE 1
#endif
#endif

namespace detail {

/// Makes the fork and the join of a parallel region visible to
/// ThreadSanitizer. The OpenMP runtime (libgomp) is not
/// TSan-instrumented and wakes pooled threads through its own futexes,
/// so TSan sees neither edge: a team thread reading what the caller
/// wrote before the region, or the caller freeing what a team thread
/// wrote inside it, is reported as a race. The runtime suppression
/// hides such a report only when TSan can still restore the team
/// thread's stack, which fails once a long test outgrows its history,
/// and matching it costs a symbolized stack per report. Under TSan the
/// caller opens the region with a release store, every team thread
/// enters with an acquire load and leaves with a release RMW, and the
/// caller reads the count back with acquire: the order the fork and
/// the join already give. Races between threads inside a region are
/// still reported. In every other build the calls are empty.
struct RegionFence {
#ifdef FBMPK_TSAN_REGION_FENCE
  std::atomic<int> arrived;
  RegionFence() { arrived.store(0, std::memory_order_release); }
  void enter() const { (void)arrived.load(std::memory_order_acquire); }
  void arrive() { arrived.fetch_add(1, std::memory_order_release); }
  void join() const { (void)arrived.load(std::memory_order_acquire); }
#else
  void enter() const {}
  void arrive() {}
  void join() const {}
#endif
};

}  // namespace detail

/// Run f(thread_id, team_size) on every thread of a fresh team. When
/// called inside an existing region (or without OpenMP) it degrades to a
/// single serial invocation f(0, 1) rather than nesting.
template <class F>
inline void parallel_region(F&& f) {
#ifdef _OPENMP
  if (!in_parallel()) {
    detail::RegionFence fence;
#pragma omp parallel default(shared)
    {
      fence.enter();
      f(omp_get_thread_num(), omp_get_num_threads());
      fence.arrive();
    }
    fence.join();
    return;
  }
#endif
  f(0, 1);
}

/// As parallel_region but requests exactly `threads` team members; the
/// runtime may deliver fewer, so f must read its team_size argument.
/// One thread runs f(0, 1) inline, without forking.
template <class F>
inline void parallel_region_n(int threads, F&& f) {
#ifdef _OPENMP
  if (!in_parallel() && threads > 1) {
    detail::RegionFence fence;
#pragma omp parallel default(shared) num_threads(threads)
    {
      fence.enter();
      f(omp_get_thread_num(), omp_get_num_threads());
      fence.arrive();
    }
    fence.join();
    return;
  }
#endif
  (void)threads;
  f(0, 1);
}

/// Row-parallel loop: f(i) for i in [0, n), schedule(static). Runs
/// serially when OpenMP is absent or when already inside a region.
template <class Index, class F>
inline void parallel_for(Index n, F&& f) {
#ifdef _OPENMP
  if (!in_parallel()) {
    detail::RegionFence fence;
#pragma omp parallel default(shared)
    {
      fence.enter();
#pragma omp for schedule(static) nowait
      for (Index i = 0; i < n; ++i) f(i);
      fence.arrive();
    }
    fence.join();
    return;
  }
#endif
  for (Index i = 0; i < n; ++i) f(i);
}

/// Passes over fewer elements (stored entries, rows) than this run on
/// one thread: forking a team costs more than it saves on them, and far
/// more when other processes hold the cores.
inline constexpr long long kParallelGrain = 1 << 16;

/// Team size for a pass over `work` elements: 1 below kParallelGrain,
/// the full team at or above it.
inline int team_for_work(long long work) {
  return work < kParallelGrain ? 1 : max_threads();
}

/// parallel_for on a team of `threads` (parallel_region_n): each thread
/// runs its static_chunk of [0, n).
template <class Index, class F>
inline void parallel_for_n(int threads, Index n, F&& f) {
  parallel_region_n(threads, [&](int t, int team) {
    const ThreadRange r = static_chunk(n, t, team);
    for (auto i = static_cast<Index>(r.begin); i < r.end; ++i) f(i);
  });
}

/// One architectural pause in a spin loop (no-op where unavailable).
inline void cpu_pause() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

/// Bounded busy-wait helper: pause for a short burst, then yield to the
/// OS scheduler. The yield is what keeps point-to-point spinning live on
/// oversubscribed hosts (more threads than cores): a pure pause loop
/// would starve the very thread whose progress it awaits.
class SpinWaiter {
 public:
  SpinWaiter() = default;
  /// `pause_spins` = 0 yields from the first wait — the right policy
  /// when the team is oversubscribed and the awaited thread cannot be
  /// running concurrently anyway.
  explicit SpinWaiter(int pause_spins) : pause_spins_(pause_spins) {}

  void wait() {
    if (++spins_ <= pause_spins_) {
      cpu_pause();
    } else {
      std::this_thread::yield();
    }
  }

  void reset() { spins_ = 0; }

 private:
  static constexpr int kPauseSpins = 64;
  int pause_spins_ = kPauseSpins;
  int spins_ = 0;
};

/// Cooperative cancellation + liveness token for long-running sweeps.
///
/// A canceller (deadline watchdog, shutdown, explicit client cancel)
/// calls request_cancel(reason); kernel threads poll cancelled() at
/// stage boundaries (per color, per k-step) and skip the remaining row
/// work while still passing every barrier / bumping every epoch, so
/// the sweep protocol terminates normally with the output left
/// unspecified. Nothing ever throws across a parallel region.
///
/// `progress` is a heartbeat bumped at the same boundaries; a watchdog
/// distinguishes "slow but cooperating" (progress advancing) from
/// "stuck" (progress frozen, e.g. a thread wedged inside a stage).
struct RunControl {
  std::atomic<bool> cancel{false};
  std::atomic<ErrorCode> reason{ErrorCode::kCancelled};
  std::atomic<std::uint64_t> progress{0};

  bool cancelled() const { return cancel.load(std::memory_order_relaxed); }

  /// First reason wins: a kTimeout set by the watchdog is not
  /// overwritten by a later shutdown-driven kCancelled.
  void request_cancel(ErrorCode why) {
    bool expected = false;
    if (cancel.compare_exchange_strong(expected, true,
                                       std::memory_order_acq_rel))
      reason.store(why, std::memory_order_release);
  }

  ErrorCode cancel_reason() const {
    return reason.load(std::memory_order_acquire);
  }

  /// Stage-boundary checkpoint for kernel code: heartbeat, then the
  /// injected-stall fault point (no-op unless armed), then the
  /// cancellation poll. Returns true when the caller should skip the
  /// remaining work of this stage.
  bool checkpoint() {
    progress.fetch_add(1, std::memory_order_relaxed);
    fault::maybe_stall(fault::Point::kSweepStall);
    return cancelled();
  }
};

/// Number of CPUs the OS exposes (>= 1).
inline int hardware_cpus() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

/// Pin the calling thread to one CPU. Returns true on success; no-op
/// (false) on platforms without an affinity API.
inline bool pin_current_thread(int cpu) {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu % hardware_cpus(), &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  (void)cpu;
  return false;
#endif
}

/// Compact pinning for a persistent team: thread t -> cpu t (mod CPU
/// count). Call from inside the parallel region, every thread. Honors
/// the user's OpenMP placement when one is configured: if OMP_PLACES or
/// OMP_PROC_BIND is set, the runtime already owns placement and this
/// function does nothing.
inline bool pin_team_compact() {
  if (std::getenv("OMP_PLACES") != nullptr ||
      std::getenv("OMP_PROC_BIND") != nullptr)
    return false;
  return pin_current_thread(thread_id());
}

}  // namespace fbmpk
