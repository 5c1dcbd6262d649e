// LRU plan cache for the serving layer (docs/SERVICE.md).
//
// Entries are keyed by a 64-bit content fingerprint of the input
// matrix: XXH64 chained over dims, row_ptr, col_idx and values.
// Each entry stores BOTH the hydrated MpkPlan and its serialized
// artifact (core/plan_io.hpp): the artifact is the durable source of
// truth, the hydrated plan a decode cache. When the hydrated pointer
// has been dropped — or a fault-injection hook corrupted the artifact
// — the hit path rehydrates through try_load_plan, which re-verifies
// the checksum and the tuned-config staleness predicate. A corrupt or
// stale artifact is therefore *never served*: the entry is evicted and
// rebuilt from the caller's matrix, and the event is counted
// (service.cache.corrupt_evict / service.cache.stale_rebuild).
//
// Thread-safety: every public method is safe to call concurrently.
// Builds run outside the cache lock, so two threads missing on the
// same fingerprint may both build; the first insert wins and the loser
// adopts it. Entry flag fields (degrade_level, quarantined) are
// atomics the serving ladder mutates without touching the cache lock.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/plan.hpp"
#include "sparse/csr.hpp"

namespace fbmpk::service {

/// XXH64 of `size` bytes under `seed`: four independent 64-bit
/// multiply-rotate lanes over 8-byte words, then a word and byte tail
/// and a final avalanche. Portable scalar code (memcpy loads, no
/// alignment assumption, no ISA dispatch) that runs at memory speed on
/// one core. Words are read in native byte order.
std::uint64_t xxh64(const void* data, std::size_t size, std::uint64_t seed);

/// 64-bit content fingerprint of a CSR matrix: XXH64 seeded with the
/// dims and chained over row_ptr, col_idx and values, so every byte is
/// hashed on every call. Keys live in memory only (no plan file stores
/// one), and nothing is cached per object: a matrix edited in place
/// gets a new key.
std::uint64_t fingerprint(const CsrMatrix<double>& a);

/// Monotonic cache statistics (independent of telemetry enablement).
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;          ///< capacity evictions only
  std::uint64_t corrupt_evictions = 0;  ///< artifact failed rehydration
  std::uint64_t stale_rebuilds = 0;     ///< tuned config failed revalidation
};

class PlanCache {
 public:
  /// One cached plan. `degrade_level` is the sticky degradation-ladder
  /// rung for this plan (0 = full speed); `quarantined` marks a plan
  /// the watchdog caught wedging a sweep — acquire() treats it as
  /// evicted and rebuilds.
  struct Entry {
    std::uint64_t key = 0;
    std::string artifact;  ///< serialized plan (source of truth)
    std::shared_ptr<const MpkPlan> plan;
    std::atomic<int> degrade_level{0};
    std::atomic<bool> quarantined{false};
  };

  /// An entry plus a plan pointer pinned under the cache lock. Callers
  /// must execute through `plan`, never through `entry->plan`: the
  /// entry's own pointer may be dropped at any time by a concurrent
  /// corruption drill or rehydration, and reading it outside the lock
  /// is a use-after-free waiting to happen.
  struct Lease {
    std::shared_ptr<Entry> entry;
    std::shared_ptr<const MpkPlan> plan;
  };

  using Builder = std::function<MpkPlan()>;

  explicit PlanCache(std::size_t capacity);

  /// Look up `key`; on miss (or quarantined / unrehydratable entry)
  /// invoke `build`, serialize the result and insert it, evicting the
  /// least-recently-used entry when over capacity. Always returns a
  /// lease with a non-null hydrated plan; build failures propagate as
  /// the Error `build` (or serialization) throws.
  Lease acquire(std::uint64_t key, const Builder& build);

  /// Test/fault hook: XOR one artifact byte of `key`'s entry (offset
  /// taken modulo the artifact size) and drop its hydrated plan, so
  /// the next acquire must rehydrate — and fail, evict, rebuild.
  /// Returns false when the key is absent.
  bool corrupt_entry(std::uint64_t key, std::size_t offset = 97);

  /// Mark `key` quarantined (watchdog: plan wedged a sweep). The next
  /// acquire evicts and rebuilds it. Returns false when absent.
  bool quarantine(std::uint64_t key);

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }

  /// Keys from least- to most-recently used (deterministic LRU tests).
  std::vector<std::uint64_t> keys_lru_order() const;

  CacheStats stats() const;

 private:
  std::shared_ptr<Entry> insert_locked(std::uint64_t key,
                                       std::shared_ptr<Entry> entry);

  const std::size_t capacity_;
  mutable std::mutex mu_;
  /// LRU order: front = least recently used, back = most recent.
  std::list<std::uint64_t> lru_;
  struct Slot {
    std::shared_ptr<Entry> entry;
    std::list<std::uint64_t>::iterator pos;
  };
  std::unordered_map<std::uint64_t, Slot> map_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> corrupt_evictions_{0};
  std::atomic<std::uint64_t> stale_rebuilds_{0};
};

}  // namespace fbmpk::service
