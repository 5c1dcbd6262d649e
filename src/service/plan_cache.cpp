#include "service/plan_cache.hpp"

#include <cstring>
#include <sstream>
#include <utility>

#include "core/plan_io.hpp"
#include "support/error.hpp"
#include "support/threading.hpp"
#include "support/timer.hpp"
#include "telemetry/telemetry.hpp"

namespace fbmpk::service {

namespace {

// XXH64 primes and lane rounds.
constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ull;
constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4Full;
constexpr std::uint64_t kP3 = 0x165667B19E3779F9ull;
constexpr std::uint64_t kP4 = 0x85EBCA77C2B2AE63ull;
constexpr std::uint64_t kP5 = 0x27D4EB2F165667C5ull;

std::uint64_t rotl(std::uint64_t v, int r) {
  return (v << r) | (v >> (64 - r));
}

std::uint64_t load64(const unsigned char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

std::uint64_t lane_round(std::uint64_t acc, std::uint64_t word) {
  return rotl(acc + word * kP2, 31) * kP1;
}

std::uint64_t merge_lane(std::uint64_t h, std::uint64_t lane) {
  return (h ^ lane_round(0, lane)) * kP1 + kP4;
}

}  // namespace

std::uint64_t xxh64(const void* data, std::size_t size, std::uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::size_t left = size;
  std::uint64_t h;
  if (left >= 32) {
    std::uint64_t v1 = seed + kP1 + kP2, v2 = seed + kP2, v3 = seed,
                  v4 = seed - kP1;
    for (; left >= 32; p += 32, left -= 32) {
      v1 = lane_round(v1, load64(p));
      v2 = lane_round(v2, load64(p + 8));
      v3 = lane_round(v3, load64(p + 16));
      v4 = lane_round(v4, load64(p + 24));
    }
    h = rotl(v1, 1) + rotl(v2, 7) + rotl(v3, 12) + rotl(v4, 18);
    h = merge_lane(merge_lane(merge_lane(merge_lane(h, v1), v2), v3), v4);
  } else {
    h = seed + kP5;
  }
  h += static_cast<std::uint64_t>(size);
  for (; left >= 8; p += 8, left -= 8)
    h = rotl(h ^ lane_round(0, load64(p)), 27) * kP1 + kP4;
  if (left >= 4) {
    std::uint32_t w;
    std::memcpy(&w, p, sizeof(w));
    h = rotl(h ^ (static_cast<std::uint64_t>(w) * kP1), 23) * kP2 + kP3;
    p += 4;
    left -= 4;
  }
  for (; left > 0; ++p, --left) h = rotl(h ^ (*p * kP5), 11) * kP1;
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  return h ^ (h >> 32);
}

std::uint64_t fingerprint(const CsrMatrix<double>& a) {
  const std::int64_t dims[2] = {a.rows(), a.cols()};
  std::uint64_t h = xxh64(dims, sizeof(dims), 0);
  h = xxh64(a.row_ptr().data(), a.row_ptr().size_bytes(), h);
  h = xxh64(a.col_idx().data(), a.col_idx().size_bytes(), h);
  return xxh64(a.values().data(), a.values().size_bytes(), h);
}

PlanCache::PlanCache(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

std::shared_ptr<PlanCache::Entry> PlanCache::insert_locked(
    std::uint64_t key, std::shared_ptr<Entry> entry) {
  auto it = map_.find(key);
  if (it != map_.end()) {
    // Lost a build race (or replacing a corrupt/quarantined entry that
    // was erased and re-inserted by another thread): adopt the winner.
    lru_.splice(lru_.end(), lru_, it->second.pos);
    return it->second.entry;
  }
  lru_.push_back(key);
  map_.emplace(key, Slot{entry, std::prev(lru_.end())});
  while (map_.size() > capacity_) {
    const std::uint64_t victim = lru_.front();
    lru_.pop_front();
    map_.erase(victim);
    evictions_.fetch_add(1, std::memory_order_relaxed);
    FBMPK_TCOUNT("service.cache.evict", 1);
  }
  return entry;
}

PlanCache::Lease PlanCache::acquire(std::uint64_t key, const Builder& build) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      std::shared_ptr<Entry> entry = it->second.entry;
      if (entry->quarantined.load(std::memory_order_acquire)) {
        // Watchdog-flagged plan: never served again — drop and rebuild.
        lru_.erase(it->second.pos);
        map_.erase(it);
      } else {
        // Memory-corruption fault drill: damage the artifact and drop
        // the decode cache so the rehydration path below must run.
        if (fault::should_fire(fault::Point::kCacheCorrupt) &&
            !entry->artifact.empty()) {
          entry->artifact[entry->artifact.size() / 2] ^= 0x40;
          entry->plan.reset();
        }
        if (entry->plan == nullptr) {
          // Rehydrate from the artifact; the loader re-verifies the
          // checksum so corruption can't reach execution.
          std::istringstream in(entry->artifact);
          Expected<MpkPlan> loaded = try_load_plan(in);
          if (loaded.has_value() && !loaded.value().tuned_config().stale) {
            entry->plan = std::make_shared<const MpkPlan>(
                std::move(loaded).value());
          } else {
            if (loaded.has_value()) {
              stale_rebuilds_.fetch_add(1, std::memory_order_relaxed);
              FBMPK_TCOUNT("service.cache.stale_rebuild", 1);
            } else {
              corrupt_evictions_.fetch_add(1, std::memory_order_relaxed);
              FBMPK_TCOUNT("service.cache.corrupt_evict", 1);
            }
            lru_.erase(it->second.pos);
            map_.erase(key);
            entry = nullptr;
          }
        }
        if (entry != nullptr) {
          lru_.splice(lru_.end(), lru_, it->second.pos);
          hits_.fetch_add(1, std::memory_order_relaxed);
          FBMPK_TCOUNT("service.cache.hit", 1);
          // Pin the plan while still holding the lock: entry->plan may
          // be reset by another thread the moment we release it.
          return Lease{entry, entry->plan};
        }
      }
    }
  }
  // Miss (or evicted above): build outside the lock so concurrent
  // requests for other fingerprints keep flowing.
  misses_.fetch_add(1, std::memory_order_relaxed);
  FBMPK_TCOUNT("service.cache.miss", 1);
  auto entry = std::make_shared<Entry>();
  entry->key = key;
  {
    FBMPK_TSPAN(kService, "service.cache.build");
    [[maybe_unused]] Timer build_timer;
    entry->plan = std::make_shared<const MpkPlan>(build());
    // Last-build gauge: the request-path cost the autotune oracle is
    // meant to shrink (docs/AUTOTUNING.md); spans carry the history,
    // the gauge makes the latest cost scrapeable.
    FBMPK_TGAUGE("service.plan_build_ns",
                 static_cast<std::int64_t>(build_timer.seconds() * 1e9));
  }
  std::ostringstream out;
  save_plan(*entry->plan, out);
  entry->artifact = std::move(out).str();
  std::shared_ptr<const MpkPlan> plan = entry->plan;
  std::lock_guard<std::mutex> lock(mu_);
  std::shared_ptr<Entry> adopted = insert_locked(key, std::move(entry));
  // When we lost the build race the adopted entry's plan is the
  // winner's; if a corruption drill already dropped that one, our own
  // fresh build is still a correct plan for this key — serve it.
  if (adopted->plan != nullptr) plan = adopted->plan;
  return Lease{std::move(adopted), std::move(plan)};
}

bool PlanCache::corrupt_entry(std::uint64_t key, std::size_t offset) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  if (it == map_.end() || it->second.entry->artifact.empty()) return false;
  Entry& e = *it->second.entry;
  e.artifact[offset % e.artifact.size()] ^= 0x01;
  e.plan.reset();
  return true;
}

bool PlanCache::quarantine(std::uint64_t key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  if (it == map_.end()) return false;
  it->second.entry->quarantined.store(true, std::memory_order_release);
  return true;
}

std::size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

std::vector<std::uint64_t> PlanCache::keys_lru_order() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {lru_.begin(), lru_.end()};
}

CacheStats PlanCache::stats() const {
  CacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.corrupt_evictions = corrupt_evictions_.load(std::memory_order_relaxed);
  s.stale_rebuilds = stale_rebuilds_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace fbmpk::service
