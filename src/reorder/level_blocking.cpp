#include "reorder/level_blocking.hpp"

#include <algorithm>
#include <cstddef>
#include <queue>
#include <utility>

#include "support/error.hpp"

namespace fbmpk {
namespace {

// Approximate bytes of triangle + iterate data per weight unit (one
// weight unit = one nnz or one row): 8 B value + ~4 B index.
constexpr std::size_t kBytesPerWeightUnit = 12;

/// Union-find over a row subset, re-initialized per stage candidate via
/// an explicit touch pass. `weight` accumulates component weights at
/// the roots.
struct ComponentFinder {
  std::vector<index_t> parent;
  std::vector<index_t> weight;

  void init(index_t n) {
    parent.assign(static_cast<std::size_t>(n), -1);
    weight.assign(static_cast<std::size_t>(n), 0);
  }
  void touch(index_t i, index_t w) {
    parent[i] = i;
    weight[i] = w;
  }
  index_t find(index_t i) {
    while (parent[i] != i) {
      parent[i] = parent[parent[i]];
      i = parent[i];
    }
    return i;
  }
  void unite(index_t a, index_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    if (weight[a] < weight[b]) std::swap(a, b);
    parent[b] = a;
    weight[a] += weight[b];
  }
};

/// Build one direction: aggregate levels into stages, partition each
/// stage's connected components across threads by greedy LPT, and store
/// each slot's rows, in execution order, as maximal row runs.
StageDirection build_direction(const LevelSchedule& ls,
                               std::span<const index_t> tri_rp,
                               std::span<const index_t> tri_ci,
                               std::span<const index_t> row_weight,
                               index_t n, index_t num_threads,
                               const LevelBlockingOptions& opts,
                               bool backward) {
  StageDirection d;

  std::vector<index_t> level_of(static_cast<std::size_t>(n), 0);
  for (index_t l = 0; l < ls.num_levels; ++l)
    for (index_t q = ls.level_ptr[l]; q < ls.level_ptr[l + 1]; ++q)
      level_of[ls.rows[q]] = l;

  std::vector<std::size_t> level_weight(
      static_cast<std::size_t>(ls.num_levels), 0);
  for (index_t i = 0; i < n; ++i)
    level_weight[level_of[i]] += static_cast<std::size_t>(row_weight[i]);

  ComponentFinder cf;
  cf.init(n);

  // Union the triangle edges interior to the level range [l0, l1);
  // neighbors below the range stay cross-stage (point-to-point deps).
  const auto unite_range = [&](index_t l0, index_t l1) {
    for (index_t q = ls.level_ptr[l0]; q < ls.level_ptr[l1]; ++q)
      cf.touch(ls.rows[q], row_weight[ls.rows[q]]);
    for (index_t q = ls.level_ptr[l0]; q < ls.level_ptr[l1]; ++q) {
      const index_t i = ls.rows[q];
      for (index_t e = tri_rp[i]; e < tri_rp[i + 1]; ++e) {
        const index_t j = tri_ci[e];
        if (level_of[j] >= l0) cf.unite(i, j);
      }
    }
  };

  const auto acceptable = [&](index_t l0, index_t l1) -> bool {
    unite_range(l0, l1);
    std::size_t total = 0;
    std::size_t max_comp = 0;
    for (index_t q = ls.level_ptr[l0]; q < ls.level_ptr[l1]; ++q) {
      const index_t i = ls.rows[q];
      total += static_cast<std::size_t>(row_weight[i]);
      if (cf.find(i) == i)
        max_comp =
            std::max(max_comp, static_cast<std::size_t>(cf.weight[i]));
    }
    const double cap = opts.balance_slack * static_cast<double>(total) /
                       static_cast<double>(num_threads);
    return static_cast<double>(max_comp) <= cap;
  };

  const std::size_t budget =
      std::max<std::size_t>(1, opts.stage_bytes / kBytesPerWeightUnit);
  const std::vector<index_t> stage_level_ptr =
      aggregate_levels(level_weight, budget, acceptable);
  d.num_stages = static_cast<index_t>(stage_level_ptr.size()) - 1;

  const index_t S = d.num_stages;
  const std::size_t num_slots = static_cast<std::size_t>(num_threads) * S;
  d.load.assign(num_slots, 0);

  std::vector<std::vector<index_t>> slot_rows(num_slots);
  std::vector<index_t> comp_id(static_cast<std::size_t>(n), -1);
  std::vector<std::vector<index_t>> comp_rows;

  for (index_t s = 0; s < S; ++s) {
    const index_t l0 = stage_level_ptr[s];
    const index_t l1 = stage_level_ptr[s + 1];
    const bool single_level = (l1 - l0) == 1;
    if (!single_level) unite_range(l0, l1);

    // Walk the stage's rows in (level, row) order (how ls.rows stores
    // them); each component's row list inherits that order, which is
    // the producer-first invariant.
    comp_rows.clear();
    for (index_t q = ls.level_ptr[l0]; q < ls.level_ptr[l1]; ++q) {
      const index_t i = ls.rows[q];
      const index_t root = single_level ? i : cf.find(i);
      if (comp_id[root] < 0) {
        comp_id[root] = static_cast<index_t>(comp_rows.size());
        comp_rows.emplace_back();
      }
      comp_rows[comp_id[root]].push_back(i);
    }
    for (index_t q = ls.level_ptr[l0]; q < ls.level_ptr[l1]; ++q) {
      const index_t i = ls.rows[q];
      comp_id[single_level ? i : cf.find(i)] = -1;  // reset scratch
    }

    // Greedy LPT: heaviest component to the least-loaded thread;
    // deterministic tie-breaks (first row, then thread id).
    std::vector<index_t> order(comp_rows.size());
    std::vector<index_t> comp_weight(comp_rows.size(), 0);
    for (std::size_t c = 0; c < comp_rows.size(); ++c) {
      for (index_t i : comp_rows[c]) comp_weight[c] += row_weight[i];
      order[c] = static_cast<index_t>(c);
    }
    std::sort(order.begin(), order.end(), [&](index_t a, index_t b) {
      if (comp_weight[a] != comp_weight[b])
        return comp_weight[a] > comp_weight[b];
      return comp_rows[a].front() < comp_rows[b].front();
    });
    using HeapItem = std::pair<index_t, index_t>;  // (load, thread)
    std::priority_queue<HeapItem, std::vector<HeapItem>,
                        std::greater<HeapItem>>
        heap;
    for (index_t t = 0; t < num_threads; ++t) heap.push({0, t});
    for (index_t c : order) {
      auto [ld, t] = heap.top();
      heap.pop();
      auto& rows = slot_rows[d.slot(t, s)];
      rows.insert(rows.end(), comp_rows[c].begin(), comp_rows[c].end());
      d.load[d.slot(t, s)] += comp_weight[c];
      heap.push({ld + comp_weight[c], t});
    }

    // Components don't interact, so a global level-order sort per slot
    // restores streaming order while keeping producers first. Rows of
    // one level are independent: ascending for the forward sweep,
    // descending for the backward one, so both walk maximal runs.
    for (index_t t = 0; t < num_threads; ++t) {
      auto& rows = slot_rows[d.slot(t, s)];
      std::sort(rows.begin(), rows.end(), [&](index_t a, index_t b) {
        if (level_of[a] != level_of[b]) return level_of[a] < level_of[b];
        return backward ? a > b : a < b;
      });
    }
  }

  // Execution order -> runs. Forward slots walk ranges in order, each
  // ascending; backward slots walk them in reverse, each descending, so
  // a backward slot collects descending runs and stores them reversed.
  d.range_ptr.assign(num_slots + 1, 0);
  for (std::size_t slot = 0; slot < num_slots; ++slot) {
    const std::size_t first = d.ranges.size();
    for (const index_t i : slot_rows[slot]) {
      if (d.ranges.size() > first) {
        RowRange& r = d.ranges.back();
        if (!backward && r.end == i) {
          ++r.end;
          continue;
        }
        if (backward && r.begin == i + 1) {
          --r.begin;
          continue;
        }
      }
      d.ranges.push_back({i, i + 1});
    }
    if (backward)
      std::reverse(d.ranges.begin() + static_cast<std::ptrdiff_t>(first),
                   d.ranges.end());
    d.range_ptr[slot + 1] = static_cast<index_t>(d.ranges.size());
  }
  return d;
}

}  // namespace

StageSchedule build_level_sweep_schedule(
    const LevelSchedulePair& levels, std::span<const index_t> lower_rp,
    std::span<const index_t> lower_ci, std::span<const index_t> upper_rp,
    std::span<const index_t> upper_ci, index_t num_threads,
    const LevelBlockingOptions& opts) {
  FBMPK_CHECK(num_threads >= 1);
  const index_t n = static_cast<index_t>(levels.forward.rows.size());
  FBMPK_CHECK(levels.backward.rows.size() == static_cast<std::size_t>(n));

  std::vector<index_t> row_weight(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i)
    row_weight[i] = (lower_rp[i + 1] - lower_rp[i]) +
                    (upper_rp[i + 1] - upper_rp[i]) + 1;

  StageSchedule s;
  s.num_threads = num_threads;
  s.num_rows = n;
  s.fwd = build_direction(levels.forward, lower_rp, lower_ci, row_weight, n,
                          num_threads, opts, /*backward=*/false);
  s.bwd = build_direction(levels.backward, upper_rp, upper_ci, row_weight, n,
                          num_threads, opts, /*backward=*/true);
  derive_stage_deps(s, lower_rp, lower_ci, upper_rp, upper_ci);

  // Pair boundaries and head/tail stages rendezvous with every thread.
  s.edge_dep_ptr.assign(static_cast<std::size_t>(num_threads) + 1, 0);
  for (index_t t = 0; t < num_threads; ++t) {
    for (index_t u = 0; u < num_threads; ++u)
      if (u != t) s.edge_deps.push_back(u);
    s.edge_dep_ptr[t + 1] = static_cast<index_t>(s.edge_deps.size());
  }
  s.pair_dep_ptr = s.edge_dep_ptr;
  s.pair_deps = s.edge_deps;
  return s;
}

}  // namespace fbmpk
