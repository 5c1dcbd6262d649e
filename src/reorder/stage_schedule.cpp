#include "reorder/stage_schedule.hpp"

#include <algorithm>

#include "reorder/graph.hpp"
#include "reorder/nnz_partition.hpp"
#include "support/error.hpp"

namespace fbmpk {

namespace {

/// Flatten per-slot lists into a CSR pair.
template <class V>
void flatten(const std::vector<std::vector<V>>& lists,
             std::vector<index_t>& ptr, std::vector<V>& flat) {
  ptr.assign(lists.size() + 1, 0);
  flat.clear();
  for (std::size_t q = 0; q < lists.size(); ++q) {
    flat.insert(flat.end(), lists[q].begin(), lists[q].end());
    ptr[q + 1] = static_cast<index_t>(flat.size());
  }
}

/// Rows of slot q in execution order: forward ranges in order, each
/// ascending; backward ranges in reverse, each descending.
template <class Fn>
void walk_slot(const StageDirection& d, std::size_t q, bool backward,
               Fn&& fn) {
  if (!backward) {
    for (index_t r = d.range_ptr[q]; r < d.range_ptr[q + 1]; ++r)
      for (index_t i = d.ranges[r].begin; i < d.ranges[r].end; ++i) fn(i);
  } else {
    for (index_t r = d.range_ptr[q + 1]; r-- > d.range_ptr[q];)
      for (index_t i = d.ranges[r].end; i-- > d.ranges[r].begin;) fn(i);
  }
}

/// Per-row placement of one direction: owning thread, stage, and
/// execution position within the slot.
struct Placement {
  std::vector<index_t> owner;
  std::vector<index_t> stage;
  std::vector<index_t> pos;
  bool exact = true;  ///< every row in exactly one slot
};

Placement place(const StageDirection& d, index_t T, index_t n,
                bool backward) {
  Placement p;
  p.owner.assign(static_cast<std::size_t>(n), -1);
  p.stage.assign(static_cast<std::size_t>(n), -1);
  p.pos.assign(static_cast<std::size_t>(n), -1);
  for (index_t t = 0; t < T; ++t)
    for (index_t s = 0; s < d.num_stages; ++s) {
      index_t k = 0;
      walk_slot(d, d.slot(t, s), backward, [&](index_t i) {
        if (p.owner[i] != -1) p.exact = false;
        p.owner[i] = t;
        p.stage[i] = s;
        p.pos[i] = k++;
      });
    }
  for (index_t o : p.owner)
    if (o < 0) p.exact = false;
  return p;
}

/// Column adjacency of a triangle pattern (its transpose).
struct Columns {
  std::vector<index_t> ptr;
  std::vector<index_t> rows;
};

Columns columns_of(std::span<const index_t> rp, std::span<const index_t> ci,
                   index_t n) {
  Columns c;
  c.ptr.assign(static_cast<std::size_t>(n) + 1, 0);
  for (index_t i = 0; i < n; ++i)
    for (index_t e = rp[i]; e < rp[i + 1]; ++e) ++c.ptr[ci[e] + 1];
  for (index_t m = 0; m < n; ++m) c.ptr[m + 1] += c.ptr[m];
  c.rows.resize(static_cast<std::size_t>(c.ptr[n]));
  std::vector<index_t> fill(c.ptr.begin(), c.ptr.end() - 1);
  for (index_t i = 0; i < n; ++i)
    for (index_t e = rp[i]; e < rp[i + 1]; ++e) c.rows[fill[ci[e]]++] = i;
  return c;
}

/// Max stage owed per foreign thread, collected with an epoch-stamped
/// scratch array.
struct ForeignMax {
  std::vector<index_t> best;
  std::vector<unsigned> stamp;
  unsigned epoch = 0;
  index_t self = -1;

  explicit ForeignMax(index_t T)
      : best(static_cast<std::size_t>(T)),
        stamp(static_cast<std::size_t>(T), 0) {}
  void reset(index_t own) {
    ++epoch;
    self = own;
  }
  void record(index_t u, index_t s) {
    if (u == self) return;  // program order covers own stages
    if (stamp[u] != epoch) {
      stamp[u] = epoch;
      best[u] = s;
    } else {
      best[u] = std::max(best[u], s);
    }
  }
  void flush(std::vector<StageDep>& out) const {
    for (index_t u = 0; u < static_cast<index_t>(best.size()); ++u)
      if (stamp[u] == epoch) out.push_back({u, best[u]});
  }
};

bool ptr_ok(const std::vector<index_t>& ptr, std::size_t slots,
            std::size_t total) {
  if (ptr.size() != slots + 1 || ptr.front() != 0 ||
      ptr.back() != static_cast<index_t>(total))
    return false;
  for (std::size_t q = 1; q < ptr.size(); ++q)
    if (ptr[q - 1] > ptr[q]) return false;
  return true;
}

/// Shapes of one direction; deps must target a legal foreign thread and
/// a pair stage strictly before their own (`stage0` = the direction's
/// first pair-stage index), which keeps the wait graph acyclic.
bool direction_ok(const StageDirection& d, index_t T, index_t n,
                  index_t stage0) {
  if (d.num_stages < 0) return false;
  const std::size_t slots = static_cast<std::size_t>(T) * d.num_stages;
  if (!ptr_ok(d.range_ptr, slots, d.ranges.size()) ||
      !ptr_ok(d.dep_ptr, slots, d.deps.size()) || d.load.size() != slots)
    return false;
  for (const RowRange& r : d.ranges)
    if (r.begin < 0 || r.begin >= r.end || r.end > n) return false;
  for (index_t t = 0; t < T; ++t)
    for (index_t s = 0; s < d.num_stages; ++s) {
      const std::size_t q = d.slot(t, s);
      for (index_t e = d.dep_ptr[q]; e < d.dep_ptr[q + 1]; ++e) {
        const StageDep& dep = d.deps[e];
        if (dep.thread < 0 || dep.thread >= T || dep.thread == t ||
            dep.stage < 0 || dep.stage >= stage0 + s)
          return false;
      }
    }
  return true;
}

bool thread_lists_ok(const std::vector<index_t>& ptr,
                     const std::vector<index_t>& list, index_t T) {
  if (!ptr_ok(ptr, static_cast<std::size_t>(T), list.size())) return false;
  for (index_t t = 0; t < T; ++t)
    for (index_t e = ptr[t]; e < ptr[t + 1]; ++e)
      if (list[e] < 0 || list[e] >= T || list[e] == t) return false;
  return true;
}

}  // namespace

StageSchedule build_sweep_schedule(const AbmcOrdering& o,
                                   std::span<const index_t> lower_rp,
                                   std::span<const index_t> lower_ci,
                                   std::span<const index_t> upper_rp,
                                   std::span<const index_t> upper_ci,
                                   index_t num_threads) {
  FBMPK_CHECK(num_threads >= 1);
  FBMPK_CHECK_MSG(!o.block_ptr.empty() && o.num_colors >= 1,
                  "stage schedule needs a non-empty ABMC ordering");
  const index_t n = static_cast<index_t>(lower_rp.size()) - 1;
  FBMPK_CHECK_MSG(o.block_ptr.back() == n,
                  "ABMC ordering does not cover the matrix");

  const index_t T = num_threads;
  const index_t C = o.num_colors;
  const std::size_t slots = static_cast<std::size_t>(T) * C;

  // Each color's blocks in contiguous chunks balanced by nnz weight,
  // one per thread (reorder/nnz_partition.hpp). Color c is forward
  // stage c and backward stage C-1-c; both run the same rows.
  const ColorPartition part =
      partition_colors(o, block_nnz_weights(o, lower_rp, upper_rp), T);

  StageSchedule s;
  s.num_threads = T;
  s.num_rows = n;
  s.fwd.num_stages = C;
  s.bwd.num_stages = C;
  const auto bwd_slot = [&](index_t t, index_t c) {
    return s.bwd.slot(t, C - 1 - c);
  };

  std::vector<std::vector<RowRange>> fr(slots), br(slots);
  s.fwd.load.assign(slots, 0);
  s.bwd.load.assign(slots, 0);
  for (index_t t = 0; t < T; ++t)
    for (index_t c = 0; c < C; ++c) {
      // A slot's blocks are contiguous, so its rows are one range.
      const std::size_t q = part.slot(t, c);
      const index_t lo = o.block_ptr[part.block_ptr[q]];
      const index_t hi = o.block_ptr[part.block_ptr[q + 1]];
      if (lo < hi) {
        fr[s.fwd.slot(t, c)].push_back({lo, hi});
        br[bwd_slot(t, c)].push_back({lo, hi});
      }
      s.fwd.load[s.fwd.slot(t, c)] = part.load[q];
      s.bwd.load[bwd_slot(t, c)] = part.load[q];
    }
  flatten(fr, s.fwd.range_ptr, s.fwd.ranges);
  flatten(br, s.bwd.range_ptr, s.bwd.ranges);

  // Deps from the block quotient graph: in the permuted matrix a row
  // of color c has lower neighbors only in colors < c and upper
  // neighbors only in colors > c. F_c waits on every neighbor owner's
  // latest lower color, B_c on its earliest upper color (the latest
  // backward stage); each thread walks its stages in order, so these
  // waits also cover the previous pair — no pair-boundary deps.
  const AdjacencyGraph g = block_quotient_from_split(
      lower_rp, lower_ci, upper_rp, upper_ci, o.block_ptr);
  std::vector<index_t> color_of(static_cast<std::size_t>(o.num_blocks));
  for (index_t c = 0; c < C; ++c)
    for (index_t b = o.color_ptr[c]; b < o.color_ptr[c + 1]; ++b)
      color_of[b] = c;

  std::vector<std::vector<StageDep>> fd(slots), bd(slots);
  std::vector<std::vector<index_t>> edge(static_cast<std::size_t>(T));
  ForeignMax lower(T), upper(T);
  std::vector<char> seen(static_cast<std::size_t>(T));
  for (index_t t = 0; t < T; ++t) {
    std::fill(seen.begin(), seen.end(), 0);
    for (index_t c = 0; c < C; ++c) {
      lower.reset(t);
      upper.reset(t);
      const std::size_t q = part.slot(t, c);
      for (index_t b = part.block_ptr[q]; b < part.block_ptr[q + 1]; ++b) {
        for (index_t e = g.ptr[b]; e < g.ptr[b + 1]; ++e) {
          const index_t nb = g.adj[e];
          const index_t u = part.owner_of[nb];
          if (u == t) continue;
          seen[u] = 1;
          const index_t nc = color_of[nb];
          if (nc < c)
            lower.record(u, nc);
          else if (nc > c)
            upper.record(u, C + (C - 1 - nc));  // pair index of B_nc
          // nc == c cannot carry an edge (coloring invariant).
        }
      }
      lower.flush(fd[s.fwd.slot(t, c)]);
      upper.flush(bd[bwd_slot(t, c)]);
    }
    for (index_t u = 0; u < T; ++u)
      if (seen[u]) edge[t].push_back(u);
  }
  flatten(fd, s.fwd.dep_ptr, s.fwd.deps);
  flatten(bd, s.bwd.dep_ptr, s.bwd.deps);
  flatten(edge, s.edge_dep_ptr, s.edge_deps);
  s.pair_dep_ptr.assign(static_cast<std::size_t>(T) + 1, 0);
  return s;
}

double stage_imbalance(const StageSchedule& s) {
  double peak = 0.0, mean = 0.0;
  for (const StageDirection* d : {&s.fwd, &s.bwd})
    for (index_t st = 0; st < d->num_stages; ++st) {
      double top = 0.0, sum = 0.0;
      for (index_t t = 0; t < s.num_threads; ++t) {
        const double l = static_cast<double>(d->load[d->slot(t, st)]);
        top = std::max(top, l);
        sum += l;
      }
      peak += top;
      mean += sum / static_cast<double>(s.num_threads);
    }
  return mean > 0.0 ? peak / mean : 1.0;
}

void derive_stage_deps(StageSchedule& s, std::span<const index_t> lower_rp,
                       std::span<const index_t> lower_ci,
                       std::span<const index_t> upper_rp,
                       std::span<const index_t> upper_ci) {
  const index_t T = s.num_threads;
  const index_t n = s.num_rows;
  const index_t SF = s.fwd.num_stages;
  const Placement fp = place(s.fwd, T, n, false);
  const Placement bp = place(s.bwd, T, n, true);
  FBMPK_CHECK_MSG(fp.exact && bp.exact,
                  "stage schedule does not place every row exactly once");
  const Columns lc = columns_of(lower_rp, lower_ci, n);
  ForeignMax need(T);

  // F_s of thread t reads xy[2j+1] of its rows' L-neighbors j, written
  // by F of this pair.
  std::vector<std::vector<StageDep>> fd(static_cast<std::size_t>(T) * SF);
  for (index_t t = 0; t < T; ++t)
    for (index_t sf = 0; sf < SF; ++sf) {
      const std::size_t q = s.fwd.slot(t, sf);
      need.reset(t);
      walk_slot(s.fwd, q, false, [&](index_t i) {
        for (index_t e = lower_rp[i]; e < lower_rp[i + 1]; ++e)
          need.record(fp.owner[lower_ci[e]], fp.stage[lower_ci[e]]);
      });
      need.flush(fd[q]);
    }

  // B_s of thread t, per row m: reads tmp[m] (written by F of m), reads
  // xy[2j] / xy[2j+1] of its U-neighbors j (written by B / F of j), and
  // overwrites xy[2m], which the forward rows i with m in L(i) read
  // first (column m of L; the U-neighbors only when the pattern is
  // symmetric). Stage indices run F_0..F_{SF-1}, B_0..: a backward
  // wait on a thread subsumes its forward waits.
  std::vector<std::vector<StageDep>> bd(static_cast<std::size_t>(T) *
                                       s.bwd.num_stages);
  for (index_t t = 0; t < T; ++t)
    for (index_t sb = 0; sb < s.bwd.num_stages; ++sb) {
      const std::size_t q = s.bwd.slot(t, sb);
      need.reset(t);
      walk_slot(s.bwd, q, true, [&](index_t m) {
        need.record(fp.owner[m], fp.stage[m]);
        for (index_t e = upper_rp[m]; e < upper_rp[m + 1]; ++e) {
          const index_t j = upper_ci[e];
          need.record(bp.owner[j], SF + bp.stage[j]);
          need.record(fp.owner[j], fp.stage[j]);
        }
        for (index_t e = lc.ptr[m]; e < lc.ptr[m + 1]; ++e)
          need.record(fp.owner[lc.rows[e]], fp.stage[lc.rows[e]]);
      });
      need.flush(bd[q]);
    }
  flatten(fd, s.fwd.dep_ptr, s.fwd.deps);
  flatten(bd, s.bwd.dep_ptr, s.bwd.deps);
}

bool validate_stage_schedule(const StageSchedule& s,
                             std::span<const index_t> lower_rp,
                             std::span<const index_t> lower_ci,
                             std::span<const index_t> upper_rp,
                             std::span<const index_t> upper_ci) {
  const index_t T = s.num_threads;
  const index_t n = s.num_rows;
  if (T < 1 || n < 0 ||
      lower_rp.size() != static_cast<std::size_t>(n) + 1 ||
      upper_rp.size() != static_cast<std::size_t>(n) + 1)
    return false;
  const index_t SF = s.fwd.num_stages;
  const index_t SB = s.bwd.num_stages;
  if (!direction_ok(s.fwd, T, n, 0) || !direction_ok(s.bwd, T, n, SF) ||
      !thread_lists_ok(s.edge_dep_ptr, s.edge_deps, T) ||
      !thread_lists_ok(s.pair_dep_ptr, s.pair_deps, T))
    return false;
  const Placement fp = place(s.fwd, T, n, false);
  const Placement bp = place(s.bwd, T, n, true);
  if (!fp.exact || !bp.exact) return false;
  const Columns lc = columns_of(lower_rp, lower_ci, n);
  const Columns uc = columns_of(upper_rp, upper_ci, n);

  // Per consuming thread v: cur[u] = latest stage of u that v has
  // waited for so far this pair (-1: none yet), all[u] = latest over
  // the whole pair (what the previous pair guaranteed), plus the
  // pair-boundary and head/tail lists as flags.
  std::vector<index_t> cur(static_cast<std::size_t>(T));
  std::vector<index_t> all(static_cast<std::size_t>(T));
  std::vector<char> pair_dep(static_cast<std::size_t>(T));
  std::vector<char> edge_dep(static_cast<std::size_t>(T));
  for (index_t v = 0; v < T; ++v) {
    std::fill(cur.begin(), cur.end(), -1);
    std::fill(all.begin(), all.end(), -1);
    std::fill(pair_dep.begin(), pair_dep.end(), 0);
    std::fill(edge_dep.begin(), edge_dep.end(), 0);
    for (index_t e = s.pair_dep_ptr[v]; e < s.pair_dep_ptr[v + 1]; ++e)
      pair_dep[s.pair_deps[e]] = 1;
    for (index_t e = s.edge_dep_ptr[v]; e < s.edge_dep_ptr[v + 1]; ++e)
      edge_dep[s.edge_deps[e]] = 1;
    for (const StageDirection* d : {&s.fwd, &s.bwd})
      for (index_t e = d->dep_ptr[d->slot(v, 0)];
           e < d->dep_ptr[d->slot(v, d->num_stages)]; ++e)
        all[d->deps[e].thread] =
            std::max(all[d->deps[e].thread], d->deps[e].stage);
    const auto absorb = [&](const StageDirection& d, std::size_t q) {
      for (index_t e = d.dep_ptr[q]; e < d.dep_ptr[q + 1]; ++e)
        cur[d.deps[e].thread] = std::max(cur[d.deps[e].thread], d.deps[e].stage);
    };
    // Hazard on stage `a` of thread u this pair.
    const auto within = [&](index_t u, index_t a) {
      return u == v || cur[u] >= a;
    };
    // Hazard on stage `a` of thread u in the previous pair.
    const auto cross = [&](index_t u, index_t a) {
      return u == v || pair_dep[u] || cur[u] >= 0 || all[u] >= a;
    };
    // Hazard on u's head1 (before the first pair).
    const auto head = [&](index_t u) {
      return u == v || pair_dep[u] || cur[u] >= 0;
    };
    const auto edge = [&](index_t u) { return u == v || edge_dep[u]; };

    bool ok = true;
    for (index_t sf = 0; sf < SF && ok; ++sf) {
      const std::size_t q = s.fwd.slot(v, sf);
      absorb(s.fwd, q);
      walk_slot(s.fwd, q, false, [&](index_t i) {
        // head1 reads x0 of U-neighbors; the tail reads row i's and its
        // L-neighbors' last backward results.
        for (index_t e = upper_rp[i]; e < upper_rp[i + 1]; ++e)
          ok = ok && edge(fp.owner[upper_ci[e]]);
        ok = ok && edge(bp.owner[i]) && cross(bp.owner[i], SF + bp.stage[i]);
        for (index_t e = lower_rp[i]; e < lower_rp[i + 1]; ++e) {
          const index_t j = lower_ci[e];
          const index_t u = fp.owner[j];
          const index_t a = fp.stage[j];
          if (a > sf || (a == sf && (u != v || fp.pos[j] >= fp.pos[i])))
            ok = false;  // consumer not after its producer
          ok = ok && within(u, a) && edge(u) && edge(bp.owner[j]) &&
               cross(bp.owner[j], SF + bp.stage[j]);
        }
        // Previous pair's readers of xy[2i+1]: forward rows with i in
        // their L, backward rows with i in their U.
        for (index_t e = lc.ptr[i]; e < lc.ptr[i + 1]; ++e)
          ok = ok && cross(fp.owner[lc.rows[e]], fp.stage[lc.rows[e]]);
        for (index_t e = uc.ptr[i]; e < uc.ptr[i + 1]; ++e)
          ok = ok &&
               cross(bp.owner[uc.rows[e]], SF + bp.stage[uc.rows[e]]);
      });
    }
    for (index_t sb = 0; sb < SB && ok; ++sb) {
      const std::size_t q = s.bwd.slot(v, sb);
      absorb(s.bwd, q);
      walk_slot(s.bwd, q, true, [&](index_t m) {
        ok = ok && within(fp.owner[m], fp.stage[m]);
        for (index_t e = upper_rp[m]; e < upper_rp[m + 1]; ++e) {
          const index_t j = upper_ci[e];
          const index_t u = bp.owner[j];
          const index_t a = bp.stage[j];
          if (a > sb || (a == sb && (u != v || bp.pos[j] >= bp.pos[m])))
            ok = false;
          ok = ok && within(u, SF + a) && within(fp.owner[j], fp.stage[j]);
        }
        for (index_t e = lc.ptr[m]; e < lc.ptr[m + 1]; ++e)
          ok = ok && within(fp.owner[lc.rows[e]], fp.stage[lc.rows[e]]);
        // xy[2m] was read by backward rows with m in their U in the
        // previous pair, and by their head1 before the first pair.
        for (index_t e = uc.ptr[m]; e < uc.ptr[m + 1]; ++e)
          ok = ok &&
               cross(bp.owner[uc.rows[e]], SF + bp.stage[uc.rows[e]]) &&
               head(fp.owner[uc.rows[e]]);
      });
    }
    if (!ok) return false;
  }
  return true;
}

}  // namespace fbmpk
