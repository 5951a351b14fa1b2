#include "expander/decomposition.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "expander/driver.hpp"
#include "expander/simple_parallel.hpp"
#include "graph/graph_view.hpp"
#include "graph/metrics.hpp"
#include "sparsecut/partition.hpp"
#include "util/check.hpp"

namespace xd::expander {

namespace {

using detail::Driver;
using detail::ItemResult;
using detail::WorkItem;

std::uint64_t ambient_volume(const Graph& g, const std::vector<VertexId>& ids) {
  std::uint64_t vol = 0;
  for (VertexId v : ids) vol += g.degree(v);
  return vol;
}

// Phase 1, step 2 for one component: nearly most balanced sparse cut, then
// finalize / enter Phase 2 / Remove-2 and recurse.
ItemResult run_cut(const Driver& d, WorkItem& item, congest::RoundLedger& lg) {
  ItemResult res;
  res.depth_seen = item.depth;
  std::vector<VertexId>& comp = item.u;
  // The whole sparse-cut stack (Partition -> ParallelNibble -> Nibble) runs
  // on the zero-copy overlay; the cut comes back in ambient ids.
  const GraphView comp_live(d.g, &d.removed, VertexSet(comp));
  if (comp_live.volume() == 0) {
    res.finals.push_back(std::move(comp));
    return res;
  }
  ++res.sparse_cut_calls;
  const auto diameter = diameter_double_sweep(comp_live);
  const auto cut_res = sparsecut::nearly_most_balanced_sparse_cut(
      comp_live, d.schedule.phi[0], d.prm.preset, item.rng, lg, diameter,
      d.prm.thorough_partition);

  if (!cut_res.found()) {
    res.finals.push_back(std::move(comp));  // certified: Φ(G{U}) >= φ₀ (whp)
    return res;
  }
  const std::uint64_t vol_u = comp_live.volume();
  const std::uint64_t vol_c = volume(comp_live, cut_res.cut);
  // Phase-2 entry (Step 2b).  The paper's ε/12 threshold composes with
  // Theorem 3's bal >= min{b/2, 1/48} only when ε <= 1/4; the min keeps
  // the Lemma 2 argument valid for every ε in (0, 1).
  const double entry = std::min(d.prm.epsilon / 12.0, 1.0 / 48.0);
  if (static_cast<double>(vol_c) <= entry * static_cast<double>(vol_u)) {
    ++res.phase2_entries;
    // Cut edges intentionally kept (Step 2b); the Phase 2 loop inherits
    // this item's stream.
    res.children.push_back(WorkItem{WorkItem::Kind::kPhase2, std::move(comp),
                                    item.depth, 0, item.rng});
    return res;
  }

  // Step 2c: Remove-2 the cut edges, recurse on both sides.  Live-edge
  // iteration visits surviving edges in the same order a materialized copy
  // numbers them, so the removal log replays identically.
  const auto in_cut = cut_res.cut.bitmap(d.g.num_vertices());
  comp_live.for_each_live_edge([&](EdgeId ambient, VertexId x, VertexId y) {
    if (in_cut[x] != in_cut[y]) {
      res.removals.emplace_back(ambient, RemoveReason::kSparseCut);
    }
  });
  std::vector<VertexId> side_c, side_rest;
  for (const VertexId v : comp_live.vertices()) {
    (in_cut[v] ? side_c : side_rest).push_back(v);
  }
  res.children.push_back(WorkItem{WorkItem::Kind::kLdd, std::move(side_c),
                                  item.depth + 1, 0, item.rng.fork(0)});
  res.children.push_back(WorkItem{WorkItem::Kind::kLdd, std::move(side_rest),
                                  item.depth + 1, 0, item.rng.fork(1)});
  return res;
}

// Phase 2: the level schedule with Remove-3 rip-outs, sequential within one
// entered component (the loop's state genuinely chains), concurrent across
// components.  The item works against a private copy of the removal overlay
// because its own rip-outs must be visible to its next iteration; only its
// component's edges differ from the shared snapshot.
ItemResult run_phase2(const Driver& d, WorkItem& item,
                      congest::RoundLedger& lg) {
  ItemResult res;
  res.depth_seen = item.depth;
  std::vector<VertexId> u = std::move(item.u);
  std::vector<char> local_removed = d.removed;
  const auto rip = [&](EdgeId ambient) {
    XD_CHECK(!local_removed[ambient]);
    local_removed[ambient] = 1;
    res.removals.emplace_back(ambient, RemoveReason::kRipOut);
  };

  const std::uint64_t vol_u = ambient_volume(d.g, u);
  XD_CHECK(vol_u > 0);
  const double m1 = (d.prm.epsilon / 6.0) * static_cast<double>(vol_u);
  const double tau = std::pow(m1, 1.0 / static_cast<double>(d.prm.k));

  // Communication uses all of G* = G{U}; its diameter bounds the O(D) terms
  // for every sparse-cut call in this phase (paper, end of §2).
  const std::uint32_t diameter =
      diameter_double_sweep(GraphView(d.g, &local_removed, VertexSet(u)));

  int level = 1;
  std::vector<VertexId> uprime = std::move(u);
  // Per-level iteration guard: the paper bounds each level by 2τ rounds of
  // the loop; the +2 absorbs rounding with practical constants.
  const auto level_budget =
      static_cast<std::uint64_t>(std::ceil(2.0 * tau)) + 2;
  std::uint64_t level_iterations = 0;
  // Lemma 2 invariant: the total volume ripped out in Phase 2 is at most
  // m₁ = (ε/6) Vol(U).  Paper constants guarantee it; practical constants
  // enforce it as a hard stop so one mis-balanced cut cannot cascade.
  std::uint64_t ripped_volume = 0;

  while (true) {
    if (uprime.empty()) return res;
    // The per-level G{U'} is the view overlay that used to be the dominant
    // rebuild cost: one fresh CSR per level iteration, now one O(Vol) scan.
    const GraphView live(d.g, &local_removed, VertexSet(uprime));
    if (live.volume() == 0 || uprime.size() == 1) {
      res.finals.push_back(std::move(uprime));
      return res;
    }
    ++res.sparse_cut_calls;
    const auto cut_res = sparsecut::nearly_most_balanced_sparse_cut(
        live, d.schedule.phi[static_cast<std::size_t>(level)], d.prm.preset,
        item.rng, lg, diameter, d.prm.thorough_partition);
    if (!cut_res.found()) {
      res.finals.push_back(std::move(uprime));
      return res;
    }

    const std::uint64_t vol_c = volume(live, cut_res.cut);
    const double m_level = m1 / std::pow(tau, level - 1);
    if (static_cast<double>(vol_c) <= m_level / (2.0 * tau)) {
      ++level;
      level_iterations = 0;
      if (level > d.prm.k) {
        // Impossible with the paper identity m_k/(2τ) = 1/2 < Vol(C);
        // practical guard only.
        res.finals.push_back(std::move(uprime));
        return res;
      }
      continue;
    }

    if (++level_iterations > level_budget) {
      res.finals.push_back(std::move(uprime));  // practical guard
      return res;
    }
    if (static_cast<double>(ripped_volume + vol_c) > m1) {
      res.finals.push_back(std::move(uprime));  // Lemma 2 hard stop
      return res;
    }
    ripped_volume += vol_c;

    // Remove-3: every edge incident to C goes; C's vertices become
    // singleton components.  Collect first, then rip: the view reads the
    // overlay lazily, so mutating it mid-iteration would change what
    // "live" means for the slots not yet visited.
    const auto in_cut = cut_res.cut.bitmap(d.g.num_vertices());
    std::vector<EdgeId> to_rip;
    live.for_each_live_edge([&](EdgeId ambient, VertexId x, VertexId y) {
      if (in_cut[x] || in_cut[y]) to_rip.push_back(ambient);
    });
    for (const EdgeId ambient : to_rip) rip(ambient);
    std::vector<VertexId> rest;
    for (const VertexId pv : live.vertices()) {
      if (in_cut[pv]) {
        ++res.singletons;
        res.finals.push_back({pv});
      } else {
        rest.push_back(pv);
      }
    }
    uprime = std::move(rest);
  }
}

ItemResult run_item(const Driver& d, WorkItem& item,
                    congest::RoundLedger& lg) {
  switch (item.kind) {
    case WorkItem::Kind::kLdd:
      // Phase 1, step 1: one kCut child per surviving component.
      return d.cluster(item, lg, WorkItem::Kind::kCut);
    case WorkItem::Kind::kCut:
      return run_cut(d, item, lg);
    case WorkItem::Kind::kPhase2:
      return run_phase2(d, item, lg);
    default:
      break;
  }
  XD_CHECK_MSG(false, "unreachable work-item kind");
  return {};
}

}  // namespace

DecompositionResult expander_decomposition(const Graph& g,
                                           const DecompositionParams& prm,
                                           Rng& rng,
                                           congest::RoundLedger& ledger) {
  if (prm.backend == DecompositionBackend::kSimpleParallel) {
    return detail::simple_parallel_decomposition(g, prm, rng, ledger);
  }
  return detail::decompose(g, prm, rng, ledger, {run_item, {}});
}

}  // namespace xd::expander
