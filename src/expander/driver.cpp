#include "expander/driver.hpp"

#include <algorithm>
#include <cmath>

#include "congest/network.hpp"
#include "congest/scheduler.hpp"
#include "graph/graph_view.hpp"
#include "graph/metrics.hpp"
#include "graph/subgraph.hpp"
#include "ldd/ldd.hpp"
#include "util/check.hpp"

namespace xd::expander::detail {

namespace {

/// Final assembly: splits every finalized part into its connected
/// components on the removed-edge overlay (a final part can be
/// disconnected via the practical guards), assigns dense ids in finals
/// order, and checks the partition covers V exactly once.
void assemble_components(const Graph& g, const std::vector<char>& removed,
                         const std::vector<std::vector<VertexId>>& finals,
                         DecompositionResult& out) {
  out.component.assign(g.num_vertices(), static_cast<std::uint32_t>(-1));
  std::uint32_t next_id = 0;
  for (const auto& ids : finals) {
    // Removed edges read as loops on the view overlay and are never
    // traversed.
    const GraphView live(g, &removed, VertexSet(ids));
    auto [comp, count] = connected_components(live);
    std::vector<std::uint32_t> local_to_global(count,
                                               static_cast<std::uint32_t>(-1));
    for (const VertexId pv : live.vertices()) {
      auto& slot = local_to_global[comp[pv]];
      if (slot == static_cast<std::uint32_t>(-1)) slot = next_id++;
      XD_CHECK_MSG(out.component[pv] == static_cast<std::uint32_t>(-1),
                   "vertex " << pv << " assigned twice");
      out.component[pv] = slot;
    }
    if (live.num_active() == 0 && !ids.empty()) {
      // Degenerate: isolated final ids (an empty active set cannot happen
      // for non-empty ids, but keep the invariant airtight).
      for (VertexId pv : ids) out.component[pv] = next_id++;
    }
  }
  out.num_components = next_id;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    XD_CHECK_MSG(out.component[v] != static_cast<std::uint32_t>(-1),
                 "vertex " << v << " missing from the decomposition");
  }
}

}  // namespace

ItemResult Driver::cluster(WorkItem& item, congest::RoundLedger& lg,
                           WorkItem::Kind child) const {
  ItemResult res;
  res.depth_seen = item.depth;
  std::vector<VertexId>& u = item.u;
  if (u.size() <= 1 || depth_guarded(item)) {
    res.finals.push_back(std::move(u));
    return res;
  }

  // Practical preset skips the call when the part's measured diameter
  // already meets the O(log²n/β²) bound LDD guarantees -- the LDD is then
  // a no-op by its own contract (it may legally cut nothing), and the
  // 2 ln n / β MPX epochs are saved.  Paper mode always runs it.
  const double logn = std::log(std::max<double>(g.num_vertices(), 2));
  const double ldd_diameter_bound =
      150.0 * logn * logn / (schedule.beta * schedule.beta);
  const GraphView live(g, &removed, VertexSet(u));
  const bool run_ldd_call =
      prm.preset == Preset::kPaper ||
      static_cast<double>(diameter_double_sweep(live)) > ldd_diameter_bound;

  std::vector<std::vector<VertexId>> comps;
  if (run_ldd_call) {
    // The CONGEST kernel wants a dense renumbering (per-vertex inbox
    // arrays, slot-keyed congestion): the one place Phase 1 still pays for
    // a materialized G{U}.
    const LiveSubgraph mat = live.materialize();
    ldd::LddParams ldd_prm;
    ldd_prm.beta = schedule.beta;
    congest::Network net(mat.graph, lg, item.rng());
    const ldd::LddResult ldd_res = ldd::low_diameter_decomposition(net, ldd_prm);
    for (EdgeId e = 0; e < mat.graph.num_edges(); ++e) {
      if (ldd_res.cut_edge[e]) {
        const EdgeId parent = mat.edge_to_parent[e];
        XD_CHECK(parent != LiveSubgraph::kNoEdge);
        res.removals.emplace_back(parent, RemoveReason::kLdd);
      }
    }
    comps.resize(ldd_res.num_components);
    for (VertexId lv = 0; lv < mat.graph.num_vertices(); ++lv) {
      comps[ldd_res.component[lv]].push_back(mat.to_parent[lv]);
    }
  } else {
    auto [comp, count] = connected_components(live);
    comps.resize(count);
    for (const VertexId v : live.vertices()) {
      comps[comp[v]].push_back(v);
    }
  }

  // Each surviving component becomes an item of the next epoch, with its
  // own stream split off this item's (fork does not advance the parent,
  // and child ids only count scheduled children, so the split is a pure
  // function of the item's deterministic computation).
  std::uint64_t child_id = 0;
  for (auto& comp : comps) {
    if (comp.empty()) continue;
    if (comp.size() == 1) {
      res.finals.push_back(std::move(comp));
      continue;
    }
    res.children.push_back(WorkItem{child, std::move(comp), item.depth, 0,
                                    item.rng.fork(child_id++)});
  }
  return res;
}

DecompositionResult decompose(const Graph& g, const DecompositionParams& prm,
                              Rng& rng, congest::RoundLedger& ledger,
                              const Backend& backend) {
  XD_CHECK(g.num_vertices() >= 2);
  DecompositionResult out;
  out.backend = prm.backend;
  out.schedule = derive_schedule(prm, g.num_vertices(),
                                 std::max<std::size_t>(g.num_edges(), 1),
                                 std::max<std::uint64_t>(g.volume(), 1));
  out.phi_guarantee = out.schedule.phi_final();
  const std::uint64_t rounds_before = ledger.rounds();

  Driver driver{g, prm, out.schedule, std::vector<char>(g.num_edges(), 0)};
  std::vector<std::vector<VertexId>> finals;

  // Isolated vertices are their own components; everything else enters
  // Phase 1 as one part (the LDD splits disconnected inputs for free).
  std::vector<VertexId> start;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (g.degree(v) == 0) {
      finals.push_back({v});
    } else {
      start.push_back(v);
    }
  }
  // One draw seeds the driver's item streams, so back-to-back calls on the
  // same caller Rng (e.g. the triangle recursion's levels, or a caller
  // alternating backends) diverge.
  const Rng top_rng(rng());
  std::vector<WorkItem> epoch;
  if (!start.empty()) {
    epoch.push_back(
        WorkItem{WorkItem::Kind::kLdd, std::move(start), 0, 0, top_rng});
  }

  while (!epoch.empty()) {
    ++out.epochs;
    std::vector<ItemResult> results(epoch.size());
    congest::run_epoch(prm.scheduler_threads, ledger, epoch.size(),
                       [&](std::size_t i, congest::RoundLedger& lg) {
                         std::vector<VertexId> input;
                         if (backend.admit) input = epoch[i].u;
                         results[i] = backend.run_item(driver, epoch[i], lg);
                         results[i].input = std::move(input);
                       });

    // Barrier merge, in item-index order so ids, counters and the guard's
    // running total replay identically at every thread count.
    std::vector<WorkItem> next;
    for (auto& res : results) {
      if (backend.admit && !backend.admit(out.total_removed(), res)) {
        finals.push_back(std::move(res.input));
        ++out.guard_finalized;
        continue;
      }
      for (const auto& [ambient, reason] : res.removals) {
        XD_CHECK(!driver.removed[ambient]);
        driver.removed[ambient] = 1;
        ++out.removed_by[static_cast<int>(reason)];
      }
      for (auto& part : res.finals) finals.push_back(std::move(part));
      for (auto& child : res.children) next.push_back(std::move(child));
      out.sparse_cut_calls += res.sparse_cut_calls;
      out.phase2_entries += res.phase2_entries;
      out.singleton_components += res.singletons;
      out.guard_finalized += res.guard_finalized;
      out.max_phase1_depth = std::max(out.max_phase1_depth, res.depth_seen);
    }
    epoch = std::move(next);
  }

  out.rounds = ledger.rounds() - rounds_before;
  assemble_components(g, driver.removed, finals, out);
  out.removed_edge = std::move(driver.removed);
  return out;
}

}  // namespace xd::expander::detail
