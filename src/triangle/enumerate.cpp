#include "triangle/enumerate.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "congest/network.hpp"
#include "congest/scheduler.hpp"
#include "expander/decomposition.hpp"
#include "graph/graph_view.hpp"
#include "graph/metrics.hpp"
#include "routing/hierarchical_router.hpp"
#include "routing/simulated_router.hpp"
#include "routing/tree_router.hpp"
#include "triangle/cluster_enum.hpp"
#include "util/check.hpp"

namespace xd::triangle {

namespace {

/// Safety cap on E* recursion levels.
constexpr int kMaxLevels = 40;

/// Merges a level's (unsorted concatenation of per-cluster sorted) batch
/// into the running sorted, deduplicated triangle list -- the flat
/// replacement for the seed's global std::set.
void merge_triangles(std::vector<Triangle>& found, std::vector<Triangle>& batch) {
  std::sort(batch.begin(), batch.end());
  const auto mid = static_cast<std::ptrdiff_t>(found.size());
  found.insert(found.end(), batch.begin(), batch.end());
  std::inplace_merge(found.begin(), found.begin() + mid, found.end());
  found.erase(std::unique(found.begin(), found.end()), found.end());
}

/// One cluster's share of a level: its sorted triangles and query count.
struct ClusterOut {
  std::vector<Triangle> tris;
  std::uint64_t queries = 0;
};

/// A cluster's router plus the Network it runs on (simulated backends
/// only); members destroy router-first.
struct ClusterRouter {
  std::unique_ptr<congest::Network> net;
  std::unique_ptr<routing::Router> router;
};

/// The one router-construction site of Theorem 2.  A nonzero `charged_tau`
/// forces the charged GKS model with that mixing time (tiny clusters pass
/// 1, the E* fallback its diameter); otherwise prm.backend picks, and only
/// the simulated backends draw crng() to seed their Network.
ClusterRouter make_router(const Graph& cluster, const EnumParams& prm,
                          std::uint32_t charged_tau, Rng& crng,
                          congest::RoundLedger& lg) {
  ClusterRouter r;
  if (charged_tau != 0 || prm.backend == RouterBackend::kCharged) {
    routing::HierarchicalParams hp;
    hp.depth = prm.router_depth;
    hp.tau_mix = charged_tau;
    r.router = std::make_unique<routing::HierarchicalRouter>(cluster, lg, hp);
    return r;
  }
  r.net = std::make_unique<congest::Network>(cluster, lg, crng());
  if (prm.backend == RouterBackend::kTree) {
    r.router = std::make_unique<routing::TreeRouter>(*r.net);
  } else {
    routing::SimulatedHierarchicalParams sp;
    sp.depth = prm.router_depth;
    r.router =
        std::make_unique<routing::SimulatedHierarchicalRouter>(*r.net, sp);
  }
  return r;
}

}  // namespace

expander::DecompositionParams decomposition_params(
    const EnumParams& prm, expander::DecompositionBackend backend) {
  expander::DecompositionParams d;
  d.epsilon = prm.epsilon;
  d.k = prm.k;
  d.phi0_override = prm.phi0_override;
  d.scheduler_threads = prm.scheduler_threads;
  d.backend = backend;
  return d;
}

CongestEnumResult enumerate_congest(
    const Graph& g, const EnumParams& prm, Rng& rng,
    congest::RoundLedger& ledger,
    const expander::DecompositionResult* level0) {
  XD_CHECK(prm.epsilon > 0 && prm.epsilon <= 1.0 / 6.0 + 1e-12);
  if (level0 != nullptr) {
    XD_CHECK(level0->component.size() == g.num_vertices() &&
             level0->removed_edge.size() == g.num_edges());
  }
  const expander::DecompositionParams dprm = decomposition_params(
      prm, level0 != nullptr ? level0->backend
                             : expander::DecompositionBackend::kNibble);
  CongestEnumResult out;
  const std::uint64_t before = ledger.rounds();

  const auto p_global = static_cast<std::uint32_t>(std::max(
      1.0, std::ceil(std::cbrt(static_cast<double>(g.num_vertices())))));

  std::vector<Triangle> found;  // sorted + deduplicated between levels
  std::vector<EdgeId> current;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (!g.is_loop(e)) current.push_back(e);
  }

  for (int level = 0; level < kMaxLevels && current.size() >= 3; ++level) {
    out.levels = level + 1;

    // --- 1. Expander decomposition of the surviving edges. ---
    // Level 0 is g itself: no copy, level ids are ambient ids, and the
    // decomposition draws from its own fork (or is the caller's).  Levels
    // >= 1 copy the E* subgraph and decompose it with the main stream.
    LiveSubgraph sub;
    expander::DecompositionResult own;
    const expander::DecompositionResult* decomp = level0;
    if (level > 0) {
      sub = edge_subgraph(g, current);
      own = expander_decomposition(sub.graph, dprm, rng, ledger);
      decomp = &own;
    } else if (decomp == nullptr) {
      Rng drng = rng.fork(kLevel0Stream);
      own = expander_decomposition(g, dprm, drng, ledger);
      decomp = &own;
    }
    const Graph& level_graph = level > 0 ? sub.graph : g;
    const auto to_ambient = [&](VertexId lv) {
      return level > 0 ? sub.to_parent[lv] : lv;
    };

    // Per-level random group assignment over ambient vertex ids.
    std::vector<std::uint32_t> groups(g.num_vertices(), 0);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      groups[v] = static_cast<std::uint32_t>(rng.next_below(p_global));
    }

    // --- 2+3. Per-cluster routing structure and enumeration. ---
    // Every cluster, the E* fallback included, runs this one sequence:
    // ambient->local ids in the worker thread's stamped arena (an O(1)
    // epoch bump, not two O(n) vectors per cluster), one router, its
    // preprocessing, the DLP join, and the query count.
    const auto join_cluster = [&](const Graph& cluster,
                                  const std::vector<VertexId>& ambient_members,
                                  const std::vector<EdgeId>& edges,
                                  std::uint32_t charged_tau, Rng& crng,
                                  congest::RoundLedger& lg) {
      auto& scratch = TriangleScratch::for_thread();
      scratch.to_local.begin_epoch(g.num_vertices());
      for (std::size_t i = 0; i < ambient_members.size(); ++i) {
        scratch.to_local.put(ambient_members[i], static_cast<VertexId>(i));
      }
      ClusterRouter r = make_router(cluster, prm, charged_tau, crng, lg);
      r.router->preprocess();
      ClusterOut res;
      res.tris = enumerate_cluster(g, edges, groups, p_global, *r.router,
                                   ambient_members, scratch);
      res.queries = r.router->queries();
      return res;
    };

    std::vector<std::vector<VertexId>> members(decomp->num_components);
    for (VertexId lv = 0; lv < level_graph.num_vertices(); ++lv) {
      members[decomp->component[lv]].push_back(lv);
    }
    // Cluster id per ambient vertex (kNone when not in this level's
    // subgraph).
    std::vector<std::uint32_t> cluster_of(g.num_vertices(),
                                          static_cast<std::uint32_t>(-1));
    for (VertexId lv = 0; lv < level_graph.num_vertices(); ++lv) {
      cluster_of[to_ambient(lv)] = decomp->component[lv];
    }

    // E_i lists (ambient edge ids) per cluster; an edge with endpoints in
    // two clusters joins both lists.
    std::vector<std::vector<EdgeId>> cluster_edges(decomp->num_components);
    std::vector<EdgeId> estar;
    for (const EdgeId e : current) {
      const auto [u, v] = g.edge(e);
      const std::uint32_t cu = cluster_of[u];
      const std::uint32_t cv = cluster_of[v];
      if (cu == cv) {
        cluster_edges[cu].push_back(e);
      } else {
        cluster_edges[cu].push_back(e);
        cluster_edges[cv].push_back(e);
        estar.push_back(e);
      }
    }

    // Collect the level's non-trivial clusters into one scheduler epoch.
    // Every item reads only level-shared immutable state (the level graph,
    // decomp, groups, cluster_edges) plus its own pre-split Rng, so results
    // are bit-identical whether the epoch runs sequentially or on any
    // number of host threads; outputs merge in cluster order below.
    std::vector<std::uint32_t> todo;
    for (std::uint32_t c = 0; c < decomp->num_components; ++c) {
      if (!cluster_edges[c].empty() && !members[c].empty()) todo.push_back(c);
    }
    std::vector<Rng> item_rngs;
    item_rngs.reserve(todo.size());
    for (const std::uint32_t c : todo) item_rngs.push_back(rng.fork(c));

    const auto run_cluster = [&](std::uint32_t c, Rng& crng,
                                 congest::RoundLedger& lg) {
      // Cluster slice as a zero-copy view over the level graph.  Routers
      // are the materialization boundary (they renumber densely), so the
      // CSR is still built exactly once per cluster via
      // materialize_induced(); the view contributes the edge counts that
      // pick the router.
      std::vector<VertexId> ambient_members;
      ambient_members.reserve(members[c].size());
      for (const VertexId lv : members[c]) {
        ambient_members.push_back(to_ambient(lv));
      }
      const GraphView cluster_view(level_graph, nullptr,
                                   VertexSet(members[c]));
      const LiveSubgraph cluster_sub = cluster_view.materialize_induced();
      std::uint32_t charged_tau = 0;
      if (cluster_view.num_nonloop_edges() == 0 ||
          ambient_members.size() == 1) {
        // Single vertex or edgeless cluster: its E_i edges all touch one
        // vertex, which can join them locally (deg(v) messages over its
        // own edges -- absorbed into one query charge).
        lg.charge(1, "Triangle/tiny-cluster");
        charged_tau = 1;
      }
      return join_cluster(cluster_sub.graph, ambient_members, cluster_edges[c],
                          charged_tau, crng, lg);
    };

    std::vector<ClusterOut> cluster_out(todo.size());
    congest::run_epoch(prm.scheduler_threads, ledger, todo.size(),
                       [&](std::size_t i, congest::RoundLedger& lg) {
                         cluster_out[i] =
                             run_cluster(todo[i], item_rngs[i], lg);
                       });
    // Each cluster's output is already sorted; one merge per level folds
    // them into the running list (no per-triangle std::set node churn).
    std::vector<Triangle> level_tris;
    for (std::size_t i = 0; i < todo.size(); ++i) {
      ++out.clusters_processed;
      out.router_queries += cluster_out[i].queries;
      level_tris.insert(level_tris.end(), cluster_out[i].tris.begin(),
                        cluster_out[i].tris.end());
    }
    merge_triangles(found, level_tris);

    // --- 4. Recurse on E*. ---
    if (estar.size() >= current.size()) {
      // No shrink (pathological split): finish the remainder as one
      // charged cluster, with the remainder's diameter standing in for
      // τ_mix, to guarantee termination.
      const LiveSubgraph rest = edge_subgraph(g, estar);
      ClusterOut tail = join_cluster(
          rest.graph, rest.to_parent, estar,
          std::max<std::uint32_t>(diameter_double_sweep(rest.graph), 1), rng,
          ledger);
      merge_triangles(found, tail.tris);
      out.router_queries += tail.queries;
      current.clear();
      break;
    }
    current = std::move(estar);
  }

  out.triangles = std::move(found);
  out.rounds =
      ledger.rounds() - before + (level0 != nullptr ? level0->rounds : 0);
  return out;
}

}  // namespace xd::triangle
