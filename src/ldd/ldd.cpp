#include "ldd/ldd.hpp"

#include <algorithm>

#include "graph/graph_view.hpp"
#include "graph/metrics.hpp"
#include "graph/subgraph.hpp"
#include "graph/vertex_set.hpp"
#include "util/check.hpp"

namespace xd::ldd {

LddResult low_diameter_decomposition(congest::Network& net,
                                     const LddParams& prm) {
  const Graph& g = net.graph();
  const std::size_t n = g.num_vertices();
  LddResult out;
  const std::uint64_t rounds_before = net.ledger().rounds();

  // Theorem 4 proof: run Lemma 13's pipeline at β' = β/3 so its 3β' bound
  // lands at the advertised β.
  const double beta_run = prm.beta / 3.0;

  if (prm.use_guard) {
    out.guard = build_vd_vs(g, beta_run, prm.K, net.ledger());
  } else {
    out.guard.in_vd.assign(n, 0);
  }

  out.clustering = mpx_clustering(net, beta_run, "LDD/mpx");

  // Cut rule: inter-cluster edges with an endpoint in V_S.
  out.cut_edge.assign(g.num_edges(), 0);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.edge(e);
    if (u == v) continue;
    if (out.clustering.center[u] == out.clustering.center[v]) continue;
    if (out.guard.in_vd[u] && out.guard.in_vd[v]) continue;
    out.cut_edge[e] = 1;
    ++out.num_cut_edges;
  }

  // Final components: connectivity after removing the cut edges -- on a
  // zero-copy overlay where cut edges read as loops, instead of rebuilding
  // the remainder CSR.
  auto [comp, count] = connected_components(GraphView(
      g, &out.cut_edge, VertexSet::all(n)));
  out.component = std::move(comp);
  out.num_components = count;
  out.rounds = net.ledger().rounds() - rounds_before;
  return out;
}

std::uint32_t max_component_diameter(const Graph& g, const LddResult& result) {
  // Components must be measured with the cut edges gone; per-component
  // overlay views (cut edges masked to loops, BFS ignores loops) replace
  // the remainder rebuild + per-component induced subgraphs.
  std::vector<std::vector<VertexId>> members(result.num_components);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    members[result.component[v]].push_back(v);
  }
  std::uint32_t worst = 0;
  for (auto& ids : members) {
    if (ids.size() < 2) continue;
    const GraphView view(g, &result.cut_edge, VertexSet(std::move(ids)));
    worst = std::max(worst, diameter_double_sweep(view));
  }
  return worst;
}

}  // namespace xd::ldd
