#include "expander/verify.hpp"

#include <algorithm>
#include <limits>

#include "graph/metrics.hpp"
#include "graph/subgraph.hpp"
#include "spectral/fiedler.hpp"
#include "spectral/mixing.hpp"
#include "util/check.hpp"

namespace xd::expander {

VerificationReport verify_decomposition(const Graph& g,
                                        const DecompositionResult& result,
                                        double epsilon, double phi) {
  VerificationReport report;
  const std::size_t n = g.num_vertices();
  XD_CHECK(result.component.size() == n);

  // (1) Partition validity.
  report.is_partition = true;
  for (VertexId v = 0; v < n; ++v) {
    if (result.component[v] >= result.num_components) {
      report.is_partition = false;
    }
  }

  // (2) Inter-component edges.
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.edge(e);
    if (u == v) continue;
    if (result.component[u] != result.component[v]) {
      ++report.inter_component_edges;
    } else if (result.removed_edge[e]) {
      ++report.internal_removed_edges;
    }
  }
  report.cut_fraction = g.num_edges() == 0
                            ? 0.0
                            : static_cast<double>(report.inter_component_edges) /
                                  static_cast<double>(g.num_edges());
  report.cut_within_epsilon = report.cut_fraction <= epsilon + 1e-12;

  // Labels outside [0, num_components) make the per-component analysis
  // below meaningless (and would index out of range); report the broken
  // partition and stop here.
  if (!report.is_partition) return report;

  // (3) Component conductance Φ(G{V_i}) on the live view (removed edges as
  // loops -- the graph the final sparse-cut call certified).
  //
  // One GraphView per component would touch O(n) state each (the full mask
  // and from_parent arrays) -- O(n · #components) total, quadratic on
  // decompositions that shatter the graph.  Instead: one O(n + m) pass
  // decides the vacuous cases from the counts, and label_subgraphs (the
  // batch entry of the one subgraph builder, graph/subgraph.hpp) copies
  // every remaining component in one adjacency sweep.  Each copy equals
  // live_subgraph on that component bit for bit -- the same slot order
  // GraphView::materialize() uses -- so the oracle inputs match the
  // per-view path exactly.
  const std::uint32_t num_comps = static_cast<std::uint32_t>(
      result.num_components);
  std::vector<ComponentQuality> quality(num_comps);
  for (VertexId v = 0; v < n; ++v) {
    ComponentQuality& q = quality[result.component[v]];
    ++q.size;
    q.volume += g.degree(v);
  }
  std::vector<std::uint64_t> live_internal(num_comps, 0);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.edge(e);
    if (u == v || result.removed_edge[e]) continue;
    if (result.component[u] == result.component[v]) {
      ++live_internal[result.component[u]];
    }
  }

  // Copies only for components that need an oracle; everything else is
  // vacuous straight from the counts.
  std::vector<char> needs_oracle(num_comps, 0);
  for (std::uint32_t c = 0; c < num_comps; ++c) {
    quality[c].id = c;
    needs_oracle[c] = quality[c].size > 1 && live_internal[c] > 0;
  }
  const std::vector<LiveSubgraph> parts = label_subgraphs(
      g, result.removed_edge, result.component, needs_oracle);

  report.min_conductance_lower = std::numeric_limits<double>::infinity();
  for (std::uint32_t c = 0; c < num_comps; ++c) {
    ComponentQuality& q = quality[c];
    if (!needs_oracle[c]) {
      // Singletons (and edgeless parts) expand vacuously.
      q.conductance_lower = std::numeric_limits<double>::infinity();
      q.conductance_upper = std::numeric_limits<double>::infinity();
      q.exact = true;
    } else {
      const Graph& live = parts[c].graph;
      if (q.size <= 14) {
        q.conductance_lower = conductance_exact(live);
        q.conductance_upper = q.conductance_lower;
        q.exact = true;
      } else {
        // One power loop feeds both ends: the Cheeger-style lower estimate
        // from its λ₂ and the sweep cut from its vector.
        const spectral::PowerIterate iterate =
            spectral::lazy_power_iteration(live);
        q.conductance_lower = std::max(0.0, 1.0 - iterate.lambda2());
        const auto sweep = spectral::fiedler_sweep(live, iterate);
        q.conductance_upper = sweep ? sweep->conductance
                                    : std::numeric_limits<double>::infinity();
        q.exact = false;
      }
    }
    report.min_conductance_lower =
        std::min(report.min_conductance_lower, q.conductance_lower);
  }
  report.components = std::move(quality);
  report.conductance_meets_phi = report.min_conductance_lower >= phi - 1e-12;
  return report;
}

}  // namespace xd::expander
