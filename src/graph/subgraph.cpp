#include "graph/subgraph.hpp"

#include <algorithm>

#include "graph/graph_view.hpp"
#include "util/check.hpp"

namespace xd {

namespace {

/// The one slot loop behind every G{U} / G[U] copy: emits member v (local
/// id nv) into b in the slot-order contract of subgraph.hpp.  `local(w)`
/// is w's local id, or kAbsent when w is outside v's part.  A lost slot
/// (removed edge or outside neighbor) becomes a loop appended after v's
/// slots under kLoop and vanishes under kDrop, where the w < v half of a
/// live edge is skipped before any lookup (the twin slot at w emits it).
template <Boundary kBoundary, typename LocalOf>
void emit_vertex(const Graph& g, const std::vector<char>* removed,
                 VertexId v, VertexId nv, const LocalOf& local,
                 GraphBuilder& b, std::vector<EdgeId>& provenance) {
  const auto is_removed = [removed](EdgeId e) {
    return removed != nullptr && (*removed)[e] != 0;
  };
  const auto nbrs = g.neighbors(v);
  const auto eids = g.incident_edges(v);
  std::uint32_t lost = 0;
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    const VertexId w = nbrs[i];
    const EdgeId e = eids[i];
    if (w == v) {
      XD_CHECK_MSG(!is_removed(e),
                   "self-loops are never removed (edge " << e << ")");
      b.add_edge(nv, nv);
      provenance.push_back(e);
      continue;
    }
    if constexpr (kBoundary == Boundary::kDrop) {
      if (w < v) continue;
    }
    const VertexId lw = local(w);
    if (lw == LiveSubgraph::kAbsent || is_removed(e)) {
      ++lost;
    } else if (w > v) {
      b.add_edge(nv, lw);
      provenance.push_back(e);
    }
  }
  if constexpr (kBoundary == Boundary::kLoop) {
    b.add_loops(nv, lost);
    provenance.insert(provenance.end(), lost, LiveSubgraph::kNoEdge);
  }
}

template <Boundary kBoundary>
LiveSubgraph subgraph_impl(const Graph& g, const std::vector<char>* removed,
                           const VertexSet& u) {
  LiveSubgraph out;
  const std::size_t n = g.num_vertices();
  out.from_parent.assign(n, LiveSubgraph::kAbsent);
  out.to_parent.assign(u.begin(), u.end());
  for (VertexId nv = 0; nv < out.to_parent.size(); ++nv) {
    XD_CHECK(out.to_parent[nv] < n);
    out.from_parent[out.to_parent[nv]] = nv;
  }

  GraphBuilder b(u.size(), /*allow_parallel=*/true);
  const auto local = [&](VertexId w) { return out.from_parent[w]; };
  for (VertexId nv = 0; nv < out.to_parent.size(); ++nv) {
    emit_vertex<kBoundary>(g, removed, out.to_parent[nv], nv, local, b,
                           out.edge_to_parent);
  }
  out.graph = b.build();
  XD_CHECK(out.edge_to_parent.size() == out.graph.num_edges());
  return out;
}

}  // namespace

LiveSubgraph subgraph(const Graph& g, const std::vector<char>* removed,
                      const VertexSet& u, Boundary boundary) {
  XD_CHECK(removed == nullptr || removed->size() == g.num_edges());
  return boundary == Boundary::kLoop
             ? subgraph_impl<Boundary::kLoop>(g, removed, u)
             : subgraph_impl<Boundary::kDrop>(g, removed, u);
}

std::vector<LiveSubgraph> label_subgraphs(
    const Graph& g, const std::vector<char>& removed,
    const std::vector<std::uint32_t>& label, const std::vector<char>& wanted) {
  const std::size_t n = g.num_vertices();
  XD_CHECK(label.size() == n && removed.size() == g.num_edges());

  // Pass 1: local ids are ranks within each label, ascending by parent id,
  // as the single-part builder assigns them.
  std::vector<LiveSubgraph> parts(wanted.size());
  std::vector<VertexId> rank(n, 0);
  for (VertexId v = 0; v < n; ++v) {
    XD_CHECK(label[v] < wanted.size());
    if (!wanted[label[v]]) continue;
    std::vector<VertexId>& members = parts[label[v]].to_parent;
    rank[v] = static_cast<VertexId>(members.size());
    members.push_back(v);
  }

  // Pass 2: one ascending sweep feeds every part's builder in the order the
  // single-part builder visits that part's members.
  std::vector<GraphBuilder> builders;
  builders.reserve(parts.size());
  for (const LiveSubgraph& p : parts) {
    builders.emplace_back(p.to_parent.size(), /*allow_parallel=*/true);
  }
  for (VertexId v = 0; v < n; ++v) {
    const std::uint32_t c = label[v];
    if (!wanted[c]) continue;
    const auto local = [&](VertexId w) {
      return label[w] == c ? rank[w] : LiveSubgraph::kAbsent;
    };
    emit_vertex<Boundary::kLoop>(g, &removed, v, rank[v], local, builders[c],
                                 parts[c].edge_to_parent);
  }
  for (std::size_t c = 0; c < parts.size(); ++c) {
    if (wanted[c]) parts[c].graph = builders[c].build();
  }
  return parts;
}

LiveSubgraph edge_subgraph(const Graph& g, const std::vector<EdgeId>& edges) {
  LiveSubgraph out;
  out.from_parent.assign(g.num_vertices(), LiveSubgraph::kAbsent);
  out.to_parent.reserve(
      std::min<std::size_t>(2 * edges.size(), g.num_vertices()));
  out.edge_to_parent = edges;
  // One pass over the edge list: assign local ids at first sight and record
  // each edge's local endpoints for the builder.
  std::vector<std::pair<VertexId, VertexId>> local_edges;
  local_edges.reserve(edges.size());
  for (const EdgeId e : edges) {
    const auto [u, v] = g.edge(e);
    for (const VertexId x : {u, v}) {
      if (out.from_parent[x] == LiveSubgraph::kAbsent) {
        out.from_parent[x] = static_cast<VertexId>(out.to_parent.size());
        out.to_parent.push_back(x);
      }
    }
    local_edges.emplace_back(out.from_parent[u], out.from_parent[v]);
  }
  GraphBuilder b(out.to_parent.size(), /*allow_parallel=*/true);
  for (const auto& [lu, lv] : local_edges) b.add_edge(lu, lv);
  out.graph = b.build();
  return out;
}

template <GraphAccess G>
std::pair<std::vector<std::uint32_t>, std::size_t> connected_components(
    const G& g) {
  const std::size_t n = g.num_vertices();
  std::vector<std::uint32_t> comp(n, static_cast<std::uint32_t>(-1));
  std::size_t count = 0;
  std::vector<VertexId> stack;
  for (const VertexId root : g.vertices()) {
    if (comp[root] != static_cast<std::uint32_t>(-1)) continue;
    comp[root] = static_cast<std::uint32_t>(count);
    stack.push_back(root);
    while (!stack.empty()) {
      const VertexId v = stack.back();
      stack.pop_back();
      for (VertexId u : g.neighbors(v)) {
        if (comp[u] == static_cast<std::uint32_t>(-1)) {
          comp[u] = static_cast<std::uint32_t>(count);
          stack.push_back(u);
        }
      }
    }
    ++count;
  }
  return {std::move(comp), count};
}

template std::pair<std::vector<std::uint32_t>, std::size_t>
connected_components(const Graph& g);
template std::pair<std::vector<std::uint32_t>, std::size_t>
connected_components(const GraphView& g);

}  // namespace xd
