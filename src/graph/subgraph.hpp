#pragma once

/// \file subgraph.hpp
/// The one subgraph builder: induced subgraphs G[S], the paper's
/// degree-preserving G{S} under an edge-removal overlay (the
/// decomposition's Remove-1/2/3 steps never change any degree), per-label
/// batches of G{S}, and edge-list subgraphs -- all returning LiveSubgraph.

#include <vector>

#include "graph/access.hpp"
#include "graph/graph.hpp"
#include "graph/vertex_set.hpp"

namespace xd {

/// A subgraph copied out of a parent graph, with its provenance: the one
/// result type of every subgraph builder below.  Local vertex ids follow
/// the builder's vertex order; local EdgeIds follow its emission order.
struct LiveSubgraph {
  Graph graph;
  std::vector<VertexId> to_parent;  ///< local -> parent vertex id
  /// parent -> local, kAbsent outside the subgraph.  Left empty by
  /// label_subgraphs (one O(n) array per part is what it avoids).
  std::vector<VertexId> from_parent;
  /// Local EdgeId -> parent EdgeId; kNoEdge for substitution loops.
  std::vector<EdgeId> edge_to_parent;

  static constexpr VertexId kAbsent = static_cast<VertexId>(-1);
  static constexpr EdgeId kNoEdge = static_cast<EdgeId>(-1);
};

/// What happens to a *lost* slot of a member vertex -- one whose edge is
/// removed, or whose neighbor lies outside the vertex set.
enum class Boundary {
  kLoop,  ///< G{U}: one substitution loop per lost slot, degrees preserved
  kDrop,  ///< G[U]: lost slots vanish, boundary degrees shrink
};

/// The single-part subgraph builder of (g minus removed) on U; `removed` is
/// indexed by g's EdgeIds (nullptr = nothing removed) and must never flag a
/// self-loop of g (CheckError in either mode).  Local ids ascend with the
/// parent ids of U.  Slot-order contract, shared by label_subgraphs and by
/// GraphView::for_each_live_edge: members in ascending order, and per
/// member v its ambient loops and its live edges {v, w} with w > v in slot
/// order, then (kLoop) its substitution loops.
LiveSubgraph subgraph(const Graph& g, const std::vector<char>* removed,
                      const VertexSet& u, Boundary boundary);

/// G{U} of (g minus removed): removed and boundary edges both become
/// self-loops, so every degree matches g (paper, §1 Terminology: "we add a
/// self loop at both u and v, and so the degree of a vertex never
/// changes").
inline LiveSubgraph live_subgraph(const Graph& g,
                                  const std::vector<char>& removed,
                                  const VertexSet& u) {
  return subgraph(g, &removed, u, Boundary::kLoop);
}

/// G[S]: induced subgraph on S; self-loops of members are kept, degrees of
/// boundary vertices shrink.
inline LiveSubgraph induced_subgraph(const Graph& g, const VertexSet& s) {
  return subgraph(g, nullptr, s, Boundary::kDrop);
}

/// G{V_c} of (g minus removed) for every label c with wanted[c], in one
/// O(n + m) pass; label[v] < wanted.size() for every vertex.  Part c equals
/// live_subgraph(g, removed, {v : label[v] == c}) bit for bit, except that
/// its from_parent stays empty; unwanted parts stay default-constructed.
std::vector<LiveSubgraph> label_subgraphs(
    const Graph& g, const std::vector<char>& removed,
    const std::vector<std::uint32_t>& label, const std::vector<char>& wanted);

/// The subgraph formed by an edge list of g: its vertices are the edges'
/// endpoints, numbered at first sight in list order, and local EdgeId i is
/// edges[i].  No slot rule applies, so no loop is substituted.
LiveSubgraph edge_subgraph(const Graph& g, const std::vector<EdgeId>& edges);

/// Connected components, treating self-loops as irrelevant.  Generic over
/// GraphAccess: on a GraphView only active vertices are labeled (inactive
/// stay at the uint32 max sentinel) and masked slots -- reading as loops --
/// are never traversed, so no remainder graph has to be materialized.
/// Returns (component id per vertex, number of components); ids are dense
/// and assigned in ascending order of each component's smallest vertex.
template <GraphAccess G>
std::pair<std::vector<std::uint32_t>, std::size_t> connected_components(
    const G& g);

}  // namespace xd
