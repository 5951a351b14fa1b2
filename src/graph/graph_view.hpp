#pragma once

/// \file graph_view.hpp
/// Zero-copy G{U} overlays: the decomposition's working graph without the
/// per-level CSR rebuild.
///
/// The Chang–Saranurak discipline never changes a vertex's degree: a
/// removed edge leaves a self-loop at both endpoints, and G{U} replaces
/// each boundary edge of U by a self-loop.  A GraphView exploits exactly
/// that invariant: it keeps the *ambient* CSR untouched and overlays
///
///   * an active-vertex set U (sorted ambient ids + membership bitmap), and
///   * an optional removed-edge bitmap indexed by ambient EdgeId,
///
/// and computes the loop substitution on the fly -- a *masked* slot (edge
/// removed, or neighbor outside U) simply reads as a self-loop at its
/// owner.  Degrees, slot counts, and therefore all volumes match the
/// ambient graph by construction; no neighbor array is rewritten, no
/// sorted-neighbor index rebuilt, no edge table copied.
///
/// Vertex and edge ids are ambient ids throughout -- there is no
/// renumbering, so results (cuts, components, removals) need no provenance
/// mapping back.  Construction costs one O(Vol(U)) scan (for the edge
/// counts) plus an O(n)-byte bitmap; compare O(Vol · log deg) allocation
/// and sorting for a materialized copy.
///
/// Materialization still exists, but only where a dense renumbering
/// genuinely pays for itself -- the CONGEST Network / engine boundary and
/// the routing structures -- via explicit materialize() (G{U}, loop
/// substitution) or materialize_induced() (plain G[U]).  Both are the one
/// subgraph builder of subgraph.hpp run on the view's overlay, so they
/// return its provenance-carrying LiveSubgraph in its slot order.
///
/// Lifetimes: a view *borrows* its ambient graph, its removed overlay, and
/// nothing else; both must outlive the view (the CI AddressSanitizer job
/// exists to catch violations).  Mutating the removed overlay invalidates
/// the view's cached edge counts -- build a fresh view instead.

#include <cstdint>
#include <span>
#include <vector>

#include "graph/access.hpp"
#include "graph/graph.hpp"
#include "graph/subgraph.hpp"
#include "graph/vertex_set.hpp"

namespace xd {

class GraphView {
 public:
  GraphView() = default;

  /// Whole-graph view: every vertex active, nothing removed.
  explicit GraphView(const Graph& ambient)
      : GraphView(ambient, nullptr, VertexSet::all(ambient.num_vertices())) {}

  /// G{U} of (ambient minus removed).  `removed` is indexed by ambient
  /// EdgeId (nullptr = no removals; ambient self-loops must never be
  /// flagged); `u` holds ambient vertex ids.
  GraphView(const Graph& ambient, const std::vector<char>* removed,
            VertexSet u);

  [[nodiscard]] const Graph& ambient() const { return *g_; }
  [[nodiscard]] const std::vector<char>* removed_overlay() const {
    return removed_;
  }

  /// Ambient id-space size (arrays indexed by VertexId use this), NOT the
  /// active count -- see num_active().
  [[nodiscard]] std::size_t num_vertices() const { return g_->num_vertices(); }
  [[nodiscard]] std::size_t num_active() const { return active_.size(); }

  /// The active vertices, ascending.
  [[nodiscard]] std::span<const VertexId> vertices() const {
    return active_.ids();
  }
  [[nodiscard]] const VertexSet& active_set() const { return active_; }
  [[nodiscard]] bool active(VertexId v) const { return mask_[v] != 0; }

  /// deg_{G{U}}(v) == deg_ambient(v) for active v (the paper's invariant);
  /// 0 for inactive v, so degree-weighted scans over the ambient id space
  /// skip them naturally.
  [[nodiscard]] std::uint32_t degree(VertexId v) const {
    return mask_[v] ? g_->degree(v) : 0;
  }

  /// Vol(U) under ambient degrees (== the materialized G{U} volume).
  [[nodiscard]] std::uint64_t volume() const { return volume_; }

  /// The paper's |E| of G{U}: surviving non-loop edges + ambient loops of
  /// active vertices + one substitution loop per masked slot.
  [[nodiscard]] std::size_t num_edges() const {
    return static_cast<std::size_t>(volume_) - live_nonloop_;
  }
  [[nodiscard]] std::size_t num_nonloop_edges() const { return live_nonloop_; }
  [[nodiscard]] std::size_t num_loops() const {
    return num_edges() - live_nonloop_;
  }

  /// Loop slots at v under substitution (ambient loops + masked slots).
  /// O(deg v), like Graph::loops_at.
  [[nodiscard]] std::uint32_t loops_at(VertexId v) const;

  /// Lazily-masked neighbor list of v in ambient slot order: a masked slot
  /// yields v itself (the substitution loop), a live slot yields the
  /// ambient neighbor.  Empty for inactive v.
  class NeighborRange;
  [[nodiscard]] NeighborRange neighbors(VertexId v) const;

  /// Visits every surviving non-loop edge once as fn(ambient edge id, u, v)
  /// with u < v, in (u ascending, slot) order -- the same sequence in which
  /// a materialized G{U} numbers its non-loop edges.
  template <typename Fn>
  void for_each_live_edge(Fn&& fn) const {
    for (const VertexId u : active_) {
      const auto nbrs = g_->neighbors(u);
      const auto eids = g_->incident_edges(u);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        const VertexId w = nbrs[i];
        if (w > u && mask_[w] && !is_removed(eids[i])) fn(eids[i], u, w);
      }
    }
  }

  /// Visits v's surviving non-loop incident edges as fn(ambient edge id,
  /// neighbor), slot order.
  template <typename Fn>
  void for_each_live_incident(VertexId v, Fn&& fn) const {
    if (!mask_[v]) return;
    const auto nbrs = g_->neighbors(v);
    const auto eids = g_->incident_edges(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const VertexId w = nbrs[i];
      if (w != v && mask_[w] && !is_removed(eids[i])) fn(eids[i], w);
    }
  }

  /// Materializes G{U} as a renumbered CSR with provenance maps: the one
  /// subgraph builder (subgraph.hpp) over this view's overlay, so it *is*
  /// live_subgraph(ambient, removed, U).  The *only* sanctioned copy points
  /// are the Network/engine boundary (a dense renumbering pays for itself
  /// there) and sub-n oracle math.
  [[nodiscard]] LiveSubgraph materialize() const {
    return subgraph(*g_, removed_, active_, Boundary::kLoop);
  }

  /// Materializes the plain induced G[U]: masked slots are dropped instead
  /// of looped (boundary degrees shrink); induced_subgraph(ambient, U) when
  /// the view has no removed overlay.  Routing structures want this
  /// topology.
  [[nodiscard]] LiveSubgraph materialize_induced() const {
    return subgraph(*g_, removed_, active_, Boundary::kDrop);
  }

  /// Narrowed view over the same ambient graph and overlay; `u` must be a
  /// subset of this view's active set (ambient ids).
  [[nodiscard]] GraphView restricted(VertexSet u) const {
    return GraphView(*g_, removed_, std::move(u));
  }

 private:
  [[nodiscard]] bool is_removed(EdgeId e) const {
    return removed_ != nullptr && (*removed_)[e] != 0;
  }

  const Graph* g_ = nullptr;
  const std::vector<char>* removed_ = nullptr;  ///< borrowed; may be null
  VertexSet active_;
  std::vector<char> mask_;        ///< active bitmap, ambient-indexed
  std::uint64_t volume_ = 0;      ///< Σ ambient degrees over active
  std::size_t live_nonloop_ = 0;  ///< surviving non-loop edges
};

/// Lazily-masked neighbor span (see GraphView::neighbors).
class GraphView::NeighborRange {
 public:
  NeighborRange(const GraphView& view, VertexId v,
                std::span<const VertexId> nbrs, std::span<const EdgeId> eids)
      : view_(&view), v_(v), nbrs_(nbrs), eids_(eids) {}

  [[nodiscard]] std::size_t size() const { return nbrs_.size(); }

  [[nodiscard]] VertexId operator[](std::size_t i) const {
    const VertexId w = nbrs_[i];
    if (w == v_ || !view_->active(w) || view_->is_removed(eids_[i])) return v_;
    return w;
  }

  class iterator {
   public:
    using value_type = VertexId;
    using difference_type = std::ptrdiff_t;
    using iterator_category = std::input_iterator_tag;

    iterator() = default;
    iterator(const NeighborRange* r, std::size_t i) : r_(r), i_(i) {}
    VertexId operator*() const { return (*r_)[i_]; }
    iterator& operator++() {
      ++i_;
      return *this;
    }
    iterator operator++(int) {
      iterator t = *this;
      ++i_;
      return t;
    }
    friend bool operator==(const iterator& a, const iterator& b) {
      return a.r_ == b.r_ && a.i_ == b.i_;
    }

   private:
    const NeighborRange* r_ = nullptr;
    std::size_t i_ = 0;
  };

  [[nodiscard]] iterator begin() const { return {this, 0}; }
  [[nodiscard]] iterator end() const { return {this, nbrs_.size()}; }

 private:
  const GraphView* view_;
  VertexId v_;
  std::span<const VertexId> nbrs_;
  std::span<const EdgeId> eids_;
};

inline GraphView::NeighborRange GraphView::neighbors(VertexId v) const {
  if (!mask_[v]) return NeighborRange(*this, v, {}, {});
  return NeighborRange(*this, v, g_->neighbors(v), g_->incident_edges(v));
}

static_assert(GraphAccess<GraphView>);

/// The generic "G{W} of g" used by restart loops (Partition): for a Graph it
/// opens a fresh view, for a GraphView it narrows (same ambient, same
/// overlay).  Either way the result is a GraphView and no CSR is built.
[[nodiscard]] inline GraphView restrict_view(const Graph& g, VertexSet w) {
  return GraphView(g, nullptr, std::move(w));
}
[[nodiscard]] inline GraphView restrict_view(const GraphView& g, VertexSet w) {
  return g.restricted(std::move(w));
}

}  // namespace xd
