#pragma once

/// \file graph.hpp
/// Immutable CSR graph with the paper's self-loop semantics.
///
/// The decomposition algorithms of Chang & Saranurak never let a vertex's
/// degree change: whenever an edge {u, v} is removed, a self-loop is added at
/// both u and v, and `G{S}` denotes the induced subgraph G[S] plus one
/// self-loop per lost edge.  Following the paper (and Spielman–Srivastava),
/// **each self-loop contributes exactly 1 to deg(v)** and occupies one
/// adjacency slot whose neighbor is the vertex itself.

#include <cstdint>
#include <ranges>
#include <span>
#include <vector>

namespace xd {

/// Vertex identifier: dense, 0-based.
using VertexId = std::uint32_t;
/// Undirected edge identifier: dense, 0-based; self-loops get ids too.
using EdgeId = std::uint32_t;

class GraphBuilder;

/// Immutable undirected graph in CSR form.  Self-loops allowed (multiple per
/// vertex); parallel non-loop edges are rejected at build time.
///
/// Invariants:
///  * deg(v) == number of adjacency slots of v; a self-loop is one slot.
///  * Every non-loop edge {u,v} appears in both endpoint lists with the same
///    EdgeId; a self-loop appears once.
///  * volume(V) == 2 * (non-loop edge count) + (loop count).
class Graph {
 public:
  Graph() = default;

  [[nodiscard]] std::size_t num_vertices() const { return offsets_.empty() ? 0 : offsets_.size() - 1; }

  /// All vertex ids {0, ..., n-1} in ascending order.  This is the
  /// GraphAccess iteration surface (access.hpp): algorithms loop over
  /// `vertices()` instead of `[0, num_vertices())` so a GraphView can
  /// substitute its active subset without renumbering.
  [[nodiscard]] auto vertices() const {
    return std::views::iota(VertexId{0}, static_cast<VertexId>(num_vertices()));
  }
  /// Total undirected edges, self-loops included (the paper's |E|).
  [[nodiscard]] std::size_t num_edges() const { return num_edges_; }
  /// Undirected non-loop edges only.
  [[nodiscard]] std::size_t num_nonloop_edges() const { return num_edges_ - num_loops_; }
  [[nodiscard]] std::size_t num_loops() const { return num_loops_; }

  /// deg(v): adjacency slots, self-loops counted once each.
  [[nodiscard]] std::uint32_t degree(VertexId v) const {
    return offsets_[v + 1] - offsets_[v];
  }

  /// Neighbor list of v (self-loops show up as v itself).
  [[nodiscard]] std::span<const VertexId> neighbors(VertexId v) const {
    return {neighbors_.data() + offsets_[v], degree(v)};
  }

  /// v's neighbors in ascending id order (parallel edges and loops
  /// repeat): the neighbor-sorted slot index behind slot_of.  Exactly
  /// deg(v) entries, the multiset of neighbors(v).
  [[nodiscard]] std::span<const VertexId> sorted_neighbors(VertexId v) const {
    return {sorted_nbrs_.data() + offsets_[v], degree(v)};
  }

  /// Edge ids parallel to neighbors(v).
  [[nodiscard]] std::span<const EdgeId> incident_edges(VertexId v) const {
    return {edge_ids_.data() + offsets_[v], degree(v)};
  }

  /// Global index of v's first adjacency slot; slot_base(v) + slot uniquely
  /// identifies a *directed* edge use (what the congestion accounting keys
  /// on).  Total slots == slot_base(n) == volume() - num_loops().
  [[nodiscard]] std::uint32_t slot_base(VertexId v) const { return offsets_[v]; }

  /// Sentinel returned by slot_of when {u, v} is not an edge.
  static constexpr std::uint32_t kNoSlot = static_cast<std::uint32_t>(-1);

  /// Adjacency slot of neighbor `v` at vertex `u` (u != v), or kNoSlot.
  /// O(log deg(u)) binary search over the per-vertex neighbor-sorted slot
  /// index built at construction; with parallel edges the smallest matching
  /// slot is returned (the same slot a linear scan would find first).
  /// If `probes` is non-null it is incremented once per search step, so
  /// callers can assert work bounds (see the star-broadcast regression
  /// test).
  [[nodiscard]] std::uint32_t slot_of(VertexId u, VertexId v,
                                      std::uint64_t* probes = nullptr) const;

  /// Receiver of global directed slot s: the neighbor that slot points at.
  [[nodiscard]] VertexId slot_target(std::uint32_t s) const {
    return neighbors_[s];
  }

  /// The directed slots that deliver INTO v -- the mirror of each of v's
  /// adjacency slots (a self-loop slot mirrors itself) -- in ascending
  /// order.  Exactly deg(v) entries, sharing offsets with neighbors(v).
  /// This is what lets the round engine build CSR inboxes by counting
  /// passes alone (no per-round sort): traffic grouped by directed slot is
  /// already grouped by receiver through this index.
  [[nodiscard]] std::span<const std::uint32_t> incoming_slots(VertexId v) const {
    return {incoming_slots_.data() + offsets_[v], degree(v)};
  }

  /// Number of self-loop slots at v.
  [[nodiscard]] std::uint32_t loops_at(VertexId v) const;

  /// Endpoints of an edge; for a self-loop both are equal.
  [[nodiscard]] std::pair<VertexId, VertexId> edge(EdgeId e) const {
    return {edge_u_[e], edge_v_[e]};
  }
  [[nodiscard]] bool is_loop(EdgeId e) const { return edge_u_[e] == edge_v_[e]; }

  /// Sum of degrees over all vertices (the paper's Vol(V)); one adjacency
  /// slot per degree unit, so this is exactly the slot count.
  [[nodiscard]] std::uint64_t volume() const { return neighbors_.size(); }

  /// True if {u, v} (u != v) is an edge.  O(log min degree) binary search
  /// over the sorted-neighbor index (shares the slot_of helper).
  [[nodiscard]] bool has_edge(VertexId u, VertexId v) const;

  /// Visits every non-loop edge exactly once as fn(edge id, u, v) with
  /// u < v, in (u ascending, slot) order -- the order in which the
  /// materializing subgraph constructors emit surviving edges, which is what
  /// lets view-based consumers replay materialized edge processing
  /// bit-for-bit.  GraphView provides the same hook over its live slots.
  template <typename Fn>
  void for_each_live_edge(Fn&& fn) const {
    for (VertexId u = 0; u < num_vertices(); ++u) {
      const auto nbrs = neighbors(u);
      const auto eids = incident_edges(u);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        if (nbrs[i] > u) fn(eids[i], u, nbrs[i]);
      }
    }
  }

  /// Visits v's non-loop incident edges as fn(edge id, neighbor) in slot
  /// order.  (A GraphView additionally skips masked slots -- they read as
  /// self-loops there.)
  template <typename Fn>
  void for_each_live_incident(VertexId v, Fn&& fn) const {
    const auto nbrs = neighbors(v);
    const auto eids = incident_edges(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (nbrs[i] != v) fn(eids[i], nbrs[i]);
    }
  }

  /// Maximum degree.
  [[nodiscard]] std::uint32_t max_degree() const;

 private:
  friend class GraphBuilder;

  std::vector<std::uint32_t> offsets_;   ///< size n+1
  std::vector<VertexId> neighbors_;      ///< one entry per slot; loop -> self
  std::vector<EdgeId> edge_ids_;         ///< parallel to neighbors_
  /// Neighbor->slot index: per vertex, its slots permuted so the neighbor
  /// ids are ascending (ties by slot).  sorted_nbrs_ holds the reordered
  /// neighbor ids, sorted_slots_ the matching local slot numbers.  Shares
  /// offsets_ with the adjacency arrays.
  std::vector<VertexId> sorted_nbrs_;
  std::vector<std::uint32_t> sorted_slots_;
  /// Per vertex: ascending directed slots delivering into it (see
  /// incoming_slots()).  Shares offsets_.
  std::vector<std::uint32_t> incoming_slots_;
  std::vector<VertexId> edge_u_, edge_v_;  ///< size num_edges_
  std::size_t num_edges_ = 0;
  std::size_t num_loops_ = 0;
};

/// Accumulates edges, then produces an immutable Graph.
class GraphBuilder {
 public:
  /// \param n          number of vertices (fixed up front)
  /// \param allow_parallel  if false (default) duplicate non-loop edges throw
  explicit GraphBuilder(std::size_t n, bool allow_parallel = false);

  /// Adds undirected edge {u, v}; u == v adds a self-loop (repeatable).
  GraphBuilder& add_edge(VertexId u, VertexId v);

  /// Pre-sizes the edge accumulators (bulk loaders know m up front).
  GraphBuilder& reserve(std::size_t num_edges) {
    us_.reserve(num_edges);
    vs_.reserve(num_edges);
    return *this;
  }

  /// Adds `count` self-loops at v.
  GraphBuilder& add_loops(VertexId v, std::uint32_t count);

  [[nodiscard]] std::size_t num_vertices() const { return n_; }
  [[nodiscard]] std::size_t num_edges() const { return us_.size(); }

  /// Finalizes into CSR form.  The builder may be reused afterwards (edges
  /// are retained).
  [[nodiscard]] Graph build() const;

  /// Process-wide count of build() calls (thread-safe, monotone).  A test
  /// hook: paths that promise to stay view-only (no intermediate CSR
  /// materialization) assert this does not advance across them.
  [[nodiscard]] static std::uint64_t total_builds();

 private:
  std::size_t n_;
  bool allow_parallel_;
  std::vector<VertexId> us_, vs_;
};

}  // namespace xd
