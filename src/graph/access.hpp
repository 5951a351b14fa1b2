#pragma once

/// \file access.hpp
/// The shared graph-access concept behind the zero-copy refactor.
///
/// Every local (non-Network) algorithm in the stack -- metrics, lazy walks,
/// sweep cuts, the Nibble chain, the decomposition driver's bookkeeping --
/// is templated over GraphAccess instead of taking a concrete `Graph`.  Two
/// models exist:
///
///   * `Graph`      -- the materialized CSR (graph.hpp);
///   * `GraphView`  -- a zero-copy overlay over an ambient CSR
///                     (graph_view.hpp): an active-vertex set plus a
///                     removed-edge bitmap, with the paper's G{S}
///                     loop-substitution semantics computed on the fly.
///
/// The surface is deliberately the paper's vocabulary: degrees, neighbor
/// slots (masked slots read as self-loops, so deg is invariant), volume,
/// and the |E| that counts substitution loops.  Algorithms iterate
/// `g.vertices()` (never `0..num_vertices()`) so a view can restrict the
/// ground set without renumbering, and use the `for_each_live_edge` /
/// `for_each_live_incident` hooks (duck-typed, same signature on both
/// models) when they need surviving non-loop edges with their ids.
///
/// Determinism contract: `vertices()` ascends, `neighbors(v)` follows
/// ambient slot order, and `for_each_live_edge` visits in (u ascending,
/// slot) order -- exactly the order in which the one subgraph builder
/// (subgraph.hpp) emits live edges, in both its G{U} and G[U] modes.  That
/// order-congruence is what keeps view-based and materialized runs
/// bit-identical (see docs/graph_views.md).

#include <concepts>
#include <cstdint>

#include "graph/graph.hpp"

namespace xd {

template <typename G>
concept GraphAccess = requires(const G& g, VertexId v) {
  { g.num_vertices() } -> std::convertible_to<std::size_t>;
  { g.num_edges() } -> std::convertible_to<std::size_t>;
  { g.num_nonloop_edges() } -> std::convertible_to<std::size_t>;
  { g.num_loops() } -> std::convertible_to<std::size_t>;
  { g.degree(v) } -> std::convertible_to<std::uint32_t>;
  { g.loops_at(v) } -> std::convertible_to<std::uint32_t>;
  { g.volume() } -> std::convertible_to<std::uint64_t>;
  { *g.vertices().begin() } -> std::convertible_to<VertexId>;
  { *g.neighbors(v).begin() } -> std::convertible_to<VertexId>;
};

static_assert(GraphAccess<Graph>);

}  // namespace xd
