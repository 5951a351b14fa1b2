#pragma once

/// \file cluster_enum.hpp
/// Clustered triangle enumeration (Chang–Pettie–Zhang, as used in §3).
///
/// For a cluster V_i of the expander decomposition, let
/// E_i = E(V_i) ∪ ∂(V_i) (every edge with at least one endpoint in V_i).
/// Any triangle that is not entirely inter-cluster has some edge {u, v}
/// inside a cluster, and then all three of its edges lie in that cluster's
/// E_i -- so enumerating all triangles within each E_i covers everything
/// except triangles whose three edges are all in E* (the inter-cluster
/// set), which the driver recurses on.
///
/// Within the cluster the work is a degree-weighted DLP join: endpoints of
/// E_i are hashed into p = ⌈n^{1/3}⌉ groups, one virtual proxy per sorted
/// group triple is hosted round-robin on V_i's vertices, each edge travels
/// to the p proxies whose triple contains its group pair, and each proxy
/// joins its buckets.  All traffic moves through the cluster's expander
/// Router (each vertex sources/sinks O(deg) messages per routing query, so
/// the batch needs Õ(n^{1/3}) queries -- Theorem 2's budget).
///
/// Data plane (docs/triangle.md): proxies are identified by the O(1)
/// combinatorial rank of their sorted triple (triple_rank.hpp), the
/// cluster's edges are grouped once by group pair, and each non-empty
/// bucket is merged from its pairs' lists and joined right away on the
/// hybrid intersection kernels (bucket_join.hpp).  All ambient-sized
/// scratch is epoch-stamped and reused across clusters and levels
/// (TriangleScratch).  Tests check it against triangles_exact
/// (graph/metrics.hpp) on the cluster's edge set.

#include <cstdint>
#include <vector>

#include "congest/ledger.hpp"
#include "graph/graph.hpp"
#include "routing/router.hpp"
#include "triangle/bucket_join.hpp"
#include "triangle/clique_dlp.hpp"
#include "util/rng.hpp"
#include "util/scratch.hpp"

namespace xd::triangle {

/// Per-thread reusable storage for the flat cluster data plane.  One
/// instance serves every cluster and level a thread processes: the
/// ambient-indexed map is stamped (O(1) logical clears, util/scratch.hpp)
/// and the flat buffers keep their capacity, so the steady state performs
/// zero per-cluster O(n) allocations (pinned by a regression test).
struct TriangleScratch {
  /// Ambient -> cluster-local vertex id; contains(v) doubles as the
  /// in-cluster flag.  Callers stamp a fresh epoch and fill it with the
  /// cluster's members before enumerate_cluster.
  util::StampedMap<VertexId> to_local;
  std::vector<std::uint64_t> edges;  ///< the cluster's packed plane edges
  std::vector<routing::Demand> demands;
  JoinScratch join;

  /// The calling thread's arena.  Scheduler work items are thread-disjoint
  /// (scheduler.hpp), so per-thread reuse is race-free at any thread count.
  static TriangleScratch& for_thread();
};

/// Enumerates every triangle of `ambient` whose three edges all lie in
/// `edge_ids` (the cluster's E_i).  `scratch.to_local` must hold exactly
/// the cluster's members, mapped to their positions in `cluster_vertices`.
///
/// \param groups  per-vertex group id in [0, p); the driver samples one
///                assignment per recursion level and shares it across
///                clusters
/// \param p       group count (⌈n^{1/3}⌉ at the top level)
/// \param router  preprocessed Router over the cluster subgraph
std::vector<Triangle> enumerate_cluster(
    const Graph& ambient, const std::vector<EdgeId>& edge_ids,
    const std::vector<std::uint32_t>& groups, std::uint32_t p,
    routing::Router& router, const std::vector<VertexId>& cluster_vertices,
    TriangleScratch& scratch);

}  // namespace xd::triangle
