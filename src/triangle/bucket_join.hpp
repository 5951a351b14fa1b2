#pragma once

/// \file bucket_join.hpp
/// The flat proxy-bucket join shared by the clustered (cluster_enum) and
/// CONGESTED-CLIQUE (clique_dlp) triangle data planes.
///
/// Callers hand the plane one packed edge per shipped edge (pack_edge), in
/// any order and possibly repeated.  The plane sorts and dedups that list
/// once, then lays every edge copy out in bucket order -- proxies in
/// triple order (triple_rank.hpp) -- as two flat u32 endpoint arrays.
/// Dense planes group the sorted edges by unordered group pair; a bucket
/// of the R = C(p+2,3) rank domain holds exactly the edges of the (at
/// most three) pairs its triple contains, so each bucket is written, in
/// rank order, as one streaming merge of those sorted, disjoint lists:
/// sorted by (u, v) and duplicate-free with no sort of the copies.
/// Sparse planes (small clusters) skip the O(R) walk over the rank domain
/// and sort one (rank, edge index) key per copy instead -- the identical
/// order.
///
/// Each bucket then joins with zero per-bucket setup: bucket edges sharing
/// their smaller endpoint x sit consecutively (a *run*), every pair (x,y),
/// (x,z) with y < z is a wedge, and the closing edges live in the run of y
/// further down the same sorted span.  Each triangle is found exactly
/// once, at its smallest vertex.  The join routes the closing-edge
/// search through the hybrid intersection kernels (intersect.hpp): per
/// wedge source y, the x-run's tail is intersected with y's run -- merge
/// kernel for mid-size runs, an epoch-stamped bitmap of the x-run for
/// high-degree runs.  Tests check the join against triangles_exact
/// (graph/metrics.hpp).

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "triangle/clique_dlp.hpp"
#include "triangle/triple_rank.hpp"

namespace xd::triangle {

/// One plane edge: (min << 32) | max, so u64 order is (u, v) order.
inline std::uint64_t pack_edge(VertexId u, VertexId v) {
  return (static_cast<std::uint64_t>(std::min(u, v)) << 32) | std::max(u, v);
}

/// Reusable storage for the bucket layout and the join.  Capacities
/// persist across buckets, clusters, and levels; nothing here is sized by
/// the ambient vertex count (the pair tables are O(p^2), and the rank
/// domain, O(p^3) = O(n), is walked only on the dense path, where the
/// plane itself is at least a quarter as large).
struct JoinScratch {
  std::vector<std::size_t> pair_ends;     ///< dense: per-pair list ends
  std::vector<std::uint64_t> pair_edges;  ///< dense: edges grouped by pair
  std::vector<std::uint64_t> keys;        ///< sparse: (rank << 32) | edge
  /// The laid-out plane: copy t is edge (u[t], v[t]), u < v.  Non-empty
  /// bucket b holds copies [bucket_end[b-1], bucket_end[b]) (from 0 for
  /// b = 0), of proxy bucket_rank[b], sorted by (u, v) without repeats.
  std::vector<std::uint32_t> u, v;
  std::vector<std::uint32_t> bucket_rank, bucket_end;
  // Kernelized join scratch, bucket-local (capacities persist):
  std::vector<std::uint32_t> run_u;      ///< distinct smaller endpoints
  std::vector<std::uint32_t> run_begin;  ///< run extents into the span,
  std::vector<std::uint32_t> run_end;    ///<   parallel to run_u
  std::vector<std::uint32_t> matches;    ///< kernel output buffer
};

/// Sorts and dedups `edges` (packed by pack_edge) in place and lays out
/// every copy of every edge -- one per proxy triple containing its group
/// pair -- in scratch.u / scratch.v / bucket_rank / bucket_end.  Throws
/// CheckError, before allocating, when the copies or the rank domain do
/// not fit u32 (edges × p ≥ 2^32 or C(p+2,3) ≥ 2^32).  `groups[v]` is
/// the group of ambient vertex v.
void layout_proxy_plane(std::vector<std::uint64_t>& edges,
                        const TripleRanker& ranker,
                        const std::uint32_t* groups, JoinScratch& scratch);

/// Lays out `edges` (layout_proxy_plane), joins each bucket, and appends
/// every triangle x < y < z whose group triple ranks to its bucket (the
/// ownership rule that keeps reports duplicate-free across proxies).
/// Closing-edge searches run on the hybrid intersection kernels; output
/// (content and order) is identical under every kernel/ISA.
void join_proxy_plane(std::vector<std::uint64_t>& edges,
                      const TripleRanker& ranker, const std::uint32_t* groups,
                      JoinScratch& scratch, std::vector<Triangle>& out);

}  // namespace xd::triangle
