#pragma once

/// \file bucket_join.hpp
/// The flat proxy-bucket join shared by the clustered (cluster_enum) and
/// CONGESTED-CLIQUE (clique_dlp) triangle data planes.
///
/// Callers hand the plane one packed edge per shipped edge (pack_edge), in
/// any order and possibly repeated.  The plane sorts and dedups that list
/// once and groups it by unordered group pair.  The bucket of sorted
/// triple a <= b <= c (one proxy, triple_rank.hpp) holds exactly the edges
/// of the (at most three) pairs its triple contains, so each non-empty
/// bucket is one streaming merge of those sorted, disjoint lists -- sorted
/// by (u, v) and duplicate-free with no sort of the copies -- into the
/// executing thread's bucket-sized scratch, joined right away.  The walk
/// starts from the non-empty pairs only, so a plane costs O(p^2 + copies)
/// and never walks the whole rank domain R = C(p+2,3).
///
/// Each bucket joins with zero per-bucket setup: bucket edges sharing
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

/// Reusable storage for the plane.  Capacities persist across clusters and
/// levels; nothing here is sized by the ambient vertex count (the pair
/// tables are O(p^2)).
struct JoinScratch {
  std::vector<std::size_t> pair_ends;     ///< per-pair list ends
  std::vector<std::uint64_t> pair_edges;  ///< edges grouped by pair
};

/// Per-thread storage for the bucket being joined.  Each thread that runs
/// a chunk of the bucket walk uses its own; capacities persist across
/// buckets, clusters and levels.
struct BucketScratch {
  /// The bucket: copy t is edge (u[t], v[t]), u < v, sorted by (u, v)
  /// without repeats.  Sized to the largest bucket so far.
  std::vector<std::uint32_t> u, v;
  // Kernelized join scratch, bucket-local:
  std::vector<std::uint32_t> run_u;      ///< distinct smaller endpoints
  std::vector<std::uint32_t> run_begin;  ///< run extents into the span,
  std::vector<std::uint32_t> run_end;    ///<   parallel to run_u
  std::vector<std::uint32_t> matches;    ///< kernel output buffer

  /// The calling thread's buffers.
  static BucketScratch& for_thread();
};

/// Sorts and dedups `edges` (packed by pack_edge) in place, joins every
/// non-empty proxy bucket -- each edge reaches the p triples containing
/// its group pair -- and appends every triangle x < y < z whose group
/// triple ranks to its bucket (the ownership rule that keeps reports
/// duplicate-free across proxies).  Buckets are visited in no promised
/// order; callers sort.  The walk runs as nested chunks
/// (congest::parallel_chunks) over contiguous ranges of its first pair
/// group, cut by copy weight; the chunks' triangles are appended in chunk
/// order, so the output is identical at any nested width.  Closing-edge
/// searches run on the hybrid intersection kernels; the triangles
/// reported are identical under every kernel/ISA.  Throws CheckError,
/// before allocating, when the plane has 2^32 copies or more (edges × p)
/// or the rank domain C(p+2,3) has 2^32 triples or more.  `groups[v]` is
/// the group of ambient vertex v.
void join_proxy_plane(std::vector<std::uint64_t>& edges,
                      const TripleRanker& ranker, const std::uint32_t* groups,
                      JoinScratch& scratch, std::vector<Triangle>& out);

}  // namespace xd::triangle
