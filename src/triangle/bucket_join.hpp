#pragma once

/// \file bucket_join.hpp
/// The flat proxy-bucket join shared by the clustered (cluster_enum) and
/// CONGESTED-CLIQUE (clique_dlp) triangle data planes.
///
/// Every edge copy shipped to a proxy is one (rank, u, v) tuple; one pass
/// groups the whole plane into buckets ordered by (rank, u, v) -- proxies
/// in triple order (triple_rank.hpp), edges sorted within each bucket.
/// Dense planes take an O(N + R) counting scatter over the R = C(p+2,3)
/// rank domain plus tiny per-bucket sorts; sparse planes (small clusters)
/// skip the O(R) counter clear and comparison-sort directly -- both orders
/// are identical.
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

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "triangle/clique_dlp.hpp"
#include "triangle/triple_rank.hpp"

namespace xd::triangle {

/// One shipped edge copy: proxy rank plus sorted endpoints (u < v).
struct ProxyTuple {
  std::uint64_t rank;
  VertexId u, v;

  friend bool operator<(const ProxyTuple& a, const ProxyTuple& b) {
    if (a.rank != b.rank) return a.rank < b.rank;
    if (a.u != b.u) return a.u < b.u;
    return a.v < b.v;
  }
  friend bool operator==(const ProxyTuple& a, const ProxyTuple& b) {
    return a.rank == b.rank && a.u == b.u && a.v == b.v;
  }
};

/// Reusable storage for the counting scatter.  Capacities persist across
/// buckets, clusters, and levels; nothing here is sized by the ambient
/// vertex count (the rank domain is O(p^3) = O(n) but is touched only on
/// the dense path, where the tuple plane itself is at least as large).
struct JoinScratch {
  std::vector<std::uint32_t> counts;  ///< per-rank counters / end offsets
  std::vector<ProxyTuple> scatter;    ///< counting-sort target buffer
  // Kernelized join scratch, bucket-local (capacities persist):
  std::vector<std::uint32_t> vals;       ///< the span's larger endpoints
  std::vector<std::uint32_t> run_u;      ///< distinct smaller endpoints
  std::vector<std::uint32_t> run_begin;  ///< run extents into vals,
  std::vector<std::uint32_t> run_end;    ///<   parallel to run_u
  std::vector<std::uint32_t> matches;    ///< kernel output buffer
};

/// Groups `tuples` by (rank, u, v), dedups, joins each bucket, and appends
/// every triangle x < y < z whose group triple ranks to its bucket (the
/// ownership rule that keeps reports duplicate-free across proxies).
/// `groups[v]` is the group of ambient vertex v.  Closing-edge searches run
/// on the hybrid intersection kernels; output (content and order) is
/// identical under every kernel/ISA.
void join_proxy_buckets(std::vector<ProxyTuple>& tuples,
                        const TripleRanker& ranker,
                        const std::uint32_t* groups, JoinScratch& scratch,
                        std::vector<Triangle>& out);

}  // namespace xd::triangle
