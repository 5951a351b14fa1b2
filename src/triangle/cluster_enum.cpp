#include "triangle/cluster_enum.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace xd::triangle {

TriangleScratch& TriangleScratch::for_thread() {
  thread_local TriangleScratch scratch;
  return scratch;
}

std::vector<Triangle> enumerate_cluster(
    const Graph& ambient, const std::vector<EdgeId>& edge_ids,
    const std::vector<std::uint32_t>& groups, std::uint32_t p,
    routing::Router& router, const std::vector<VertexId>& cluster_vertices,
    TriangleScratch& scratch) {
  XD_CHECK(!cluster_vertices.empty());
  XD_CHECK(p >= 1);
  const TripleRanker ranker(p);
  const auto& to_local = scratch.to_local;

  // Build demands (knower -> host, one message per shipped edge copy) and
  // the flat proxy plane.  Proxy hosts are round-robin over the cluster's
  // vertices in triple-rank order, so host lookup is index arithmetic.
  auto& edges = scratch.edges;
  auto& demands = scratch.demands;
  edges.clear();
  demands.clear();
  for (const EdgeId e : edge_ids) {
    const auto [u, v] = ambient.edge(e);
    if (u == v) continue;
    // The in-cluster endpoint knows the edge (min id if both are inside).
    VertexId knower;
    if (to_local.contains(u) && to_local.contains(v)) {
      knower = std::min(u, v);
    } else if (to_local.contains(u)) {
      knower = u;
    } else {
      XD_CHECK_MSG(to_local.contains(v), "edge " << e << " has no cluster endpoint");
      knower = v;
    }
    const std::uint32_t gu = groups[u];
    const std::uint32_t gv = groups[v];
    edges.push_back(pack_edge(u, v));
    // The p ranks over {gu, gv, c} are pairwise distinct and already
    // ascending in c (raising one element of a multiset raises its sorted
    // vector pointwise), so each edge's demands leave in triple order.
    for (std::uint32_t c = 0; c < p; ++c) {
      const std::uint64_t r = ranker.rank(gu, gv, c);
      const VertexId host = cluster_vertices[r % cluster_vertices.size()];
      if (host != knower) {
        demands.push_back(
            routing::Demand{to_local.at(knower), to_local.at(host), 1});
      }
    }
  }
  if (!demands.empty()) router.route(demands);

  // Proxy joins: the plane merges each bucket from its group-pair lists
  // and joins it (bucket_join.hpp).  The ownership rule (report only at
  // the proxy owning the triangle's group triple) keeps reports unique.
  std::vector<Triangle> out;
  join_proxy_plane(edges, ranker, groups.data(), scratch.join, out);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace xd::triangle
