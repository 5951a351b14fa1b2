#include "triangle/cluster_enum.hpp"

#include <algorithm>
#include <span>

#include "congest/scheduler.hpp"
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
  const auto ship = [&](EdgeId e, auto&& on_edge, auto&& on_demand) {
    const auto [u, v] = ambient.edge(e);
    if (u == v) return;
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
    on_edge(pack_edge(u, v));
    // The p ranks over {gu, gv, c} are pairwise distinct and already
    // ascending in c (raising one element of a multiset raises its sorted
    // vector pointwise), so each edge's demands leave in triple order.
    for (std::uint32_t c = 0; c < p; ++c) {
      const std::uint64_t r = ranker.rank(gu, gv, c);
      const VertexId host = cluster_vertices[r % cluster_vertices.size()];
      if (host != knower) on_demand(knower, host);
    }
  };

  // Nested chunks by edge range: a counting pass sizes every chunk's
  // share of both streams, and the fill pass writes each share in place,
  // so the streams are the sequential ones at any width, with no second
  // copy of the demand stream.
  constexpr std::size_t kEdgeGrain = 2048;
  const std::size_t chunks = (edge_ids.size() + kEdgeGrain - 1) / kEdgeGrain;
  const std::uint64_t work = std::uint64_t{p} * edge_ids.size();
  const auto chunk_edges = [&](std::size_t c) {
    const std::size_t lo = c * kEdgeGrain;
    return std::span(edge_ids).subspan(
        lo, std::min(kEdgeGrain, edge_ids.size() - lo));
  };
  std::vector<std::size_t> edge_at(chunks + 1, 0);
  std::vector<std::size_t> demand_at(chunks + 1, 0);
  congest::parallel_chunks(chunks, work, [&](std::size_t c) {
    std::size_t num_edges = 0;
    std::size_t num_demands = 0;
    for (const EdgeId e : chunk_edges(c)) {
      ship(e, [&](std::uint64_t) { ++num_edges; },
           [&](VertexId, VertexId) { ++num_demands; });
    }
    edge_at[c + 1] = num_edges;
    demand_at[c + 1] = num_demands;
  });
  for (std::size_t c = 0; c < chunks; ++c) {
    edge_at[c + 1] += edge_at[c];
    demand_at[c + 1] += demand_at[c];
  }
  auto& edges = scratch.edges;
  auto& demands = scratch.demands;
  edges.resize(edge_at[chunks]);
  demands.resize(demand_at[chunks]);
  congest::parallel_chunks(chunks, work, [&](std::size_t c) {
    std::uint64_t* edge_out = edges.data() + edge_at[c];
    routing::Demand* demand_out = demands.data() + demand_at[c];
    for (const EdgeId e : chunk_edges(c)) {
      ship(e, [&](std::uint64_t packed) { *edge_out++ = packed; },
           [&](VertexId knower, VertexId host) {
             *demand_out++ =
                 routing::Demand{to_local.at(knower), to_local.at(host), 1};
           });
    }
  });
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
