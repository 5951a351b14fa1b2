#include "triangle/clique_dlp.hpp"

#include <algorithm>
#include <cmath>

#include "triangle/bucket_join.hpp"
#include "triangle/cluster_enum.hpp"
#include "util/check.hpp"

namespace xd::triangle {

using congest::CliqueNetwork;
using congest::Message;

EnumerationResult enumerate_clique_dlp(const Graph& g,
                                       congest::RoundLedger& ledger) {
  EnumerationResult out;
  const std::size_t n = g.num_vertices();
  if (n < 3) return out;
  const std::uint64_t before = ledger.rounds();

  const auto p = static_cast<std::uint32_t>(
      std::max(1.0, std::ceil(std::cbrt(static_cast<double>(n)))));
  const TripleRanker ranker(p);
  std::vector<std::uint32_t> groups(n);
  for (VertexId v = 0; v < n; ++v) {
    groups[v] =
        static_cast<std::uint32_t>(static_cast<std::uint64_t>(v) * p / n);
  }
  // Proxy host for a sorted triple: spread round-robin over the n vertices
  // in triple-rank order, i.e. host(rank) = rank mod n -- pure arithmetic,
  // no host table.

  CliqueNetwork net(n, ledger);
  auto& scratch = TriangleScratch::for_thread();
  auto& edges = scratch.edges;
  edges.clear();

  // Ship every edge (sender: min endpoint) to the proxies of every triple
  // containing its group pair; the same pass stages the edge for the local
  // bucket plane (identical to re-deriving the targets at each host -- the
  // exchange below charges the rounds for the shipped part).  Message
  // payload: endpoints packed in words[0], proxy rank in words[1].
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.edge(e);
    if (u == v) continue;
    const VertexId sender = std::min(u, v);
    const std::uint32_t gu = groups[u];
    const std::uint32_t gv = groups[v];
    edges.push_back(pack_edge(u, v));
    // Ranks over {gu, gv, c} ascend with c (multiset monotonicity), so the
    // send order matches the seed's sorted-key iteration exactly.
    for (std::uint32_t c = 0; c < p; ++c) {
      const std::uint64_t rank = ranker.rank(gu, gv, c);
      const auto host = static_cast<VertexId>(rank % n);
      if (host == sender) continue;  // local knowledge, no message needed
      net.send(sender, host,
               Message{/*tag=*/1, (static_cast<std::uint64_t>(u) << 32) | v,
                       rank});
    }
  }
  net.exchange_lenzen("DLP/ship-edges");

  // Join per proxy triple over the flat plane (bucket_join.hpp); the
  // ownership rule keeps the output duplicate-free across proxies.
  std::vector<Triangle> found;
  join_proxy_plane(edges, ranker, groups.data(), scratch.join, found);
  std::sort(found.begin(), found.end());
  found.erase(std::unique(found.begin(), found.end()), found.end());

  out.triangles = std::move(found);
  out.rounds = ledger.rounds() - before;
  return out;
}

}  // namespace xd::triangle
