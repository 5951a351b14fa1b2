#include "triangle/baseline_local.hpp"

#include <algorithm>

#include "triangle/intersect.hpp"
#include "util/check.hpp"

namespace xd::triangle {

void csr_triangle_join(const std::uint32_t* offsets, const VertexId* adj,
                       std::size_t n, std::vector<Triangle>& out) {
  auto& bm = intersect::BitmapIntersect::for_thread();
  std::vector<std::uint32_t> matches;
  for (VertexId v = 0; v < n; ++v) {
    const VertexId* av = adj + offsets[v];
    const std::size_t dv = offsets[v + 1] - offsets[v];
    const VertexId* av_end = av + dv;
    if (matches.size() < dv + intersect::kOutSlack) {
      matches.resize(dv + intersect::kOutSlack);
    }
    // Hub vertices build one bitmap of N(v) and probe every neighbor list
    // against it; every probed w is > u, so the match set equals the tail
    // intersection N(v) ∩ N(u) ∩ (u, ∞) exactly.
    const bool hub = intersect::use_bitmap(dv);
    if (hub) bm.build(av, dv);
    for (const VertexId* pu = av; pu != av_end; ++pu) {
      const VertexId u = *pu;
      if (u <= v) continue;
      const VertexId* bu = adj + offsets[u];
      const VertexId* bu_end = adj + offsets[u + 1];
      const VertexId* b0 = std::upper_bound(bu, bu_end, u);
      const std::size_t nb = static_cast<std::size_t>(bu_end - b0);
      if (matches.size() < nb + intersect::kOutSlack) {
        matches.resize(nb + intersect::kOutSlack);
      }
      std::size_t cnt;
      if (hub) {
        cnt = bm.probe(b0, nb, matches.data());
      } else {
        cnt = intersect::intersect_sorted(
            pu + 1, static_cast<std::size_t>(av_end - (pu + 1)), b0, nb,
            matches.data());
      }
      for (std::size_t t = 0; t < cnt; ++t) {
        out.push_back(Triangle{v, u, matches[t]});
      }
    }
  }
}

EnumerationResult enumerate_local_baseline(const Graph& g,
                                           congest::RoundLedger& ledger) {
  EnumerationResult out;
  const std::size_t n = g.num_vertices();
  if (n < 3) return out;
  const std::uint64_t before = ledger.rounds();

  // Cost: vertex v pushes deg(v) ids over each incident edge; the most
  // loaded edge carries max(deg(u), deg(v)) messages each way, so the
  // exchange completes in max-degree rounds (one bounded message per edge
  // per round).
  std::uint64_t rounds = 1;
  std::uint64_t messages = 0;
  for (VertexId v = 0; v < n; ++v) {
    const std::uint64_t d = g.degree(v);
    rounds = std::max(rounds, d);
    messages += d * d;
  }
  ledger.charge(rounds, "LocalBaseline/exchange");
  ledger.count_messages(messages);

  // Detection: v knows N(v) and N(u) for each neighbor u; triangle
  // {v, u, w} is visible at v whenever w ∈ N(v) ∩ N(u).  Flat plane: one
  // CSR of sorted, deduplicated neighbor lists (loops dropped), joined by
  // the hybrid intersection kernels (csr_triangle_join).
  std::vector<std::uint32_t> offsets(n + 1, 0);
  std::vector<VertexId> adj;
  adj.reserve(g.volume());
  std::vector<VertexId> tmp;
  for (VertexId v = 0; v < n; ++v) {
    tmp.clear();
    for (const VertexId u : g.neighbors(v)) {
      if (u != v) tmp.push_back(u);
    }
    std::sort(tmp.begin(), tmp.end());
    tmp.erase(std::unique(tmp.begin(), tmp.end()), tmp.end());
    adj.insert(adj.end(), tmp.begin(), tmp.end());
    offsets[v + 1] = static_cast<std::uint32_t>(adj.size());
  }

  // v ascending, u ascending within N(v), w ascending within the
  // intersection: triples are emitted in sorted order, and each triangle
  // v < u < w is found exactly once (via its smallest edge (v, u)), so the
  // output needs no dedup pass.
  std::vector<Triangle> found;
  csr_triangle_join(offsets.data(), adj.data(), n, found);
  out.triangles = std::move(found);
  out.rounds = ledger.rounds() - before;
  return out;
}

}  // namespace xd::triangle
