#include "ldd/vdvs.hpp"

#include <algorithm>
#include <cmath>
#include <deque>

#include "graph/subgraph.hpp"
#include "ldd/neighborhood.hpp"
#include "util/check.hpp"

namespace xd::ldd {

namespace {

constexpr auto kInf = std::numeric_limits<std::uint32_t>::max();

/// Multi-source BFS distances capped at `depth`.
std::vector<std::uint32_t> multi_source_bfs(const Graph& g,
                                            const std::vector<VertexId>& sources,
                                            std::uint32_t depth) {
  std::vector<std::uint32_t> dist(g.num_vertices(), kInf);
  std::deque<VertexId> queue;
  for (VertexId s : sources) {
    if (dist[s] == kInf) {
      dist[s] = 0;
      queue.push_back(s);
    }
  }
  while (!queue.empty()) {
    const VertexId v = queue.front();
    queue.pop_front();
    if (dist[v] >= depth) continue;
    for (VertexId u : g.neighbors(v)) {
      if (u != v && dist[u] == kInf) {
        dist[u] = dist[v] + 1;
        queue.push_back(u);
      }
    }
  }
  return dist;
}

/// Components of the vertex-induced subgraph G[W] (over full-graph ids).
std::vector<std::uint32_t> components_of_mask(const Graph& g,
                                              const std::vector<char>& in_w,
                                              std::uint32_t& count_out) {
  std::vector<std::uint32_t> comp(g.num_vertices(), kInf);
  std::uint32_t count = 0;
  std::vector<VertexId> stack;
  for (VertexId root = 0; root < g.num_vertices(); ++root) {
    if (!in_w[root] || comp[root] != kInf) continue;
    comp[root] = count;
    stack.push_back(root);
    while (!stack.empty()) {
      const VertexId v = stack.back();
      stack.pop_back();
      for (VertexId u : g.neighbors(v)) {
        if (u != v && in_w[u] && comp[u] == kInf) {
          comp[u] = count;
          stack.push_back(u);
        }
      }
    }
    ++count;
  }
  count_out = count;
  return comp;
}

}  // namespace

VdVsPartition build_vd_vs(const Graph& g, double beta, double K,
                          congest::RoundLedger& ledger) {
  XD_CHECK(beta > 0 && beta < 1 && K > 0);
  const std::size_t n = g.num_vertices();
  const double logn = std::log(std::max<double>(n, 2));

  VdVsPartition out;
  out.a = static_cast<std::uint32_t>(std::ceil(5.0 * logn / beta));
  out.b = static_cast<std::uint32_t>(std::ceil(K * logn / beta));
  out.in_vd.assign(n, 0);
  if (n == 0 || g.num_edges() == 0) return out;

  // --- Auxiliary classification V = V'_D ∪ V'_S. ---
  // V'_D: |E(N^a(v))| >= |E(N^{100ab}(v))| / 2b;
  // V'_S: |E(N^a(v))| <= |E(N^{100ab}(v))| / b.
  // At our scales 100ab exceeds any graph diameter, so the big ball is the
  // whole component; we split the gap at 1.5b, which lands every vertex in
  // a side whose defining inequality it satisfies.
  std::vector<char> seed(n, 0);
  auto [comp_all, comp_count] = connected_components(g);
  std::vector<std::uint64_t> comp_edges(comp_count, 0);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    comp_edges[comp_all[g.edge(e).first]] += 1;
  }

  for (VertexId v = 0; v < n; ++v) {
    const double threshold =
        static_cast<double>(comp_edges[comp_all[v]]) / (1.5 * out.b);
    const auto cap = static_cast<std::uint64_t>(std::ceil(threshold)) + 1;
    const std::uint64_t count = ball_edge_count(g, v, out.a, cap);
    seed[v] = static_cast<double>(count) > threshold ? 1 : 0;
  }
  // Charged as the paper's auxiliary-partition cost O(ab log² n).
  ledger.charge(static_cast<std::uint64_t>(out.a) * out.b *
                    static_cast<std::uint64_t>(std::ceil(logn * logn)),
                "LDD/classify");
  for (VertexId v = 0; v < n; ++v) out.seed_vertices += seed[v];

  // --- W_0 = {u : dist(u, V'_D) <= a}. ---
  std::vector<VertexId> seeds;
  for (VertexId v = 0; v < n; ++v) {
    if (seed[v]) seeds.push_back(v);
  }
  if (seeds.empty()) return out;  // V_D empty; everything is V_S

  std::vector<char> in_w(n, 0);
  {
    const auto dist = multi_source_bfs(g, seeds, out.a);
    for (VertexId v = 0; v < n; ++v) in_w[v] = dist[v] != kInf;
  }

  // --- Merge-and-grow loop (terminates within 2b iterations, Lemma 20). ---
  for (std::uint32_t iter = 0;; ++iter) {
    XD_CHECK_MSG(iter <= 2 * out.b + 2, "V_D merge loop exceeded 2b bound");
    std::uint32_t comp_count_w = 0;
    const auto comp = components_of_mask(g, in_w, comp_count_w);
    if (comp_count_w <= 1) {
      out.merge_iterations = iter;
      break;
    }

    // Voronoi BFS to depth a from all W-components at once; an edge whose
    // endpoints carry different labels with d(x)+d(y)+1 <= a witnesses two
    // components at distance <= a.
    std::vector<std::uint32_t> dist(n, kInf);
    std::vector<std::uint32_t> label(n, kInf);
    std::deque<VertexId> queue;
    for (VertexId v = 0; v < n; ++v) {
      if (in_w[v]) {
        dist[v] = 0;
        label[v] = comp[v];
        queue.push_back(v);
      }
    }
    while (!queue.empty()) {
      const VertexId v = queue.front();
      queue.pop_front();
      if (dist[v] >= out.a) continue;
      for (VertexId u : g.neighbors(v)) {
        if (u != v && dist[u] == kInf) {
          dist[u] = dist[v] + 1;
          label[u] = label[v];
          queue.push_back(u);
        }
      }
    }

    std::vector<char> marked(comp_count_w, 0);
    bool any_marked = false;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const auto [x, y] = g.edge(e);
      if (x == y) continue;
      if (label[x] == kInf || label[y] == kInf || label[x] == label[y]) continue;
      if (dist[x] + dist[y] + 1 <= out.a) {
        marked[label[x]] = 1;
        marked[label[y]] = 1;
        any_marked = true;
      }
    }
    // Paper: each iteration costs O(ab) rounds (component id agreement +
    // a-ball growth), and there are at most 2b iterations.
    ledger.charge(static_cast<std::uint64_t>(out.a) * out.b, "LDD/merge");
    if (!any_marked) {
      out.merge_iterations = iter;
      break;
    }

    // Grow every marked component by its a-ball.
    std::vector<VertexId> grow_sources;
    for (VertexId v = 0; v < n; ++v) {
      if (in_w[v] && marked[comp[v]]) grow_sources.push_back(v);
    }
    const auto grow = multi_source_bfs(g, grow_sources, out.a);
    for (VertexId v = 0; v < n; ++v) {
      if (grow[v] != kInf) in_w[v] = 1;
    }
  }

  out.in_vd = std::move(in_w);
  return out;
}

}  // namespace xd::ldd
