#include "ldd/neighborhood.hpp"

#include <algorithm>
#include <cmath>
#include <deque>

#include "util/check.hpp"

namespace xd::ldd {

namespace {

/// Per-vertex capped BFS counting marked edges inside the radius-d ball.
/// Counts an edge when both endpoints are within distance d of the source.
/// Early exit once the count passes `cap`.
std::uint64_t capped_ball_count(const Graph& g, VertexId source,
                                std::uint32_t radius,
                                const std::vector<char>* in_estar,
                                std::uint64_t cap,
                                std::vector<std::uint32_t>& dist_scratch,
                                std::vector<VertexId>& touched_scratch) {
  constexpr auto kInf = std::numeric_limits<std::uint32_t>::max();
  auto& dist = dist_scratch;
  auto& touched = touched_scratch;
  touched.clear();

  std::deque<VertexId> queue;
  dist[source] = 0;
  touched.push_back(source);
  queue.push_back(source);
  std::uint64_t count = 0;

  // An edge {x, y} (x <= y in discovery order) is inside the ball iff both
  // ends are at distance <= radius.  Count when we settle the *second*
  // endpoint: when popping x, for each neighbor y already settled (dist
  // known and <= radius) count the edge once.  Loops count when their
  // vertex settles.
  while (!queue.empty() && count <= cap) {
    const VertexId x = queue.front();
    queue.pop_front();
    // Count loops at x.
    const std::uint32_t loops = g.loops_at(x);
    if (in_estar == nullptr) {
      count += loops;
    } else if (loops > 0) {
      for (std::size_t i = 0; i < g.degree(x); ++i) {
        if (g.neighbors(x)[i] == x && (*in_estar)[g.incident_edges(x)[i]]) {
          ++count;
        }
      }
    }
    auto nbrs = g.neighbors(x);
    auto eids = g.incident_edges(x);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const VertexId y = nbrs[i];
      if (y == x) continue;
      if (dist[y] != kInf) {
        // Both endpoints are in the ball; count the edge exactly once:
        // at the strictly deeper endpoint, or at the larger id on ties.
        if (dist[y] < dist[x] || (dist[y] == dist[x] && y < x)) {
          if (in_estar == nullptr || (*in_estar)[eids[i]]) ++count;
        }
        continue;
      }
      if (dist[x] < radius) {
        dist[y] = dist[x] + 1;
        touched.push_back(y);
        queue.push_back(y);
      }
    }
  }

  for (VertexId v : touched) dist[v] = kInf;
  return std::min(count, cap + 1);
}

}  // namespace

std::uint64_t ball_edge_count(const Graph& g, VertexId v, std::uint32_t radius,
                              std::uint64_t cap) {
  // One distance buffer per thread, all unreached between calls:
  // capped_ball_count resets exactly the entries it touched, so a call
  // costs the ball it explores, not n.
  thread_local std::vector<std::uint32_t> dist;
  thread_local std::vector<VertexId> touched;
  if (dist.size() < g.num_vertices()) {
    dist.resize(g.num_vertices(), std::numeric_limits<std::uint32_t>::max());
  }
  return capped_ball_count(g, v, radius, nullptr, cap, dist, touched);
}

std::vector<std::uint64_t> bounded_ball_count(const Graph& g,
                                              const std::vector<char>& in_estar,
                                              std::uint32_t d, std::uint64_t tau,
                                              congest::RoundLedger& ledger) {
  XD_CHECK(in_estar.size() == g.num_edges());
  const std::size_t n = g.num_vertices();
  std::vector<std::uint64_t> out(n, 0);
  std::vector<std::uint32_t> dist(n, std::numeric_limits<std::uint32_t>::max());
  std::vector<VertexId> touched;
  for (VertexId v = 0; v < n; ++v) {
    out[v] = capped_ball_count(g, v, d, &in_estar, tau, dist, touched);
  }
  // Lemma 14: d-1 phases, each O(τ) rounds.
  ledger.charge(std::max<std::uint64_t>(1, tau) *
                    std::max<std::uint32_t>(d, 1),
                "LDD/Lemma14-gather");
  return out;
}

std::vector<char> ball_threshold_test(const Graph& g, std::uint32_t d, double z,
                                      double f, double K, Rng& rng,
                                      congest::RoundLedger& ledger) {
  XD_CHECK(z >= 1 && f > 0 && f < 1 && K > 0);
  const std::size_t n = g.num_vertices();
  const double logn = std::log(std::max<double>(n, 2));

  std::vector<char> out(n, 0);
  if (K * logn >= f * f * z) {
    // Dense-threshold regime: exact counting with cap (1+f)z, E* = E.
    const auto tau = static_cast<std::uint64_t>(std::ceil((1.0 + f) * z));
    std::vector<char> all(g.num_edges(), 1);
    const auto counts = bounded_ball_count(g, all, d, tau, ledger);
    for (VertexId v = 0; v < n; ++v) out[v] = counts[v] <= tau ? 1 : 0;
    return out;
  }

  // Sampled regime: each edge joins E* with probability K log n / (f² z);
  // test the sampled count against τ = (1 + f/2) K log n / f².
  const double q = K * logn / (f * f * z);
  std::vector<char> estar(g.num_edges(), 0);
  for (EdgeId e = 0; e < g.num_edges(); ++e) estar[e] = rng.next_bool(q);
  const auto tau =
      static_cast<std::uint64_t>(std::ceil((1.0 + f / 2.0) * K * logn / (f * f)));
  const auto counts = bounded_ball_count(g, estar, d, tau, ledger);
  for (VertexId v = 0; v < n; ++v) out[v] = counts[v] <= tau ? 1 : 0;
  return out;
}

std::vector<double> ball_edge_estimate(const Graph& g, std::uint32_t d, double f,
                                       double K, Rng& rng,
                                       congest::RoundLedger& ledger) {
  const std::size_t n = g.num_vertices();
  const double max_m = static_cast<double>(g.num_edges());

  // Geometric ladder s_i = (1+f)^i up to |E|.  The per-vertex outputs are
  // monotone in z w.h.p. (0...0 1...1); the estimate is the smallest rung
  // whose threshold test accepts, giving |E(N^d(v))| ∈
  // [m_v/(1+f), (1+f) m_v] w.h.p.
  std::vector<double> ladder;
  for (double s = 1.0; s <= max_m * (1.0 + f); s *= (1.0 + f)) {
    ladder.push_back(s);
  }
  std::vector<double> out(n, ladder.empty() ? 0.0 : ladder.back());
  std::vector<char> done(n, 0);
  for (const double z : ladder) {
    const auto bit = ball_threshold_test(g, d, z, f, K, rng, ledger);
    bool all_done = true;
    for (VertexId v = 0; v < n; ++v) {
      if (!done[v] && bit[v]) {
        out[v] = z;
        done[v] = 1;
      }
      all_done = all_done && done[v];
    }
    if (all_done) break;
  }
  return out;
}

}  // namespace xd::ldd
