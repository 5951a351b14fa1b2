#include "spectral/mixing.hpp"

#include <algorithm>
#include <cmath>

#include "congest/scheduler.hpp"
#include "spectral/lazy_walk.hpp"
#include "util/check.hpp"

namespace xd::spectral {

namespace {

/// Vertex chunk boundaries {0, ..., n} for the power loop: each chunk
/// holds about 2^14 adjacency slots, so the cuts depend on g alone.
std::vector<VertexId> chunk_bounds(const Graph& g) {
  constexpr std::uint32_t kChunkSlots = 1u << 14;
  const auto n = static_cast<VertexId>(g.num_vertices());
  std::vector<VertexId> bounds{0};
  std::uint32_t next_cut = kChunkSlots;
  for (VertexId v = 0; v < n; ++v) {
    if (g.slot_base(v) >= next_cut) {
      bounds.push_back(v);
      next_cut = g.slot_base(v) + kChunkSlots;
    }
  }
  bounds.push_back(n);
  return bounds;
}

}  // namespace

PowerIterate lazy_power_iteration(const Graph& g, int iterations) {
  const std::size_t n = g.num_vertices();
  XD_CHECK(n >= 2);
  const double vol = static_cast<double>(g.volume());
  XD_CHECK(vol > 0);

  // Work with y = D^{-1/2} x; N = D^{-1/2} M D^{1/2} is symmetric with top
  // eigenvector proportional to D^{1/2} 1.  Deflate it and power-iterate.
  std::vector<double> top(n);
  std::vector<double> sqrt_deg(n);
  for (VertexId v = 0; v < n; ++v) {
    top[v] = std::sqrt(g.degree(v) / vol);
    sqrt_deg[v] = std::sqrt(static_cast<double>(g.degree(v)));
  }

  PowerIterate out;
  std::vector<double>& y = out.y;
  y.resize(n);
  for (VertexId v = 0; v < n; ++v) {
    // Deterministic pseudo-random start, orthogonalized below.
    y[v] = ((v * 2654435761u) % 1000) / 1000.0 - 0.5;
  }

  // Every sum below runs sequentially in index order; the per-vertex maps
  // around the SpMV run as vertex chunks (congest::parallel_chunks), so
  // the iterate is bit-identical at any nested width.
  double dot = 0;
  for (std::size_t i = 0; i < n; ++i) dot += y[i] * top[i];
  double sum_sq = 0;
  for (std::size_t i = 0; i < n; ++i) {
    y[i] -= dot * top[i];
    sum_sq += y[i] * y[i];
  }

  const auto bounds = chunk_bounds(g);
  const std::size_t chunks = bounds.size() - 1;
  const std::uint64_t work = n + g.volume();
  std::vector<double> x(n);
  std::vector<double> share(n);
  std::vector<double> next(n);
  for (int it = 0; it < iterations; ++it) {
    const double len = std::sqrt(sum_sq);
    if (len < 1e-300) {
      out.collapsed = true;
      break;
    }
    // N y: x = D^{1/2} y, x' = M x, y' = D^{-1/2} x'.
    congest::parallel_chunks(chunks, work, [&](std::size_t c) {
      for (VertexId v = bounds[c]; v < bounds[c + 1]; ++v) {
        y[v] /= len;
        x[v] = y[v] * sqrt_deg[v];
        const double deg = g.degree(v);
        share[v] = deg > 0 ? x[v] / (2.0 * deg) : 0.0;
      }
    });
    congest::parallel_chunks(chunks, work, [&](std::size_t c) {
      for (VertexId u = bounds[c]; u < bounds[c + 1]; ++u) {
        const double d = g.degree(u);
        next[u] =
            d > 0 ? gather::at(g, x.data(), share.data(), u) / sqrt_deg[u]
                  : 0.0;
      }
    });
    // Deflate, then the Rayleigh quotient and the next norm in one pass.
    dot = 0;
    for (std::size_t i = 0; i < n; ++i) dot += next[i] * top[i];
    double lambda = 0;
    sum_sq = 0;
    for (std::size_t i = 0; i < n; ++i) {
      next[i] -= dot * top[i];
      lambda += next[i] * y[i];
      sum_sq += next[i] * next[i];
    }
    out.lambda = lambda;
    std::swap(y, next);
  }
  return out;
}

double PowerIterate::lambda2() const {
  return collapsed ? 0.0 : std::clamp(lambda, 0.0, 1.0);
}

double lazy_second_eigenvalue(const Graph& g, int iterations) {
  return lazy_power_iteration(g, iterations).lambda2();
}

std::uint32_t mixing_time_simulated(const Graph& g, double eps, int starts,
                                    std::uint32_t cap) {
  const std::size_t n = g.num_vertices();
  XD_CHECK(n >= 1);
  const auto pi = stationary(g);

  // Deterministic spread of start vertices (worst-start is what matters;
  // a handful of seeds approximates it well on vertex-transitive families).
  std::vector<VertexId> start_vs;
  for (int s = 0; s < starts; ++s) {
    start_vs.push_back(static_cast<VertexId>((s * n) / static_cast<std::size_t>(starts)));
  }

  std::uint32_t worst = 0;
  for (VertexId sv : start_vs) {
    if (g.degree(sv) == 0) continue;
    std::vector<double> p(n, 0.0);
    p[sv] = 1.0;
    std::uint32_t t = 0;
    for (; t < cap; ++t) {
      double dist = 0;
      for (VertexId v = 0; v < n; ++v) {
        if (pi[v] > 0) {
          dist = std::max(dist, std::abs(p[v] - pi[v]) / pi[v]);
        }
      }
      if (dist <= eps) break;
      p = lazy_step(g, p);
    }
    worst = std::max(worst, t);
  }
  return worst;
}

std::uint32_t mixing_time_estimate(const Graph& g, double eps) {
  const double lambda2 = lazy_second_eigenvalue(g);
  const double gap = 1.0 - lambda2;
  if (gap <= 1e-12) return std::numeric_limits<std::uint32_t>::max();
  std::uint32_t deg_min = std::numeric_limits<std::uint32_t>::max();
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (g.degree(v) > 0) deg_min = std::min(deg_min, g.degree(v));
  }
  if (deg_min == std::numeric_limits<std::uint32_t>::max()) return 0;
  const double pi_min = static_cast<double>(deg_min) / static_cast<double>(g.volume());
  const double t = std::log(1.0 / (eps * pi_min)) / gap;
  return static_cast<std::uint32_t>(std::ceil(std::max(t, 1.0)));
}

}  // namespace xd::spectral
