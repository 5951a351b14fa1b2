#include "spectral/mixing.hpp"

#include <algorithm>
#include <cmath>

#include "spectral/lazy_walk.hpp"
#include "util/check.hpp"

namespace xd::spectral {

PowerIterate lazy_power_iteration(const Graph& g, int iterations) {
  const std::size_t n = g.num_vertices();
  XD_CHECK(n >= 2);
  const double vol = static_cast<double>(g.volume());
  XD_CHECK(vol > 0);

  // Work with y = D^{-1/2} x; N = D^{-1/2} M D^{1/2} is symmetric with top
  // eigenvector proportional to D^{1/2} 1.  Deflate it and power-iterate.
  std::vector<double> top(n);
  for (VertexId v = 0; v < n; ++v) top[v] = std::sqrt(g.degree(v) / vol);

  PowerIterate out;
  std::vector<double>& y = out.y;
  y.resize(n);
  for (VertexId v = 0; v < n; ++v) {
    // Deterministic pseudo-random start, orthogonalized below.
    y[v] = ((v * 2654435761u) % 1000) / 1000.0 - 0.5;
  }

  auto deflate = [&](std::vector<double>& vec) {
    double dot = 0;
    for (std::size_t i = 0; i < n; ++i) dot += vec[i] * top[i];
    for (std::size_t i = 0; i < n; ++i) vec[i] -= dot * top[i];
  };
  auto norm = [&](const std::vector<double>& vec) {
    double s = 0;
    for (double x : vec) s += x * x;
    return std::sqrt(s);
  };
  // N y: x = D^{1/2} y, x' = M x, y' = D^{-1/2} x'.
  auto apply = [&](const std::vector<double>& vec) {
    std::vector<double> x(n);
    for (VertexId v = 0; v < n; ++v) {
      x[v] = vec[v] * std::sqrt(static_cast<double>(g.degree(v)));
    }
    x = lazy_step(g, x);
    for (VertexId v = 0; v < n; ++v) {
      const double d = g.degree(v);
      x[v] = d > 0 ? x[v] / std::sqrt(d) : 0.0;
    }
    return x;
  };

  deflate(y);
  for (int it = 0; it < iterations; ++it) {
    const double len = norm(y);
    if (len < 1e-300) {
      out.collapsed = true;
      break;
    }
    for (double& x : y) x /= len;
    std::vector<double> next = apply(y);
    deflate(next);
    double dot = 0;
    for (std::size_t i = 0; i < n; ++i) dot += next[i] * y[i];
    out.lambda = dot;
    y = std::move(next);
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
