#include "spectral/fiedler.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "graph/metrics.hpp"
#include "spectral/sweep.hpp"
#include "util/check.hpp"

namespace xd::spectral {

std::optional<SpectralCut> fiedler_sweep(const Graph& g, int iterations) {
  if (g.num_vertices() < 2 || g.volume() == 0) return std::nullopt;
  return fiedler_sweep(g, lazy_power_iteration(g, iterations));
}

std::optional<SpectralCut> fiedler_sweep(const Graph& g,
                                         const PowerIterate& iterate) {
  const std::size_t n = g.num_vertices();
  const std::vector<double>& y = iterate.y;
  XD_CHECK(y.size() == n);

  // Fiedler embedding: f = D^{-1/2} y; sweep both directions (the vector's
  // sign is arbitrary).
  std::vector<double> f(n, 0.0);
  for (VertexId v = 0; v < n; ++v) {
    const double d = g.degree(v);
    f[v] = d > 0 ? y[v] / std::sqrt(d) : 0.0;
  }
  // Shift so all scores are positive for the sweep machinery, preserving
  // order; sweep ascending and descending by negation.
  auto shifted = [&](bool negate) {
    double lo = 0;
    std::vector<double> s(n);
    for (std::size_t i = 0; i < n; ++i) {
      s[i] = negate ? -f[i] : f[i];
      lo = std::min(lo, s[i]);
    }
    for (double& x : s) x += -lo + 1.0;
    return s;
  };

  SpectralCut best;
  best.lambda2 = iterate.lambda2();
  best.conductance = std::numeric_limits<double>::infinity();
  for (bool negate : {false, true}) {
    const Sweep sw = sweep_cut(g, shifted(negate));
    const std::size_t j = best_prefix(sw);
    if (j == 0 || j == sw.size()) continue;
    const double phi = sw.conductance(j);
    if (phi < best.conductance) {
      best.conductance = phi;
      best.cut = sw.prefix(j);
    }
  }
  if (best.cut.empty()) return std::nullopt;
  return best;
}

}  // namespace xd::spectral
