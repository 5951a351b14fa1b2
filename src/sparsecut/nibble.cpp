#include "sparsecut/nibble.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <numeric>

#include "graph/graph_view.hpp"
#include "spectral/lazy_walk.hpp"
#include "spectral/sweep.hpp"
#include "util/check.hpp"

namespace xd::sparsecut {

namespace {

using spectral::SparseDist;
using spectral::Sweep;

/// The geometric candidate sequence (j_x) of ApproximateNibble: j_1 = 1 and
/// j_i = max(j_{i-1}+1, largest j with Vol(1..j) <= (1+φ) Vol(1..j_{i-1})).
std::vector<std::size_t> candidate_sequence(const Sweep& sweep, double phi) {
  std::vector<std::size_t> js;
  const std::size_t jmax = sweep.size();
  if (jmax == 0) return js;
  js.push_back(1);
  while (js.back() != jmax) {
    const std::size_t prev = js.back();
    const double limit =
        (1.0 + phi) * static_cast<double>(sweep.prefix_volume[prev - 1]);
    // Largest j with vol <= limit (prefix volumes are increasing).
    auto it = std::upper_bound(sweep.prefix_volume.begin(),
                               sweep.prefix_volume.end(), limit,
                               [](double lim, std::uint64_t v) {
                                 return lim < static_cast<double>(v);
                               });
    const auto by_volume =
        static_cast<std::size_t>(it - sweep.prefix_volume.begin());
    js.push_back(std::max(prev + 1, by_volume));
  }
  return js;
}

struct Conditions {
  bool c1 = false;
  bool c2 = false;
  bool c3 = false;
  [[nodiscard]] bool all() const { return c1 && c2 && c3; }
};

/// Exact (C.1)-(C.3) at prefix j.
Conditions exact_conditions(const Sweep& sweep, std::size_t j,
                            const NibbleParams& prm, int b) {
  Conditions c;
  const double vol = static_cast<double>(sweep.prefix_volume[j - 1]);
  c.c1 = sweep.conductance(j) <= prm.phi;
  c.c2 = sweep.rho[j - 1] >= prm.gamma / vol;
  c.c3 = vol <= (5.0 / 6.0) * static_cast<double>(sweep.total_volume) &&
         vol >= (5.0 / 7.0) * std::ldexp(1.0, b - 1);
  return c;
}

/// Relaxed (C.1*)-(C.3*) at candidate j_x with predecessor j_{x-1}.
Conditions starred_conditions(const Sweep& sweep, std::size_t jx,
                              std::size_t jprev, const NibbleParams& prm,
                              int b) {
  Conditions c;
  const double vol = static_cast<double>(sweep.prefix_volume[jx - 1]);
  c.c1 = sweep.conductance(jx) <= prm.star_relax * prm.phi;
  c.c2 = sweep.rho[jprev - 1] >= prm.gamma / vol;
  c.c3 = vol <= (11.0 / 12.0) * static_cast<double>(sweep.total_volume) &&
         vol >= (5.0 / 7.0) * std::ldexp(1.0, b - 1);
  return c;
}

/// Relative L1 movement between consecutive truncated distributions, by a
/// deterministic two-pointer merge over the ascending supports.  The
/// accumulation order is the vertex order, so a GraphView run (ambient ids)
/// and a materialized run (local ids) sum in the same sequence -- a hash-map
/// iteration here would tie the float sum to the id *values* and break the
/// view/materialized bit-identity.
std::pair<double, double> stall_movement(const SparseDist& prev,
                                         const SparseDist& dist) {
  double moved = 0.0;
  double total = 0.0;
  std::size_t a = 0;
  std::size_t b = 0;
  while (a < prev.size() || b < dist.size()) {
    if (b == dist.size() ||
        (a < prev.size() && prev.support[a] < dist.support[b])) {
      moved += prev.mass[a];
      ++a;
    } else if (a == prev.size() || dist.support[b] < prev.support[a]) {
      moved += dist.mass[b];
      total += dist.mass[b];
      ++b;
    } else {
      moved += std::abs(dist.mass[b] - prev.mass[a]);
      total += dist.mass[b];
      ++a;
      ++b;
    }
  }
  return {moved, total};
}

template <GraphAccess G>
NibbleResult run_nibble(const G& g, VertexId v, const NibbleParams& prm,
                        int b, bool approximate) {
  XD_CHECK_MSG(b >= 1 && b <= prm.ell, "scale b=" << b << " outside [1, ℓ]");
  XD_CHECK_MSG(g.degree(v) > 0, "start vertex " << v << " is isolated");

  const double eps = prm.eps_b(b);

  NibbleResult result;
  SparseDist dist = SparseDist::point(v);
  // Every support comes out of truncated_step ascending, so `touched` stays
  // a sorted vector: each step merges its support in through `merged`.
  std::vector<VertexId> touched = dist.support;
  std::vector<VertexId> merged;
  std::vector<double> rho;
  std::vector<std::size_t> js;
  int stall_run = 0;

  for (int t = 1; t <= prm.t0; ++t) {
    for (VertexId u : dist.support) result.work_volume += g.degree(u);
    SparseDist next = spectral::truncated_step(g, dist, eps);
    result.steps_run = t;
    if (next.size() == 0) break;  // all mass truncated away
    merged.clear();
    std::set_union(touched.begin(), touched.end(), next.support.begin(),
                   next.support.end(), std::back_inserter(merged));
    touched.swap(merged);

    if (prm.stall_tolerance > 0.0) {
      const auto [moved, total] = stall_movement(dist, next);
      stall_run = (total > 0 && moved / total < prm.stall_tolerance)
                      ? stall_run + 1
                      : 0;
    }
    dist = std::move(next);

    rho.resize(dist.size());
    for (std::size_t i = 0; i < dist.size(); ++i) {
      rho[i] = dist.mass[i] / g.degree(dist.support[i]);
    }
    const Sweep sweep = spectral::sweep_support(g, dist.support, rho);
    // Exact Nibble tests every prefix 1..size; consecutive candidates take
    // the exact conditions, so it never reaches the starred ones.
    if (approximate) {
      js = candidate_sequence(sweep, prm.phi);
    } else {
      js.resize(sweep.size());
      std::iota(js.begin(), js.end(), std::size_t{1});
    }
    for (std::size_t x = 0; x < js.size(); ++x) {
      const std::size_t jx = js[x];
      ++result.sweep_candidates;
      const bool boundary = x == 0 || jx == js[x - 1] + 1;
      const Conditions c =
          boundary ? exact_conditions(sweep, jx, prm, b)
                   : starred_conditions(sweep, jx, js[x - 1], prm, b);
      if (c.all()) {
        result.cut = sweep.prefix(jx);
        result.t_used = t;
        result.j_used = jx;
        result.cut_conductance = sweep.conductance(jx);
        result.cut_volume = sweep.prefix_volume[jx - 1];
        break;
      }
    }
    if (result.found()) break;
    if (prm.stall_tolerance > 0.0 && stall_run >= prm.stall_patience) break;
  }

  result.touched = std::move(touched);
  return result;
}

}  // namespace

template <GraphAccess G>
NibbleResult nibble(const G& g, VertexId v, const NibbleParams& prm, int b) {
  return run_nibble(g, v, prm, b, /*approximate=*/false);
}

template <GraphAccess G>
NibbleResult approximate_nibble(const G& g, VertexId v,
                                const NibbleParams& prm, int b) {
  return run_nibble(g, v, prm, b, /*approximate=*/true);
}

template NibbleResult nibble(const Graph&, VertexId, const NibbleParams&, int);
template NibbleResult nibble(const GraphView&, VertexId, const NibbleParams&,
                             int);
template NibbleResult approximate_nibble(const Graph&, VertexId,
                                         const NibbleParams&, int);
template NibbleResult approximate_nibble(const GraphView&, VertexId,
                                         const NibbleParams&, int);

}  // namespace xd::sparsecut
