#include "spectral/sweep.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "graph/graph_view.hpp"
#include "util/check.hpp"
#include "util/scratch.hpp"

namespace xd::spectral {

double Sweep::conductance(std::size_t j) const {
  XD_CHECK(j >= 1 && j <= size());
  const std::uint64_t vol = prefix_volume[j - 1];
  const std::uint64_t rest = total_volume - vol;
  const std::uint64_t denom = std::min(vol, rest);
  if (denom == 0) return std::numeric_limits<double>::infinity();
  return static_cast<double>(prefix_cut[j - 1]) / static_cast<double>(denom);
}

VertexSet Sweep::prefix(std::size_t j) const {
  XD_CHECK(j <= size());
  return VertexSet(
      std::vector<VertexId>(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(j)));
}

namespace {

/// Prefix membership of the sweep under construction, one slab per thread
/// shared by every GraphAccess instantiation.
util::StampedMap<char>& prefix_slab() {
  thread_local util::StampedMap<char> slab;
  return slab;
}

}  // namespace

template <GraphAccess G>
Sweep sweep_support(const G& g, std::span<const VertexId> candidates,
                    std::span<const double> rho) {
  XD_CHECK(candidates.size() == rho.size());
  const std::size_t k = candidates.size();
  std::vector<std::pair<double, VertexId>> ranked(k);
  for (std::size_t i = 0; i < k; ++i) ranked[i] = {rho[i], candidates[i]};
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });

  Sweep s;
  s.total_volume = g.volume();
  s.order.resize(k);
  s.rho.resize(k);
  s.prefix_volume.resize(k);
  s.prefix_cut.resize(k);

  // Incremental cut maintenance: adding v changes the cut by
  // (non-loop degree of v) - 2 * (edges from v into the prefix so far).
  util::StampedMap<char>& in_prefix = prefix_slab();
  in_prefix.begin_epoch(g.num_vertices());
  std::uint64_t vol = 0;
  std::int64_t cut = 0;
  for (std::size_t j = 0; j < k; ++j) {
    const auto [r, v] = ranked[j];
    s.order[j] = v;
    s.rho[j] = r;
    vol += g.degree(v);
    std::int64_t inside = 0;
    std::int64_t nonloop = 0;
    for (VertexId u : g.neighbors(v)) {
      if (u == v) continue;
      ++nonloop;
      if (in_prefix.contains(u)) ++inside;
    }
    cut += nonloop - 2 * inside;
    XD_CHECK(cut >= 0);
    in_prefix.put(v, 1);
    s.prefix_volume[j] = vol;
    s.prefix_cut[j] = static_cast<std::uint64_t>(cut);
  }
  return s;
}

template <GraphAccess G>
Sweep sweep_cut(const G& g, const std::vector<double>& rho) {
  XD_CHECK(rho.size() == g.num_vertices());
  std::vector<VertexId> candidates;
  std::vector<double> scores;
  for (const VertexId v : g.vertices()) {
    if (rho[v] > 0.0) {
      candidates.push_back(v);
      scores.push_back(rho[v]);
    }
  }
  return sweep_support(g, candidates, scores);
}

template Sweep sweep_support(const Graph&, std::span<const VertexId>,
                             std::span<const double>);
template Sweep sweep_support(const GraphView&, std::span<const VertexId>,
                             std::span<const double>);
template Sweep sweep_cut(const Graph&, const std::vector<double>&);
template Sweep sweep_cut(const GraphView&, const std::vector<double>&);

std::size_t best_prefix(const Sweep& sweep) {
  std::size_t best = 0;
  double best_phi = std::numeric_limits<double>::infinity();
  for (std::size_t j = 1; j <= sweep.size(); ++j) {
    const double phi = sweep.conductance(j);
    if (phi < best_phi) {
      best_phi = phi;
      best = j;
    }
  }
  return best;
}

}  // namespace xd::spectral
