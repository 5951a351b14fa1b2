#include "spectral/lazy_walk.hpp"

#include <algorithm>

#include "graph/graph_view.hpp"
#include "util/check.hpp"

namespace xd::spectral {

template <GraphAccess G>
std::vector<double> lazy_step(const G& g, const std::vector<double>& p) {
  const std::size_t n = g.num_vertices();
  XD_CHECK(p.size() == n);
  std::vector<double> next(n, 0.0);
  for (const VertexId v : g.vertices()) {
    if (p[v] == 0.0) continue;
    const double deg = g.degree(v);
    XD_CHECK_MSG(deg > 0, "walk mass on an isolated vertex " << v);
    next[v] += p[v] / 2.0;
    const double share = p[v] / (2.0 * deg);
    for (VertexId u : g.neighbors(v)) {
      next[u] += share;  // u == v for loop/masked slots: deposits back
    }
  }
  return next;
}

template <GraphAccess G>
std::vector<double> lazy_walk(const G& g, std::vector<double> p0, int steps) {
  for (int t = 0; t < steps; ++t) p0 = lazy_step(g, p0);
  return p0;
}

template std::vector<double> lazy_step(const Graph&,
                                       const std::vector<double>&);
template std::vector<double> lazy_step(const GraphView&,
                                       const std::vector<double>&);
template std::vector<double> lazy_walk(const Graph&, std::vector<double>, int);
template std::vector<double> lazy_walk(const GraphView&, std::vector<double>,
                                       int);

double SparseDist::total() const {
  double s = 0;
  for (double m : mass) s += m;
  return s;
}

SparseDist SparseDist::point(VertexId v) {
  SparseDist d;
  d.support.push_back(v);
  d.mass.push_back(1.0);
  return d;
}

template <GraphAccess G>
SparseDist truncated_step(const G& g, const SparseDist& p, double epsilon) {
  // Order-deterministic: each candidate u sums contributions from its
  // in-neighbors in ascending sender id.  The distributed kernel
  // implementation sums its inbox in the same order, so the two paths agree
  // bit-for-bit (validated by DistributedNibble tests).  Determinism is
  // also what makes a GraphView run reproduce a materialized run exactly:
  // the renumbering is monotone, so every sort below induces the same
  // permutation either way.
  //
  // Flat plane: the support is sorted, so walking it in order hands every
  // receiver its shares sender-sorted; they accumulate in a per-thread
  // dense slab (FP-identical to summing the seed's sorted `incoming`) and
  // only the distinct receivers are sorted.  Candidate enumeration is the
  // merge of the support with those receivers -- two pointer walks.  Every
  // share is > 0, so a zero slot means "not yet a receiver", and the merge
  // zeroes each slot it reads: the slab is all zeros between calls.  The
  // degree check runs up front so a throw never leaves the slab dirty.
  for (const VertexId v : p.support) {
    XD_CHECK_MSG(g.degree(v) > 0, "walk mass on an isolated vertex " << v);
  }
  thread_local std::vector<double> inflow;
  thread_local std::vector<VertexId> receivers;
  if (inflow.size() < g.num_vertices()) inflow.resize(g.num_vertices(), 0.0);
  receivers.clear();
  for (std::size_t i = 0; i < p.size(); ++i) {
    const VertexId v = p.support[i];
    const double share = p.mass[i] / (2.0 * g.degree(v));
    for (VertexId u : g.neighbors(v)) {
      if (u == v) continue;  // loop and masked slots retain mass below
      if (inflow[u] == 0.0) receivers.push_back(u);
      inflow[u] += share;
    }
  }
  std::sort(receivers.begin(), receivers.end());

  SparseDist out;
  std::size_t si = 0;  // cursor into the sorted support
  std::size_t ri = 0;  // cursor into the sorted receivers
  while (si < p.size() || ri < receivers.size()) {
    const VertexId u = si < p.size() && (ri == receivers.size() ||
                                         p.support[si] <= receivers[ri])
                           ? p.support[si]
                           : receivers[ri];
    const double deg_u = g.degree(u);
    XD_CHECK_MSG(deg_u > 0, "walk mass on an isolated vertex " << u);
    double m = 0.0;
    if (ri < receivers.size() && receivers[ri] == u) {
      m += inflow[u];
      inflow[u] = 0.0;
      ++ri;
    }
    if (si < p.size() && p.support[si] == u) {
      // Lazy half plus loop (and masked) slots depositing back.
      const double retained =
          p.mass[si] / 2.0 +
          static_cast<double>(g.loops_at(u)) * p.mass[si] / (2.0 * deg_u);
      m += retained;
      ++si;
    }
    if (m >= 2.0 * epsilon * deg_u) {
      out.support.push_back(u);
      out.mass.push_back(m);
    }
  }
  return out;
}

template <GraphAccess G>
std::vector<SparseDist> truncated_walk(const G& g, VertexId v, int steps,
                                       double epsilon) {
  std::vector<SparseDist> evolution;
  evolution.reserve(static_cast<std::size_t>(steps) + 1);
  evolution.push_back(SparseDist::point(v));
  for (int t = 1; t <= steps; ++t) {
    evolution.push_back(truncated_step(g, evolution.back(), epsilon));
    if (evolution.back().size() == 0) break;  // all mass truncated away
  }
  return evolution;
}

template SparseDist truncated_step(const Graph&, const SparseDist&, double);
template SparseDist truncated_step(const GraphView&, const SparseDist&, double);
template std::vector<SparseDist> truncated_walk(const Graph&, VertexId, int,
                                                double);
template std::vector<SparseDist> truncated_walk(const GraphView&, VertexId, int,
                                                double);

template <GraphAccess G>
std::vector<double> stationary(const G& g) {
  const double vol = static_cast<double>(g.volume());
  std::vector<double> pi(g.num_vertices(), 0.0);
  if (vol == 0) return pi;
  for (const VertexId v : g.vertices()) {
    pi[v] = g.degree(v) / vol;
  }
  return pi;
}

template <GraphAccess G>
std::vector<double> normalize_by_degree(const G& g,
                                        const std::vector<double>& p) {
  XD_CHECK(p.size() == g.num_vertices());
  std::vector<double> rho(p.size(), 0.0);
  for (const VertexId v : g.vertices()) {
    if (g.degree(v) > 0) rho[v] = p[v] / g.degree(v);
  }
  return rho;
}

template std::vector<double> stationary(const Graph&);
template std::vector<double> stationary(const GraphView&);
template std::vector<double> normalize_by_degree(const Graph&,
                                                 const std::vector<double>&);
template std::vector<double> normalize_by_degree(const GraphView&,
                                                 const std::vector<double>&);

}  // namespace xd::spectral
