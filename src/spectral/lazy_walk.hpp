#pragma once

/// \file lazy_walk.hpp
/// The lazy random walk M = (A D^{-1} + I)/2 and Spielman–Teng truncation.
///
/// Self-loop convention (paper, §1): a loop is one adjacency slot, so a step
/// from v sends p(v)/(2 deg(v)) along every slot; loop slots deposit back at
/// v.  Equivalently the effective laziness of v is 1/2 + loops(v)/(2 deg v),
/// which is what makes G{S} simulate G's walk restricted to S.
///
/// The truncation operator [p]_ε zeroes p(x) when p(x) < 2 ε deg(x) (paper,
/// Appendix A); truncated walks have support that grows slowly, which is the
/// whole reason Nibble is cheap.

#include <cstdint>
#include <vector>

#include "graph/access.hpp"
#include "graph/graph.hpp"

namespace xd::spectral {

/// All walk operators are generic over GraphAccess (Graph or GraphView).
/// On a view the masked slots read as self-loops, so the walk *is* the
/// paper's G{S} walk -- mass that would have crossed a removed or boundary
/// edge deposits back -- without materializing G{S}.

/// One dense lazy-walk step: returns M p.  Dense vectors are indexed by the
/// ambient id space (p must be zero off the active set of a view).  Throws
/// CheckError when p puts mass on an isolated vertex.  Each sender, in
/// ascending order, pushes p/2 to itself and p/(2 deg) along every slot.
template <GraphAccess G>
std::vector<double> lazy_step(const G& g, const std::vector<double>& p);

/// The power loop's Graph SpMV (mixing.hpp): a gather, so the loop can run
/// it over vertex chunks (congest::parallel_chunks), each output written by
/// one thread, and still get lazy_step's sums bit for bit.
namespace gather {

/// (M p)(u), given share[w] = p[w] / (2 deg w) for every sender w: the
/// shares over sorted_neighbors(u), with p[u] / 2 added before the first
/// neighbor >= u.  The push loop deposits into u in ascending sender order
/// -- u's own lazy half, then its loop slots, at sender u -- and the
/// senders of u, ascending, are exactly the multiset sorted_neighbors(u).
/// So the sum is the push loop's, bit for bit.
inline double at(const Graph& g, const double* p, const double* share,
                 VertexId u) {
  const auto nbrs = g.sorted_neighbors(u);
  const VertexId* it = nbrs.data();
  const VertexId* end = it + nbrs.size();
  double acc = 0.0;
  for (; it != end && *it < u; ++it) acc += share[*it];
  acc += p[u] / 2.0;
  for (; it != end; ++it) acc += share[*it];
  return acc;
}

}  // namespace gather

/// t dense lazy-walk steps from the distribution `p0`.
template <GraphAccess G>
std::vector<double> lazy_walk(const G& g, std::vector<double> p0, int steps);

/// Sparse distribution: only the support is materialized.
struct SparseDist {
  /// Parallel arrays (vertex, mass), ascending by vertex, no duplicates,
  /// mass > 0.  (point() is trivially sorted and truncated_step emits its
  /// candidates in ascending order, so the invariant is maintained; the
  /// Nibble stall detector's deterministic merge relies on it.)
  std::vector<VertexId> support;
  std::vector<double> mass;

  [[nodiscard]] std::size_t size() const { return support.size(); }
  /// Σ mass (<= 1 once truncation begins discarding).
  [[nodiscard]] double total() const;

  /// Point distribution χ_v.
  static SparseDist point(VertexId v);
};

/// One sparse lazy-walk step followed by ε-truncation:  [M p]_ε.
/// Cost O(Vol(support)).
template <GraphAccess G>
SparseDist truncated_step(const G& g, const SparseDist& p, double epsilon);

/// The full truncated evolution p̃_0 = χ_v, p̃_t = [M p̃_{t-1}]_ε for
/// t = 1..steps.  Returns all t+1 distributions (index = t).
template <GraphAccess G>
std::vector<SparseDist> truncated_walk(const G& g, VertexId v, int steps,
                                       double epsilon);

/// Stationary distribution π(x) = deg(x)/Vol(V).
template <GraphAccess G>
std::vector<double> stationary(const G& g);

/// ρ(x) = p(x)/deg(x) for a dense p (0 where deg = 0).
template <GraphAccess G>
std::vector<double> normalize_by_degree(const G& g,
                                        const std::vector<double>& p);

}  // namespace xd::spectral
