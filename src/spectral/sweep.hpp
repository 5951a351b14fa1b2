#pragma once

/// \file sweep.hpp
/// Sweep cuts: order vertices by ρ(v) = p(v)/deg(v) descending (ties by id,
/// as the paper allows "breaking ties arbitrarily, e.g. by comparing IDs")
/// and evaluate every prefix π(1..j).  Nibble's conditions (C.1)-(C.3) and
/// their approximate versions (C.1*)-(C.3*) are all predicates over this
/// sweep data.
///
/// One builder serves both users: sweep_support() takes a candidate list
/// with one ρ per candidate (Nibble passes its truncated walk's support),
/// and the dense sweep_cut() (the Fiedler sweep) is a front end that
/// collects the positive entries of an ambient-indexed ρ.  Prefix
/// membership lives in one per-thread stamped slab (util::StampedMap)
/// indexed by VertexId, so it is ambient-sized: a GraphView keeps its
/// ambient ids.  Starting a sweep is O(1) once the slab has grown.

#include <cstdint>
#include <span>
#include <vector>

#include "graph/access.hpp"
#include "graph/graph.hpp"
#include "graph/vertex_set.hpp"

namespace xd::spectral {

/// Prefix-by-prefix statistics of a sweep over its candidate vertices.
struct Sweep {
  /// Candidates in sweep order π(1), π(2), ...
  std::vector<VertexId> order;
  /// rho value per sweep position.
  std::vector<double> rho;
  /// Vol(π(1..j)) per position j (1-based position j = index j-1).
  std::vector<std::uint64_t> prefix_volume;
  /// |∂(π(1..j))| per position.
  std::vector<std::uint64_t> prefix_cut;
  /// Total graph volume (for conductance denominators).
  std::uint64_t total_volume = 0;

  [[nodiscard]] std::size_t size() const { return order.size(); }

  /// Conductance of prefix 1..j (1-based j in [1, size()]).
  [[nodiscard]] double conductance(std::size_t j) const;

  /// The prefix as a VertexSet (1-based j; j = 0 gives the empty set).
  [[nodiscard]] VertexSet prefix(std::size_t j) const;
};

/// Builds the sweep over `candidates` (distinct vertices of g), where
/// rho[i] scores candidates[i]: every candidate gets a position, ordered by
/// ρ descending with ties by id.  Generic over GraphAccess: on a GraphView
/// the prefix cut counts only live edges -- masked slots read as loops and
/// loops never cross.  O(Vol(candidates) + k log k) for k candidates.
template <GraphAccess G>
Sweep sweep_support(const G& g, std::span<const VertexId> candidates,
                    std::span<const double> rho);

/// The sweep for score vector rho (dense, ambient-indexed): sweep_support
/// over the vertices with rho > 0.
template <GraphAccess G>
Sweep sweep_cut(const G& g, const std::vector<double>& rho);

/// Position (1-based) of the minimum-conductance prefix, or 0 if empty.
std::size_t best_prefix(const Sweep& sweep);

}  // namespace xd::spectral
