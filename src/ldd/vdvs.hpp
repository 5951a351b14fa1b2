#pragma once

/// \file vdvs.hpp
/// The V_D / V_S partition (paper, Appendix B.1, Lemmas 17-20): the
/// machinery that upgrades MPX's *expected* cut bound to a w.h.p. bound.
///
/// V_D covers the "dense-ball" vertices -- those whose radius-a ball already
/// contains a 1/2b fraction of their 100ab-ball's edges -- grown so that
/// distinct components of V_D are more than `a` apart and each component has
/// diameter O(ab).  Every vertex left in V_S has a sparse ball
/// (|E(N^a(v))| <= |E|/b), which caps the dependence between "edge is cut"
/// events and lets a bounded-dependence Chernoff bound (Pemmaraju) apply.

#include <cstdint>
#include <vector>

#include "congest/ledger.hpp"
#include "graph/graph.hpp"

namespace xd::ldd {

/// Result of the V_D/V_S construction.
struct VdVsPartition {
  std::vector<char> in_vd;             ///< per vertex
  std::uint32_t a = 0;                 ///< ⌈5 ln n / β⌉
  std::uint32_t b = 0;                 ///< ⌈K ln n / β⌉
  std::uint32_t merge_iterations = 0;  ///< W_i expansion rounds executed
  /// Vertices classified dense before growth (the auxiliary V'_D).
  std::uint64_t seed_vertices = 0;
};

/// Builds the partition.  V'_D/V'_S is classified from exact capped ball
/// counts against |E|/b thresholds, charged as the paper's O(ab log² n)
/// auxiliary-partition cost.  (Lemma 16's sampled estimator makes the same
/// decisions w.h.p.; it lives on as `ball_edge_estimate`.)
VdVsPartition build_vd_vs(const Graph& g, double beta, double K,
                          congest::RoundLedger& ledger);

}  // namespace xd::ldd
