#pragma once

/// \file mixing.hpp
/// Mixing time and spectral gap of the lazy walk.
///
/// The paper leans on the Jerrum–Sinclair relation (§1):
///   Θ(1/Φ_G)  <=  τ_mix(G)  <=  Θ(log n / Φ_G²),
/// and Theorem 2's routing uses τ_mix = O(log n / φ²) on each component of
/// the decomposition.  `Mixing.JerrumSinclairSandwich` (spectral_test)
/// asserts the relation with explicit constants across ten graph families.

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace xd::spectral {

/// Result of the fixed-length power iteration on the symmetrized lazy walk
/// N = D^{-1/2} M D^{1/2}, stationary component deflated.  Nothing checks
/// convergence, so `lambda` estimates λ₂ from below: after 400 iterations
/// the gap 1 - λ₂ reads 445× too large on cycle(2000).
struct PowerIterate {
  double lambda = 0;       ///< Rayleigh quotient of the last iterate
  std::vector<double> y;   ///< last iterate; D^{-1/2} y is the embedding
  bool collapsed = false;  ///< norm fell below 1e-300 (e.g. lazy K_2)

  /// The λ₂ estimate: 0 on collapse, else `lambda` clamped to [0, 1].
  [[nodiscard]] double lambda2() const;
};

/// The one power loop in spectral/ (lazy_second_eigenvalue and
/// fiedler_sweep both read it).  Requires >= 2 vertices and positive
/// volume.
PowerIterate lazy_power_iteration(const Graph& g, int iterations = 400);

/// Second-largest eigenvalue λ₂ of the lazy walk matrix M (all eigenvalues
/// of M lie in [0, 1]), estimated by lazy_power_iteration(g, iterations).
/// The spectral gap 1 - λ₂ controls mixing:
/// τ(ε) <= log(1/(ε π_min)) / (1 - λ₂).
double lazy_second_eigenvalue(const Graph& g, int iterations = 400);

/// Exact-simulation mixing time: the smallest t such that the walk from the
/// worst of `starts` sampled start vertices satisfies
///   max_u |p_t(u) - π(u)| / π(u) <= eps     (relative pointwise distance).
/// Cost O(starts * t * m); meant for graphs up to a few thousand vertices.
/// Returns `cap` if not mixed within `cap` steps.
std::uint32_t mixing_time_simulated(const Graph& g, double eps = 0.25,
                                    int starts = 3, std::uint32_t cap = 1u << 20);

/// Eigenvalue-based mixing-time estimate log(Vol/ (eps * deg_min)) / (1-λ₂);
/// cheap and tight enough for round-cost modeling (used by the router).
std::uint32_t mixing_time_estimate(const Graph& g, double eps = 0.25);

}  // namespace xd::spectral
