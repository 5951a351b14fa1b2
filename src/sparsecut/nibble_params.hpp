#pragma once

/// \file nibble_params.hpp
/// The parameter schedule of the Nibble stack (paper, Appendix A):
///
///   ℓ    = ⌈log₂ |E|⌉
///   t₀   = 49 ln(|E| e²) / φ²
///   f(φ) = φ³ / (144 ln²(|E| e⁴))
///   γ    = 5 φ / (7·7·8 ln(|E| e⁴))
///   ε_b  = φ / (7·8 ln(|E| e⁴) t₀ 2^b)
///
/// plus the ParallelNibble / Partition quantities
///
///   k = ⌈Vol(V) / (56 ℓ (t₀+1) t₀ ln(|E| e⁴) φ⁻¹)⌉        (instances)
///   w = 10 ⌈ln Vol(V)⌉                                     (overlap cap)
///   g(φ, Vol) = ⌈10 w · 56 ℓ (t₀+1) t₀ ln(|E| e⁴) φ⁻¹⌉
///   s = 4 g(φ, Vol) ⌈log_{7/4}(1/p)⌉                        (iterations)
///
/// Two presets (docs/rounds.md): `paper()` -- the literal constants, used
/// to unit-test the formulas and for strict-mode runs on tiny inputs; and
/// `practical()` -- the same functional shapes with small leading constants
/// so the stack runs at bench scale.  The paper itself stresses that its
/// polylog factors are enormous; practical mode is how every experiment
/// executes, and the tests assert the lemmas' shapes, not absolute constants.

#include <cstdint>

namespace xd::sparsecut {

/// Which constant regime generated a NibbleParams (so derived calls, e.g.
/// Partition on shrinking subgraphs, can re-derive consistently).
enum class Preset {
  kPaper,
  kPractical,
};

/// Fully-resolved parameters for one conductance target φ on a graph with
/// m edges and the given total volume.
struct NibbleParams {
  Preset preset = Preset::kPractical;
  double phi = 0.1;          ///< conductance target
  std::size_t num_edges = 0; ///< |E| of the ambient graph
  std::uint64_t volume = 0;  ///< Vol(V) of the ambient graph

  int ell = 1;               ///< ⌈log₂ |E|⌉, the largest scale b
  int t0 = 1;                ///< walk length
  double f_phi = 0;          ///< precondition conductance f(φ)
  double gamma = 0;          ///< sweep mass threshold γ
  double eps_base = 0;       ///< ε_b = eps_base / 2^b
  /// (C.1*) threshold multiplier: paper = 12 (needed by the candidate-
  /// sparsification proof); practical = 1, so every accepted prefix is
  /// genuinely φ-sparse -- at bench scale 12φ is often >= 1 and would make
  /// the condition vacuous.
  double star_relax = 12.0;

  // ParallelNibble / Partition knobs.
  std::uint64_t k_instances = 1;   ///< parallel RandomNibble count
  int overlap_cap = 2;             ///< w
  std::uint64_t max_iterations = 1;///< s (Partition loop bound)
  /// Practical early exit: quit Partition after this many consecutive
  /// empty ParallelNibble results (0 = never, paper mode).
  int empty_streak_quit = 0;

  /// Practical diffusion stall cutoff: stop a Nibble walk once the relative
  /// L1 change per step stays below `stall_tolerance` for `stall_patience`
  /// consecutive steps (the distribution is stationary on its support, so
  /// later sweeps are frozen).  stall_tolerance = 0 disables (paper mode).
  double stall_tolerance = 0.0;
  int stall_patience = 3;

  [[nodiscard]] double eps_b(int b) const;

  /// Literal paper constants; p is the Partition failure parameter.
  static NibbleParams paper(double phi, std::size_t m, std::uint64_t vol,
                            double p = 1e-9);

  /// Bench-scale constants with the same functional shapes.
  static NibbleParams practical(double phi, std::size_t m, std::uint64_t vol);

  /// Same preset and φ, re-derived for a different graph size (Partition
  /// recomputes per current subgraph, matching the paper's f(φ, Vol(W))
  /// notation in the Lemma 8 proof).
  [[nodiscard]] NibbleParams rescaled(std::size_t m, std::uint64_t vol) const;

  /// Same preset and graph size, different conductance target (the
  /// expander decomposition walks the φ_i schedule this way).
  [[nodiscard]] NibbleParams with_phi(double new_phi) const;
};

}  // namespace xd::sparsecut
