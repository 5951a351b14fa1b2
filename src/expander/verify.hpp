#pragma once

/// \file verify.hpp
/// Certificate checking for an (ε, φ)-expander decomposition:
///   (1) the components partition V;
///   (2) inter-component edges number at most ε |E|;
///   (3) every component satisfies Φ(G{V_i}) >= φ.
///
/// (3) asks for a conductance *lower* bound, which is NP-hard exactly; the
/// verifier uses exhaustive enumeration for tiny components (exact, hence
/// certified) and the Cheeger bound Φ >= 1 - λ₂(lazy walk) otherwise (the
/// lazy walk of G{V_i} with its substitution loops -- laziness from loops
/// is accounted automatically).  The Cheeger step is sound only for the
/// true λ₂, and λ₂ comes from an unconverged 400-step power iterate
/// (spectral::lazy_power_iteration), which sits below λ₂ and so overstates
/// the gap -- 445× on cycle(2000).  Unless `exact`, a component's lower
/// bound, and with it conductance_meets_phi, is an estimate, not a
/// certificate (ROADMAP.md, "Certified spectral bounds from one solver").

#include <cstdint>
#include <vector>

#include "expander/decomposition.hpp"
#include "graph/graph.hpp"

namespace xd::expander {

/// Per-component quality observation.
struct ComponentQuality {
  std::uint32_t id = 0;
  std::size_t size = 0;
  std::uint64_t volume = 0;         ///< ambient volume
  /// Lower bound on Φ(G{V_i}): certified when `exact`, otherwise the
  /// Cheeger estimate from an unconverged λ₂ (see the file comment).
  double conductance_lower = 0.0;
  double conductance_upper = 0.0;   ///< witnessed cut (∞ if none found)
  bool exact = false;               ///< lower bound exhaustive?
};

/// Full verification report.
struct VerificationReport {
  bool is_partition = false;
  std::uint64_t inter_component_edges = 0;
  double cut_fraction = 0.0;        ///< inter-component edges / |E|
  bool cut_within_epsilon = false;
  double min_conductance_lower = 0.0;
  bool conductance_meets_phi = false;
  /// Removed edges whose endpoints ended up in the same final component
  /// (0 in normal operation; non-zero only via practical-mode guards).
  std::uint64_t internal_removed_edges = 0;
  std::vector<ComponentQuality> components;

  [[nodiscard]] bool ok() const {
    return is_partition && cut_within_epsilon && conductance_meets_phi;
  }
};

/// Verifies `result` as an (epsilon, phi)-decomposition of g.
VerificationReport verify_decomposition(const Graph& g,
                                        const DecompositionResult& result,
                                        double epsilon, double phi);

}  // namespace xd::expander
