#pragma once

/// \file fiedler.hpp
/// Centralized spectral partitioning oracle: sweep over an approximate
/// second eigenvector of the lazy walk.  For the true Fiedler vector,
/// Cheeger's inequality puts the best sweep prefix at conductance
/// <= sqrt(2 * gap).  The vector here is an unconverged fixed-length power
/// iterate (lazy_power_iteration), so neither that guarantee nor lambda2
/// is certified: the cut is a real cut (its conductance is exact, an upper
/// bound on Φ(G)), but its quality is an estimate; the certified solver is
/// ROADMAP.md's "Certified spectral bounds from one solver".  A reference
/// cut for the tests, the decomposition verifier and the examples; the
/// distributed algorithms never use it.

#include <optional>

#include "graph/graph.hpp"
#include "graph/vertex_set.hpp"
#include "spectral/mixing.hpp"

namespace xd::spectral {

/// Result of the spectral sweep.
struct SpectralCut {
  VertexSet cut;          ///< smaller-volume side of the best sweep prefix
  double conductance = 0; ///< its conductance
  double lambda2 = 0;     ///< λ₂ estimate: PowerIterate::lambda2(), the
                          ///< value lazy_second_eigenvalue returns
};

/// Runs lazy_power_iteration + sweep.  Returns nullopt for graphs with < 2
/// vertices or zero volume.
std::optional<SpectralCut> fiedler_sweep(const Graph& g, int iterations = 400);

/// The sweep over an iterate already computed by lazy_power_iteration(g),
/// for callers that also need its λ₂ estimate (one power loop, not two).
std::optional<SpectralCut> fiedler_sweep(const Graph& g,
                                         const PowerIterate& iterate);

}  // namespace xd::spectral
