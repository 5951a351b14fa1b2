#pragma once

/// \file fiedler.hpp
/// Centralized spectral partitioning oracle: sweep over an approximate
/// second eigenvector of the lazy walk.  By Cheeger's inequality the best
/// sweep prefix has conductance <= sqrt(2 * gap), so this provides a
/// certified-quality reference cut for the tests, the decomposition
/// verifier and the examples.  The distributed algorithms never use it.

#include <optional>

#include "graph/graph.hpp"
#include "graph/vertex_set.hpp"

namespace xd::spectral {

/// Result of the spectral sweep.
struct SpectralCut {
  VertexSet cut;          ///< smaller-volume side of the best sweep prefix
  double conductance = 0; ///< its conductance
  double lambda2 = 0;     ///< second eigenvalue of the lazy walk
};

/// Runs power iteration + sweep.  Returns nullopt for graphs with < 2
/// vertices or zero volume.
std::optional<SpectralCut> fiedler_sweep(const Graph& g, int iterations = 400);

}  // namespace xd::spectral
