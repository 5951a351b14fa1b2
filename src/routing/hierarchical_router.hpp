#pragma once

/// \file hierarchical_router.hpp
/// GKS hierarchical routing data structure, as the cost model of §3.
///
/// The paper's Theorem 2 improvement hinges on reading the GKS router as a
/// distributed data structure: for any constant depth k, preprocessing
/// costs O(kβ)(log n)^{O(k)}·τ_mix + O(kβ² log n)·τ_mix (β = m^{1/k}) and
/// each subsequent deg-bounded routing query costs only (log n)^{O(k)}·τ_mix
/// rounds.  Choosing k constant makes preprocessing o(n^{1/3}) while queries
/// stay polylog, which is exactly what the triangle algorithm needs.
///
/// This backend charges those formulas with a measured τ_mix and validates /
/// delivers the demands logically.  It is the E5 oracle: the fully
/// simulated backends -- TreeRouter and SimulatedHierarchicalRouter (the
/// GKS structure actually built on the round engine,
/// simulated_router.hpp) -- cross-check the model, and the tests pin their
/// measured rounds below these charged bounds (see docs/routing.md on
/// charged vs simulated cost derivation).

#include "congest/ledger.hpp"
#include "routing/router.hpp"
#include "spectral/mixing.hpp"

namespace xd::routing {

/// Cost-model parameters.  The (log n)^{O(k)} factors are charged as
/// (log₂ n)^k.
struct HierarchicalParams {
  int depth = 2;          ///< the GKS parameter k (>= 1)
  /// Mixing time override; 0 = estimate from the graph spectrally.
  std::uint32_t tau_mix = 0;
};

/// GKS-model backend.
class HierarchicalRouter : public Router {
 public:
  HierarchicalRouter(const Graph& g, congest::RoundLedger& ledger,
                     HierarchicalParams prm);

  std::uint64_t preprocess() override;
  std::uint64_t route(const std::vector<Demand>& demands) override;
  [[nodiscard]] std::uint64_t queries() const override { return queries_; }

  /// Cost model exposed for the E5 bench table.
  [[nodiscard]] std::uint64_t preprocessing_cost() const;
  [[nodiscard]] std::uint64_t query_cost() const;
  [[nodiscard]] std::uint32_t tau_mix() const { return tau_; }

 private:
  const Graph* g_;
  congest::RoundLedger* ledger_;
  HierarchicalParams prm_;
  std::uint32_t tau_ = 1;
  bool preprocessed_ = false;
  std::uint64_t queries_ = 0;
};

}  // namespace xd::routing
