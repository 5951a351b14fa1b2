#include "routing/hierarchical_router.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace xd::routing {

HierarchicalRouter::HierarchicalRouter(const Graph& g,
                                       congest::RoundLedger& ledger,
                                       HierarchicalParams prm)
    : g_(&g), ledger_(&ledger), prm_(prm) {
  XD_CHECK(prm_.depth >= 1);
}

namespace {

double log_power(std::size_t n, int k) {
  const double ln = std::max(std::log2(static_cast<double>(std::max<std::size_t>(n, 2))), 1.0);
  return std::pow(ln, static_cast<double>(k));
}

}  // namespace

std::uint64_t HierarchicalRouter::preprocessing_cost() const {
  const std::size_t n = g_->num_vertices();
  const auto m = static_cast<double>(std::max<std::size_t>(g_->num_edges(), 2));
  const double beta = std::pow(m, 1.0 / static_cast<double>(prm_.depth));
  // GKS Lemma 3.2 (hierarchy) + Lemma 3.3 (portals).
  const double hierarchy = static_cast<double>(prm_.depth) * beta *
                           log_power(n, prm_.depth) *
                           static_cast<double>(tau_);
  const double portals = static_cast<double>(prm_.depth) * beta * beta *
                         std::log2(static_cast<double>(std::max<std::size_t>(n, 2))) *
                         static_cast<double>(tau_);
  return static_cast<std::uint64_t>(std::ceil(hierarchy + portals));
}

std::uint64_t HierarchicalRouter::query_cost() const {
  // GKS Lemma 3.4.
  return static_cast<std::uint64_t>(
      std::ceil(log_power(g_->num_vertices(), prm_.depth) *
                static_cast<double>(tau_)));
}

std::uint64_t HierarchicalRouter::preprocess() {
  tau_ = prm_.tau_mix > 0 ? prm_.tau_mix
                          : std::max(spectral::mixing_time_estimate(*g_), 1u);
  const std::uint64_t cost = preprocessing_cost();
  ledger_->charge(cost, "HierarchicalRouter/preprocess");
  preprocessed_ = true;
  return cost;
}

std::uint64_t HierarchicalRouter::route(const std::vector<Demand>& demands) {
  XD_CHECK_MSG(preprocessed_, "preprocess() must run first");
  const std::uint64_t batches = queries_needed(*g_, demands);
  queries_ += batches;
  std::uint64_t messages = 0;
  for (const Demand& d : demands) messages += d.count;
  ledger_->count_messages(messages);
  const std::uint64_t cost = batches * query_cost();
  ledger_->charge(cost, "HierarchicalRouter/query");
  return cost;
}

}  // namespace xd::routing
