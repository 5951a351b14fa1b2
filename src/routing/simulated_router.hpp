#pragma once

/// \file simulated_router.hpp
/// Fully simulated GKS hierarchical routing plane (paper §3;
/// Ghaffari–Kuhn–Su, and the deterministic construction of
/// arXiv:2007.14898).
///
/// Where HierarchicalRouter *charges* the GKS cost formulas, this backend
/// *builds* the structure on the round engine and measures what it costs:
///
///   * hierarchy -- k recursive levels; each level partitions every parent
///     cluster's edge set into β = ⌈m^{1/k}⌉ random groups, and the
///     connected components of each group become the child clusters (GKS
///     Lemma 3.2's recursive split; every parent edge lands in exactly one
///     child, vertices join one child per group they have edges in).  Each
///     level's clusters confirm themselves by a min-id flood over their own
///     edges, run as a VertexProgram (real rounds: one per cluster-diameter
///     step);
///   * portals -- every child cluster embeds itself into its parent by
///     releasing one walk token per sibling cluster (the pairwise portal
///     linking whose Σ children² ~ β² token volume is exactly the
///     O(β²·log n)·τ_mix term of GKS Lemma 3.3, and what makes small k
///     expensive in E5c).  Tokens do the lazy walk of
///     spectral/lazy_walk.hpp (stay with probability 1/2; slots leaving
///     the parent's edge set deposit back -- the G{parent} walk) through
///     two-phase engine supersteps, and the vertices where they land after
///     ~τ_mix-scaled budgets become the cluster's portals;
///   * queries -- route() climbs each message through its source chain's
///     portals, crosses at the lowest common cluster, descends the
///     destination chain, realizes every portal hop as a relay-tree path,
///     and drains the whole batch through the flat QueueArena (one message
///     per directed edge per round) for a *measured* makespan.
///
/// The charged HierarchicalRouter is kept as the E5a oracle: bench_routing
/// E5c overlays this backend's measured preprocessing/query rounds on the
/// charged curve across k (same trade-off shape, constant-factor gap;
/// docs/routing.md documents the comparison).

#include <cstdint>
#include <memory>
#include <vector>

#include "congest/network.hpp"
#include "primitives/forest.hpp"
#include "routing/queue_arena.hpp"
#include "routing/router.hpp"

namespace xd::routing {

/// Construction knobs for the simulated hierarchy.  Each cluster releases
/// one walk token per sibling (uncapped: the Lemma 3.3 pairwise linking
/// that E5c charts), walks them τ_ℓ = τ_mix · (log² vol_ℓ / log² vol)
/// steps (capped at 256), and portal hops ride ⌈log₂ n⌉ + 1 relay BFS
/// trees.
struct SimulatedHierarchicalParams {
  /// The GKS depth parameter k (>= 1): number of recursive edge-partition
  /// levels; β = ⌈m^{1/k}⌉ groups per split.
  int depth = 2;
};

/// Simulated GKS backend.  Requires a connected graph (same contract as
/// TreeRouter).
class SimulatedHierarchicalRouter : public Router {
 public:
  SimulatedHierarchicalRouter(congest::Network& net,
                              SimulatedHierarchicalParams prm);

  /// Builds hierarchy + portals + relay trees on the engine; returns the
  /// measured preprocessing rounds (also charged to the network's ledger).
  std::uint64_t preprocess() override;

  /// Delivers the batch through portal relays; returns (and charges) the
  /// measured store-and-forward makespan.
  std::uint64_t route(const std::vector<Demand>& demands) override;

  [[nodiscard]] std::uint64_t queries() const override { return queries_; }

  // ---------------------------------------------------------- diagnostics

  /// Partition levels actually built (<= depth; splits stop when every
  /// cluster is down to one edge).
  [[nodiscard]] int levels() const { return static_cast<int>(levels_.size()); }
  /// Clusters across all levels.
  [[nodiscard]] std::size_t num_clusters() const;
  /// Portal vertices across all clusters (with multiplicity per cluster).
  [[nodiscard]] std::size_t num_portals() const;
  /// Measured preprocessing rounds of the last preprocess().
  [[nodiscard]] std::uint64_t preprocess_rounds() const {
    return preprocess_rounds_;
  }
  /// Messages delivered per demand by the last route() call (every unit of
  /// Demand::count is delivered exactly once; the delivery audit the tests
  /// assert).
  [[nodiscard]] const std::vector<std::uint64_t>& last_delivered() const {
    return last_delivered_;
  }

 private:
  static constexpr std::uint32_t kNoCluster = static_cast<std::uint32_t>(-1);

  struct Cluster {
    std::uint32_t parent = 0;  ///< index into the previous level's clusters
    VertexId leader = 0;       ///< minimum member id
    std::vector<VertexId> members;  ///< sorted, distinct endpoints
    std::vector<EdgeId> edges;
    std::vector<VertexId> portals;  ///< sorted, unique; in the parent
  };
  struct Level {
    /// Per graph edge: its cluster at this level (kNoCluster if the edge's
    /// chain already bottomed out).  Edges of one parent partition exactly
    /// into its children.
    std::vector<std::uint32_t> edge_cluster;
    /// Per vertex: the canonical home cluster -- the child of the previous
    /// level's home that contains the vertex's minimum incident edge.
    /// Homes are nested across levels, which is what route()'s portal
    /// climb relies on.
    std::vector<std::uint32_t> home;
    std::vector<Cluster> clusters;
    std::uint64_t max_parent_volume = 0;  ///< max 2·|E_P| over parents split
  };

  /// Splits one parent's edge list into child clusters of `level`
  /// (host-side structure; the engine charges come from confirm_level /
  /// embed_portals).
  void split_cluster(std::uint32_t parent_index, std::uint64_t parent_volume,
                     const std::vector<EdgeId>& edges, std::uint64_t beta,
                     Level& level, Rng& rng);

  /// Min-id flood over every cluster of `level` at once, each over its own
  /// edges (VertexProgram); validates the components and charges their
  /// diameters.
  void confirm_level(const Level& level);

  /// Lazy-walk token embedding for every cluster of levels_[index]
  /// (VertexProgram supersteps); fills portals.
  void embed_portals(std::size_t index);

  /// Deepest level (1-based) at which v has a home cluster, 0 if none.
  [[nodiscard]] int chain_depth(VertexId v) const;

  congest::Network* net_;
  SimulatedHierarchicalParams prm_;
  std::vector<Level> levels_;
  std::vector<prim::Forest> forests_;
  std::unique_ptr<QueueArena> arena_;
  std::uint32_t tau_mix_ = 1;
  bool preprocessed_ = false;
  std::uint64_t preprocess_rounds_ = 0;
  std::uint64_t queries_ = 0;
  std::vector<std::uint64_t> last_delivered_;
};

}  // namespace xd::routing
