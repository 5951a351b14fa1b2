#pragma once

/// \file driver.hpp
/// The epoch-batched driver skeleton shared by both Theorem 1 backends:
/// the nibble driver (decomposition.cpp) and the simple-parallel
/// cluster/certify/trim driver (simple_parallel.cpp).
///
/// The skeleton owns everything the two drivers have in common: the entry
/// setup (schedule, removal overlay, isolated vertices, the one-draw item
/// stream, final assembly), the epoch loop with its barrier merge, and the
/// LDD clustering step both backends recurse through.  A backend plugs in
/// only its own work-item kinds and, optionally, a barrier guard.
///
/// Determinism: items of an epoch are vertex-disjoint, carry their own
/// seed-split Rng, and never mutate shared driver state -- their effects
/// come back as an ItemResult that the skeleton merges in item-index order
/// at the epoch barrier.  An item's computation depends only on its own
/// inputs, so neither the host thread running it nor the finish order can
/// change what it produces, and the partition, overlay and counters are
/// bit-identical at every scheduler thread count.

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "congest/ledger.hpp"
#include "expander/decomposition.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace xd::expander::detail {

/// One schedulable unit of decomposition work.
struct WorkItem {
  enum class Kind {
    kLdd,      ///< LDD the part (Remove-1), one child per surviving cluster
    kCut,      ///< nibble Phase 1 step 2: sparse-cut one component
    kPhase2,   ///< nibble: the whole Phase 2 level loop for one component
    kCertify,  ///< simple-parallel: one sparse cut at φ₀, finalize or trim
  };
  Kind kind;
  std::vector<VertexId> u;
  std::uint32_t depth = 0;
  std::uint32_t trims = 0;  ///< simple-parallel: consecutive kCertify passes
  Rng rng{0};
};

/// Deferred effects of one work item, applied at the barrier.
struct ItemResult {
  /// The item's own vertex set, kept only when the backend has a barrier
  /// guard (which may finalize the part untouched instead).
  std::vector<VertexId> input;
  std::vector<std::pair<EdgeId, RemoveReason>> removals;
  std::vector<std::vector<VertexId>> finals;
  std::vector<WorkItem> children;
  std::uint64_t sparse_cut_calls = 0;
  std::uint64_t phase2_entries = 0;
  std::uint64_t singletons = 0;
  std::uint64_t guard_finalized = 0;
  std::uint32_t depth_seen = 0;
};

/// The state every item of an epoch reads: a snapshot no item mutates.
struct Driver {
  const Graph& g;
  const DecompositionParams& prm;
  const Schedule& schedule;
  std::vector<char> removed;  ///< ambient edge overlay, written at barriers

  /// True when a clustering item is past the Phase 1 depth bound d.
  /// Lemma 1 proves this cannot happen with the paper constants; with
  /// practical constants the part simply becomes final (quality loss
  /// only, never partition validity: the final assembly splits
  /// disconnected guarded parts).
  [[nodiscard]] bool depth_guarded(const WorkItem& item) const {
    return item.u.size() > 1 && item.depth > schedule.d;
  }

  /// The clustering step: LDD on G{U}, Remove-1 its cut edges, one `child`
  /// item per surviving multi-vertex component (singletons are final).
  [[nodiscard]] ItemResult cluster(WorkItem& item, congest::RoundLedger& lg,
                                   WorkItem::Kind child) const;
};

/// What a backend plugs into the skeleton.
struct Backend {
  /// Runs one item against the shared snapshot.
  std::function<ItemResult(const Driver&, WorkItem&, congest::RoundLedger&)>
      run_item;
  /// Optional barrier guard, asked in item-index order with the removals
  /// applied so far.  A result it rejects is dropped whole: the item's
  /// input part becomes final untouched and counts in guard_finalized.
  std::function<bool(std::uint64_t removed_so_far, const ItemResult&)> admit;
};

/// Runs `backend` on g from one kLdd root item (isolated vertices are
/// final up front), charging `ledger`.  Fills every DecompositionResult
/// field; phi_guarantee defaults to the schedule's φ_k floor.
DecompositionResult decompose(const Graph& g, const DecompositionParams& prm,
                              Rng& rng, congest::RoundLedger& ledger,
                              const Backend& backend);

}  // namespace xd::expander::detail
