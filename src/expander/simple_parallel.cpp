#include "expander/simple_parallel.hpp"

#include <cmath>
#include <utility>

#include "expander/driver.hpp"
#include "graph/graph_view.hpp"
#include "graph/metrics.hpp"
#include "sparsecut/partition.hpp"
#include "util/check.hpp"

namespace xd::expander::detail {

namespace {

/// Fraction of φ₀² the backend promises the spectral verifier when every
/// part was certified by a sparse-cut miss.  Cheeger for the lazy walk
/// gives 1 - λ₂ >= Φ²/2 on a true φ₀-expander; the extra factor 2 of
/// slack absorbs the certification being a whp/practical statement rather
/// than an exact oracle (cross_check.cpp holds both backends to this).
constexpr double kCheegerSlack = 0.25;

/// Consecutive trims of one part before it is forced back to clustering:
/// the CMPS trimming step shaves at most O(log Vol) sparse cuts off the
/// large side before re-clustering can make progress again.
std::uint64_t trim_budget(std::uint64_t vol) {
  const double lg = std::log2(static_cast<double>(vol) + 1.0);
  return 4 * static_cast<std::uint64_t>(std::ceil(lg)) + 8;
}

// Certification step: one nearly-most-balanced sparse cut at φ₀.  A miss
// certifies the cluster (Φ >= φ₀ whp) and finalizes it.  A hit Remove-2s
// the cut edges; the sparse side goes back to clustering one level deeper,
// and the rest is trimmed -- certified again at the same depth -- until
// the trim budget forces it back to clustering too.
ItemResult run_certify(const Driver& d, WorkItem& item,
                       congest::RoundLedger& lg) {
  ItemResult res;
  res.depth_seen = item.depth;
  std::vector<VertexId>& comp = item.u;
  const GraphView comp_live(d.g, &d.removed, VertexSet(comp));
  if (comp_live.volume() == 0) {
    res.finals.push_back(std::move(comp));
    return res;
  }
  ++res.sparse_cut_calls;
  const auto diameter = diameter_double_sweep(comp_live);
  const auto cut_res = sparsecut::nearly_most_balanced_sparse_cut(
      comp_live, d.schedule.phi[0], d.prm.preset, item.rng, lg, diameter,
      d.prm.thorough_partition);

  if (!cut_res.found()) {
    res.finals.push_back(std::move(comp));  // certified: Φ(G{U}) >= φ₀ (whp)
    return res;
  }

  const std::uint64_t vol_u = comp_live.volume();
  const auto in_cut = cut_res.cut.bitmap(d.g.num_vertices());
  comp_live.for_each_live_edge([&](EdgeId ambient, VertexId x, VertexId y) {
    if (in_cut[x] != in_cut[y]) {
      res.removals.emplace_back(ambient, RemoveReason::kSparseCut);
    }
  });
  std::vector<VertexId> side_c, side_rest;
  for (const VertexId v : comp_live.vertices()) {
    (in_cut[v] ? side_c : side_rest).push_back(v);
  }

  // Sparse side: re-cluster one level deeper (the cut certifies it is the
  // thin part; its own structure is unknown again).
  if (side_c.size() == 1) {
    res.finals.push_back(std::move(side_c));
  } else if (!side_c.empty()) {
    res.children.push_back(WorkItem{WorkItem::Kind::kLdd, std::move(side_c),
                                    item.depth + 1, 0, item.rng.fork(0)});
  }
  // Large side: trim (same depth) within budget, else back to clustering.
  if (side_rest.size() == 1) {
    res.finals.push_back(std::move(side_rest));
  } else if (!side_rest.empty()) {
    const bool trims_left = item.trims + 1 <= trim_budget(vol_u);
    res.children.push_back(
        trims_left
            ? WorkItem{WorkItem::Kind::kCertify, std::move(side_rest),
                       item.depth, item.trims + 1, item.rng.fork(1)}
            : WorkItem{WorkItem::Kind::kLdd, std::move(side_rest),
                       item.depth + 1, 0, item.rng.fork(1)});
  }
  return res;
}

ItemResult run_item(const Driver& d, WorkItem& item,
                    congest::RoundLedger& lg) {
  switch (item.kind) {
    case WorkItem::Kind::kLdd: {
      // The depth guard costs the part its certificate, so it counts
      // against phi_guarantee.
      const bool guarded = d.depth_guarded(item);
      ItemResult res = d.cluster(item, lg, WorkItem::Kind::kCertify);
      if (guarded) ++res.guard_finalized;
      return res;
    }
    case WorkItem::Kind::kCertify:
      return run_certify(d, item, lg);
    default:
      break;
  }
  XD_CHECK_MSG(false, "unreachable work-item kind");
  return {};
}

}  // namespace

DecompositionResult simple_parallel_decomposition(const Graph& g,
                                                  const DecompositionParams& prm,
                                                  Rng& rng,
                                                  congest::RoundLedger& ledger) {
  // The εm budget guard lives at the barrier, not in the items: items race
  // on host threads and cannot see a shared running total without breaking
  // bit-identity, while the merge order is the same at every thread count,
  // so "which item hit the ceiling" replays exactly.
  const auto removal_budget = static_cast<std::uint64_t>(
      prm.epsilon * static_cast<double>(g.num_edges()));
  DecompositionResult out = decompose(
      g, prm, rng, ledger,
      {run_item,
       [removal_budget](std::uint64_t removed_so_far, const ItemResult& res) {
         return removed_so_far + res.removals.size() <= removal_budget;
       }});
  // The certified floor: every non-guarded part ended on a sparse-cut miss
  // at φ₀, which the spectral verifier can confirm down to ~φ₀²/2 via
  // Cheeger; one guarded part drops the promise to the nibble schedule's
  // tiny φ_k floor (still honest -- guards trade quality, not validity).
  if (out.guard_finalized == 0) {
    const double phi0 = out.schedule.phi[0];
    out.phi_guarantee = kCheegerSlack * phi0 * phi0;
  }
  return out;
}

}  // namespace xd::expander::detail
