#include "sparsecut/parallel_nibble.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "graph/graph_view.hpp"
#include "graph/metrics.hpp"
#include "util/check.hpp"

namespace xd::sparsecut {

namespace {

int ceil_log2_plus(std::uint64_t x) {
  int l = 1;
  std::uint64_t v = 2;
  while (v < x + 2) {
    v <<= 1;
    ++l;
  }
  return l;
}

/// Per-instance simulated cost.  The support subgraph of a t-step walk has
/// diameter <= 2t (the paper's own bound: "the subgraph induced by P* is
/// connected and has diameter O(t₀)").
///
/// Paper preset: diffusion steps plus one Lemma 9 binary search
/// (height x log(support)) per examined (t, j) candidate -- the literal
/// accounting of the paper.
///
/// Practical preset: diffusion steps plus one pipelined segmented
/// prefix-scan over the support tree per walk step (O(height + log) rounds
/// evaluates every candidate of that step at once); Lemma 9's per-candidate
/// search exists because the paper optimizes for asymptotic cleanliness,
/// not constants.
std::uint64_t instance_rounds(const NibbleResult& r, Preset preset) {
  const auto steps = static_cast<std::uint64_t>(std::max(r.steps_run, 1));
  const std::uint64_t height = 2 * steps + 1;
  const auto log_support =
      static_cast<std::uint64_t>(ceil_log2_plus(r.touched.size()));
  if (preset == Preset::kPaper) {
    return steps + r.sweep_candidates * height * log_support;
  }
  return steps + steps * (height + log_support);
}

}  // namespace

template <GraphAccess G>
ParallelNibbleResult parallel_nibble(const G& g, const NibbleParams& prm,
                                     Rng& rng, congest::RoundLedger& ledger,
                                     std::optional<std::uint32_t> diameter_hint) {
  ParallelNibbleResult out;
  const std::uint64_t rounds_before = ledger.rounds();
  const std::uint64_t total_volume = g.volume();
  XD_CHECK(total_volume > 0);

  const std::uint32_t diameter =
      diameter_hint ? *diameter_hint : diameter_double_sweep(g);

  // --- Instance generation (Lemma 10): O(D + ℓ) rounds. ---
  const std::uint64_t k = prm.k_instances;
  ledger.charge(diameter + static_cast<std::uint64_t>(prm.ell) + 1,
                "ParallelNibble/generate");

  // --- Overlap guard: the most instances any one edge participates in.  An
  // edge participates in an instance iff it is incident to a vertex that
  // ever carried truncated mass (Definition 2).  Each instance lists its
  // edges once -- an edge with both endpoints touched from its smaller
  // endpoint -- sorts them and merges them into `counts`, the sorted
  // (edge, instances) list, so only that list and one instance's edges are
  // held at a time. ---
  std::vector<RandomNibbleResult> runs;
  runs.reserve(k);
  std::vector<EdgeId> mine;
  std::vector<std::pair<EdgeId, int>> counts;
  std::vector<std::pair<EdgeId, int>> merged;
  int max_overlap = 0;
  for (std::uint64_t i = 0; i < k; ++i) {
    runs.push_back(random_nibble(g, prm, rng));
    const std::vector<VertexId>& touched = runs.back().inner.touched;
    mine.clear();
    for (const VertexId v : touched) {
      g.for_each_live_incident(v, [&](EdgeId e, VertexId w) {
        if (w > v || !std::binary_search(touched.begin(), touched.end(), w)) {
          mine.push_back(e);
        }
      });
    }
    std::sort(mine.begin(), mine.end());
    merged.clear();
    merged.reserve(counts.size() + mine.size());
    auto c = counts.begin();
    for (const EdgeId e : mine) {
      for (; c != counts.end() && c->first < e; ++c) merged.push_back(*c);
      const int n =
          (c != counts.end() && c->first == e ? (c++)->second : 0) + 1;
      merged.emplace_back(e, n);
      max_overlap = std::max(max_overlap, n);
    }
    merged.insert(merged.end(), c, counts.end());
    counts.swap(merged);
  }
  out.instances = k;
  out.max_overlap = max_overlap;

  // --- Multiplexed execution cost: slowest instance x observed overlap. ---
  std::uint64_t max_instance = 1;
  std::uint64_t messages = 0;
  for (const auto& run : runs) {
    max_instance =
        std::max(max_instance, instance_rounds(run.inner, prm.preset));
    messages += run.inner.work_volume;
  }
  ledger.count_messages(messages);
  ledger.charge(max_instance * static_cast<std::uint64_t>(
                                   std::max(1, std::min(max_overlap,
                                                        prm.overlap_cap))),
                "ParallelNibble/nibbles");

  if (max_overlap > prm.overlap_cap) {
    // Endpoints broadcast the abort token: O(D).
    ledger.charge(diameter + 1, "ParallelNibble/select");
    out.overlap_aborted = true;
    out.rounds = ledger.rounds() - rounds_before;
    return out;
  }

  // --- Select i*: largest prefix (in instance-id order) whose union stays
  // under z = (23/24) Vol(V).  Charged as a random binary search over the
  // k random instance ids: O(D log k). ---
  ledger.charge(static_cast<std::uint64_t>(diameter + 1) *
                    static_cast<std::uint64_t>(ceil_log2_plus(k)),
                "ParallelNibble/select");

  const double z = (23.0 / 24.0) * static_cast<double>(total_volume);
  std::vector<char> member(g.num_vertices(), 0);
  std::uint64_t union_volume = 0;
  std::uint64_t used = 0;
  for (const auto& run : runs) {
    if (!run.inner.found()) {
      ++used;  // an empty C_i contributes nothing but keeps the prefix going
      continue;
    }
    // Tentatively add C_i; i* is the largest prefix with Vol <= z, so stop
    // *before* the first instance that would overflow.
    std::uint64_t added = 0;
    for (VertexId v : run.inner.cut) {
      if (!member[v]) added += g.degree(v);
    }
    if (static_cast<double>(union_volume + added) > z) break;
    for (VertexId v : run.inner.cut) member[v] = 1;
    union_volume += added;
    ++used;
  }
  out.instances_used = used;
  out.cut = VertexSet::from_bitmap(member);
  out.rounds = ledger.rounds() - rounds_before;
  return out;
}

template ParallelNibbleResult parallel_nibble(const Graph&, const NibbleParams&,
                                              Rng&, congest::RoundLedger&,
                                              std::optional<std::uint32_t>);
template ParallelNibbleResult parallel_nibble(const GraphView&,
                                              const NibbleParams&, Rng&,
                                              congest::RoundLedger&,
                                              std::optional<std::uint32_t>);

}  // namespace xd::sparsecut
