#include "triangle/bucket_join.hpp"

#include <algorithm>

#include "triangle/intersect.hpp"

namespace xd::triangle {

namespace {

/// Orders the plane by (rank, u, v) and dedups.  The counting path pays an
/// O(R) counter clear, so take it only when the plane is at least a
/// constant fraction of the rank domain; sparse planes comparison-sort
/// directly.  Both paths produce the identical ordering.
void group_tuples(std::vector<ProxyTuple>& tuples, const TripleRanker& ranker,
                  JoinScratch& js) {
  const std::uint64_t num_ranks = ranker.count();
  if (tuples.size() * 4 >= num_ranks) {
    js.counts.assign(num_ranks + 1, 0);
    for (const ProxyTuple& t : tuples) ++js.counts[t.rank + 1];
    for (std::uint64_t r = 0; r < num_ranks; ++r) {
      js.counts[r + 1] += js.counts[r];
    }
    js.scatter.resize(tuples.size());
    for (const ProxyTuple& t : tuples) js.scatter[js.counts[t.rank]++] = t;
    tuples.swap(js.scatter);
    // counts[r] now marks the end of bucket r; sort each span by (u, v).
    std::size_t lo = 0;
    for (std::uint64_t r = 0; r < num_ranks && lo < tuples.size(); ++r) {
      const std::size_t hi = js.counts[r];
      if (hi > lo + 1) std::sort(tuples.begin() + lo, tuples.begin() + hi);
      lo = hi;
    }
  } else {
    std::sort(tuples.begin(), tuples.end());
  }
  tuples.erase(std::unique(tuples.begin(), tuples.end()), tuples.end());
}

/// Kernelized join of one bucket span [lo, hi).  The span's larger
/// endpoints are copied to a contiguous u32 array (SIMD-friendly) and the
/// runs of equal smaller endpoint are indexed once; each wedge source y in
/// the run of x then closes via ONE intersection of the x-run's tail with
/// y's run, instead of one binary search per candidate pair:
///
///   * run(x) holds x's bucket-neighbors > x, strictly ascending;
///   * run(y) (further down the span, since y > x) holds y's neighbors
///     > y, so every probe result z satisfies z > y automatically;
///   * z ∈ run(x) ∩ run(y) with z > y  <=>  (x,y), (x,z), (y,z) are all
///     bucket edges -- the triangle x < y < z.
///
/// High-degree runs build an epoch-stamped bitmap of run(x) once and probe
/// each run(y) against it; the bitmap holds *all* of run(x), but every
/// probed z is > y, so the match set equals the tail intersection exactly.
/// Emission order is (x asc, y asc, z asc).
void join_bucket_kernel(const std::vector<ProxyTuple>& tuples, std::size_t lo,
                        std::size_t hi, std::uint64_t rank,
                        const TripleRanker& ranker,
                        const std::uint32_t* groups, JoinScratch& js,
                        std::vector<Triangle>& out) {
  const std::size_t bn = hi - lo;
  js.vals.resize(bn);
  for (std::size_t t = 0; t < bn; ++t) js.vals[t] = tuples[lo + t].v;
  js.run_u.clear();
  js.run_begin.clear();
  js.run_end.clear();
  for (std::size_t t = 0; t < bn;) {
    const VertexId u = tuples[lo + t].u;
    const std::size_t begin = t;
    while (t < bn && tuples[lo + t].u == u) ++t;
    js.run_u.push_back(u);
    js.run_begin.push_back(static_cast<std::uint32_t>(begin));
    js.run_end.push_back(static_cast<std::uint32_t>(t));
  }
  js.matches.resize(bn + intersect::kOutSlack);

  const std::uint32_t* vals = js.vals.data();
  std::uint32_t* matches = js.matches.data();
  auto& bm = intersect::BitmapIntersect::for_thread();
  const std::size_t num_runs = js.run_u.size();
  for (std::size_t r = 0; r < num_runs; ++r) {
    const VertexId x = js.run_u[r];
    const std::size_t b0 = js.run_begin[r];
    const std::size_t b1 = js.run_end[r];
    if (b1 - b0 < 2) continue;  // no wedge without two bucket-neighbors
    const bool hub = intersect::use_bitmap(b1 - b0);
    if (hub) bm.build(vals + b0, b1 - b0);
    // Runs are ascending in u, so y's run (y > x) can only lie past r.
    std::size_t next = r + 1;
    for (std::size_t a = b0; a + 1 < b1; ++a) {
      const std::uint32_t y = vals[a];
      const auto yit = std::lower_bound(js.run_u.begin() + next,
                                        js.run_u.end(), y);
      if (yit == js.run_u.end()) break;  // no later run can close a wedge
      next = static_cast<std::size_t>(yit - js.run_u.begin());
      if (*yit != y) continue;
      const std::size_t q0 = js.run_begin[next];
      const std::size_t q1 = js.run_end[next];
      std::size_t cnt;
      if (hub) {
        cnt = bm.probe(vals + q0, q1 - q0, matches);
      } else {
        cnt = intersect::intersect_sorted(vals + a + 1, b1 - (a + 1),
                                          vals + q0, q1 - q0, matches);
      }
      for (std::size_t t = 0; t < cnt; ++t) {
        const std::uint32_t z = matches[t];
        // Report only at the owning proxy (no duplicates across proxies).
        if (ranker.rank(groups[x], groups[y], groups[z]) == rank) {
          out.push_back(Triangle{x, y, z});
        }
      }
    }
  }
}

}  // namespace

void join_proxy_buckets(std::vector<ProxyTuple>& tuples,
                        const TripleRanker& ranker,
                        const std::uint32_t* groups, JoinScratch& js,
                        std::vector<Triangle>& out) {
  if (tuples.empty()) return;
  group_tuples(tuples, ranker, js);

  // Kernelized join, one bucket span at a time.
  const std::size_t n = tuples.size();
  std::size_t lo = 0;
  while (lo < n) {
    const std::uint64_t rank = tuples[lo].rank;
    std::size_t hi = lo;
    while (hi < n && tuples[hi].rank == rank) ++hi;
    join_bucket_kernel(tuples, lo, hi, rank, ranker, groups, js, out);
    lo = hi;
  }
}

}  // namespace xd::triangle
