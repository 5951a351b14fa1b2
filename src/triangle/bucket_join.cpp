#include "triangle/bucket_join.hpp"

#include <algorithm>

#include "congest/scheduler.hpp"
#include "triangle/intersect.hpp"
#include "util/check.hpp"

namespace xd::triangle {

namespace {

constexpr std::uint64_t kU32Limit = std::uint64_t{1} << 32;

/// Most chunks one bucket walk splits into.
constexpr std::uint64_t kWalkChunks = 64;

/// Above every packed edge (min < max, so never all ones): closes each
/// pair list, and stands in for a bucket's missing lists.
constexpr std::uint64_t kNoEdge = ~std::uint64_t{0};

/// Writes the `size` smallest edges of three sorted, kNoEdge-terminated,
/// pairwise disjoint edge lists, ascending, to us/vs.  Branch-free: the
/// picks are data-dependent, so a branchy merge would mispredict.
void merge_lists(const std::uint64_t* pa, const std::uint64_t* pb,
                 const std::uint64_t* pc, std::uint32_t size,
                 std::uint32_t* us, std::uint32_t* vs) {
  std::uint64_t a = *pa, b = *pb, c = *pc;
  for (std::uint32_t t = 0; t < size; ++t) {
    const bool take_b = b < a;
    const std::uint64_t m = take_b ? b : a;
    const bool take_c = c < m;
    const std::uint64_t e = take_c ? c : m;
    us[t] = static_cast<std::uint32_t>(e >> 32);
    vs[t] = static_cast<std::uint32_t>(e);
    pa += !take_b & !take_c;
    pb += take_b & !take_c;
    pc += take_c;
    a = *pa;
    b = *pb;
    c = *pc;
  }
}

/// Kernelized join of one bucket span of `bn` copies: smaller endpoints
/// `us`, larger endpoints `vals`, sorted by (u, v).  The runs of equal
/// smaller endpoint are indexed once; each wedge source y in the run of x
/// then closes via ONE intersection of the x-run's tail with y's run,
/// instead of one binary search per candidate pair:
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
void join_bucket_kernel(const std::uint32_t* us, const std::uint32_t* vals,
                        std::size_t bn, std::uint64_t rank,
                        const TripleRanker& ranker,
                        const std::uint32_t* groups, BucketScratch& js,
                        std::vector<Triangle>& out) {
  js.run_u.clear();
  js.run_begin.clear();
  js.run_end.clear();
  for (std::size_t t = 0; t < bn;) {
    const VertexId u = us[t];
    const std::size_t begin = t;
    while (t < bn && us[t] == u) ++t;
    js.run_u.push_back(u);
    js.run_begin.push_back(static_cast<std::uint32_t>(begin));
    js.run_end.push_back(static_cast<std::uint32_t>(t));
  }
  js.matches.resize(bn + intersect::kOutSlack);

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

BucketScratch& BucketScratch::for_thread() {
  thread_local BucketScratch scratch;
  return scratch;
}

void join_proxy_plane(std::vector<std::uint64_t>& edges,
                      const TripleRanker& ranker, const std::uint32_t* groups,
                      JoinScratch& js, std::vector<Triangle>& out) {
  if (edges.empty()) return;
  // Two caps, both checked before anything is allocated.  A bucket holds
  // at most every edge, and its merge count and run offsets are u32: the
  // plane stays below 2^32 copies.  The rank domain stays below 2^32
  // triples, which bounds p (<= 2954) and with it the O(p^2) pair tables.
  const std::uint32_t p = ranker.p();
  const std::uint64_t num_ranks = ranker.count();
  XD_CHECK_MSG(num_ranks < kU32Limit,
               "proxy rank domain of " << num_ranks << " triples exceeds 2^32");
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  const std::uint64_t copies = std::uint64_t{p} * edges.size();
  XD_CHECK_MSG(copies < kU32Limit,
               "proxy plane of " << copies << " copies exceeds 2^32");

  // Group the sorted edges by unordered group pair, each list in (u, v)
  // order and closed by kNoEdge.  ends[k] ends up indexing pair k's
  // sentinel; its list starts one past pair k - 1's.
  const std::size_t num_pairs = std::size_t{p} * p;
  const auto pair_of = [&](std::uint64_t e) {
    std::uint32_t ga = groups[e >> 32];
    std::uint32_t gb = groups[static_cast<std::uint32_t>(e)];
    if (ga > gb) std::swap(ga, gb);
    return std::size_t{ga} * p + gb;
  };
  auto& ends = js.pair_ends;
  ends.assign(num_pairs + 1, 0);
  for (const std::uint64_t e : edges) ++ends[pair_of(e) + 1];
  for (std::size_t k = 0; k < num_pairs; ++k) ends[k + 1] += ends[k] + 1;
  js.pair_edges.assign(ends[num_pairs], kNoEdge);
  for (const std::uint64_t e : edges) js.pair_edges[ends[pair_of(e)]++] = e;
  const auto list_begin = [&](std::size_t k) {
    return k == 0 ? 0 : ends[k - 1] + 1;
  };

  // The bucket of sorted triple a <= b <= c holds the edges of the (at
  // most three) distinct pairs (a,b), (a,c), (b,c), whose lists are
  // disjoint.  Every non-empty bucket contains a non-empty pair, so the
  // walk goes from each non-empty pair {x, y} to its p triples {x, y, g}
  // and takes a bucket only from the first non-empty pair it lists: each
  // bucket is merged and joined exactly once, O(p^2 + copies) in all.
  const auto walk = [&](std::uint32_t x, BucketScratch& bs,
                        std::vector<Triangle>& tris) {
    for (std::uint32_t y = x; y < p; ++y) {
      const std::size_t k = std::size_t{x} * p + y;
      if (ends[k] == list_begin(k)) continue;
      for (std::uint32_t g = 0; g < p; ++g) {
        const std::uint32_t a = std::min(x, g);
        const std::uint32_t b = std::clamp(g, x, y);
        const std::uint32_t c = std::max(y, g);
        const std::uint64_t* lists[3] = {&kNoEdge, &kNoEdge, &kNoEdge};
        std::size_t size = 0;
        int num_lists = 0;
        // Adds a pair's list; false when an earlier non-empty pair (not
        // {x, y}) owns the bucket.
        const auto add = [&](std::uint32_t ga, std::uint32_t gb) {
          const std::size_t pair = std::size_t{ga} * p + gb;
          const std::size_t lo = list_begin(pair);
          if (ends[pair] == lo) return true;
          if (num_lists == 0 && pair != k) return false;
          lists[num_lists++] = js.pair_edges.data() + lo;
          size += ends[pair] - lo;
          return true;
        };
        if (!add(a, b) || (c != b && !add(a, c)) || (a != b && !add(b, c))) {
          continue;
        }
        if (bs.u.size() < size) {
          bs.u.resize(size);
          bs.v.resize(size);
        }
        merge_lists(lists[0], lists[1], lists[2],
                    static_cast<std::uint32_t>(size), bs.u.data(),
                    bs.v.data());
        join_bucket_kernel(bs.u.data(), bs.v.data(), size,
                           ranker.rank_sorted(a, b, c), ranker, groups, bs,
                           tris);
      }
    }
  };

  // Chunks are contiguous x-ranges of about equal weight -- pair {x, y}'s
  // edges reach p buckets, its empty-pair scan costs one step per y --
  // at most kWalkChunks of them, cut by the plane alone.
  const std::uint64_t total =
      std::uint64_t{p} * (p + 1) / 2 + std::uint64_t{p} * edges.size();
  std::vector<std::uint32_t> x_bounds{0};
  std::uint64_t cum = 0;
  for (std::uint32_t x = 0; x + 1 < p; ++x) {
    cum += p - x;
    for (std::uint32_t y = x; y < p; ++y) {
      const std::size_t k = std::size_t{x} * p + y;
      cum += std::uint64_t{p} * (ends[k] - list_begin(k));
    }
    if (cum * kWalkChunks >= total * x_bounds.size()) x_bounds.push_back(x + 1);
  }
  x_bounds.push_back(p);
  const std::size_t chunks = x_bounds.size() - 1;
  std::vector<std::vector<Triangle>> chunk_tris(chunks);
  congest::parallel_chunks(chunks, copies, [&](std::size_t c) {
    BucketScratch& bs = BucketScratch::for_thread();
    for (std::uint32_t x = x_bounds[c]; x < x_bounds[c + 1]; ++x) {
      walk(x, bs, chunk_tris[c]);
    }
  });
  for (const auto& tris : chunk_tris) {
    out.insert(out.end(), tris.begin(), tris.end());
  }
}

}  // namespace xd::triangle
