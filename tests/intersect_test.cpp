#include "triangle/intersect.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "congest/scheduler.hpp"
#include "graph/metrics.hpp"
#include "triangle/baseline_local.hpp"
#include "triangle/bucket_join.hpp"
#include "triangle/triple_rank.hpp"
#include "util/bitset_arena.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace xd::triangle::intersect {
namespace {

/// Restores the forced-scalar flag on scope exit so tests compose with the
/// XD_FORCE_SCALAR=1 CTest variant (which runs this whole suite pinned).
class ForceScalarGuard {
 public:
  ForceScalarGuard() : saved_(force_scalar()) {}
  ~ForceScalarGuard() { set_force_scalar(saved_); }

 private:
  bool saved_;
};

std::vector<std::uint32_t> reference_intersection(
    const std::vector<std::uint32_t>& a, const std::vector<std::uint32_t>& b) {
  std::vector<std::uint32_t> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

/// Strictly-ascending test ranges across the degree-skew families the
/// consumers produce: dense contiguous runs (clique cores), sparse wide
/// spreads (star leaves / hash-spread bucket runs), power-law gap mixes,
/// strided lattices, plus the empty/singleton edges.
std::vector<std::uint32_t> make_range(const std::string& family,
                                      std::size_t size, Rng& rng) {
  std::vector<std::uint32_t> v;
  v.reserve(size);
  if (family == "clique") {
    const std::uint32_t base = static_cast<std::uint32_t>(rng.next_below(64));
    for (std::size_t i = 0; i < size; ++i) {
      v.push_back(base + static_cast<std::uint32_t>(i));
    }
  } else if (family == "sparse") {
    std::uint32_t x = 0;
    for (std::size_t i = 0; i < size; ++i) {
      x += 1 + static_cast<std::uint32_t>(rng.next_below(257));
      v.push_back(x);
    }
  } else if (family == "powerlaw") {
    // Mostly unit gaps with occasional huge jumps: hub-adjacency shape.
    std::uint32_t x = 0;
    for (std::size_t i = 0; i < size; ++i) {
      const std::uint32_t gap =
          rng.next_bool(0.9) ? 1
                             : 1 + static_cast<std::uint32_t>(
                                       rng.next_below(1u << 14));
      x += gap;
      v.push_back(x);
    }
  } else {  // "strided"
    const std::uint32_t stride =
        1 + static_cast<std::uint32_t>(rng.next_below(7));
    std::uint32_t x = static_cast<std::uint32_t>(rng.next_below(16));
    for (std::size_t i = 0; i < size; ++i) {
      v.push_back(x);
      x += stride;
    }
  }
  return v;
}

std::vector<std::uint32_t> run_kernel(
    const std::string& kernel, const std::vector<std::uint32_t>& a,
    const std::vector<std::uint32_t>& b) {
  std::vector<std::uint32_t> out(std::min(a.size(), b.size()) + kOutSlack);
  std::size_t cnt = 0;
  if (kernel == "scalar") {
    cnt = intersect_scalar(a.data(), a.size(), b.data(), b.size(), out.data());
  } else if (kernel == "merge") {
    cnt = intersect_merge(a.data(), a.size(), b.data(), b.size(), out.data());
  } else if (kernel == "dispatch") {
    cnt = intersect_sorted(a.data(), a.size(), b.data(), b.size(), out.data());
  } else {  // "bitmap": build the first range, probe with the second
    out.assign(b.size() + kOutSlack, 0);
    auto& bm = BitmapIntersect::for_thread();
    bm.build(a.data(), a.size());
    cnt = bm.probe(b.data(), b.size(), out.data());
  }
  out.resize(cnt);
  return out;
}

// Every kernel class, both argument orders, against std::set_intersection
// across the size x skew grid -- the differential property grid of the
// hybrid subsystem.  Exact sequences, not just counts: the consumers'
// bit-identity guarantee rests on all kernels emitting the same ascending
// order.
TEST(IntersectKernels, PropertyGridMatchesReference) {
  const std::string families[] = {"clique", "sparse", "powerlaw", "strided"};
  const std::size_t sizes[] = {0, 1, 2, 3, 7, 8, 15, 16, 17, 63, 64, 100, 513};
  const std::string kernels[] = {"scalar", "merge", "bitmap", "dispatch"};
  Rng rng(42);
  for (const auto& fa : families) {
    for (const auto& fb : families) {
      for (const std::size_t sa : sizes) {
        for (const std::size_t sb : sizes) {
          if (sa * sb > 64 * 513) continue;  // keep the grid fast
          const auto a = make_range(fa, sa, rng);
          const auto b = make_range(fb, sb, rng);
          const auto want = reference_intersection(a, b);
          for (const auto& kernel : kernels) {
            EXPECT_EQ(run_kernel(kernel, a, b), want)
                << kernel << " on " << fa << "(" << sa << ") x " << fb << "("
                << sb << ")";
            EXPECT_EQ(run_kernel(kernel, b, a), want)
                << kernel << " swapped on " << fa << "(" << sa << ") x " << fb
                << "(" << sb << ")";
          }
        }
      }
    }
  }
}

// Forced-scalar output must match the dispatched (possibly SIMD) output
// exactly -- the guarantee the XD_FORCE_SCALAR CI variant rests on.
TEST(IntersectKernels, ForcedScalarBitIdentical) {
  ForceScalarGuard guard;
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    const auto a = make_range("powerlaw", 200 + rng.next_below(200), rng);
    const auto b = make_range("sparse", 200 + rng.next_below(200), rng);
    set_force_scalar(false);
    const auto dispatched = run_kernel("dispatch", a, b);
    const auto bitmap = run_kernel("bitmap", a, b);
    set_force_scalar(true);
    EXPECT_EQ(active_isa(), Isa::kScalarOnly);
    EXPECT_FALSE(use_bitmap(1u << 20));
    const auto forced = run_kernel("dispatch", a, b);
    EXPECT_EQ(forced, dispatched) << "trial " << trial;
    EXPECT_EQ(bitmap, dispatched) << "trial " << trial;
  }
}

TEST(IntersectKernels, IsaReportingConsistent) {
  ForceScalarGuard guard;
  set_force_scalar(false);
  const Isa isa = active_isa();
#if defined(__x86_64__) || defined(_M_X64)
  EXPECT_NE(isa, Isa::kScalarOnly);  // SSE2 is baseline on x86-64
  if (detail::avx2_compiled() && __builtin_cpu_supports("avx2")) {
    EXPECT_EQ(isa, Isa::kAvx2);
  }
#endif
  EXPECT_STREQ(isa_name(Isa::kScalarOnly), "scalar");
  EXPECT_STREQ(isa_name(Isa::kSse2), "sse2");
  EXPECT_STREQ(isa_name(Isa::kAvx2), "avx2");
  EXPECT_STREQ(kernel_name(Kernel::kScalar), "scalar");
  EXPECT_STREQ(kernel_name(Kernel::kMerge), "merge");
  EXPECT_STREQ(kernel_name(Kernel::kBitmap), "bitmap");
}

TEST(IntersectKernels, StatsAttributePerKernelClass) {
  ForceScalarGuard guard;
  set_force_scalar(false);
  reset_thread_stats();
  Rng rng(3);
  const auto a = make_range("clique", 4096, rng);
  const auto b = make_range("clique", 4096, rng);
  std::vector<std::uint32_t> out(a.size() + kOutSlack);

  (void)intersect_scalar(a.data(), a.size(), b.data(), b.size(), out.data());
  (void)intersect_merge(a.data(), a.size(), b.data(), b.size(), out.data());
  auto& bm = BitmapIntersect::for_thread();
  bm.build(a.data(), a.size());
  (void)bm.probe(b.data(), b.size(), out.data());

  const KernelStats& s = stats_for_thread();
  EXPECT_EQ(s.of(Kernel::kScalar).calls, 1u);
  EXPECT_EQ(s.of(Kernel::kScalar).elements, a.size() + b.size());
  EXPECT_EQ(s.of(Kernel::kMerge).calls, 1u);
  EXPECT_EQ(s.of(Kernel::kBitmap).calls, 1u);  // probe; build charges elements
  EXPECT_EQ(s.of(Kernel::kBitmap).elements, a.size() + b.size());
  EXPECT_GT(s.of(Kernel::kScalar).matches, 0u);
  // ns accumulates only while a bench enables timing.
  EXPECT_EQ(s.of(Kernel::kScalar).ns, 0u);
  set_timing_enabled(true);
  (void)intersect_scalar(a.data(), a.size(), b.data(), b.size(), out.data());
  set_timing_enabled(false);
  EXPECT_GT(stats_for_thread().of(Kernel::kScalar).ns, 0u);
  reset_thread_stats();
  EXPECT_EQ(stats_for_thread().of(Kernel::kScalar).calls, 0u);
}

TEST(StampedBitset, EpochsLogicallyClear) {
  util::StampedBitset bits;
  bits.begin_epoch(200);
  bits.set(0);
  bits.set(63);
  bits.set(64);
  bits.set(199);
  EXPECT_TRUE(bits.test(0));
  EXPECT_TRUE(bits.test(63));
  EXPECT_TRUE(bits.test(64));
  EXPECT_TRUE(bits.test(199));
  EXPECT_FALSE(bits.test(1));
  EXPECT_EQ(bits.word(0), (std::uint64_t{1} << 63) | 1u);
  bits.begin_epoch(200);  // O(1) logical clear
  EXPECT_FALSE(bits.test(0));
  EXPECT_FALSE(bits.test(199));
  EXPECT_EQ(bits.word(0), 0u);  // stale word reads zero via the stamp
  EXPECT_EQ(bits.stats().grown, 1u);
  EXPECT_EQ(bits.stats().reused, 1u);
  bits.begin_epoch(4096);  // growth re-stamps
  EXPECT_EQ(bits.stats().grown, 2u);
  bits.set(4095);
  EXPECT_TRUE(bits.test(4095));
  EXPECT_FALSE(bits.test(63));
}

/// Random CSR built the way enumerate_local_baseline builds its plane:
/// sorted loop-free neighbor lists.  `hub_every` wires dense hubs in to
/// push runs past kBitmapMinDegree.  `graph` holds the same edges, for the
/// triangles_exact oracle.
struct Csr {
  std::vector<std::uint32_t> offsets;
  std::vector<VertexId> adj;
  Graph graph;
};

Csr random_csr(std::size_t n, double p, std::size_t hub_every, Rng& rng) {
  std::vector<std::vector<VertexId>> nbrs(n);
  GraphBuilder builder(n);
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) {
      const bool hub = (hub_every != 0) && (u % hub_every == 0);
      if (hub || rng.next_bool(p)) {
        nbrs[u].push_back(v);
        nbrs[v].push_back(u);
        builder.add_edge(u, v);
      }
    }
  }
  Csr csr;
  csr.offsets.assign(n + 1, 0);
  for (VertexId v = 0; v < n; ++v) {
    std::sort(nbrs[v].begin(), nbrs[v].end());
    csr.adj.insert(csr.adj.end(), nbrs[v].begin(), nbrs[v].end());
    csr.offsets[v + 1] = static_cast<std::uint32_t>(csr.adj.size());
  }
  csr.graph = builder.build();
  return csr;
}

// The kernelized CSR join against the triangles_exact oracle -- content
// AND order -- on shapes that exercise all three kernel classes (sparse
// tails -> scalar, mid-density -> merge, hubs -> bitmap).
TEST(IntersectConsumers, CsrJoinMatchesExact) {
  Rng rng(11);
  struct Shape {
    std::size_t n;
    double p;
    std::size_t hub_every;
  };
  const Shape shapes[] = {{40, 0.1, 0}, {120, 0.3, 0}, {200, 0.05, 3},
                          {260, 0.5, 1}, {90, 0.0, 1},  {8, 1.0, 0}};
  for (const auto& shape : shapes) {
    const Csr csr = random_csr(shape.n, shape.p, shape.hub_every, rng);
    std::vector<Triangle> got;
    csr_triangle_join(csr.offsets.data(), csr.adj.data(), shape.n, got);
    EXPECT_EQ(got, triangles_exact(csr.graph))
        << "n=" << shape.n << " p=" << shape.p
        << " hub_every=" << shape.hub_every;
  }
}

// The kernelized proxy-bucket join against the triangles_exact oracle on
// random edge lists, including planes dense enough to cross the bitmap
// threshold inside single runs.  Every edge reaches every proxy of its
// group pair, so each triangle must be reported exactly once.
TEST(IntersectConsumers, BucketJoinMatchesExact) {
  Rng rng(13);
  for (int trial = 0; trial < 6; ++trial) {
    const std::uint32_t p = 2 + static_cast<std::uint32_t>(trial);
    const TripleRanker ranker(p);
    const std::size_t n = 40 + 30 * static_cast<std::size_t>(trial);
    std::vector<std::uint32_t> groups(n);
    for (auto& g : groups) {
      g = static_cast<std::uint32_t>(rng.next_below(p));
    }
    const double density = trial % 2 == 0 ? 0.2 : 0.7;
    std::vector<std::uint64_t> edges;
    GraphBuilder builder(n);
    for (VertexId u = 0; u < n; ++u) {
      for (VertexId v = u + 1; v < n; ++v) {
        if (!rng.next_bool(density)) continue;
        builder.add_edge(u, v);
        edges.push_back(pack_edge(v, u));  // either endpoint order packs
      }
    }
    JoinScratch js;
    std::vector<Triangle> got;
    join_proxy_plane(edges, ranker, groups.data(), js, got);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(std::adjacent_find(got.begin(), got.end()), got.end())
        << "duplicate report, trial " << trial;
    EXPECT_EQ(got, triangles_exact(builder.build())) << "trial " << trial;
  }
}

/// `count` distinct edges over n vertices, planted a triangle at a time
/// (the last one possibly cut short), so most planes hold triangles.
std::vector<std::pair<VertexId, VertexId>> planted_edges(std::size_t n,
                                                         std::size_t count,
                                                         Rng& rng) {
  std::vector<std::pair<VertexId, VertexId>> out;
  const auto add = [&](VertexId a, VertexId b) {
    const std::pair e{std::min(a, b), std::max(a, b)};
    if (out.size() < count &&
        std::find(out.begin(), out.end(), e) == out.end()) {
      out.push_back(e);
    }
  };
  while (out.size() < count) {
    const auto a = static_cast<VertexId>(rng.next_below(n));
    const auto b = static_cast<VertexId>(rng.next_below(n));
    const auto c = static_cast<VertexId>(rng.next_below(n));
    if (a == b || b == c || a == c) continue;
    add(a, b);
    add(b, c);
    add(a, c);
  }
  return out;
}

// The join against triangles_exact on the grid that once pinned the two
// layout branches: p = 7 with 3 and 2 edges sits on both sides of the old
// copies × 4 = R selector, p = 30/40 with few edges are former sparse
// planes, and p = 2000 holds a handful of edges over R = C(2002,3) ≈ 1.3e9
// triples -- a walk over the rank domain would take seconds there.  The
// raw output must already be duplicate-free: every bucket is joined once
// and every triangle is reported at its one owning proxy.
TEST(BucketJoin, MatchesExactAcrossPlaneShapes) {
  struct Case {
    std::uint32_t p;
    std::size_t n, edges;
  };
  const Case cases[] = {{7, 10, 3},   {7, 10, 2},   {1, 30, 40},
                        {3, 60, 400}, {30, 80, 30}, {40, 300, 60},
                        {5, 200, 2000}, {2000, 12, 9}};
  Rng rng(29);
  std::size_t total = 0;
  for (const Case& cs : cases) {
    const TripleRanker ranker(cs.p);
    std::vector<std::uint32_t> groups(cs.n);
    for (auto& g : groups) {
      g = static_cast<std::uint32_t>(rng.next_below(cs.p));
    }
    GraphBuilder builder(cs.n);
    std::vector<std::uint64_t> edges;
    for (const auto& [a, b] : planted_edges(cs.n, cs.edges, rng)) {
      builder.add_edge(a, b);
      edges.push_back(pack_edge(b, a));
    }
    JoinScratch js;
    BucketScratch& bs = BucketScratch::for_thread();
    bs = BucketScratch{};  // this case's largest bucket, not an earlier one
    std::vector<Triangle> got;
    join_proxy_plane(edges, ranker, groups.data(), js, got);
    EXPECT_TRUE(std::is_sorted(edges.begin(), edges.end()));
    std::sort(got.begin(), got.end());
    EXPECT_EQ(std::adjacent_find(got.begin(), got.end()), got.end())
        << "duplicate report, p=" << cs.p;
    EXPECT_EQ(got, triangles_exact(builder.build()))
        << "p=" << cs.p << " edges=" << cs.edges;
    // Bucket buffers hold one bucket, never the p copies of the plane.
    EXPECT_LE(bs.u.size(), edges.size()) << "p=" << cs.p;
    total += got.size();
  }
  EXPECT_GT(total, 100u);  // the grid is not vacuous
}

// The walk runs as nested chunks over contiguous ranges of its first pair
// group.  Inside a wide epoch the chunks spread over helper threads, each
// with its own bucket buffers; the raw output must still be the inline
// (single-thread, chunks in order) walk's, and exact.
TEST(BucketJoin, ChunkedWalkMatchesInlineWalkAtAnyWidth) {
  Rng rng(41);
  for (const std::uint32_t p : {9u, 23u}) {
    const TripleRanker ranker(p);
    const std::size_t n = 400;
    std::vector<std::uint32_t> groups(n);
    for (auto& g : groups) g = static_cast<std::uint32_t>(rng.next_below(p));
    GraphBuilder builder(n);
    std::vector<std::uint64_t> plane;
    for (const auto& [a, b] : planted_edges(n, 4000, rng)) {
      builder.add_edge(a, b);
      plane.push_back(pack_edge(a, b));
    }
    ASSERT_GE(std::uint64_t{p} * plane.size(), congest::kNestedWorkFloor);
    const auto join_at = [&](int threads) {
      std::vector<std::uint64_t> edges = plane;
      std::vector<Triangle> got;
      congest::EpochScheduler(threads).run(1, [&](std::size_t) {
        JoinScratch js;
        join_proxy_plane(edges, ranker, groups.data(), js, got);
      });
      return got;
    };
    const auto inline_walk = join_at(1);
    auto sorted = inline_walk;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, triangles_exact(builder.build())) << "p=" << p;
    EXPECT_GT(sorted.size(), 100u);
    for (const int threads : {2, 8}) {
      EXPECT_EQ(join_at(threads), inline_walk)
          << "p=" << p << " threads=" << threads;
    }
  }
}

// Input order and repeats do not show: every edge twice, shuffled, joins
// exactly like the sorted unique list, raw output order included.
TEST(BucketJoin, ShuffledRepeatsMatchSortedUniqueInput) {
  Rng rng(31);
  for (const std::uint32_t p : {3u, 9u}) {
    const TripleRanker ranker(p);
    const std::size_t n = 60;
    std::vector<std::uint32_t> groups(n);
    for (auto& g : groups) g = static_cast<std::uint32_t>(rng.next_below(p));
    std::vector<std::uint64_t> unique_edges;
    for (VertexId u = 0; u < n; ++u) {
      for (VertexId v = u + 1; v < n; ++v) {
        if (rng.next_bool(0.3)) unique_edges.push_back(pack_edge(u, v));
      }
    }
    std::vector<std::uint64_t> repeated;
    for (const std::uint64_t e : unique_edges) {
      repeated.push_back(e);
      repeated.push_back(e);
    }
    for (std::size_t i = repeated.size(); i > 1; --i) {  // Fisher-Yates
      std::swap(repeated[i - 1], repeated[rng.next_below(i)]);
    }
    ASSERT_FALSE(std::is_sorted(repeated.begin(), repeated.end()));

    JoinScratch want_js, got_js;
    std::vector<Triangle> want, got;
    join_proxy_plane(unique_edges, ranker, groups.data(), want_js, want);
    join_proxy_plane(repeated, ranker, groups.data(), got_js, got);
    EXPECT_EQ(repeated, unique_edges) << "p=" << p;
    EXPECT_EQ(got, want) << "p=" << p;
    EXPECT_FALSE(want.empty()) << "p=" << p;
  }
}

// The plane is capped below 2^32 copies (bucket merge counts and run
// offsets are u32) and below 2^32 rank-domain triples (which bounds the
// O(p^2) pair tables): either overflow is a CheckError raised before any
// plane buffer is allocated.
TEST(BucketJoin, OversizedPlaneIsACheckError) {
  {
    const TripleRanker ranker(3000);  // R = C(3002, 3) ≈ 4.5e9
    ASSERT_GE(ranker.count(), std::uint64_t{1} << 32);
    const std::vector<std::uint32_t> groups = {0, 1};
    std::vector<std::uint64_t> edges = {pack_edge(0, 1)};
    JoinScratch js;
    const std::size_t bucket_capacity =
        BucketScratch::for_thread().u.capacity();
    std::vector<Triangle> out;
    EXPECT_THROW(join_proxy_plane(edges, ranker, groups.data(), js, out),
                 CheckError);
    EXPECT_EQ(js.pair_ends.capacity(), 0u);
    EXPECT_EQ(js.pair_edges.capacity(), 0u);
    EXPECT_EQ(BucketScratch::for_thread().u.capacity(), bucket_capacity);
  }
  {
    // R = C(2902, 3) ≈ 4.07e9 fits, but 1.5M edges × 2900 copies do not.
    const std::uint32_t p = 2900;
    const TripleRanker ranker(p);
    ASSERT_LT(ranker.count(), std::uint64_t{1} << 32);
    const std::size_t num_edges = 1'500'000;
    std::vector<std::uint32_t> groups(num_edges + 1);
    for (std::size_t v = 0; v < groups.size(); ++v) {
      groups[v] = static_cast<std::uint32_t>(v % p);
    }
    std::vector<std::uint64_t> edges(num_edges);
    for (std::size_t i = 0; i < num_edges; ++i) {
      edges[i] = pack_edge(static_cast<VertexId>(i),
                           static_cast<VertexId>(i + 1));
    }
    JoinScratch js;
    const std::size_t bucket_capacity =
        BucketScratch::for_thread().u.capacity();
    std::vector<Triangle> out;
    EXPECT_THROW(join_proxy_plane(edges, ranker, groups.data(), js, out),
                 CheckError);
    EXPECT_EQ(js.pair_ends.capacity(), 0u);
    EXPECT_EQ(js.pair_edges.capacity(), 0u);
    EXPECT_EQ(BucketScratch::for_thread().u.capacity(), bucket_capacity);
  }
}

}  // namespace
}  // namespace xd::triangle::intersect
