#include "spectral/lazy_walk.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>
#include <unordered_set>

#include "congest/scheduler.hpp"
#include "graph/generators.hpp"
#include "graph/graph_view.hpp"
#include "graph/metrics.hpp"
#include "spectral/fiedler.hpp"
#include "spectral/mixing.hpp"
#include "spectral/sweep.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace xd::spectral {
namespace {

TEST(LazyWalk, ConservesMass) {
  Rng rng(1);
  const Graph g = gen::gnp(40, 0.2, rng);
  std::vector<double> p(40, 0.0);
  p[0] = 1.0;
  for (int t = 0; t < 10; ++t) {
    p = lazy_step(g, p);
    double total = std::accumulate(p.begin(), p.end(), 0.0);
    EXPECT_NEAR(total, 1.0, 1e-12);
  }
}

TEST(LazyWalk, StationaryIsFixedPoint) {
  Rng rng(2);
  const Graph g = gen::gnp(30, 0.3, rng);
  const auto pi = stationary(g);
  const auto next = lazy_step(g, pi);
  for (std::size_t v = 0; v < pi.size(); ++v) {
    EXPECT_NEAR(next[v], pi[v], 1e-12);
  }
}

TEST(LazyWalk, SelfLoopsKeepMassInPlace) {
  // Two vertices, one edge, 3 loops at vertex 0 -> from 0 only 1/(2*4) of
  // the mass leaves per step.
  GraphBuilder b(2);
  b.add_edge(0, 1).add_loops(0, 3);
  const Graph g = b.build();
  std::vector<double> p{1.0, 0.0};
  p = lazy_step(g, p);
  EXPECT_NEAR(p[1], 1.0 / 8.0, 1e-12);
  EXPECT_NEAR(p[0], 7.0 / 8.0, 1e-12);
}

TEST(LazyWalk, ConvergesToStationary) {
  const Graph g = gen::complete(10);
  std::vector<double> p(10, 0.0);
  p[3] = 1.0;
  p = lazy_walk(g, p, 50);
  const auto pi = stationary(g);
  for (std::size_t v = 0; v < 10; ++v) EXPECT_NEAR(p[v], pi[v], 1e-6);
}

TEST(TruncatedWalk, TruncationOnlyRemovesMass) {
  Rng rng(3);
  const Graph g = gen::gnp(50, 0.15, rng);
  const double eps = 1e-4;
  const auto evolution = truncated_walk(g, 0, 20, eps);
  // Dense reference.
  std::vector<double> dense(50, 0.0);
  dense[0] = 1.0;
  for (std::size_t t = 0; t < evolution.size(); ++t) {
    // p̃_t(u) <= p_t(u) everywhere (paper: "for all u and t, p_t(u) >=
    // p̃_t(u)").
    std::vector<double> sparse_dense(50, 0.0);
    for (std::size_t i = 0; i < evolution[t].size(); ++i) {
      sparse_dense[evolution[t].support[i]] = evolution[t].mass[i];
    }
    for (std::size_t v = 0; v < 50; ++v) {
      EXPECT_LE(sparse_dense[v], dense[v] + 1e-12);
    }
    dense = lazy_step(g, dense);
  }
}

TEST(TruncatedWalk, ThresholdEnforced) {
  Rng rng(4);
  const Graph g = gen::gnp(50, 0.15, rng);
  const double eps = 1e-3;
  const auto evolution = truncated_walk(g, 0, 15, eps);
  for (std::size_t t = 1; t < evolution.size(); ++t) {
    for (std::size_t i = 0; i < evolution[t].size(); ++i) {
      const VertexId v = evolution[t].support[i];
      EXPECT_GE(evolution[t].mass[i], 2.0 * eps * g.degree(v) - 1e-15);
    }
  }
}

TEST(TruncatedWalk, SupportVolumeBoundedByLemma3) {
  // Lemma 3's underlying fact: at each step the set of vertices with
  // ρ(v) >= 2ε has volume <= 1/(2ε).
  Rng rng(5);
  const Graph g = gen::random_regular(100, 4, rng);
  const double eps = 1e-3;
  const auto evolution = truncated_walk(g, 7, 30, eps);
  for (const auto& dist : evolution) {
    std::uint64_t vol = 0;
    for (VertexId v : dist.support) vol += g.degree(v);
    EXPECT_LE(static_cast<double>(vol), 1.0 / (2 * eps) + g.max_degree());
  }
}

TEST(Sweep, OrdersByRhoThenId) {
  const Graph g = gen::path(4);
  std::vector<double> rho{0.5, 0.9, 0.5, 0.0};
  const Sweep s = sweep_cut(g, rho);
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s.order[0], 1u);
  EXPECT_EQ(s.order[1], 0u);  // tie with 2 broken by id
  EXPECT_EQ(s.order[2], 2u);
}

TEST(Sweep, PrefixCutAndVolumeMatchOracle) {
  Rng rng(6);
  const Graph g = gen::gnp(30, 0.2, rng);
  std::vector<double> rho(30);
  for (auto& x : rho) x = rng.next_double();
  const Sweep s = sweep_cut(g, rho);
  for (std::size_t j = 1; j <= s.size(); ++j) {
    const VertexSet prefix = s.prefix(j);
    EXPECT_EQ(s.prefix_volume[j - 1], volume(g, prefix));
    EXPECT_EQ(s.prefix_cut[j - 1], cut_size(g, prefix));
    const double expect = conductance(g, prefix);
    if (std::isinf(expect)) {
      EXPECT_TRUE(std::isinf(s.conductance(j)));
    } else {
      EXPECT_NEAR(s.conductance(j), expect, 1e-12);
    }
  }
}

TEST(Sweep, FindsPlantedCutFromWalk) {
  // Run a lazy walk from inside one community of a dumbbell; the sweep of
  // rho should recover a cut far better than a random one.
  Rng rng(7);
  const Graph g = gen::dumbbell_expanders(50, 50, 4, 2, rng);
  std::vector<double> p(g.num_vertices(), 0.0);
  p[0] = 1.0;
  p = lazy_walk(g, p, 60);
  const Sweep s = sweep_cut(g, normalize_by_degree(g, p));
  const std::size_t j = best_prefix(s);
  ASSERT_GT(j, 0u);
  EXPECT_LT(s.conductance(j), 0.05);
}

TEST(Mixing, SecondEigenvalueKnownFamilies) {
  // Lazy walk on K_n: eigenvalues 1 and (n-2)/(2(n-1)) ... for K_10:
  // non-lazy eig -1/(n-1) -> lazy (1 - 1/9)/2 = 0.4444.
  const Graph k10 = gen::complete(10);
  EXPECT_NEAR(lazy_second_eigenvalue(k10), (1.0 - 1.0 / 9.0) / 2.0, 1e-3);

  // Cycle C_n: non-lazy eig cos(2π/n) -> lazy (1+cos(2π/n))/2.
  const Graph c20 = gen::cycle(20);
  const double expect = (1.0 + std::cos(2.0 * M_PI / 20.0)) / 2.0;
  EXPECT_NEAR(lazy_second_eigenvalue(c20), expect, 1e-3);
}

TEST(Mixing, SimulatedMixingOrdersFamiliesCorrectly) {
  Rng rng(8);
  const Graph expander = gen::random_regular(64, 6, rng);
  const Graph ring = gen::cycle(64);
  const auto t_exp = mixing_time_simulated(expander);
  const auto t_ring = mixing_time_simulated(ring);
  EXPECT_LT(t_exp, 60u);
  EXPECT_GT(t_ring, 5 * t_exp);
}

TEST(Mixing, JerrumSinclairSandwich) {
  // Θ(1/Φ) <= τ <= Θ(log n / Φ²) with explicit constants loose enough to
  // be robust: τ >= 1/(4Φ) - 1 and τ <= 16 ln(vol) / Φ².  Φ is taken from
  // the Fiedler sweep, which is within Cheeger slack of exact -- the bounds
  // used here absorb that slack.
  Rng rng(9);
  const Rng master(777);
  Rng r1 = master.fork(1), r2 = master.fork(2);
  const std::vector<Graph> families = {
      gen::cycle(40),
      gen::random_regular(40, 4, rng),
      gen::hypercube(5),
      gen::cycle(64),
      gen::grid(8, 8, /*wrap=*/true),
      gen::hypercube(6),
      gen::complete(32),
      gen::barbell(16),
      gen::random_regular(64, 6, r1),
      gen::dumbbell_expanders(32, 32, 4, 1, r2)};
  for (const Graph& g : families) {
    SCOPED_TRACE(::testing::Message() << "n=" << g.num_vertices()
                                      << " m=" << g.num_edges());
    const auto cut = fiedler_sweep(g);
    ASSERT_TRUE(cut.has_value());
    const double phi = cut->conductance;
    const auto tau = mixing_time_simulated(g);
    EXPECT_GE(tau + 1.0, 0.25 / phi) << "lower bound";
    EXPECT_LE(tau, 16.0 * std::log(static_cast<double>(g.volume())) / (phi * phi))
        << "upper bound";
  }
}

TEST(Fiedler, RecoversBarbellCut) {
  const Graph g = gen::barbell(8);
  const auto cut = fiedler_sweep(g);
  ASSERT_TRUE(cut.has_value());
  EXPECT_LT(cut->conductance, 0.05);
  EXPECT_NEAR(balance(g, cut->cut), 0.5, 0.1);
}

TEST(Fiedler, NoCutOnTinyGraph) {
  EXPECT_FALSE(fiedler_sweep(gen::path(1)).has_value());
}

TEST(Fiedler, ExpanderHasLargeConductance) {
  Rng rng(10);
  const Graph g = gen::random_regular(100, 6, rng);
  const auto cut = fiedler_sweep(g);
  ASSERT_TRUE(cut.has_value());
  EXPECT_GT(cut->conductance, 0.1);
  EXPECT_LT(cut->lambda2, 0.95);
}

// λ₂ has one convention: the sweep reports the value the eigenvalue
// estimate returns (0 on collapse, else clamped to [0, 1]) -- on lazy K_2
// the raw Rayleigh quotient reads -1.6e-16.
TEST(Fiedler, LambdaMatchesSecondEigenvalueOnTinyGraphs) {
  for (const Graph& g : {gen::complete(2), gen::path(3), gen::star(4)}) {
    const auto cut = fiedler_sweep(g);
    ASSERT_TRUE(cut.has_value()) << g.num_vertices();
    EXPECT_EQ(cut->lambda2, lazy_second_eigenvalue(g)) << g.num_vertices();
    EXPECT_GE(cut->lambda2, 0.0);
    EXPECT_LE(cut->lambda2, 1.0);
  }
}

// ------------------------------------------- the chunked Graph SpMV

/// One lazy step as the power loop takes it: gather::at over every vertex.
std::vector<double> gather_step(const Graph& g, const std::vector<double>& p) {
  const std::size_t n = g.num_vertices();
  std::vector<double> share(n, 0.0);
  for (VertexId v = 0; v < n; ++v) {
    if (g.degree(v) > 0) share[v] = p[v] / (2.0 * g.degree(v));
  }
  std::vector<double> next(n);
  for (VertexId u = 0; u < n; ++u) {
    next[u] = gather::at(g, p.data(), share.data(), u);
  }
  return next;
}

/// The power loop as it was written around the push lazy_step.
PowerIterate push_power_iteration(const Graph& g, int iterations) {
  const std::size_t n = g.num_vertices();
  const double vol = static_cast<double>(g.volume());
  std::vector<double> top(n);
  for (VertexId v = 0; v < n; ++v) top[v] = std::sqrt(g.degree(v) / vol);
  PowerIterate out;
  std::vector<double>& y = out.y;
  y.resize(n);
  for (VertexId v = 0; v < n; ++v) {
    y[v] = ((v * 2654435761u) % 1000) / 1000.0 - 0.5;
  }
  const auto deflate = [&](std::vector<double>& vec) {
    double dot = 0;
    for (std::size_t i = 0; i < n; ++i) dot += vec[i] * top[i];
    for (std::size_t i = 0; i < n; ++i) vec[i] -= dot * top[i];
  };
  deflate(y);
  for (int it = 0; it < iterations; ++it) {
    double sum_sq = 0;
    for (const double x : y) sum_sq += x * x;
    const double len = std::sqrt(sum_sq);
    if (len < 1e-300) {
      out.collapsed = true;
      break;
    }
    for (double& x : y) x /= len;
    std::vector<double> x(n);
    for (VertexId v = 0; v < n; ++v) {
      x[v] = y[v] * std::sqrt(static_cast<double>(g.degree(v)));
    }
    x = lazy_step(g, x);
    for (VertexId v = 0; v < n; ++v) {
      const double d = g.degree(v);
      x[v] = d > 0 ? x[v] / std::sqrt(d) : 0.0;
    }
    deflate(x);
    double dot = 0;
    for (std::size_t i = 0; i < n; ++i) dot += x[i] * y[i];
    out.lambda = dot;
    y = std::move(x);
  }
  return out;
}

std::vector<std::uint64_t> bits(const std::vector<double>& xs) {
  std::vector<std::uint64_t> out(xs.size());
  std::memcpy(out.data(), xs.data(), xs.size() * sizeof(double));
  return out;
}

/// Loops, parallel edges and isolated vertices, with enough slots that
/// the power loop's SpMV splits into several chunks.
Graph messy_multigraph() {
  Rng rng(77);
  constexpr std::size_t kN = 6000;
  GraphBuilder b(kN, /*allow_parallel=*/true);
  for (VertexId v = 0; v + 10 < kN; ++v) {  // the last 10 stay isolated
    for (int k = 0; k < 4; ++k) {
      const auto u = static_cast<VertexId>(rng.next_below(kN - 10));
      b.add_edge(v, u);  // u == v adds a loop
      if (k == 0 && v % 5 == 0) b.add_edge(v, u);  // a parallel copy
    }
    if (v % 7 == 0) b.add_loops(v, 1 + v % 3);
  }
  return b.build();
}

TEST(LazyWalk, GatherMatchesPushStepBitForBit) {
  Rng rng(3);
  const std::vector<Graph> graphs = {
      messy_multigraph(), gen::preferential_attachment(8000, 3, rng),
      gen::complete(2)};
  for (const Graph& g : graphs) {
    std::vector<double> p(g.num_vertices(), 0.0);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (g.degree(v) > 0) p[v] = 1.0 / (1.0 + v % 13) - (v % 3 == 0 ? 0.2 : 0);
    }
    EXPECT_EQ(bits(gather_step(g, gather_step(g, p))),
              bits(lazy_step(g, lazy_step(g, p))))
        << "n=" << g.num_vertices();
    if (g.degree(g.num_vertices() - 1) == 0) {
      std::vector<double> bad = p;
      bad.back() = 0.5;  // mass on a vertex of degree 0
      EXPECT_THROW((void)lazy_step(g, bad), CheckError);
    }
  }
}

TEST(Mixing, PowerIterateMatchesPushLoopBitForBitAtAnyWidth) {
  Rng rng(4);
  const std::vector<Graph> graphs = {
      messy_multigraph(), gen::preferential_attachment(8000, 3, rng),
      gen::complete(2), gen::cycle(9)};
  // The first two split into several 2^14-slot chunks.
  ASSERT_GT(graphs[0].volume(), 2u * (1u << 14));
  ASSERT_GT(graphs[1].volume(), 2u * (1u << 14));
  for (const Graph& g : graphs) {
    const PowerIterate want = push_power_iteration(g, 120);
    for (const int threads : {1, 2, 8}) {
      congest::EpochScheduler(threads).run(1, [&](std::size_t) {
        const PowerIterate got = lazy_power_iteration(g, 120);
        EXPECT_EQ(bits({got.lambda}), bits({want.lambda}))
            << "n=" << g.num_vertices() << " threads=" << threads;
        EXPECT_EQ(got.collapsed, want.collapsed);
        EXPECT_EQ(bits(got.y), bits(want.y))
            << "n=" << g.num_vertices() << " threads=" << threads;
      });
    }
  }
}

/// The hash-set sweep Nibble built per walk step before it shared
/// sweep_support: the reference the stamped-slab builder must match.
template <GraphAccess G>
Sweep hash_set_sweep(const G& g, const SparseDist& dist) {
  Sweep s;
  s.total_volume = g.volume();
  const std::size_t k = dist.size();
  std::vector<std::size_t> idx(k);
  for (std::size_t i = 0; i < k; ++i) idx[i] = i;
  std::vector<double> rho(k);
  for (std::size_t i = 0; i < k; ++i) {
    rho[i] = dist.mass[i] / g.degree(dist.support[i]);
  }
  std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    if (rho[a] != rho[b]) return rho[a] > rho[b];
    return dist.support[a] < dist.support[b];
  });
  s.order.resize(k);
  s.rho.resize(k);
  s.prefix_volume.resize(k);
  s.prefix_cut.resize(k);
  std::unordered_set<VertexId> in_prefix;
  std::uint64_t vol = 0;
  std::int64_t cut = 0;
  for (std::size_t j = 0; j < k; ++j) {
    const VertexId v = dist.support[idx[j]];
    s.order[j] = v;
    s.rho[j] = rho[idx[j]];
    vol += g.degree(v);
    std::int64_t nonloop = 0;
    std::int64_t inside = 0;
    for (VertexId u : g.neighbors(v)) {
      if (u == v) continue;
      ++nonloop;
      if (in_prefix.count(u)) ++inside;
    }
    cut += nonloop - 2 * inside;
    in_prefix.insert(v);
    s.prefix_volume[j] = vol;
    s.prefix_cut[j] = static_cast<std::uint64_t>(cut);
  }
  return s;
}

void expect_same_sweep(const Sweep& got, const Sweep& want) {
  EXPECT_EQ(got.order, want.order);
  EXPECT_EQ(bits(got.rho), bits(want.rho));
  EXPECT_EQ(got.prefix_volume, want.prefix_volume);
  EXPECT_EQ(got.prefix_cut, want.prefix_cut);
  EXPECT_EQ(got.total_volume, want.total_volume);
}

/// A small multigraph (loops, parallel edges) under a view that removes
/// edges and drops vertices, so sweeps see masked slots read as loops.
struct MaskedGraph {
  Graph g;
  std::vector<char> removed;
  VertexSet active;
};

MaskedGraph masked_graph(std::uint64_t seed) {
  Rng rng(seed);
  constexpr std::size_t kN = 400;
  GraphBuilder b(kN, /*allow_parallel=*/true);
  for (VertexId v = 0; v < kN; ++v) {
    for (int k = 0; k < 3; ++k) {
      b.add_edge(v, static_cast<VertexId>(rng.next_below(kN)));
    }
    b.add_edge(v, (v + 1) % kN);  // a ring keeps the walk from dying out
    if (v % 9 == 0) b.add_loops(v, 1 + v % 2);
  }
  MaskedGraph out{b.build(), {}, {}};
  out.removed.assign(out.g.num_edges(), 0);
  for (EdgeId e = 0; e < out.g.num_edges(); ++e) {
    if (!out.g.is_loop(e) && rng.next_bool(0.15)) out.removed[e] = 1;
  }
  std::vector<VertexId> active;
  for (VertexId v = 0; v < kN; ++v) {
    if (v == 0 || rng.next_bool(0.8)) active.push_back(v);
  }
  out.active = VertexSet(std::move(active));
  return out;
}

// Nibble's per-step sweep: on every support of a truncated walk, over both
// the masked view and the plain multigraph, the shared builder reproduces
// the hash-set reference bit for bit.
TEST(Sweep, SupportBuilderMatchesHashSetReference) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const MaskedGraph mg = masked_graph(seed);
    std::size_t widest = 0;
    const auto check = [&](const auto& g) {
      for (const SparseDist& dist : truncated_walk(g, 0, 25, 1e-6)) {
        std::vector<double> rho(dist.size());
        for (std::size_t i = 0; i < dist.size(); ++i) {
          rho[i] = dist.mass[i] / g.degree(dist.support[i]);
        }
        expect_same_sweep(sweep_support(g, dist.support, rho),
                          hash_set_sweep(g, dist));
        widest = std::max(widest, dist.size());
      }
    };
    check(GraphView(mg.g, &mg.removed, mg.active));
    check(mg.g);
    EXPECT_GT(widest, 200u) << "seed " << seed;
  }
}

// The Fiedler sweep's dense front end equals the core builder over the
// positive entries, ties included.
TEST(Sweep, DenseFrontEndEqualsSupportBuilder) {
  Rng rng(11);
  const MaskedGraph mg = masked_graph(4);
  const auto check = [&](const auto& g) {
    std::vector<double> rho(g.num_vertices());
    for (auto& x : rho) x = static_cast<double>(rng.next_below(8)) - 2.0;
    std::vector<VertexId> candidates;
    std::vector<double> scores;
    for (const VertexId v : g.vertices()) {
      if (rho[v] > 0.0) {
        candidates.push_back(v);
        scores.push_back(rho[v]);
      }
    }
    ASSERT_GT(candidates.size(), 100u);
    expect_same_sweep(sweep_cut(g, rho),
                      sweep_support(g, candidates, scores));
  };
  check(GraphView(mg.g, &mg.removed, mg.active));
  check(mg.g);
}

}  // namespace
}  // namespace xd::spectral
