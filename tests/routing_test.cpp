#include "routing/router.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>

#include "graph/generators.hpp"
#include "routing/hierarchical_router.hpp"
#include "routing/queue_arena.hpp"
#include "routing/simulated_router.hpp"
#include "routing/tree_router.hpp"
#include "triangle/enumerate.hpp"
#include "util/check.hpp"

namespace xd::routing {
namespace {

using congest::Network;
using congest::RoundLedger;

TEST(QueriesNeeded, RespectsDegreeBudget) {
  const Graph cyc = gen::cycle(4);  // all degrees 2
  // 8 messages between degree-2 vertices -> 4 queries.
  EXPECT_EQ(queries_needed(cyc, {{0, 2, 8}}), 4u);

  const Graph g = gen::star(5);  // hub deg 4, leaves deg 1
  // 8 messages into the hub from a leaf: the leaf's out-budget (deg 1)
  // binds -> 8 queries.
  EXPECT_EQ(queries_needed(g, {{1, 0, 8}}), 8u);
  // 8 messages out of the hub into a leaf: the leaf's in-budget binds.
  EXPECT_EQ(queries_needed(g, {{0, 2, 8}}), 8u);
  // Hub-to-hub budget (both sides deg 4) spread over 4 leaves: 2 queries.
  EXPECT_EQ(queries_needed(g, {{0, 1, 2}, {0, 2, 2}, {0, 3, 2}, {0, 4, 2}}),
            2u);
  // Slack scales the budget.
  EXPECT_EQ(queries_needed(g, {{1, 0, 8}}, 4.0), 2u);
}

TEST(TreeRouter, DeliversAndMeasuresRounds) {
  Rng rng(1);
  const Graph g = gen::random_regular(64, 6, rng);
  RoundLedger ledger;
  Network net(g, ledger, 3);
  TreeRouter router(net);
  const auto pre = router.preprocess();
  EXPECT_GT(pre, 0u);
  EXPECT_GE(router.tree_count(), 7);  // ceil(log2 64) + 1

  std::vector<Demand> demands;
  for (VertexId v = 0; v < 32; ++v) {
    demands.push_back(Demand{v, static_cast<VertexId>(63 - v), 1});
  }
  const auto rounds = router.route(demands);
  EXPECT_GE(rounds, 1u);
  // On an expander with log-depth trees this permutation routes fast.
  EXPECT_LE(rounds, 200u);
  EXPECT_EQ(router.queries(), 1u);
}

TEST(TreeRouter, MakespanGrowsWithLoad) {
  Rng rng(2);
  const Graph g = gen::random_regular(64, 4, rng);
  RoundLedger l1, l2;
  Network n1(g, l1, 7), n2(g, l2, 7);
  TreeRouter r1(n1), r2(n2);
  r1.preprocess();
  r2.preprocess();
  std::vector<Demand> light{{0, 32, 1}};
  std::vector<Demand> heavy;
  for (int i = 0; i < 50; ++i) heavy.push_back(Demand{0, 32, 4});
  const auto t_light = r1.route(light);
  const auto t_heavy = r2.route(heavy);
  EXPECT_GT(t_heavy, t_light);
}

TEST(TreeRouter, PathsAreTreePaths) {
  // On a path graph the only route is the path itself: a demand across the
  // whole graph needs at least n-1 rounds.
  Rng rng(3);
  const Graph g = gen::path(32);
  RoundLedger ledger;
  Network net(g, ledger, 5);
  TreeRouter router(net, 2);
  router.preprocess();
  const auto rounds = router.route({Demand{0, 31, 1}});
  EXPECT_GE(rounds, 31u);
}

TEST(TreeRouter, RouteBeforePreprocessThrows) {
  const Graph g = gen::cycle(8);
  RoundLedger ledger;
  Network net(g, ledger);
  TreeRouter router(net);
  EXPECT_THROW((void)router.route({Demand{0, 1, 1}}), CheckError);
}

TEST(HierarchicalRouter, TradeoffMatchesGksShape) {
  // Deeper hierarchy: cheaper preprocessing while β = m^{1/k} dominates
  // (k = 1..3 at this size), always costlier queries ((log n)^k rises).
  // Preprocessing eventually *rises* again -- the polylog^k term takes
  // over -- which is exactly the "enormous polylog trade-off" the paper's
  // open-problems section laments; E5 charts the sweet spot.
  Rng rng(4);
  const Graph g = gen::random_regular(4096, 8, rng);
  RoundLedger ledger;

  std::uint64_t prev_pre = 0;
  std::uint64_t prev_query = 0;
  for (int k = 1; k <= 4; ++k) {
    HierarchicalParams prm;
    prm.depth = k;
    HierarchicalRouter router(g, ledger, prm);
    router.preprocess();
    const auto pre = router.preprocessing_cost();
    const auto query = router.query_cost();
    if (k > 1 && k <= 3) {
      EXPECT_LT(pre, prev_pre) << "preprocessing must fall with k=" << k;
    }
    if (k > 1) {
      EXPECT_GT(query, prev_query) << "query must rise with k=" << k;
    }
    prev_pre = pre;
    prev_query = query;
  }
}

TEST(HierarchicalRouter, CostsScaleWithMixingTime) {
  RoundLedger ledger;
  Rng rng(5);
  const Graph expander = gen::random_regular(256, 8, rng);
  const Graph ring = gen::cycle(256);

  HierarchicalParams prm;
  prm.depth = 2;
  HierarchicalRouter fast(expander, ledger, prm);
  HierarchicalRouter slow(ring, ledger, prm);
  fast.preprocess();
  slow.preprocess();
  EXPECT_LT(fast.tau_mix(), slow.tau_mix());
  EXPECT_LT(fast.query_cost(), slow.query_cost());
}

/// The unique tree path src -> dst in forest `f`: src's ancestors up to
/// the first one that is also an ancestor of dst, then down to dst.
std::vector<VertexId> tree_path(const prim::Forest& f, VertexId src,
                                VertexId dst) {
  std::vector<VertexId> up{src};
  while (f.parent[up.back()] != up.back()) up.push_back(f.parent[up.back()]);
  std::vector<VertexId> down{dst};
  while (std::find(up.begin(), up.end(), down.back()) == up.end()) {
    down.push_back(f.parent[down.back()]);
  }
  up.erase(std::find(up.begin(), up.end(), down.back()) + 1, up.end());
  up.insert(up.end(), down.rbegin() + 1, down.rend());
  return up;
}

// Stages random-tree-path batches into `arena` the way TreeRouter does and
// returns each staged message's path.
std::vector<std::vector<VertexId>> stage_tree_batch(
    QueueArena& arena, const std::vector<prim::Forest>& fs, const Graph& g,
    std::size_t messages, Rng& rng) {
  std::vector<std::vector<VertexId>> paths;
  arena.begin_batch();
  for (std::size_t i = 0; i < messages; ++i) {
    const auto src = static_cast<VertexId>(rng.next_below(g.num_vertices()));
    auto dst = static_cast<VertexId>(rng.next_below(g.num_vertices()));
    if (src == dst) dst = static_cast<VertexId>((dst + 1) % g.num_vertices());
    const prim::Forest& f = fs[rng.next_below(fs.size())];
    arena.begin_path();
    append_tree_path(f, src, dst, arena);
    arena.end_path();
    paths.push_back(tree_path(f, src, dst));
  }
  return paths;
}

/// Store-and-forward oracle: one FIFO deque per directed edge, kept in an
/// ordered map; each round every nonempty queue, in ascending (u, v)
/// order, forwards its front message, and the forwarded messages then
/// enqueue their next hop in that same order.
QueueArena::DrainResult simulate_drain(
    const std::vector<std::vector<VertexId>>& paths) {
  QueueArena::DrainResult out;
  out.arrivals.assign(paths.size(), 0);
  std::vector<std::size_t> at(paths.size(), 0);
  std::map<std::pair<VertexId, VertexId>, std::deque<std::size_t>> queues;
  std::size_t undelivered = 0;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    if (paths[i].size() < 2) continue;
    queues[{paths[i][0], paths[i][1]}].push_back(i);
    ++undelivered;
  }
  while (undelivered > 0) {
    ++out.rounds;
    std::vector<std::size_t> moved;
    for (auto& [edge, q] : queues) {
      if (q.empty()) continue;
      moved.push_back(q.front());
      q.pop_front();
    }
    for (const std::size_t i : moved) {
      ++out.messages_sent;
      const std::size_t pos = ++at[i];
      if (pos + 1 < paths[i].size()) {
        queues[{paths[i][pos], paths[i][pos + 1]}].push_back(i);
      } else {
        out.arrivals[i] = out.rounds;
        --undelivered;
      }
    }
  }
  return out;
}

TEST(QueueArena, FlatDrainMatchesMapOfDequesOracle) {
  // The flat ring-slot drain must reproduce the map-of-deques schedule
  // exactly: same makespan, same total transmissions, same per-message
  // arrival round.
  Rng rng(11);
  for (const auto& g :
       {gen::random_regular(96, 6, rng), gen::grid(8, 12, false),
        gen::dumbbell_expanders(48, 48, 6, 2, rng)}) {
    RoundLedger ledger;
    Network net(g, ledger, 5);
    std::vector<prim::Forest> forests;
    {
      const std::vector<char> active(g.num_vertices(), 1);
      Rng frng(7);
      for (int t = 0; t < 4; ++t) {
        forests.push_back(prim::build_forest_from_roots(
            net, active,
            {static_cast<VertexId>(frng.next_below(g.num_vertices()))},
            "test"));
      }
    }
    QueueArena arena(g);
    Rng drng(23);
    for (int batch = 0; batch < 3; ++batch) {
      const auto paths = stage_tree_batch(arena, forests, g, 150, drng);
      const auto flat = arena.drain();
      const auto want = simulate_drain(paths);
      EXPECT_EQ(flat.rounds, want.rounds);
      EXPECT_EQ(flat.messages_sent, want.messages_sent);
      EXPECT_EQ(flat.arrivals, want.arrivals);
    }
    // Steady state: the second and third batches must run entirely out of
    // retained scratch.
    EXPECT_LE(arena.scratch_stats().grown, 1u);
    EXPECT_GE(arena.scratch_stats().reused, 2u);
  }
}

TEST(QueueArena, RejectsHopsThatAreNotEdges) {
  const Graph g = gen::path(4);  // 0-1-2-3
  QueueArena arena(g);
  arena.begin_batch();
  arena.begin_path();
  arena.push_vertex(0);
  EXPECT_THROW(arena.push_vertex(2), CheckError);  // {0, 2} is not an edge
}

TEST(TreeRouter, OutOfRangeDemandThrows) {
  // Regression for the seed's edge_key: VertexId was packed into 32 bits
  // with no guard and demands were not validated before path building.
  // Keys are now 64-bit (u * n + v) and every demand endpoint is checked.
  Rng rng(31);
  const Graph g = gen::random_regular(32, 4, rng);
  RoundLedger ledger;
  Network net(g, ledger, 3);
  TreeRouter router(net, 2);
  router.preprocess();
  EXPECT_THROW((void)router.route({Demand{0, 77, 1}}), CheckError);
  EXPECT_THROW((void)router.route({Demand{77, 0, 1}}), CheckError);
}

TEST(SimulatedHierarchicalRouter, DeliversEveryDemandExactlyOnce) {
  // Expander, dumbbell, grid: every unit of every demand (including
  // multi-count and src == dst demands) is delivered exactly once.
  Rng grng(3);
  const struct {
    const char* name;
    Graph g;
  } cases[] = {
      {"expander", gen::random_regular(96, 6, grng)},
      {"dumbbell", gen::dumbbell_expanders(48, 48, 6, 2, grng)},
      {"grid", gen::grid(8, 12, false)},
  };
  for (const auto& c : cases) {
    RoundLedger ledger;
    Network net(c.g, ledger, 9);
    SimulatedHierarchicalParams prm;
    prm.depth = 2;
    SimulatedHierarchicalRouter router(net, prm);
    EXPECT_GT(router.preprocess(), 0u) << c.name;
    EXPECT_GE(router.levels(), 1) << c.name;

    Rng drng(41);
    std::vector<Demand> demands;
    for (int i = 0; i < 60; ++i) {
      demands.push_back(
          Demand{static_cast<VertexId>(drng.next_below(c.g.num_vertices())),
                 static_cast<VertexId>(drng.next_below(c.g.num_vertices())),
                 static_cast<std::uint32_t>(1 + drng.next_below(3))});
    }
    demands.push_back(Demand{5, 5, 4});  // local units count as delivered
    const auto rounds = router.route(demands);
    EXPECT_GE(rounds, 1u) << c.name;
    ASSERT_EQ(router.last_delivered().size(), demands.size()) << c.name;
    for (std::size_t i = 0; i < demands.size(); ++i) {
      EXPECT_EQ(router.last_delivered()[i], demands[i].count)
          << c.name << " demand " << i;
    }
  }
}

TEST(SimulatedHierarchicalRouter, MeasuredCostsStayWithinChargedModel) {
  // The charged HierarchicalRouter is the worst-case oracle: for every
  // depth, the measured preprocessing and per-batch query rounds of the
  // simulated structure must not exceed what the model charges.
  Rng rng(17);
  const Graph g = gen::random_regular(128, 6, rng);
  for (int k = 1; k <= 4; ++k) {
    RoundLedger sledger;
    Network net(g, sledger, 13);
    SimulatedHierarchicalParams sp;
    sp.depth = k;
    SimulatedHierarchicalRouter sim(net, sp);
    const auto sim_pre = sim.preprocess();

    RoundLedger mledger;
    HierarchicalParams hp;
    hp.depth = k;
    HierarchicalRouter model(g, mledger, hp);
    model.preprocess();
    EXPECT_LE(sim_pre, model.preprocessing_cost()) << "k=" << k;

    Rng prng(29);
    const auto perm = prng.permutation(g.num_vertices());
    std::vector<Demand> demands;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      demands.push_back(Demand{v, perm[v], 1});
    }
    const auto sim_query = sim.route(demands);
    EXPECT_LE(sim_query, sim.queries() * model.query_cost()) << "k=" << k;
  }
}

TEST(SimulatedHierarchicalRouter, RouteBeforePreprocessThrows) {
  const Graph g = gen::cycle(8);
  RoundLedger ledger;
  Network net(g, ledger);
  SimulatedHierarchicalRouter router(net, SimulatedHierarchicalParams{});
  EXPECT_THROW((void)router.route({Demand{0, 1, 1}}), CheckError);
}

TEST(Golden, E5SimulatedBackendPinsAcrossSchedulerThreads) {
  // The E5 golden pins: enumerate_congest on the simulated hierarchical
  // backend must produce the same triangles as the other backends and a
  // pinned round count at every scheduler thread setting (0 = sequential
  // sum accounting; >= 1 = concurrent max-per-epoch, identical at any
  // thread count).
  std::uint64_t pinned_rounds[2] = {0, 0};
  for (const int threads : {0, 1, 2, 8}) {
    Rng rng(31);
    const Graph g = gen::gnp(60, 0.2, rng);
    congest::RoundLedger ledger;
    Rng arng(17);
    triangle::EnumParams prm;
    prm.backend = triangle::RouterBackend::kHierarchicalSim;
    prm.scheduler_threads = threads;
    const auto r = triangle::enumerate_congest(g, prm, arng, ledger);
    EXPECT_EQ(r.triangles.size(), 240u) << "threads=" << threads;
    auto& pin = pinned_rounds[threads == 0 ? 0 : 1];
    if (pin == 0) {
      pin = r.rounds;
    } else {
      EXPECT_EQ(r.rounds, pin) << "threads=" << threads;
    }
  }
  // Fixed-seed round pins (regenerate by printing on intentional change).
  // This dense G(n, p) is an expander: each level keeps one cluster, so
  // the per-epoch max equals the sequential sum here.
  EXPECT_EQ(pinned_rounds[0], 4587u);
  EXPECT_EQ(pinned_rounds[1], 4587u);
}

TEST(HierarchicalRouter, ChargesPerQueryBatch) {
  Rng rng(6);
  const Graph g = gen::random_regular(64, 4, rng);
  RoundLedger ledger;
  HierarchicalParams prm;
  prm.depth = 2;
  HierarchicalRouter router(g, ledger, prm);
  router.preprocess();
  const std::uint64_t after_pre = ledger.rounds();

  // 12 messages out of a degree-4 vertex -> 3 query batches.
  router.route({Demand{0, 8, 12}});
  EXPECT_EQ(router.queries(), 3u);
  EXPECT_EQ(ledger.rounds() - after_pre, 3 * router.query_cost());
}

}  // namespace
}  // namespace xd::routing
