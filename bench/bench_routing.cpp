// Experiment E5 -- the GKS routing trade-off (§3).
//
// Tables:
//   E5a  depth k vs (preprocessing, query) cost on an expander: the
//        o(n^{1/3})-preprocessing / polylog-query sweet spot the paper's
//        Theorem 2 exploits, including where the polylog^k term turns
//        preprocessing back up;
//   E5b  TreeRouter cross-check: measured store-and-forward makespan for a
//        deg-bounded batch vs the model's query cost, on graphs of varying
//        mixing time;
//   E5c  simulated hierarchy vs charged model: the fully simulated GKS
//        backend (SimulatedHierarchicalRouter) builds the real structure on
//        the round engine; its *measured* preprocessing/query rounds are
//        overlaid on the E5a charged curve across k.  Acceptance: the
//        measured curve tracks the model's trade-off shape -- preprocessing
//        falls as k grows (the β = m^{1/k} split shrinking), queries rise
//        (more portal hops) -- and stays below the charged worst-case
//        bound at every k (the documented gap; the model's polylog^k tail
//        is a worst-case term the measured walks do not pay at this
//        scale);
//   E5d  flat queue arena drain: wall clock of the contiguous ring-slot
//        drain on a --scale-message batch of random tree paths, checked
//        exact: every message arrives at its destination and the drain
//        sends exactly the batch's total hop count.
//
// --json PATH emits the E5c curve and E5d summary (the BENCH_routing.json
// trajectory point); --scale N sets the E5d batch size (default 100000).

#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "core/xd.hpp"

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

struct E5cRow {
  int k = 0;
  double beta = 0;
  std::uint64_t model_pre = 0;
  std::uint64_t sim_pre = 0;
  std::uint64_t model_query = 0;
  std::uint64_t sim_query = 0;
  std::size_t clusters = 0;
  std::size_t portals = 0;
};

struct E5dResult {
  std::size_t messages = 0;
  std::size_t delivered = 0;  ///< messages that arrived at their destination
  std::uint64_t hops = 0;     ///< total tree-path hops staged
  std::uint64_t messages_sent = 0;
  std::uint64_t makespan = 0;
  double flat_ms = 0;
};

/// Hop count of the tree path a -> b in forest `f`: step the deeper
/// endpoint up until the two meet.
std::uint64_t tree_hops(const xd::prim::Forest& f, xd::VertexId a,
                        xd::VertexId b) {
  std::uint64_t hops = 0;
  while (a != b) {
    if (f.depth[a] >= f.depth[b]) {
      a = f.parent[a];
    } else {
      b = f.parent[b];
    }
    ++hops;
  }
  return hops;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace xd;
  std::string json_path;
  std::size_t scale = 100000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--scale") == 0 && i + 1 < argc) {
      const std::string arg = argv[++i];
      try {
        std::size_t pos = 0;
        // stoull would wrap a leading '-'; reject it explicitly.
        if (arg.empty() || arg[0] == '-') throw std::invalid_argument(arg);
        scale = static_cast<std::size_t>(std::stoull(arg, &pos));
        if (pos != arg.size() || scale == 0) throw std::invalid_argument(arg);
      } catch (const std::exception&) {
        std::cerr << "bench_routing: --scale wants a positive integer, got '"
                  << arg << "'\n";
        return 2;
      }
    } else {
      std::cerr << "usage: bench_routing [--json PATH] [--scale N]\n";
      return 2;
    }
  }
  Rng master(555);

  Table e5a("E5a: GKS trade-off on regular(4096, 8) (tau_mix measured)",
            {"depth k", "beta=m^{1/k}", "preprocess", "query",
             "n^{1/3} (ref)"});
  {
    Rng r = master.fork(1);
    const Graph g = gen::random_regular(4096, 8, r);
    const double n13 = std::cbrt(4096.0);
    for (int k = 1; k <= 5; ++k) {
      congest::RoundLedger ledger;
      routing::HierarchicalParams prm;
      prm.depth = k;
      routing::HierarchicalRouter router(g, ledger, prm);
      router.preprocess();
      e5a.add_row({Table::cell(k),
                   Table::cell(std::pow(static_cast<double>(g.num_edges()),
                                        1.0 / k),
                               1),
                   Table::cell(router.preprocessing_cost()),
                   Table::cell(router.query_cost()), Table::cell(n13, 1)});
    }
  }
  e5a.print();

  Table e5b("E5b: TreeRouter measured makespan vs GKS query model "
            "(permutation batch, one message per vertex)",
            {"graph", "tau_mix", "tree makespan", "gks query (k=2)"});
  {
    struct Case {
      const char* name;
      Graph g;
    };
    std::vector<Case> cases;
    {
      Rng r = master.fork(10);
      cases.push_back({"regular(256,8)", gen::random_regular(256, 8, r)});
    }
    {
      Rng r = master.fork(11);
      cases.push_back({"regular(256,4)", gen::random_regular(256, 4, r)});
    }
    cases.push_back({"torus(16x16)", gen::grid(16, 16, true)});
    cases.push_back({"cycle(256)", gen::cycle(256)});

    for (auto& c : cases) {
      const std::size_t n = c.g.num_vertices();
      congest::RoundLedger ledger;
      congest::Network net(c.g, ledger, 77);
      routing::TreeRouter tree(net);
      tree.preprocess();
      // Random permutation demands: each vertex sends one message.
      Rng r = master.fork(20 + (&c - cases.data()));
      const auto perm = r.permutation(n);
      std::vector<routing::Demand> demands;
      for (VertexId v = 0; v < n; ++v) {
        demands.push_back(routing::Demand{v, perm[v], 1});
      }
      const auto makespan = tree.route(demands);

      congest::RoundLedger mledger;
      routing::HierarchicalParams prm;
      prm.depth = 2;
      routing::HierarchicalRouter model(c.g, mledger, prm);
      model.preprocess();
      e5b.add_row({c.name, Table::cell(static_cast<std::uint64_t>(model.tau_mix())),
                   Table::cell(makespan), Table::cell(model.query_cost())});
    }
  }
  e5b.print();

  // ---- E5c: simulated GKS hierarchy vs the charged model across k. ----
  std::vector<E5cRow> e5c_rows;
  {
    Table e5c("E5c: simulated GKS hierarchy vs charged model on "
              "regular(256, 8) (measured rounds; permutation batch)",
              {"depth k", "beta", "model pre", "sim pre", "model query",
               "sim query", "clusters", "portals"});
    Rng gr = master.fork(30);
    const Graph g = gen::random_regular(256, 8, gr);
    const auto m = static_cast<double>(g.num_edges());
    for (int k = 1; k <= 5; ++k) {
      E5cRow row;
      row.k = k;
      row.beta = std::pow(m, 1.0 / k);

      congest::RoundLedger sledger;
      congest::Network net(g, sledger, 91);
      routing::SimulatedHierarchicalParams sp;
      sp.depth = k;
      routing::SimulatedHierarchicalRouter sim(net, sp);
      row.sim_pre = sim.preprocess();
      row.clusters = sim.num_clusters();
      row.portals = sim.num_portals();

      Rng pr = master.fork(40 + k);
      const auto perm = pr.permutation(g.num_vertices());
      std::vector<routing::Demand> demands;
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        demands.push_back(routing::Demand{v, perm[v], 1});
      }
      row.sim_query = sim.route(demands);

      congest::RoundLedger mledger;
      routing::HierarchicalParams hp;
      hp.depth = k;
      routing::HierarchicalRouter model(g, mledger, hp);
      model.preprocess();
      row.model_pre = model.preprocessing_cost();
      row.model_query = model.query_cost();

      e5c.add_row({Table::cell(k), Table::cell(row.beta, 1),
                   Table::cell(row.model_pre), Table::cell(row.sim_pre),
                   Table::cell(row.model_query), Table::cell(row.sim_query),
                   Table::cell(static_cast<std::uint64_t>(row.clusters)),
                   Table::cell(static_cast<std::uint64_t>(row.portals))});
      e5c_rows.push_back(row);
    }
    e5c.print();
    std::cout << "sim curve: preprocessing falls with k (beta split "
                 "shrinking), queries rise (more portal hops); both stay "
                 "below the charged worst-case bound.\n\n";
  }

  // ---- E5d: flat queue arena drain. ----
  E5dResult e5d;
  {
    Rng gr = master.fork(50);
    const Graph g = gen::random_regular(1024, 8, gr);
    congest::RoundLedger ledger;
    congest::Network net(g, ledger, 17);
    const std::vector<char> active(g.num_vertices(), 1);
    Rng fr = master.fork(51);
    std::vector<prim::Forest> forests;
    for (int t = 0; t < 6; ++t) {
      forests.push_back(prim::build_forest_from_roots(
          net, active,
          {static_cast<VertexId>(fr.next_below(g.num_vertices()))}, "e5d"));
    }

    routing::QueueArena arena(g);
    Rng dr = master.fork(52);
    std::vector<VertexId> dsts;
    arena.begin_batch();
    for (std::size_t i = 0; i < scale; ++i) {
      const auto src = static_cast<VertexId>(dr.next_below(g.num_vertices()));
      auto dst = static_cast<VertexId>(dr.next_below(g.num_vertices()));
      if (src == dst) dst = (dst + 1) % static_cast<VertexId>(g.num_vertices());
      const prim::Forest& f = forests[dr.next_below(forests.size())];
      arena.begin_path();
      routing::append_tree_path(f, src, dst, arena);
      arena.end_path();
      dsts.push_back(dst);
      e5d.hops += tree_hops(f, src, dst);
    }
    e5d.messages = arena.batch_size();

    const auto t_flat = std::chrono::steady_clock::now();
    const auto flat = arena.drain();
    e5d.flat_ms = ms_since(t_flat);

    e5d.makespan = flat.rounds;
    e5d.messages_sent = flat.messages_sent;
    for (std::size_t i = 0; i < e5d.messages; ++i) {
      // src != dst, so every message needs at least one hop.
      if (flat.arrivals[i] >= 1 && arena.path_terminal(i) == dsts[i]) {
        ++e5d.delivered;
      }
    }
    const bool exact =
        e5d.delivered == e5d.messages && e5d.messages_sent == e5d.hops;

    Table t("E5d: flat queue arena drain "
            "(regular(1024, 8), random tree-path batch)",
            {"messages", "hops", "makespan", "flat ms", "exact?"});
    t.add_row({Table::cell(static_cast<std::uint64_t>(e5d.messages)),
               Table::cell(e5d.hops), Table::cell(e5d.makespan),
               Table::cell(e5d.flat_ms), exact ? "yes" : "NO"});
    t.print();
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  \"name\": \"bench_routing\",\n  \"e5c\": [\n";
    for (std::size_t i = 0; i < e5c_rows.size(); ++i) {
      const E5cRow& r = e5c_rows[i];
      out << "    {\"k\": " << r.k << ", \"beta\": " << r.beta
          << ", \"model_pre\": " << r.model_pre
          << ", \"sim_pre\": " << r.sim_pre
          << ", \"model_query\": " << r.model_query
          << ", \"sim_query\": " << r.sim_query
          << ", \"clusters\": " << r.clusters
          << ", \"portals\": " << r.portals << "}"
          << (i + 1 < e5c_rows.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"e5d\": {\n"
        << "    \"messages\": " << e5d.messages << ",\n"
        << "    \"delivered\": " << e5d.delivered << ",\n"
        << "    \"hops\": " << e5d.hops << ",\n"
        << "    \"messages_sent\": " << e5d.messages_sent << ",\n"
        << "    \"makespan\": " << e5d.makespan << ",\n"
        << "    \"flat_ms\": " << e5d.flat_ms << "\n"
        << "  }\n}\n";
  }
  return 0;
}
