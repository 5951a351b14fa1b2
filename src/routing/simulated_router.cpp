#include "routing/simulated_router.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <unordered_map>

#include "congest/engine.hpp"
#include "routing/tree_router.hpp"
#include "spectral/mixing.hpp"
#include "util/check.hpp"

namespace xd::routing {

namespace {

constexpr std::uint32_t kLabelTag = 0x5A;  ///< (cluster, min-id) flood
constexpr std::uint32_t kTokenTag = 0x5B;  ///< portal walk token (cluster)

/// Union-find over dense local indices (path halving).
class Dsu {
 public:
  explicit Dsu(std::size_t n) : parent_(n) {
    for (std::size_t i = 0; i < n; ++i) {
      parent_[i] = static_cast<std::uint32_t>(i);
    }
  }
  std::uint32_t find(std::uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(std::uint32_t a, std::uint32_t b) { parent_[find(a)] = find(b); }

 private:
  std::vector<std::uint32_t> parent_;
};

/// Key for the (vertex, group) copies a GKS edge partition creates: a
/// vertex joins one child cluster per group it has edges in.
struct PairHash {
  std::size_t operator()(const std::pair<VertexId, std::uint32_t>& p) const {
    return (static_cast<std::size_t>(p.first) << 32) ^ p.second;
  }
};

}  // namespace

SimulatedHierarchicalRouter::SimulatedHierarchicalRouter(
    congest::Network& net, SimulatedHierarchicalParams prm)
    : net_(&net), prm_(prm) {
  XD_CHECK(prm_.depth >= 1);
}

std::size_t SimulatedHierarchicalRouter::num_clusters() const {
  std::size_t total = 0;
  for (const Level& lv : levels_) total += lv.clusters.size();
  return total;
}

std::size_t SimulatedHierarchicalRouter::num_portals() const {
  std::size_t total = 0;
  for (const Level& lv : levels_) {
    for (const Cluster& c : lv.clusters) total += c.portals.size();
  }
  return total;
}

void SimulatedHierarchicalRouter::split_cluster(
    std::uint32_t parent_index, std::uint64_t parent_volume,
    const std::vector<EdgeId>& edges, std::uint64_t beta, Level& level,
    Rng& rng) {
  const Graph& g = net_->graph();
  level.max_parent_volume = std::max(level.max_parent_volume, parent_volume);

  // β-way random edge partition (GKS Lemma 3.2's split).  Every edge lands
  // in exactly one group; the connected components of each group's edge
  // set become the child clusters, so a vertex joins one child per group
  // it has edges in.
  std::vector<std::uint32_t> group(edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    group[i] = static_cast<std::uint32_t>(rng.next_below(beta));
  }
  // Dense local ids for the (vertex, group) copies.
  std::unordered_map<std::pair<VertexId, std::uint32_t>, std::uint32_t,
                     PairHash>
      local;
  std::vector<VertexId> copy_vertex;
  const auto local_of = [&](VertexId x, std::uint32_t grp) {
    const auto [it, fresh] = local.try_emplace(
        {x, grp}, static_cast<std::uint32_t>(copy_vertex.size()));
    if (fresh) copy_vertex.push_back(x);
    return it->second;
  };
  std::vector<std::pair<std::uint32_t, std::uint32_t>> ends(edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const auto [u, v] = g.edge(edges[i]);
    ends[i] = {local_of(u, group[i]), local_of(v, group[i])};
  }
  Dsu dsu(copy_vertex.size());
  for (const auto& [lu, lv] : ends) dsu.unite(lu, lv);

  // Components become clusters, in first-seen edge order (deterministic).
  std::unordered_map<std::uint32_t, std::uint32_t> comp_cluster;
  const auto first_new = static_cast<std::uint32_t>(level.clusters.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const std::uint32_t root = dsu.find(ends[i].first);
    const auto [it, fresh] = comp_cluster.try_emplace(
        root, static_cast<std::uint32_t>(level.clusters.size()));
    if (fresh) {
      Cluster c;
      c.parent = parent_index;
      level.clusters.push_back(std::move(c));
    }
    level.clusters[it->second].edges.push_back(edges[i]);
    level.edge_cluster[edges[i]] = it->second;
  }
  for (std::uint32_t li = 0; li < copy_vertex.size(); ++li) {
    level.clusters[comp_cluster.at(dsu.find(li))].members.push_back(
        copy_vertex[li]);
  }
  for (std::uint32_t ci = first_new; ci < level.clusters.size(); ++ci) {
    Cluster& c = level.clusters[ci];
    std::sort(c.members.begin(), c.members.end());
    c.members.erase(std::unique(c.members.begin(), c.members.end()),
                    c.members.end());
    c.leader = c.members.front();
  }
}

void SimulatedHierarchicalRouter::confirm_level(const Level& level) {
  // Min-id flood over each cluster's own edges, all clusters of the level
  // at once (the level's edges partition into the clusters, so congestion
  // is one message per directed edge per round).  Converges in the maximum
  // cluster diameter + 1 rounds -- all charged -- and afterwards every
  // member must have heard its leader, which validates the host-side
  // component computation against the real topology.
  const Graph& g = net_->graph();
  const std::size_t n = g.num_vertices();
  // Per (vertex, cluster) labels, looked up by binary search in a sorted
  // per-vertex (cluster, label) vector.
  std::vector<std::vector<std::pair<std::uint32_t, VertexId>>> labels(n);
  for (std::uint32_t ci = 0; ci < level.clusters.size(); ++ci) {
    for (const VertexId v : level.clusters[ci].members) {
      labels[v].push_back({ci, v});
    }
  }
  for (VertexId v = 0; v < n; ++v) {
    std::sort(labels[v].begin(), labels[v].end());
  }
  const auto label_slot = [&](VertexId v, std::uint32_t ci)
      -> std::pair<std::uint32_t, VertexId>* {
    auto& vec = labels[v];
    const auto it = std::lower_bound(
        vec.begin(), vec.end(),
        std::pair<std::uint32_t, VertexId>{ci, 0},
        [](const auto& a, const auto& b) { return a.first < b.first; });
    if (it == vec.end() || it->first != ci) return nullptr;
    return &*it;
  };
  std::atomic<bool> changed{false};
  auto program = congest::make_program(
      [&](VertexId v, congest::Outbox& out) {
        if (labels[v].empty()) return;
        const auto nbrs = g.neighbors(v);
        const auto eids = g.incident_edges(v);
        for (std::uint32_t s = 0; s < nbrs.size(); ++s) {
          if (nbrs[s] == v) continue;
          const std::uint32_t ci = level.edge_cluster[eids[s]];
          if (ci == kNoCluster) continue;
          const auto* slot = label_slot(v, ci);
          XD_CHECK(slot != nullptr);
          out.send(s, congest::Message{kLabelTag, ci, slot->second});
        }
      },
      [&](VertexId v, std::span<const congest::Envelope> inbox) {
        for (const auto& env : inbox) {
          if (env.msg.tag != kLabelTag) continue;
          auto* slot =
              label_slot(v, static_cast<std::uint32_t>(env.msg.words[0]));
          XD_CHECK(slot != nullptr);
          const auto cand = static_cast<VertexId>(env.msg.words[1]);
          if (cand < slot->second) {
            slot->second = cand;
            changed.store(true, std::memory_order_relaxed);
          }
        }
      });
  std::size_t iterations = 0;
  do {
    changed.store(false, std::memory_order_relaxed);
    net_->run_round(program, "SimHierRouter/hierarchy");
    XD_CHECK(++iterations <= n + 2);
  } while (changed.load(std::memory_order_relaxed));
  for (std::uint32_t ci = 0; ci < level.clusters.size(); ++ci) {
    for (const VertexId v : level.clusters[ci].members) {
      XD_CHECK_MSG(label_slot(v, ci)->second == level.clusters[ci].leader,
                   "cluster " << ci << " is not connected");
    }
  }
}

void SimulatedHierarchicalRouter::embed_portals(std::size_t index) {
  Level& level = levels_[index];
  if (level.clusters.empty()) return;
  const Graph& g = net_->graph();
  const std::size_t n = g.num_vertices();

  // Walk budget: the measured τ_mix at the root, scaled down by the
  // parent's volume (smaller parents mix sooner), as in the charged
  // model's τ_mix-dominated Lemma 3.3 cost.
  const auto log2sq = [](std::uint64_t vol) {
    const double l = std::log2(static_cast<double>(vol + 4));
    return l * l;
  };
  const double ratio = log2sq(level.max_parent_volume) / log2sq(g.volume());
  const int tau = std::max(
      1, std::min(256, static_cast<int>(std::ceil(
                           static_cast<double>(tau_mix_) * ratio))));

  // Token release: one token per sibling (Σ over parents of children²
  // total -- the Lemma 3.3 β² term), spread round-robin over the
  // cluster's members.
  std::vector<std::size_t> children_of_parent;
  for (const Cluster& c : level.clusters) {
    if (c.parent >= children_of_parent.size()) {
      children_of_parent.resize(c.parent + 1, 0);
    }
    ++children_of_parent[c.parent];
  }
  std::vector<std::vector<std::uint32_t>> held(n);
  std::vector<std::vector<std::uint32_t>> held_next(n);
  for (std::uint32_t ci = 0; ci < level.clusters.size(); ++ci) {
    const Cluster& c = level.clusters[ci];
    const std::size_t t =
        std::max<std::size_t>(children_of_parent[c.parent] - 1, 1);
    for (std::size_t j = 0; j < t; ++j) {
      held[c.members[j % c.members.size()]].push_back(ci);
    }
  }

  // The parent cluster a token is allowed to roam: at level 1 the whole
  // graph, deeper the parent's edge set.
  const auto in_parent = [&](EdgeId e, std::uint32_t ci) {
    if (index == 0) return true;
    return levels_[index - 1].edge_cluster[e] ==
           levels_[index].clusters[ci].parent;
  };

  // One lazy-walk superstep (spectral/lazy_walk.hpp semantics): stay with
  // probability 1/2; otherwise pick a uniform adjacency slot, and deposit
  // back if it is a loop or leaves the parent's edge set (the masked-slot
  // convention that makes this the G{parent} walk).
  auto program = congest::make_program(
      [&](VertexId v, congest::Outbox& out) {
        if (held[v].empty()) return;
        const auto nbrs = g.neighbors(v);
        const auto eids = g.incident_edges(v);
        for (const std::uint32_t ci : held[v]) {
          Rng& r = out.rng();
          if (r.next_bool(0.5)) {
            held_next[v].push_back(ci);
            continue;
          }
          const auto slot =
              static_cast<std::uint32_t>(r.next_below(nbrs.size()));
          if (nbrs[slot] == v || !in_parent(eids[slot], ci)) {
            held_next[v].push_back(ci);
            continue;
          }
          out.send(slot, congest::Message{kTokenTag, ci, 0});
        }
        held[v].clear();
      },
      [&](VertexId v, std::span<const congest::Envelope> inbox) {
        for (const auto& env : inbox) {
          if (env.msg.tag == kTokenTag) {
            held_next[v].push_back(
                static_cast<std::uint32_t>(env.msg.words[0]));
          }
        }
      });
  for (int step = 0; step < tau; ++step) {
    net_->run_round(program, "SimHierRouter/portals");
    for (VertexId v = 0; v < n; ++v) {
      held[v].swap(held_next[v]);
      held_next[v].clear();
    }
  }

  // Landing sites become the portals.
  for (VertexId v = 0; v < n; ++v) {
    for (const std::uint32_t ci : held[v]) {
      level.clusters[ci].portals.push_back(v);
    }
  }
  for (Cluster& c : level.clusters) {
    std::sort(c.portals.begin(), c.portals.end());
    c.portals.erase(std::unique(c.portals.begin(), c.portals.end()),
                    c.portals.end());
    XD_CHECK(!c.portals.empty());
  }
}

std::uint64_t SimulatedHierarchicalRouter::preprocess() {
  XD_CHECK_MSG(!preprocessed_, "preprocess() must run once");
  const Graph& g = net_->graph();
  const std::size_t n = g.num_vertices();
  const std::size_t m = g.num_nonloop_edges();
  const std::uint64_t before = net_->ledger().rounds();
  Rng& rng = net_->rng(0);

  // Same spectral estimate the charged model uses -- the cross-check anchor.
  tau_mix_ = std::max(spectral::mixing_time_estimate(g), 1u);

  // Recursive β-way edge partition, k levels (or until every cluster is a
  // single edge).
  if (m >= 2) {
    const auto beta = std::max<std::uint64_t>(
        2, static_cast<std::uint64_t>(
               std::ceil(std::pow(static_cast<double>(m),
                                  1.0 / static_cast<double>(prm_.depth)))));
    for (int lvl = 1; lvl <= prm_.depth; ++lvl) {
      Level level;
      level.edge_cluster.assign(g.num_edges(), kNoCluster);
      level.home.assign(n, kNoCluster);
      bool any_split = false;
      if (lvl == 1) {
        std::vector<EdgeId> all;
        all.reserve(m);
        for (EdgeId e = 0; e < g.num_edges(); ++e) {
          if (!g.is_loop(e)) all.push_back(e);
        }
        split_cluster(0, g.volume(), all, beta, level, rng);
        any_split = true;
      } else {
        const Level& prev = levels_.back();
        for (std::uint32_t pi = 0; pi < prev.clusters.size(); ++pi) {
          const Cluster& p = prev.clusters[pi];
          if (p.edges.size() < 2) continue;  // chain bottoms out
          split_cluster(pi, 2 * p.edges.size(), p.edges, beta, level, rng);
          any_split = true;
        }
      }
      if (!any_split) break;
      // Canonical nested homes: the child (of the previous home) holding
      // the vertex's minimum incident edge at this level.
      const Level* prev = levels_.empty() ? nullptr : &levels_.back();
      for (VertexId v = 0; v < n; ++v) {
        if (prev != nullptr && prev->home[v] == kNoCluster) continue;
        EdgeId best = static_cast<EdgeId>(-1);
        for (const EdgeId e : g.incident_edges(v)) {
          if (level.edge_cluster[e] == kNoCluster || e >= best) continue;
          if (prev == nullptr ||
              level.clusters[level.edge_cluster[e]].parent == prev->home[v]) {
            best = e;
          }
        }
        if (best != static_cast<EdgeId>(-1)) {
          level.home[v] = level.edge_cluster[best];
        }
      }
      levels_.push_back(std::move(level));
      confirm_level(levels_.back());
      embed_portals(levels_.size() - 1);
    }
  }

  // ⌈log₂ n⌉ + 1 relay BFS trees for realizing portal hops (real BFS
  // waves).
  int relay_trees = 1;
  for (std::size_t v = 1; v < n; v <<= 1) ++relay_trees;
  const std::vector<char> active(n, 1);
  for (int t = 0; t < relay_trees; ++t) {
    const auto root = static_cast<VertexId>(rng.next_below(n));
    forests_.push_back(prim::build_forest_from_roots(
        *net_, active, {root}, "SimHierRouter/forest"));
    XD_CHECK_MSG(forests_.back().is_active(root), "router graph disconnected");
  }

  preprocessed_ = true;
  preprocess_rounds_ = net_->ledger().rounds() - before;
  return preprocess_rounds_;
}

int SimulatedHierarchicalRouter::chain_depth(VertexId v) const {
  int depth = 0;
  for (std::size_t i = 0; i < levels_.size(); ++i) {
    if (levels_[i].home[v] == kNoCluster) break;
    depth = static_cast<int>(i) + 1;
  }
  return depth;
}

std::uint64_t SimulatedHierarchicalRouter::route(
    const std::vector<Demand>& demands) {
  XD_CHECK_MSG(preprocessed_, "preprocess() must run first");
  const Graph& g = net_->graph();
  Rng& rng = net_->rng(0);
  queries_ += queries_needed(g, demands);
  last_delivered_.assign(demands.size(), 0);

  if (!arena_) arena_ = std::make_unique<QueueArena>(g);
  arena_->begin_batch();
  std::vector<std::uint32_t> msg_demand;
  std::vector<VertexId> waypoints;
  const auto pick_portal = [&](int lvl, VertexId v) {
    const Level& level = levels_[static_cast<std::size_t>(lvl) - 1];
    const Cluster& c = level.clusters[level.home[v]];
    return c.portals[rng.next_below(c.portals.size())];
  };
  for (std::size_t di = 0; di < demands.size(); ++di) {
    const Demand& d = demands[di];
    for (std::uint32_t cnt = 0; cnt < d.count; ++cnt) {
      if (d.src == d.dst) {
        ++last_delivered_[di];  // local state, no channel use
        continue;
      }
      // Portal chain: climb the source's home clusters to the lowest
      // common level, cross, descend the destination's (GKS Lemma 3.4's
      // query walk).  Every hop is realized as a relay-tree path.
      const int ls = chain_depth(d.src);
      const int ld = chain_depth(d.dst);
      int common = 0;
      for (int lvl = std::min(ls, ld); lvl >= 1; --lvl) {
        if (levels_[static_cast<std::size_t>(lvl) - 1].home[d.src] ==
            levels_[static_cast<std::size_t>(lvl) - 1].home[d.dst]) {
          common = lvl;
          break;
        }
      }
      waypoints.clear();
      waypoints.push_back(d.src);
      for (int lvl = ls; lvl > common; --lvl) {
        waypoints.push_back(pick_portal(lvl, d.src));
      }
      for (int lvl = common + 1; lvl <= ld; ++lvl) {
        waypoints.push_back(pick_portal(lvl, d.dst));
      }
      waypoints.push_back(d.dst);

      arena_->begin_path();
      for (std::size_t w = 0; w + 1 < waypoints.size(); ++w) {
        if (waypoints[w] == waypoints[w + 1]) continue;
        const auto& f = forests_[rng.next_below(forests_.size())];
        append_tree_path(f, waypoints[w], waypoints[w + 1], *arena_);
      }
      arena_->end_path();
      // Audit half 1: the staged path must terminate at the demand's
      // destination (a broken portal chain would fail here, not deliver
      // to the wrong vertex).
      XD_CHECK(arena_->path_terminal(arena_->batch_size() - 1) == d.dst);
      msg_demand.push_back(static_cast<std::uint32_t>(di));
    }
  }

  const auto r = arena_->drain();
  // Audit half 2: drain() only returns once every staged message reached
  // the end of its path -- which half 1 pinned to the destination.
  for (const std::uint32_t di : msg_demand) ++last_delivered_[di];
  net_->ledger().count_messages(r.messages_sent);
  const auto rounds = std::max<std::uint64_t>(r.rounds, 1);
  net_->ledger().charge(rounds, "SimHierRouter/route");
  return rounds;
}

}  // namespace xd::routing
