#include "sparsecut/distributed_nibble.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "congest/engine.hpp"
#include "primitives/aggregate.hpp"
#include "primitives/forest.hpp"
#include "primitives/tree_search.hpp"
#include "util/check.hpp"

namespace xd::sparsecut {

using congest::Envelope;
using congest::Message;
using congest::Network;
using congest::Outbox;
using spectral::SparseDist;

namespace {

constexpr std::uint32_t kMassTag = 0x91;
constexpr std::uint32_t kKeyTag = 0x92;

}  // namespace

std::vector<SparseDist> distributed_truncated_walk(Network& net,
                                                   VertexId start, int steps,
                                                   double epsilon,
                                                   std::string_view reason) {
  const Graph& g = net.graph();
  const std::size_t n = g.num_vertices();
  XD_CHECK(start < n);
  XD_CHECK_MSG(g.degree(start) > 0, "start vertex is isolated");

  std::vector<double> mass(n, 0.0);
  mass[start] = 1.0;

  std::vector<SparseDist> evolution;
  evolution.push_back(SparseDist::point(start));

  // One engine superstep per walk step: the send phase pushes half of each
  // support vertex's mass in equal per-slot shares; the receive phase folds
  // in ascending sender order, then retention, then truncation -- the same
  // order as spectral::truncated_step so the two agree exactly.
  std::vector<double> next(n, 0.0);
  auto program = congest::make_program(
      [&](VertexId v, Outbox& out) {
        if (mass[v] <= 0.0) return;
        const double share = mass[v] / (2.0 * g.degree(v));
        auto nbrs = g.neighbors(v);
        for (std::uint32_t slot = 0; slot < nbrs.size(); ++slot) {
          if (nbrs[slot] == v) continue;
          Message m{kMassTag, 0, 0};
          m.set_double(0, share);
          out.send(slot, m);
        }
      },
      [&](VertexId u, std::span<const Envelope> inbox) {
        next[u] = 0.0;
        if (inbox.empty() && mass[u] <= 0.0) return;
        double m = 0.0;
        for (const auto& env : inbox) {
          // The flat inboxes are canonically sender-ascending, the fold
          // order the truncated-step contract requires.
          if (env.msg.tag == kMassTag) m += env.msg.get_double(0);
        }
        if (mass[u] > 0.0) {
          m += mass[u] / 2.0 + static_cast<double>(g.loops_at(u)) * mass[u] /
                                   (2.0 * g.degree(u));
        }
        if (m >= 2.0 * epsilon * g.degree(u)) next[u] = m;
      });

  for (int t = 1; t <= steps; ++t) {
    bool any = false;
    for (VertexId v = 0; v < n; ++v) any = any || mass[v] > 0.0;
    if (!any) break;
    net.run_round(program, reason);
    mass = next;

    SparseDist dist;
    for (VertexId v = 0; v < n; ++v) {
      if (mass[v] > 0.0) {
        dist.support.push_back(v);
        dist.mass.push_back(mass[v]);
      }
    }
    if (dist.size() == 0) break;
    evolution.push_back(std::move(dist));
  }
  return evolution;
}


namespace {

/// Σ over prefix members (OrderKey <= pivot) of their neighbor count
/// *outside* the prefix == |∂(prefix)|.  Each vertex decides membership of
/// itself and its neighbors locally from the keys exchanged this step.
std::uint64_t distributed_prefix_cut(
    Network& net, const prim::Forest& forest, VertexId root,
    const std::vector<double>& keys,
    const std::vector<std::vector<std::pair<VertexId, double>>>& nbr_keys,
    const prim::OrderKey& pivot, std::string_view reason) {
  const Graph& g = net.graph();
  const std::size_t n = g.num_vertices();

  // Pivot broadcast: two words (key bits, id) down the tree.
  std::uint64_t key_bits;
  std::memcpy(&key_bits, &pivot.key, sizeof(key_bits));
  std::vector<std::uint64_t> root_val(n, 0);
  root_val[root] = key_bits;
  (void)prim::broadcast_from_roots(net, forest, root_val, reason);
  root_val[root] = pivot.id;
  (void)prim::broadcast_from_roots(net, forest, root_val, reason);

  std::vector<std::uint64_t> outside_count(n, 0);
  for (VertexId v = 0; v < n; ++v) {
    if (!forest.is_active(v) || forest.root[v] != root) continue;
    if (!(prim::OrderKey{keys[v], v}.precedes_eq(pivot))) continue;
    std::uint64_t outside = 0;
    // v's received keys arrive sender-ascending (canonical inbox order),
    // and a sender repeats one key per slot, so any copy found is the key.
    const auto& known = nbr_keys[v];
    for (const VertexId w : g.neighbors(v)) {
      if (w == v) continue;
      const auto it = std::lower_bound(
          known.begin(), known.end(), w,
          [](const auto& entry, VertexId id) { return entry.first < id; });
      const double kw = it != known.end() && it->first == w ? it->second : 0.0;
      if (!(prim::OrderKey{kw, w}.precedes_eq(pivot))) ++outside;
    }
    outside_count[v] = outside;
  }
  const auto sums = prim::convergecast_sum(net, forest, outside_count, reason);
  return sums[root];
}

}  // namespace

DistributedNibbleResult distributed_approximate_nibble(Network& net,
                                                       VertexId start,
                                                       const NibbleParams& prm,
                                                       int b,
                                                       std::string_view reason) {
  const Graph& g = net.graph();
  const std::size_t n = g.num_vertices();
  XD_CHECK(b >= 1 && b <= prm.ell);
  XD_CHECK_MSG(g.degree(start) > 0, "start vertex is isolated");
  const std::uint64_t rounds_before = net.ledger().rounds();
  const double eps = prm.eps_b(b);
  const std::uint64_t total_volume = g.volume();

  DistributedNibbleResult out;

  // The full truncated evolution, kernel-executed (one round per step).
  const auto evolution =
      distributed_truncated_walk(net, start, prm.t0, eps, reason);

  // P* grows monotonically; its induced subgraph is connected (paper).
  std::vector<char> touched(n, 0);
  touched[start] = 1;
  std::vector<std::uint64_t> weights(n);
  for (VertexId v = 0; v < n; ++v) weights[v] = g.degree(v);

  for (std::size_t t = 1; t < evolution.size() && !out.found(); ++t) {
    const SparseDist& dist = evolution[t];
    if (dist.size() == 0) break;
    for (const VertexId v : dist.support) touched[v] = 1;

    // Tree over P*-so-far, rooted at the start vertex.
    const prim::Forest forest =
        prim::build_forest_from_roots(net, touched, {start}, reason);

    // Per-step keys: rho for support vertices, 0 elsewhere.
    std::vector<double> keys(n, 0.0);
    for (std::size_t i = 0; i < dist.size(); ++i) {
      keys[dist.support[i]] = dist.mass[i] / g.degree(dist.support[i]);
    }

    // One superstep: every support vertex tells neighbors its key (the
    // local data for prefix-cut evaluation).
    std::vector<std::vector<std::pair<VertexId, double>>> nbr_keys(n);
    auto key_program = congest::make_program(
        [&](VertexId v, Outbox& out) {
          if (keys[v] <= 0.0) return;
          auto nbrs = g.neighbors(v);
          for (std::uint32_t slot = 0; slot < nbrs.size(); ++slot) {
            if (nbrs[slot] == v) continue;
            Message m{kKeyTag, 0, 0};
            m.set_double(0, keys[v]);
            out.send(slot, m);
          }
        },
        [&](VertexId v, std::span<const Envelope> inbox) {
          for (const auto& env : inbox) {
            if (env.msg.tag == kKeyTag) {
              nbr_keys[v].emplace_back(env.from, env.msg.get_double(0));
            }
          }
        });
    net.run_round(key_program, reason);

    const std::uint64_t jmax = dist.size();

    // Candidate walk (j_x), all statistics via Lemma 9 queries.
    std::uint64_t j = 1;
    std::uint64_t j_prev = 0;
    double rho_prev = 0.0;
    std::uint64_t vol_prev = 0;
    while (true) {
      const auto sel =
          prim::rank_select(net, forest, start, keys, weights, j, reason);
      ++out.rank_selects;
      XD_CHECK(sel.has_value());
      const std::uint64_t vol_j = sel->prefix_weight;
      const std::uint64_t cut_j = distributed_prefix_cut(
          net, forest, start, keys, nbr_keys,
          prim::OrderKey{sel->key, sel->vertex}, reason);

      // Conditions, mirroring the orchestrated implementation exactly.
      const bool boundary = j_prev == 0 || j == j_prev + 1;
      const std::uint64_t denom = std::min(vol_j, total_volume - vol_j);
      const double phi_j = denom == 0 ? std::numeric_limits<double>::infinity()
                                      : static_cast<double>(cut_j) /
                                            static_cast<double>(denom);
      bool c1, c2, c3;
      const double vold = static_cast<double>(vol_j);
      if (boundary) {
        c1 = phi_j <= prm.phi;
        c2 = sel->key >= prm.gamma / vold;
        c3 = vold <= (5.0 / 6.0) * static_cast<double>(total_volume) &&
             vold >= (5.0 / 7.0) * std::ldexp(1.0, b - 1);
      } else {
        c1 = phi_j <= prm.star_relax * prm.phi;
        c2 = rho_prev >= prm.gamma / vold;
        c3 = vold <= (11.0 / 12.0) * static_cast<double>(total_volume) &&
             vold >= (5.0 / 7.0) * std::ldexp(1.0, b - 1);
      }
      if (c1 && c2 && c3) {
        // Assemble the prefix: members are exactly the vertices whose
        // OrderKey precedes the pivot (each knows locally; gathered here).
        std::vector<VertexId> prefix;
        for (VertexId v = 0; v < n; ++v) {
          if (keys[v] > 0.0 &&
              prim::OrderKey{keys[v], v}.precedes_eq(
                  prim::OrderKey{sel->key, sel->vertex})) {
            prefix.push_back(v);
          }
        }
        out.cut = VertexSet(std::move(prefix));
        out.t_used = static_cast<int>(t);
        out.j_used = j;
        break;
      }
      if (j == jmax) break;

      // Next candidate: max(j+1, largest j' with vol <= (1+phi) vol_j),
      // by binary search over ranks (each probe is one rank_select).
      const double limit = (1.0 + prm.phi) * static_cast<double>(vol_j);
      std::uint64_t lo = j + 1;
      std::uint64_t hi = jmax;
      std::uint64_t best = j;
      while (lo <= hi) {
        const std::uint64_t mid = lo + (hi - lo) / 2;
        const auto probe =
            prim::rank_select(net, forest, start, keys, weights, mid, reason);
        ++out.rank_selects;
        XD_CHECK(probe.has_value());
        if (static_cast<double>(probe->prefix_weight) <= limit) {
          best = mid;
          lo = mid + 1;
        } else {
          hi = mid - 1;
        }
      }
      j_prev = j;
      rho_prev = sel->key;
      vol_prev = vol_j;
      (void)vol_prev;
      j = std::max(j + 1, best);
    }
  }

  out.rounds = net.ledger().rounds() - rounds_before;
  return out;
}

}  // namespace xd::sparsecut
