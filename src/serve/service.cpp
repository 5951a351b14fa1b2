#include "serve/service.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <thread>

#include "util/check.hpp"
#include "util/fault_plane.hpp"

namespace xd::serve {

namespace {

/// GKS query-model cost of one routed demand inside component `info`: one
/// round of local lookup plus a polylog term per hierarchy level (the §3
/// observation -- portal queries cost polylog, not 2^{O(√log n)}).
std::uint64_t route_model_cost(const ComponentInfo& info,
                               std::uint32_t depth) {
  return 1 + std::uint64_t{depth} * std::bit_width(info.internal_edges + 1);
}

/// Holds a service's single-driver slot for one submit() / flush_report()
/// call; entering while another thread holds it is a CheckError.
class DriverGuard {
 public:
  explicit DriverGuard(std::atomic<bool>& in_use) : in_use_(in_use) {
    const bool entered_alone =
        !in_use_.exchange(true, std::memory_order_acquire);
    XD_CHECK_MSG(entered_alone,
                 "QueryService entered concurrently: one thread at a time "
                 "may drive submit() / flush()");
  }
  ~DriverGuard() { in_use_.store(false, std::memory_order_release); }
  DriverGuard(const DriverGuard&) = delete;
  DriverGuard& operator=(const DriverGuard&) = delete;

 private:
  std::atomic<bool>& in_use_;
};

}  // namespace

QueryService::QueryService(const PreparedArtifact& artifact,
                           const ServiceParams& prm)
    : art_(artifact),
      prm_(prm),
      pool_(std::max(1, prm.threads)),
      arena_(artifact.graph) {
  if (prm_.max_batch == 0) prm_.max_batch = 1;
  if (prm_.max_flush_retries < 0) prm_.max_flush_retries = 0;
}

bool QueryService::submit(std::uint32_t client, const Query& q) {
  const DriverGuard guard(in_use_);
  auto& stats = clients_[client];
  ++stats.submitted;
  if (pending_.size() >= prm_.max_pending) {
    ++stats.rejected;
    ++total_rejected_;
    return false;
  }
  pending_.push_back(Pending{client, next_ticket_++, q});
  return true;
}

void QueryService::run_phase_a(
    const std::vector<Pending>& taken, congest::RoundLedger& scratch,
    std::vector<QueryResult>& results,
    std::vector<std::vector<VertexId>>& route_paths) const {
  const std::size_t batch = taken.size();
  const std::size_t n = art_.graph.num_vertices();
  const std::uint64_t deadline = prm_.deadline_rounds;

  // Phase A: per-query computation, read-only against the shared artifact.
  // Always forked -- each query charges its own ledger branch and the join
  // advances the clock by the batch's max, so the accounting is identical
  // at every thread count.
  pool_.run_forked(
      scratch, batch,
      [&](std::size_t i, congest::RoundLedger& branch) {
        const Pending& p = taken[i];
        QueryResult& r = results[i];
        r = QueryResult{};
        route_paths[i].clear();
        r.kind = p.query.kind;
        r.client = p.client;
        r.ticket = p.ticket;
        const Query& q = p.query;
        std::uint64_t cost = 1;
        switch (q.kind) {
          case QueryKind::kTriangleCount:
            r.ok = true;
            r.value = art_.triangle_count();
            r.messages = 1;
            break;
          case QueryKind::kTrianglesOf:
            if (q.a < n) {
              const auto span = art_.triangles_of(q.a);
              r.ok = true;
              r.value = span.size();
              r.ids.assign(span.begin(), span.end());
              r.messages = span.size();
              // Batched convergecast: eight ids ride one message slot.
              cost = 1 + (span.size() + 7) / 8;
            }
            break;
          case QueryKind::kTriangleMembership:
            if (q.a < n && q.b < n && q.c < n) {
              r.ok = true;
              r.value = art_.has_triangle(q.a, q.b, q.c) ? 1 : 0;
              r.messages = 1;
            }
            break;
          case QueryKind::kRoute:
            if (q.a < n && q.b < n &&
                art_.relay_path(q.a, q.b, route_paths[i])) {
              r.ok = true;
              r.value = route_paths[i].size() - 1;  // hops
              r.ids.assign(route_paths[i].begin(), route_paths[i].end());
              r.messages = route_paths[i].size() - 1;
              cost = route_model_cost(
                  art_.components[art_.component_of(q.a)], art_.router_depth);
            }
            break;
          case QueryKind::kConductance:
            if (q.a < art_.num_components) {
              r.ok = true;
              r.scalar = art_.components[q.a].conductance;
              r.value = art_.components[q.a].size;
              r.messages = 1;
            }
            break;
          case QueryKind::kComponentOf:
            if (q.a < n) {
              r.ok = true;
              r.value = art_.component_of(q.a);
              r.messages = 1;
            }
            break;
        }
        // Deadline: a query whose model cost exceeds the budget returns
        // what fits inside it instead.  Deterministic -- costs are model
        // values -- so a deadline-degraded batch is still bit-identical at
        // every thread count.
        if (deadline > 0 && r.ok && cost > deadline) {
          r.exact = false;
          if (q.kind == QueryKind::kTrianglesOf) {
            // The first (deadline - 1) convergecast rounds' worth of ids.
            r.ids.resize(std::min<std::size_t>(
                r.ids.size(), static_cast<std::size_t>(deadline - 1) * 8));
            r.value = r.ids.size();
            r.messages = r.ids.size();
          } else if (q.kind == QueryKind::kRoute) {
            // Depth-sum upper bound on the hop count; no path delivered.
            r.value = art_.relay_depth[q.a] + art_.relay_depth[q.b];
            r.ids.clear();
            route_paths[i].clear();
            r.messages = 1;
          }
          cost = deadline;
        }
        r.rounds_charged = cost;
        branch.charge(cost, "Serve/query");
        branch.count_messages(r.messages);
      });
}

std::vector<QueryResult> QueryService::degraded_answers(
    const std::vector<Pending>& taken) {
  const std::size_t n = art_.graph.num_vertices();
  std::vector<QueryResult> results(taken.size());
  for (std::size_t i = 0; i < taken.size(); ++i) {
    const Pending& p = taken[i];
    const Query& q = p.query;
    QueryResult& r = results[i];
    r.kind = q.kind;
    r.client = p.client;
    r.ticket = p.ticket;
    r.messages = 1;
    switch (q.kind) {
      case QueryKind::kTriangleCount:
        // Component-local count: exact within the component the client
        // named (operand a), a lower bound on the global answer.
        if (q.a < n) {
          r.ok = true;
          r.exact = false;
          r.value = art_.comp_triangles[art_.component_of(q.a)];
        }
        break;
      case QueryKind::kTrianglesOf:
        if (q.a < n) {
          r.ok = true;
          r.exact = false;
          r.value = art_.triangles_of(q.a).size();  // count only, no ids
        }
        break;
      case QueryKind::kRoute:
        if (q.a < n && q.b < n &&
            art_.component_of(q.a) == art_.component_of(q.b)) {
          r.ok = true;
          r.exact = false;
          r.value = art_.relay_depth[q.a] + art_.relay_depth[q.b];
        }
        break;
      // O(1) local lookups stay exact even in the fallback.
      case QueryKind::kTriangleMembership:
        if (q.a < n && q.b < n && q.c < n) {
          r.ok = true;
          r.value = art_.has_triangle(q.a, q.b, q.c) ? 1 : 0;
        }
        break;
      case QueryKind::kConductance:
        if (q.a < art_.num_components) {
          r.ok = true;
          r.scalar = art_.components[q.a].conductance;
          r.value = art_.components[q.a].size;
        }
        break;
      case QueryKind::kComponentOf:
        if (q.a < n) {
          r.ok = true;
          r.value = art_.component_of(q.a);
        }
        break;
    }
    r.rounds_charged = 1;
    ledger_.charge(1, "Serve/degraded");
    ledger_.count_messages(r.messages);
  }
  return results;
}

std::vector<QueryResult> QueryService::flush() {
  return flush_report().results;
}

FlushReport QueryService::flush_report() {
  const DriverGuard guard(in_use_);
  FlushReport rep;
  if (pending_.empty()) return rep;  // no work: no charges, no fault dice

  const std::size_t batch = std::min(prm_.max_batch, pending_.size());
  const auto batch_end =
      pending_.begin() + static_cast<std::ptrdiff_t>(batch);
  std::vector<Pending> taken(pending_.begin(), batch_end);
  pending_.erase(pending_.begin(), batch_end);

  FaultPlane& faults = FaultPlane::instance();
  const bool serve_armed = faults.armed(FaultCategory::kServe);
  const std::uint64_t fseq = flush_seq_++;

  std::vector<QueryResult> results(batch);
  std::vector<std::vector<VertexId>> route_paths(batch);
  bool committed = false;
  for (int attempt = 0; attempt <= prm_.max_flush_retries; ++attempt) {
    rep.attempts = attempt + 1;
    // Each attempt charges a scratch ledger; only the committing attempt
    // is absorbed, so an abandoned attempt never pollutes the clock and a
    // faulty run's committed charges equal the fault-free run's.
    congest::RoundLedger scratch;
    run_phase_a(taken, scratch, results, route_paths);
    if (serve_armed &&
        faults.should_fire("serve.flush",
                           (fseq << 8) | static_cast<std::uint64_t>(attempt))) {
      ++health_.faults_seen;
      if (attempt < prm_.max_flush_retries) {
        ++health_.flush_retries;
        const std::uint64_t us = std::min(
            prm_.backoff_cap_us, prm_.backoff_base_us << attempt);
        if (us > 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(us));
        }
      }
      continue;
    }
    ledger_.absorb(scratch);
    committed = true;
    break;
  }

  if (committed) {
    // Phase B: deliver every successful exact route over the shared
    // network in one synchronous drain -- concurrent demands contend for
    // directed-edge bandwidth, so a route's arrival round depends
    // (deterministically, by admission order) on the whole batch.
    std::vector<std::size_t> route_of_staged;
    for (std::size_t i = 0; i < batch; ++i) {
      if (results[i].kind == QueryKind::kRoute && results[i].ok &&
          results[i].exact) {
        route_of_staged.push_back(i);
      }
    }
    if (!route_of_staged.empty()) {
      arena_.begin_batch();
      for (const std::size_t i : route_of_staged) {
        arena_.begin_path();
        for (const VertexId v : route_paths[i]) arena_.push_vertex(v);
        arena_.end_path();
      }
      const auto drained = arena_.drain();
      ledger_.charge(drained.rounds, "Serve/drain");
      ledger_.count_messages(drained.messages_sent);
      for (std::size_t s = 0; s < route_of_staged.size(); ++s) {
        results[route_of_staged[s]].rounds_charged += drained.arrivals[s];
      }
    }
    for (const QueryResult& r : results) {
      if (!r.exact) {
        ++health_.degraded_answers;
        ++health_.deadline_hits;
      }
    }
  } else {
    // Every attempt faulted: answer from the serial degraded path rather
    // than throwing -- typed, bounded, still in admission order.
    rep.failure = FlushFailure::kRetryExhausted;
    rep.degraded = true;
    results = degraded_answers(taken);
    for (const QueryResult& r : results) {
      if (!r.exact) ++health_.degraded_answers;
    }
  }

  for (const QueryResult& r : results) {
    auto& stats = clients_[r.client];
    ++stats.served;
    stats.rounds += r.rounds_charged;
    stats.messages += r.messages;
    ++total_served_;
  }
  rep.results = std::move(results);
  return rep;
}

ServiceHealth QueryService::health() const {
  ServiceHealth h = health_;
  h.retransmits = FaultPlane::instance().counter("shard.retransmits");
  return h;
}

}  // namespace xd::serve
