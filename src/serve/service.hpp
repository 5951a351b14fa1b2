#pragma once

/// \file service.hpp
/// Concurrent query service over one PreparedArtifact (docs/serving.md).
///
/// The serving half of the build-once lifecycle: clients submit triangle /
/// routing / conductance queries into a bounded admission queue, and
/// flush() executes them in batches against the shared immutable artifact.
/// Execution is two-phase:
///
///   * Phase A (parallel): every admitted query is computed read-only from
///     the artifact on the EpochScheduler, each on its own forked
///     RoundLedger branch.  The phase always forks -- even at one thread --
///     so the charged totals are identical at every thread count (the
///     scheduler's determinism contract: threads shape wall-clock only).
///   * Phase B (sequential): route queries stage their relay paths into
///     the service's QueueArena in admission order and one synchronous
///     drain delivers them all, charging the shared clock the drain's round
///     count (concurrent demands contend for directed-edge bandwidth,
///     exactly like the simulated routers).
///
/// Results come back in admission order and are bit-identical for every
/// ServiceParams::threads setting; per-client RoundLedger-style sums are
/// tracked in ClientStats.
///
/// Robustness (docs/robustness.md): flush_report() wraps the two phases in
/// a retry ladder.  A flush the fault plane fails (serve.flush) is retried
/// with capped exponential backoff against a scratch ledger -- the shared
/// clock only absorbs the attempt that commits, so a faulty run charges
/// exactly what the fault-free run charges.  Per-query deadlines
/// (ServiceParams::deadline_rounds) and exhausted retries degrade answers
/// instead of throwing: QueryResult::exact flips false and the value falls
/// back to a cheaper local summary (a component-local triangle count, a
/// depth-sum route estimate).  ServiceHealth counts everything.

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "congest/ledger.hpp"
#include "congest/scheduler.hpp"
#include "routing/queue_arena.hpp"
#include "serve/artifact.hpp"

namespace xd::serve {

enum class QueryKind : int {
  kTriangleCount = 0,      ///< total triangles in the artifact
  kTrianglesOf = 1,        ///< ids of triangles incident to vertex a
  kTriangleMembership = 2, ///< is {a, b, c} a listed triangle?
  kRoute = 3,              ///< relay-forest route a -> b
  kConductance = 4,        ///< component a's conductance observation
  kComponentOf = 5,        ///< component label of vertex a
};

/// One client request.  Unused operand slots are ignored per kind.
struct Query {
  QueryKind kind = QueryKind::kTriangleCount;
  VertexId a = 0;
  VertexId b = 0;
  VertexId c = 0;
};

/// One answered query, in admission order.
struct QueryResult {
  QueryKind kind = QueryKind::kTriangleCount;
  std::uint32_t client = 0;
  std::uint64_t ticket = 0;        ///< global admission sequence number
  bool ok = false;                 ///< false: bad operand / no route
  bool exact = true;               ///< false: degraded (deadline / retries)
  std::uint64_t value = 0;         ///< count / 0-1 / label / hop count
  double scalar = 0.0;             ///< conductance (kConductance only)
  std::uint64_t rounds_charged = 0;///< model cost + drain arrival round
  std::uint64_t messages = 0;      ///< messages this answer accounts for
  /// kTrianglesOf: incident triangle ids (ascending).
  /// kRoute: the delivered vertex path a .. b.
  std::vector<std::uint32_t> ids;
};

struct ServiceParams {
  int threads = 1;              ///< Phase A scheduler threads (>= 1)
  std::size_t max_pending = 1024;  ///< admission queue bound (backpressure)
  std::size_t max_batch = 256;     ///< queries executed per flush()
  /// Per-query round budget (0 = no deadline).  A query whose model cost
  /// would exceed it returns a truncated / estimated answer with
  /// exact == false, charged exactly `deadline_rounds` -- deterministic at
  /// every thread count (costs are model values, not wall-clock).
  std::uint64_t deadline_rounds = 0;
  /// Failed flushes (the serve.flush fault site) retry up to this many
  /// times before degrading the whole batch.
  int max_flush_retries = 3;
  std::uint64_t backoff_base_us = 50;  ///< first retry sleep; doubles per try
  std::uint64_t backoff_cap_us = 2000; ///< backoff ceiling
};

/// Why a flush_report() did not commit a normal batch.
enum class FlushFailure : int {
  kNone = 0,            ///< committed normally
  kRetryExhausted = 1,  ///< every attempt faulted; batch degraded
};

/// One flush's outcome: the results plus how they were obtained.
struct FlushReport {
  std::vector<QueryResult> results;  ///< admission order, as flush()
  int attempts = 1;                  ///< Phase A runs consumed (>= 1)
  FlushFailure failure = FlushFailure::kNone;
  bool degraded = false;  ///< batch served by the degraded fallback
};

/// Monotone robustness counters over the service's lifetime.
struct ServiceHealth {
  std::uint64_t faults_seen = 0;       ///< serve.flush faults hit
  std::uint64_t flush_retries = 0;     ///< retry attempts spent
  std::uint64_t degraded_answers = 0;  ///< results returned with exact=false
  std::uint64_t deadline_hits = 0;     ///< degradations due to the deadline
  std::uint64_t retransmits = 0;       ///< shard-plane wire retransmits
};

/// Per-client fork of the accounting: sums over that client's answers.
struct ClientStats {
  std::uint64_t submitted = 0;  ///< submit() calls (accepted + rejected)
  std::uint64_t served = 0;
  std::uint64_t rejected = 0;   ///< bounced by backpressure
  std::uint64_t rounds = 0;     ///< sum of rounds_charged over its answers
  std::uint64_t messages = 0;
};

/// Executes query streams against one shared PreparedArtifact.  The
/// artifact must outlive the service (the QueueArena keeps a pointer to
/// its graph).  Not internally synchronized: one thread drives submit() /
/// flush(); parallelism lives inside flush()'s Phase A.  The single-driver
/// contract is checked -- a submit() or flush() that enters while another
/// thread is inside either throws CheckError.
class QueryService {
 public:
  QueryService(const PreparedArtifact& artifact, const ServiceParams& prm);

  /// Admits one query from `client`.  Returns false -- and counts a
  /// rejection -- when the pending queue is at max_pending (the caller
  /// should flush() and retry: closed-loop backpressure).
  bool submit(std::uint32_t client, const Query& q);

  /// Executes up to max_batch pending queries (FIFO admission order) and
  /// returns their results in that order.  Empty queue -> empty vector.
  /// Equivalent to flush_report().results.
  std::vector<QueryResult> flush();

  /// flush() with the robustness envelope made visible: attempts consumed,
  /// typed failure reason, and whether the batch fell back to degraded
  /// answers.  Each attempt runs Phase A against a scratch ledger; only
  /// the committing attempt's charges reach ledger(), so retries never
  /// inflate the clock.  Never throws for injected flush faults -- the
  /// worst outcome is a fully degraded batch (exact == false throughout).
  FlushReport flush_report();

  /// Snapshot of the robustness counters (retransmits read from the fault
  /// plane's shard-wire ledger).
  [[nodiscard]] ServiceHealth health() const;

  [[nodiscard]] std::size_t pending() const { return pending_.size(); }
  [[nodiscard]] std::uint64_t total_served() const { return total_served_; }
  [[nodiscard]] std::uint64_t total_rejected() const {
    return total_rejected_;
  }

  /// The service's shared clock: Phase A query costs (epoch max per batch)
  /// plus every Phase B drain.
  [[nodiscard]] const congest::RoundLedger& ledger() const { return ledger_; }

  /// Per-client accounting, keyed by client id.
  [[nodiscard]] const std::map<std::uint32_t, ClientStats>& clients() const {
    return clients_;
  }

 private:
  struct Pending {
    std::uint32_t client;
    std::uint64_t ticket;
    Query query;
  };

  /// Phase A of one attempt: compute `taken` read-only against the
  /// artifact, charging `scratch`.  Deterministic, so a retry recomputes
  /// identical results.
  void run_phase_a(const std::vector<Pending>& taken,
                   congest::RoundLedger& scratch,
                   std::vector<QueryResult>& results,
                   std::vector<std::vector<VertexId>>& route_paths) const;

  /// Serial last-resort answers when retries are exhausted: cheap local
  /// summaries (exact=false where the full answer was out of reach),
  /// bypassing the pool and the arena entirely.
  std::vector<QueryResult> degraded_answers(const std::vector<Pending>& taken);

  const PreparedArtifact& art_;
  ServiceParams prm_;
  congest::EpochScheduler pool_;
  routing::QueueArena arena_;
  congest::RoundLedger ledger_;
  std::deque<Pending> pending_;
  std::map<std::uint32_t, ClientStats> clients_;
  std::uint64_t next_ticket_ = 0;
  std::uint64_t total_served_ = 0;
  std::uint64_t total_rejected_ = 0;
  std::uint64_t flush_seq_ = 0;  ///< fault key coordinate per flush
  ServiceHealth health_;
  std::atomic<bool> in_use_{false};  ///< a thread is in submit()/flush()
};

}  // namespace xd::serve
