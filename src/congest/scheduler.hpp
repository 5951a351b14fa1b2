#pragma once

/// \file scheduler.hpp
/// Host-side fork/join pool for independent simulation work items.
///
/// The paper's round bounds assume the algorithm runs on all disjoint
/// components *in parallel* -- one CONGEST network, one clock.  The epoch
/// scheduler is the host half of that model: the decomposition drivers (and
/// the triangle enumerator's per-cluster stage) collect every active
/// component of a recursion level into one batch -- an *epoch* -- and runs
/// the items concurrently here, each with its own forked RoundLedger branch
/// (ledger.hpp) and its own seed-split Rng.
///
/// Determinism contract (matching the round engine's bit-identical rule,
/// docs/engine.md): items of an epoch are vertex-disjoint, so an item's
/// computation depends only on its own inputs -- pre-forked RNG, private
/// ledger branch, and a snapshot of shared state that no item mutates.
/// Which host thread runs an item, and in what order items finish, can
/// never change what any item computes; callers merge the per-item outputs
/// in item-index order, so the combined result is bit-identical at any
/// thread count.  Round accounting is covered in docs/rounds.md.

#include <cstddef>
#include <functional>

#include "congest/ledger.hpp"

namespace xd::congest {

namespace detail {

/// Test hook: called with the worker index immediately before that worker
/// slot is handed out to the pool; a throwing hook simulates the hand-off
/// failing mid-loop (resource exhaustion) -- the dispatch waits for the
/// slots already handed out, then rethrows.  Backed by the fault-plane
/// registry's "sched.spawn" hook slot (util/fault_plane.hpp), so setting it
/// is thread-safe; pass {} to reset.  The fault plane's own sched.* sites
/// (sched.spawn / sched.stall / sched.throw) inject the same failures from
/// an XD_FAULTS spec without any hook.
void set_spawn_fault_hook_for_testing(std::function<void(int)> hook);

}  // namespace detail

/// Runs batches ("epochs") of independent work items on a pool of host
/// threads.  Work-sharing: workers pull the next unclaimed item index from
/// a shared cursor, so one oversized component keeps the remaining workers
/// busy on the rest of the level instead of idling behind it.
///
/// Every scheduler dispatches to one process-wide pool of parked worker
/// threads, grown lazily to the widest epoch ever requested; an epoch
/// costs a wake-up and a barrier, not a thread spawn and join.  The caller
/// waits at the barrier and runs no items itself.  An epoch started from
/// inside an item, or from a second host thread while the pool is busy,
/// runs all its worker slots on the calling thread in slot order -- same
/// results, by the determinism contract above.
class EpochScheduler {
 public:
  explicit EpochScheduler(int threads = 1) { set_threads(threads); }

  /// Host threads used by run(); >= 1.  Thread count shapes wall-clock
  /// only, never results.
  void set_threads(int threads);
  [[nodiscard]] int threads() const { return threads_; }

  /// Runs fn(i) for every i in [0, n) and returns after all complete (the
  /// epoch barrier).  fn must only mutate item-local state; exceptions
  /// propagate (first one wins, matching the round engine's behavior).
  void run(std::size_t n, const std::function<void(std::size_t)>& fn) const;

  /// The concurrent-epoch idiom in one call: forks one branch of `root`
  /// per item, runs fn(i, branch_i) as an epoch, and joins at the barrier
  /// (rounds advance by the epoch max -- ledger.hpp).  The join runs even
  /// when an item throws: the aborted epoch's partial branch charges merge
  /// and `root` never carries stale forked children into a later epoch.
  void run_forked(
      RoundLedger& root, std::size_t n,
      const std::function<void(std::size_t, RoundLedger&)>& fn) const;

  /// Static contiguous partition: body(worker, lo, hi) over [0, n) split
  /// into `workers` ranges.  This is the round engine's phase executor
  /// (Network::run_round and the shard plane's delivery phases, both
  /// partitioned by shard).  Exposed here so the engine and the scheduler
  /// share one pool.
  static void run_partitioned(
      std::size_t n, int workers,
      const std::function<void(int, std::size_t, std::size_t)>& body);

 private:
  int threads_ = 1;
};

/// The one place an epoch driver picks how an epoch runs -- both Theorem 1
/// drivers and enumerate_congest's cluster stage go through here.
/// threads == 0: fn(i, root) for every i in [0, n), in index order on the
/// calling thread, so components pay one after another (rounds SUM).
/// threads >= 1: EpochScheduler(threads).run_forked(root, n, fn), so
/// components share the clock (rounds advance by the epoch MAX, the
/// composition the paper's Theorem 1/2 bounds assume).
inline void run_epoch(
    int threads, RoundLedger& root, std::size_t n,
    const std::function<void(std::size_t, RoundLedger&)>& fn) {
  if (threads >= 1) {
    EpochScheduler(threads).run_forked(root, n, fn);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) fn(i, root);
}

}  // namespace xd::congest
