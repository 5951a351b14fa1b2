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
///
/// Nested regions (parallel_chunks) carry the same contract one level
/// down: one item's work is split into chunks fixed by the input alone,
/// the item's thread and idle pool workers run them, and callers merge
/// chunk outputs in chunk order.  That is how a level with one giant
/// cluster still uses every thread of its epoch.

#include <cstddef>
#include <cstdint>
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
/// threads.  Work-sharing: the epoch's slots pull the next unclaimed item
/// index from a shared cursor, so one oversized component keeps the
/// remaining threads busy on the rest of the level instead of idling
/// behind it.
///
/// Every scheduler dispatches to one process-wide pool of parked worker
/// threads, grown lazily to the widest epoch ever requested (minus the
/// caller); an epoch costs a wake-up and a barrier, not a thread spawn and
/// join.  A dispatch is help-first: the calling thread claims slots like
/// any parked worker, and waits only for slots a worker already claimed.
/// Epochs started from inside an item, or from several host threads at
/// once, take whichever workers are parked -- possibly none, in which case
/// the caller runs every slot itself -- with the same results, by the
/// determinism contract above.
///
/// Each item runs with the scheduler's thread count as its *nested width*
/// (nested_width()), including the items of a one-item epoch, which run
/// inline on the calling thread.  parallel_chunks() inside the item may
/// then hand chunks to workers left parked by the rest of the epoch.
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

/// Work (in elementary steps, roughly one per vertex slot, edge copy or
/// scalar update) below which parallel_chunks() runs inline: at this size
/// a region costs less than waking a parked worker.
inline constexpr std::uint64_t kNestedWorkFloor = std::uint64_t{1} << 15;

/// The thread count of the innermost epoch whose item (or nested chunk)
/// the calling thread is running; 1 outside any epoch.
[[nodiscard]] int nested_width();

/// Nested region: runs fn(c) for every chunk c in [0, chunks) and returns
/// after all complete.  The caller defines the chunks (their boundaries
/// must depend on the input only, never on the thread count) and states
/// the region's total `work`.  The calling thread claims chunks from a
/// shared cursor, and so do up to nested_width() - 1 parked pool workers;
/// the caller never waits on a worker busy with other work, only on chunks
/// a helper already claimed.  Chunks run with the caller's nested width.
///
/// Runs inline, chunks in order, when nested_width() is 1 (outside any
/// epoch, or at scheduler_threads 0 and 1), when there is one chunk, or
/// when work < kNestedWorkFloor.  fn must write chunk-local state only;
/// callers that merge chunk outputs in chunk order get bit-identical
/// results at any width.  Every chunk runs; the first exception thrown
/// is rethrown once all of them finished.
void parallel_chunks(std::size_t chunks, std::uint64_t work,
                     const std::function<void(std::size_t)>& fn);

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
