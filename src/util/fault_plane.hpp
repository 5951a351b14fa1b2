#pragma once

/// \file fault_plane.hpp
/// Seeded, deterministic fault injection (docs/robustness.md).
///
/// Every robustness path in the tree -- the shard-exchange recovery loop,
/// the scheduler's worker fault handling, the binary loaders' corruption
/// rejection, the query service's retry/degrade ladder -- is driven from
/// one registry of named *fault sites*.  A site is armed with a *rule*
/// (probability and/or count triggers); code at the site asks
/// `should_fire(site, key)` and injects the fault when it returns true.
/// Decisions are a pure function of (seed, site, key, per-site hit count),
/// so a fault schedule replays exactly: same seed, same faults, at every
/// thread and shard count.  Callers at parallel sites pass a
/// schedule-independent key (worker index, frame coordinates) so the
/// decision cannot depend on thread interleaving.
///
/// Sites are grouped into categories with one relaxed atomic armed mask:
/// disarmed runs pay a single load per guarded block, nothing else.
///
/// Spec grammar (the XD_FAULTS environment variable, applied at first use;
/// see docs/robustness.md for the site catalog):
///
///   spec    := clause ("," clause)*
///   clause  := "seed=" u64 | site ":" trigger ("/" trigger)*
///   trigger := "p=" prob | "every=" u64 | "at=" u64 | "max=" u64
///
/// e.g.  XD_FAULTS="seed=42,shard.drop:p=0.01,io.bitflip:every=2/max=5"
///
/// Commas separate clauses (not semicolons: CTest ENVIRONMENT properties
/// split on ';').  `p` fires with that probability per hit, `every=N`
/// fires on every Nth hit, `at=K` fires on exactly the Kth hit, and
/// `max=M` caps the total fires of the site.  Malformed specs and unknown
/// sites throw CheckError -- a typo'd fault plan must never silently run
/// clean.

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

namespace xd {

/// Site categories, one armed bit each (the prefix before the '.').
enum class FaultCategory : int {
  kShard = 0,  ///< shard.* -- XDSB wire-frame faults
  kSched = 1,  ///< sched.* -- worker hand-off/stall/throw faults
  kIo = 2,     ///< io.*    -- FileBytes torn reads and bit flips
  kServe = 3,  ///< serve.* -- query-service flush failures
};

/// Process-wide fault injector.  All members are thread-safe; the
/// fast-path `armed()` check is one relaxed atomic load.
class FaultPlane {
 public:
  /// The singleton.  First call applies the XD_FAULTS environment spec
  /// (throwing CheckError on a malformed value).
  static FaultPlane& instance();

  /// Parses `spec` (grammar above) and merges its rules into the registry;
  /// later clauses for the same site replace earlier ones.  Throws
  /// CheckError on unknown sites, unknown triggers, or unparsable numbers.
  void configure(const std::string& spec);

  /// Reseeds the probability decisions (hit ledgers are kept).
  void set_seed(std::uint64_t seed);

  /// Clears all rules, hit ledgers, counters, and hooks; restores the
  /// default seed.  Tests call this between cases.
  void reset();

  /// Is any site (or hook) of `cat` armed?  Guard every injection block
  /// with this -- the disarmed cost is one relaxed load.
  [[nodiscard]] bool armed(FaultCategory cat) const {
    return (armed_mask_.load(std::memory_order_relaxed) &
            (1u << static_cast<int>(cat))) != 0;
  }

  /// One fault decision at `site`.  Records a hit, evaluates the site's
  /// triggers, and returns true when the fault fires (recording the fire).
  /// `key` feeds the probability decision: pass coordinates that identify
  /// the attempt (frame indices, worker id, retry number) so the outcome
  /// is independent of scheduling.  Unarmed sites return false.
  bool should_fire(std::string_view site, std::uint64_t key = 0);

  /// The raw 64-bit decision hash of (seed, site, key) -- for sites that
  /// need a deterministic *value* (a corruption offset, a truncation
  /// point), not just a yes/no.
  [[nodiscard]] std::uint64_t decision_mix(std::string_view site,
                                           std::uint64_t key) const;

  /// Per-site hit ledger: decisions taken / faults fired at `site`.
  [[nodiscard]] std::uint64_t hits(std::string_view site) const;
  [[nodiscard]] std::uint64_t fires(std::string_view site) const;

  /// Named global counters (e.g. "shard.retransmits"), bumped by recovery
  /// paths and snapshotted into health reports.
  void count(std::string_view name, std::uint64_t n = 1);
  [[nodiscard]] std::uint64_t counter(std::string_view name) const;

  /// Test hook at `site`: called synchronously wherever the site's layer
  /// invokes call_hook (the scheduler's worker hand-off).  Pass {} to clear.
  /// Setting a hook arms the site's category; thread-safe, unlike the bare
  /// global it replaced.
  void set_hook(std::string_view site, std::function<void(int)> hook);

  /// Invokes the hook at `site` (outside the registry lock), if set.
  void call_hook(std::string_view site, int arg);

 private:
  struct Site {
    double p = -1.0;  ///< fire probability per hit; < 0 = no p trigger
    std::uint64_t every = 0;     ///< fire on every Nth hit; 0 = off
    std::uint64_t at = 0;        ///< fire on exactly the Kth hit; 0 = off
    std::uint64_t max_fires = ~std::uint64_t{0};  ///< total fire cap
    std::uint64_t hits = 0;
    std::uint64_t fired = 0;
  };

  FaultPlane() = default;
  void recompute_armed_locked();

  mutable std::mutex mu_;
  std::uint64_t seed_ = 0x5EEDFA17u;
  std::map<std::string, Site, std::less<>> sites_;
  std::map<std::string, std::function<void(int)>, std::less<>> hooks_;
  std::map<std::string, std::uint64_t, std::less<>> counters_;
  std::atomic<unsigned> armed_mask_{0};
};

}  // namespace xd
