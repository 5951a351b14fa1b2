// Model-conformance suite for the concurrent component scheduler
// (congest/scheduler.hpp + the epoch-batched decomposition driver).
//
// Pins the three contracts the paper's parallel-composition bounds rest on:
//   (a) forked-ledger invariant: a join charges max(branch rounds) and
//       sum(branch messages) -- verified against real decomposition charges
//       recorded per branch before the join;
//   (b) the decomposition output (component ids, removed_edge overlay,
//       removed_by[] counts) is bit-identical between the sequential driver
//       and the concurrent scheduler at 1, 2, and 8 host threads, across
//       the property-test family x size x seed grid;
//   (c) scheduler round totals are <= the sequential ledger's on every
//       grid point (max-per-epoch can never exceed sum-per-epoch).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <sys/syscall.h>
#include <unistd.h>

#include "congest/scheduler.hpp"
#include "core/xd.hpp"
#include "util/check.hpp"

namespace xd {
namespace {

/// Graph family factory keyed by name (mirrors property_test.cpp).
Graph make_family(const std::string& family, std::size_t n, Rng& rng) {
  if (family == "gnp_sparse") {
    return gen::gnp(n, 6.0 / static_cast<double>(n), rng);
  }
  if (family == "gnp_dense") return gen::gnp(n, 0.3, rng);
  if (family == "regular") return gen::random_regular(n - n % 2, 4, rng);
  if (family == "cycle") return gen::cycle(n);
  if (family == "pref") return gen::preferential_attachment(n, 2, rng);
  XD_CHECK_MSG(false, "unknown family " << family);
  return {};
}

using GridParam = std::tuple<std::string, std::size_t, int>;

expander::DecompositionResult run_decomposition(const Graph& g, int seed,
                                                int scheduler_threads,
                                                congest::RoundLedger& ledger) {
  expander::DecompositionParams prm;
  prm.epsilon = 0.3;
  prm.k = 2;
  prm.phi0_override = 0.05;
  prm.scheduler_threads = scheduler_threads;
  Rng rng(static_cast<std::uint64_t>(seed) + 300);
  return expander::expander_decomposition(g, prm, rng, ledger);
}

class SchedulerConformance : public ::testing::TestWithParam<GridParam> {};

TEST_P(SchedulerConformance, BitIdenticalOutputAndBoundedRounds) {
  const auto& [family, n, seed] = GetParam();
  Rng grng(static_cast<std::uint64_t>(seed) + 300);
  const Graph g = make_family(family, n, grng);
  if (g.num_vertices() < 2) return;

  congest::RoundLedger sequential_ledger;
  const auto sequential =
      run_decomposition(g, seed, /*scheduler_threads=*/0, sequential_ledger);

  for (const int threads : {1, 2, 8}) {
    congest::RoundLedger ledger;
    const auto concurrent = run_decomposition(g, seed, threads, ledger);

    // (b) bit-identical outputs at every thread count.
    EXPECT_EQ(concurrent.component, sequential.component)
        << family << " threads=" << threads;
    EXPECT_EQ(concurrent.removed_edge, sequential.removed_edge)
        << family << " threads=" << threads;
    for (int r = 0; r < 3; ++r) {
      EXPECT_EQ(concurrent.removed_by[r], sequential.removed_by[r])
          << family << " threads=" << threads << " reason=" << r;
    }
    EXPECT_EQ(concurrent.num_components, sequential.num_components);
    EXPECT_EQ(concurrent.epochs, sequential.epochs);

    // (c) concurrent components share the clock: max-joined rounds can
    // never exceed the sequentialized sum.
    EXPECT_LE(concurrent.rounds, sequential.rounds)
        << family << " threads=" << threads;
    EXPECT_LE(ledger.rounds(), sequential_ledger.rounds());
    // Messages are work, not time: identical items send identical traffic.
    EXPECT_EQ(ledger.messages(), sequential_ledger.messages());
  }

  // The sequential epoch-driver output is still a valid decomposition
  // (the scheduler refactor must not have cost correctness).
  const auto report = expander::verify_decomposition(
      g, sequential, 0.3, sequential.schedule.phi_final());
  EXPECT_TRUE(report.is_partition) << family;
  EXPECT_TRUE(report.cut_within_epsilon) << family << " cut "
                                         << report.cut_fraction;
}

TEST_P(SchedulerConformance, ForkedLedgerInvariantOnRealCharges) {
  // (a) on every grid point: run the grid decomposition once per forked
  // branch, snapshot each branch's (rounds, messages) at the epoch barrier,
  // and check the join charged exactly max / sum.
  const auto& [family, n, seed] = GetParam();
  Rng grng(static_cast<std::uint64_t>(seed) + 300);
  const Graph g = make_family(family, n, grng);
  if (g.num_vertices() < 2) return;

  congest::RoundLedger root;
  root.charge(3, "prologue");
  const congest::EpochScheduler pool(4);
  constexpr int kBranches = 3;
  std::vector<congest::RoundLedger*> branches;
  for (int b = 0; b < kBranches; ++b) branches.push_back(&root.fork());
  pool.run(kBranches, [&](std::size_t b) {
    // Distinct seeds per branch give genuinely different charge histories.
    run_decomposition(g, seed + static_cast<int>(b), 0, *branches[b]);
  });
  std::uint64_t max_rounds = 0;
  std::uint64_t sum_messages = 0;
  for (const auto* b : branches) {
    max_rounds = std::max(max_rounds, b->rounds());
    sum_messages += b->messages();
  }
  EXPECT_GT(max_rounds, 0u) << family;
  root.join();
  EXPECT_EQ(root.rounds(), 3u + max_rounds) << family;
  EXPECT_EQ(root.messages(), sum_messages) << family;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SchedulerConformance,
    ::testing::Combine(::testing::Values("gnp_sparse", "regular", "cycle",
                                         "pref"),
                       ::testing::Values(64u), ::testing::Values(1, 2, 3)),
    [](const ::testing::TestParamInfo<GridParam>& info) {
      return std::get<0>(info.param) + "_n" +
             std::to_string(std::get<1>(info.param)) + "_s" +
             std::to_string(std::get<2>(info.param));
    });

class EnumerationConformance : public ::testing::TestWithParam<GridParam> {};

TEST_P(EnumerationConformance, TrianglesBitIdenticalAndRoundsBounded) {
  const auto& [family, n, seed] = GetParam();
  Rng grng(static_cast<std::uint64_t>(seed) + 400);
  const Graph g = make_family(family, n, grng);

  triangle::EnumParams prm;
  congest::RoundLedger seq_ledger;
  Rng seq_rng(seed + 7);
  const auto sequential =
      triangle::enumerate_congest(g, prm, seq_rng, seq_ledger);

  for (const int threads : {1, 2, 8}) {
    triangle::EnumParams cprm = prm;
    cprm.scheduler_threads = threads;
    congest::RoundLedger ledger;
    Rng rng(seed + 7);
    const auto concurrent = triangle::enumerate_congest(g, cprm, rng, ledger);
    EXPECT_EQ(concurrent.triangles, sequential.triangles)
        << family << " threads=" << threads;
    EXPECT_EQ(concurrent.levels, sequential.levels);
    EXPECT_EQ(concurrent.clusters_processed, sequential.clusters_processed);
    EXPECT_LE(concurrent.rounds, sequential.rounds)
        << family << " threads=" << threads;
    EXPECT_EQ(ledger.messages(), seq_ledger.messages());
  }

  // And the enumeration is still exact.
  auto expect = triangles_exact(g);
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(sequential.triangles, expect) << family;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EnumerationConformance,
    ::testing::Combine(::testing::Values("gnp_sparse", "gnp_dense", "pref"),
                       ::testing::Values(40u), ::testing::Values(1, 2)),
    [](const ::testing::TestParamInfo<GridParam>& info) {
      return std::get<0>(info.param) + "_n" +
             std::to_string(std::get<1>(info.param)) + "_s" +
             std::to_string(std::get<2>(info.param));
    });

TEST(EpochScheduler, RunsEveryItemExactlyOnceAtAnyThreadCount) {
  for (const int threads : {1, 2, 8}) {
    const congest::EpochScheduler pool(threads);
    constexpr std::size_t kItems = 257;
    std::vector<std::atomic<int>> hits(kItems);
    pool.run(kItems, [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kItems; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "item " << i << " threads " << threads;
    }
  }
}

TEST(EpochScheduler, ItemResultsIndependentOfThreadCount) {
  // Items writing only their own slot produce identical vectors at every
  // thread count -- the determinism contract callers rely on.
  const auto compute = [](int threads) {
    const congest::EpochScheduler pool(threads);
    std::vector<std::uint64_t> out(100);
    pool.run(out.size(), [&](std::size_t i) {
      Rng rng(i);  // per-item seed split, like the driver's work items
      out[i] = rng() ^ (i * 0x9e3779b97f4a7c15ULL);
    });
    return out;
  };
  const auto serial = compute(1);
  EXPECT_EQ(compute(2), serial);
  EXPECT_EQ(compute(8), serial);
}

TEST(EpochScheduler, WorkerExceptionsPropagate) {
  const congest::EpochScheduler pool(4);
  EXPECT_THROW(
      pool.run(16,
               [](std::size_t i) {
                 if (i == 11) throw std::runtime_error("item failure");
               }),
      std::runtime_error);
}

TEST(EpochScheduler, RunForkedJoinsMaxAndSum) {
  congest::RoundLedger root;
  const congest::EpochScheduler pool(4);
  pool.run_forked(root, 3, [](std::size_t i, congest::RoundLedger& lg) {
    lg.charge(10 * (i + 1), "work");
    lg.count_messages(i + 1);
  });
  EXPECT_EQ(root.forked(), 0u);
  EXPECT_EQ(root.rounds(), 30u);    // max(10, 20, 30)
  EXPECT_EQ(root.messages(), 6u);   // 1 + 2 + 3
}

TEST(EpochScheduler, RunEpochSumsSequentiallyAndTakesMaxForked) {
  // 0 threads: items run in index order on the calling thread against
  // `root` itself (no fork), so rounds SUM.
  congest::RoundLedger root;
  std::vector<std::size_t> order;
  congest::run_epoch(0, root, 3, [&](std::size_t i, congest::RoundLedger& lg) {
    EXPECT_EQ(&lg, &root);
    EXPECT_EQ(root.forked(), 0u);
    order.push_back(i);
    lg.charge(10 * (i + 1), "work");
    lg.count_messages(i + 1);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(root.rounds(), 60u);   // 10 + 20 + 30
  EXPECT_EQ(root.messages(), 6u);  // 1 + 2 + 3

  // >= 1 threads: forked branches joined at the barrier, so rounds MAX.
  for (const int threads : {1, 4}) {
    congest::RoundLedger forked_root;
    congest::run_epoch(threads, forked_root, 3,
                       [&](std::size_t i, congest::RoundLedger& lg) {
                         EXPECT_NE(&lg, &forked_root);
                         lg.charge(10 * (i + 1), "work");
                         lg.count_messages(i + 1);
                       });
    EXPECT_EQ(forked_root.forked(), 0u) << "threads=" << threads;
    EXPECT_EQ(forked_root.rounds(), 30u) << "threads=" << threads;
    EXPECT_EQ(forked_root.messages(), 6u) << "threads=" << threads;
  }
}

TEST(EpochScheduler, RunForkedJoinsEvenWhenAnItemThrows) {
  // A throwing item must not leave stale forked children behind: the next
  // epoch's join would silently merge the aborted epoch's branches.
  congest::RoundLedger root;
  const congest::EpochScheduler pool(2);
  EXPECT_THROW(
      pool.run_forked(root, 4,
                      [](std::size_t i, congest::RoundLedger& lg) {
                        lg.charge(5, "partial");
                        if (i == 2) throw std::runtime_error("item failure");
                      }),
      std::runtime_error);
  EXPECT_EQ(root.forked(), 0u);
  const std::uint64_t after_abort = root.rounds();
  // A follow-up epoch accounts exactly its own charges.
  pool.run_forked(root, 2, [](std::size_t, congest::RoundLedger& lg) {
    lg.charge(7, "next");
  });
  EXPECT_EQ(root.rounds(), after_abort + 7u);
}

TEST(EpochScheduler, RejectsNonPositiveThreadCounts) {
  EXPECT_ANY_THROW(congest::EpochScheduler(0));
  EXPECT_ANY_THROW(congest::EpochScheduler(-3));
}

TEST(EpochScheduler, PartialSpawnFailureJoinsAlreadySpawnedWorkers) {
  // std::thread construction failing mid-loop (resource exhaustion) used to
  // destroy the already-spawned, still-joinable threads -- which is
  // std::terminate.  The pool must join the partial pool and surface the
  // spawn error as a normal exception instead.
  struct SpawnFault : std::runtime_error {
    using std::runtime_error::runtime_error;
  };
  congest::detail::set_spawn_fault_hook_for_testing([](int w) {
    if (w == 2) throw SpawnFault("thread construction failed");
  });
  std::atomic<int> completed{0};
  EXPECT_THROW(congest::EpochScheduler::run_partitioned(
                   64, 4,
                   [&](int /*w*/, std::size_t /*lo*/, std::size_t /*hi*/) {
                     completed.fetch_add(1, std::memory_order_relaxed);
                   }),
               SpawnFault);
  congest::detail::set_spawn_fault_hook_for_testing({});
  // Workers 0 and 1 were spawned before the fault and joined before the
  // rethrow: their bodies ran to completion and their effects are visible.
  EXPECT_EQ(completed.load(), 2);
}

// ---------------------------------------------------- persistent worker pool

/// The process's live thread count (`Threads:` in /proc/self/status), or -1
/// where procfs is unavailable.
int process_threads() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "Threads:") {
      int count = -1;
      status >> count;
      return count;
    }
  }
  return -1;
}

TEST(EpochScheduler, PersistentPoolDoesNotGrowPerEpoch) {
  const int before = process_threads();
  if (before < 0) GTEST_SKIP() << "no /proc/self/status";
  const congest::EpochScheduler pool(4);
  std::mutex mu;
  std::set<long> tids;
  std::atomic<std::size_t> ran{0};
  constexpr int kEpochs = 10000;
  for (int e = 0; e < kEpochs; ++e) {
    pool.run(8, [&](std::size_t) {
      ran.fetch_add(1, std::memory_order_relaxed);
      const long tid = ::syscall(SYS_gettid);
      const std::lock_guard<std::mutex> lock(mu);
      tids.insert(tid);
    });
  }
  EXPECT_EQ(ran.load(), 8u * kEpochs);
  EXPECT_LE(process_threads(), before + 4);
  // Every thread that ran an item is still alive, parked for the next
  // epoch: a spawn-per-epoch pool would have exited all of them.
  std::size_t exited = 0;
  for (const long tid : tids) {
    exited += std::filesystem::exists("/proc/self/task/" +
                                      std::to_string(tid))
                  ? 0
                  : 1;
  }
  EXPECT_EQ(exited, 0u) << "of " << tids.size() << " worker threads";
}

/// Per-item values the nested and concurrent cases compare against serial.
std::uint64_t item_value(std::size_t outer, std::size_t inner) {
  Rng rng(outer * 1000 + inner);
  return rng() ^ (outer * 0x9e3779b97f4a7c15ULL);
}

TEST(EpochScheduler, NestedEpochMatchesSerial) {
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 33;
  std::vector<std::uint64_t> serial(kOuter * kInner);
  for (std::size_t i = 0; i < kOuter; ++i) {
    for (std::size_t j = 0; j < kInner; ++j) {
      serial[i * kInner + j] = item_value(i, j);
    }
  }
  const congest::EpochScheduler outer(4);
  const congest::EpochScheduler inner(4);
  std::vector<std::uint64_t> nested(kOuter * kInner, 0);
  outer.run(kOuter, [&](std::size_t i) {
    inner.run(kInner, [&](std::size_t j) {
      nested[i * kInner + j] = item_value(i, j);
    });
  });
  EXPECT_EQ(nested, serial);

  // The static partition nests the same way.
  std::vector<std::uint64_t> partitioned(kOuter * kInner, 0);
  congest::EpochScheduler::run_partitioned(
      kOuter, 4, [&](int, std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          congest::EpochScheduler::run_partitioned(
              kInner, 3, [&](int, std::size_t jlo, std::size_t jhi) {
                for (std::size_t j = jlo; j < jhi; ++j) {
                  partitioned[i * kInner + j] = item_value(i, j);
                }
              });
        }
      });
  EXPECT_EQ(partitioned, serial);
}

TEST(EpochScheduler, ConcurrentSchedulersOnTwoHostThreadsMatchSerial) {
  constexpr std::size_t kEpochs = 2000;
  constexpr std::size_t kItems = 24;
  const auto drive = [](std::size_t salt, int threads) {
    const congest::EpochScheduler pool(threads);
    std::vector<std::uint64_t> out(kEpochs * kItems);
    for (std::size_t e = 0; e < kEpochs; ++e) {
      pool.run(kItems, [&](std::size_t i) {
        out[e * kItems + i] = item_value(salt + e, i);
      });
    }
    return out;
  };
  const auto serial_a = drive(1, 1);
  const auto serial_b = drive(50000, 1);
  std::vector<std::uint64_t> got_a;
  std::vector<std::uint64_t> got_b;
  std::thread ta([&] { got_a = drive(1, 4); });
  std::thread tb([&] { got_b = drive(50000, 4); });
  ta.join();
  tb.join();
  EXPECT_EQ(got_a, serial_a);
  EXPECT_EQ(got_b, serial_b);
}

TEST(EpochScheduler, FailedEpochLeavesThePoolReadyForTheNext) {
  const congest::EpochScheduler pool(4);
  for (std::size_t k = 0; k < 5; ++k) {
    std::vector<std::atomic<int>> hits(40);
    EXPECT_THROW(pool.run(hits.size(),
                          [&](std::size_t i) {
                            hits[i].fetch_add(1);
                            if (i == 7 * k) {
                              throw std::runtime_error("epoch k failure");
                            }
                          }),
                 std::runtime_error)
        << "epoch " << k;
    std::vector<std::atomic<int>> clean(40);
    pool.run(clean.size(), [&](std::size_t i) { clean[i].fetch_add(1); });
    for (std::size_t i = 0; i < clean.size(); ++i) {
      ASSERT_EQ(clean[i].load(), 1) << "epoch " << k + 1 << " item " << i;
    }
  }
  EXPECT_THROW(congest::EpochScheduler::run_partitioned(
                   16, 4,
                   [](int w, std::size_t, std::size_t) {
                     if (w == 3) throw std::runtime_error("slot failure");
                   }),
               std::runtime_error);
  std::atomic<int> slots{0};
  congest::EpochScheduler::run_partitioned(
      16, 4, [&](int, std::size_t, std::size_t) { slots.fetch_add(1); });
  EXPECT_EQ(slots.load(), 4);
}

// ------------------------------------------------------- nested regions

/// Work well above kNestedWorkFloor, so regions are posted to the pool.
constexpr std::uint64_t kBigWork = congest::kNestedWorkFloor * 16;

/// Spins (yielding) until `done()` or a 10 s deadline; returns done().
template <typename Pred>
bool wait_for(Pred done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  return done();
}

TEST(NestedRegion, WidthIsTheEnclosingEpochsThreadCount) {
  EXPECT_EQ(congest::nested_width(), 1);
  for (const int threads : {1, 2, 8}) {
    // A one-item epoch runs inline, and its item still gets the width.
    congest::EpochScheduler(threads).run(1, [&](std::size_t) {
      EXPECT_EQ(congest::nested_width(), threads);
      std::vector<int> seen(40, 0);
      congest::parallel_chunks(seen.size(), kBigWork, [&](std::size_t c) {
        seen[c] = congest::nested_width();
      });
      EXPECT_EQ(seen, std::vector<int>(40, threads));
    });
    congest::EpochScheduler(threads).run(5, [&](std::size_t) {
      EXPECT_EQ(congest::nested_width(), threads);
    });
    EXPECT_EQ(congest::nested_width(), 1);
  }
  congest::RoundLedger root;
  congest::run_epoch(0, root, 2, [](std::size_t, congest::RoundLedger&) {
    EXPECT_EQ(congest::nested_width(), 1);
  });
}

// Pool idle: a one-item epoch at width 8 leaves every worker parked, so the
// region's chunks spread over the caller and its helpers; results are the
// serial ones at every width, and every chunk runs exactly once.
TEST(NestedRegion, IdlePoolChunksMatchSerialAtAnyWidth) {
  constexpr std::size_t kChunks = 97;
  std::vector<std::uint64_t> serial(kChunks);
  for (std::size_t c = 0; c < kChunks; ++c) serial[c] = item_value(c, 5);
  for (const int threads : {1, 2, 8}) {
    std::vector<std::uint64_t> got(kChunks, 0);
    std::vector<std::atomic<int>> hits(kChunks);
    congest::EpochScheduler(threads).run(1, [&](std::size_t) {
      congest::parallel_chunks(kChunks, kBigWork, [&](std::size_t c) {
        hits[c].fetch_add(1);
        got[c] = item_value(c, 5);
      });
    });
    EXPECT_EQ(got, serial) << "threads=" << threads;
    for (std::size_t c = 0; c < kChunks; ++c) {
      ASSERT_EQ(hits[c].load(), 1) << "threads=" << threads << " chunk " << c;
    }
  }
}

TEST(NestedRegion, ParkedWorkersHelpTheCaller) {
  for (const int threads : {2, 8}) {
    const auto caller = std::this_thread::get_id();
    std::atomic<bool> helped{false};
    std::atomic<bool> caller_waited{false};
    congest::EpochScheduler(threads).run(1, [&](std::size_t) {
      congest::parallel_chunks(64, kBigWork, [&](std::size_t) {
        if (std::this_thread::get_id() != caller) {
          helped = true;
        } else if (!caller_waited.exchange(true)) {
          // Hold the caller on its first chunk until a helper shows up.
          (void)wait_for([&] { return helped.load(); });
        }
      });
    });
    EXPECT_TRUE(helped.load()) << "threads=" << threads;
  }
}

// Below the work floor, or with one chunk, a region never leaves the
// calling thread, whatever the width.
TEST(NestedRegion, SmallRegionsRunInline) {
  congest::EpochScheduler(8).run(1, [&](std::size_t) {
    const auto caller = std::this_thread::get_id();
    std::vector<std::size_t> order;
    congest::parallel_chunks(50, congest::kNestedWorkFloor - 1,
                             [&](std::size_t c) {
                               EXPECT_EQ(std::this_thread::get_id(), caller);
                               order.push_back(c);
                             });
    std::vector<std::size_t> expect(50);
    std::iota(expect.begin(), expect.end(), std::size_t{0});
    EXPECT_EQ(order, expect);
    congest::parallel_chunks(1, kBigWork, [&](std::size_t) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
    });
  });
}

// Pool busy: every item of a wide epoch opens its own region while the
// other items hold the workers; helpers are whoever is parked (maybe
// nobody), and the outputs are the serial ones.
TEST(NestedRegion, BusyPoolRegionsMatchSerial) {
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 33;
  std::vector<std::uint64_t> serial(kOuter * kInner);
  for (std::size_t i = 0; i < kOuter; ++i) {
    for (std::size_t j = 0; j < kInner; ++j) {
      serial[i * kInner + j] = item_value(i, j);
    }
  }
  for (const int threads : {1, 2, 8}) {
    std::vector<std::uint64_t> got(kOuter * kInner, 0);
    congest::EpochScheduler(threads).run(kOuter, [&](std::size_t i) {
      congest::parallel_chunks(kInner, kBigWork, [&](std::size_t j) {
        // A region nested in a chunk: width carries down, results hold.
        congest::parallel_chunks(2, kBigWork, [&](std::size_t h) {
          if (h == 0) got[i * kInner + j] = item_value(i, j);
        });
      });
    });
    EXPECT_EQ(got, serial) << "threads=" << threads;
  }
}

// A worker whose own items are done parks and then helps the epoch's
// remaining item with its region.
TEST(NestedRegion, WorkersJoinAfterTheirOwnItemsFinish) {
  constexpr std::size_t kItems = 4;
  std::atomic<std::size_t> short_done{0};
  std::atomic<bool> helped{false};
  std::atomic<bool> all_short_done{false};
  congest::EpochScheduler(4).run(kItems, [&](std::size_t i) {
    if (i != 0) {
      short_done.fetch_add(1);
      return;
    }
    all_short_done = wait_for([&] { return short_done.load() == kItems - 1; });
    const auto owner = std::this_thread::get_id();
    std::atomic<bool> owner_waited{false};
    congest::parallel_chunks(64, kBigWork, [&](std::size_t) {
      if (std::this_thread::get_id() != owner) {
        helped = true;
      } else if (!owner_waited.exchange(true)) {
        (void)wait_for([&] { return helped.load(); });
      }
    });
  });
  EXPECT_TRUE(all_short_done.load());
  EXPECT_TRUE(helped.load());
}

// A throwing chunk: every other chunk still runs, the first exception
// surfaces once they are done, and the pool serves the next region.
TEST(NestedRegion, ThrowingChunkPropagatesAfterEveryChunkRan) {
  for (const int threads : {1, 2, 8}) {
    congest::EpochScheduler(threads).run(1, [&](std::size_t) {
      std::vector<std::atomic<int>> hits(48);
      EXPECT_THROW(
          congest::parallel_chunks(hits.size(), kBigWork,
                                   [&](std::size_t c) {
                                     hits[c].fetch_add(1);
                                     if (c == 5 || c == 31) {
                                       throw std::runtime_error("chunk");
                                     }
                                   }),
          std::runtime_error)
          << "threads=" << threads;
      for (std::size_t c = 0; c < hits.size(); ++c) {
        ASSERT_EQ(hits[c].load(), 1) << "threads=" << threads << " c=" << c;
      }
      std::atomic<int> clean{0};
      congest::parallel_chunks(48, kBigWork,
                               [&](std::size_t) { clean.fetch_add(1); });
      EXPECT_EQ(clean.load(), 48);
    });
  }
}

}  // namespace
}  // namespace xd
