#include "congest/scheduler.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/check.hpp"
#include "util/fault_plane.hpp"

namespace xd::congest {

namespace detail {

void set_spawn_fault_hook_for_testing(std::function<void(int)> hook) {
  FaultPlane::instance().set_hook("sched.spawn", std::move(hook));
}

}  // namespace detail

namespace {

using SlotBody = std::function<void(int)>;
using ChunkBody = std::function<void(std::size_t)>;

/// The nested width of the calling thread (nested_width()).
thread_local int t_width = 1;

/// Sets the calling thread's nested width for one scope.
class WidthScope {
 public:
  explicit WidthScope(int width) : saved_(std::exchange(t_width, width)) {}
  ~WidthScope() { t_width = saved_; }
  WidthScope(const WidthScope&) = delete;
  WidthScope& operator=(const WidthScope&) = delete;

 private:
  int saved_;
};

/// The sched.spawn site, hit as worker slot `w` is handed out: the hook
/// runs first, then an armed rule may fail the hand-off.
void hand_off_fault(FaultPlane& faults, int w) {
  faults.call_hook("sched.spawn", w);
  if (faults.should_fire("sched.spawn", static_cast<std::uint64_t>(w))) {
    throw CheckError("injected fault: sched.spawn at worker " +
                     std::to_string(w));
  }
}

/// The sched.stall / sched.throw sites, hit as slot `w` starts.
void slot_faults(int w) {
  FaultPlane& faults = FaultPlane::instance();
  if (faults.should_fire("sched.stall", static_cast<std::uint64_t>(w))) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (faults.should_fire("sched.throw", static_cast<std::uint64_t>(w))) {
    throw CheckError("injected fault: sched.throw in worker " +
                     std::to_string(w));
  }
}

/// One parallel region: chunks [0, chunks) of `body`, claimed from `next`
/// by the posting thread and by at most `helper_cap` pool workers.
struct Region {
  const ChunkBody* body = nullptr;
  std::size_t chunks = 0;
  int width = 1;       ///< nested width the chunks run with
  int helper_cap = 0;  ///< pool workers that may join
  std::atomic<std::size_t> next{0};
  // Guarded by the pool's mutex:
  int helpers = 0;  ///< pool workers inside run_chunks
  std::exception_ptr error;
  std::condition_variable left;  ///< the last helper left
};

/// The process-wide pool of parked worker threads behind every scheduler
/// and every nested region.  Regions are posted to an open list; parked
/// workers join any open region that has unclaimed chunks and room for a
/// helper, and claim chunks from its cursor until none are left.  The
/// posting thread claims chunks too, then closes the region (no worker
/// joins it after that) and waits only for the helpers already inside.
/// Any number of regions may be open at once: nested regions, regions
/// posted from chunks, and epochs from several host threads.  A worker
/// inside a region can post its own (a nested epoch); it waits only on
/// helpers that are running chunks, so no wait cycle can form.
class WorkerPool {
 public:
  static WorkerPool& instance() {
    static WorkerPool pool;
    return pool;
  }

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  ~WorkerPool() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    wake_.notify_all();
    for (auto& t : threads_) t.join();
  }

  /// Runs every chunk of `r` -- with helpers when r.helper_cap > 0 -- and
  /// returns after all complete, rethrowing the first exception.
  void run(Region& r) {
    const bool post = r.helper_cap > 0 && r.chunks > 1;
    if (post) {
      {
        const std::lock_guard<std::mutex> lock(mu_);
        while (threads_.size() < static_cast<std::size_t>(r.helper_cap)) {
          threads_.emplace_back([this] { worker_loop(); });
        }
        open_.push_back(&r);
      }
      wake_.notify_all();
    }
    run_chunks(r);
    if (post) {
      std::unique_lock<std::mutex> lock(mu_);
      open_.erase(std::find(open_.begin(), open_.end(), &r));
      r.left.wait(lock, [&] { return r.helpers == 0; });
    }
    if (r.error) std::rethrow_exception(r.error);
  }

  /// Runs body(w) for every slot w in [0, workers) as one region and
  /// returns after all complete, rethrowing the first exception.  A failed
  /// hand-off runs the slots already handed out, then rethrows the
  /// hand-off error (their own exceptions are dropped: the epoch did not
  /// run at full width, so its partial results are void anyway).
  void dispatch(int workers, const SlotBody& body) {
    FaultPlane& faults = FaultPlane::instance();
    const bool sched_armed = faults.armed(FaultCategory::kSched);
    // Slot-by-slot hand-off decisions: slots 0..handed-1 run even when
    // slot `handed` failed.
    std::exception_ptr hand_off_error;
    int handed = workers;
    if (sched_armed) {
      for (handed = 0; handed < workers; ++handed) {
        try {
          hand_off_fault(faults, handed);
        } catch (...) {
          hand_off_error = std::current_exception();
          break;
        }
      }
    }
    const ChunkBody slot = [&](std::size_t c) {
      const int w = static_cast<int>(c);
      if (sched_armed) slot_faults(w);
      body(w);
    };
    Region r;
    r.body = &slot;
    r.chunks = static_cast<std::size_t>(handed);
    r.width = workers;
    r.helper_cap = workers - 1;
    try {
      run(r);
    } catch (...) {
      if (!hand_off_error) throw;
    }
    if (hand_off_error) std::rethrow_exception(hand_off_error);
  }

 private:
  WorkerPool() = default;

  /// Claims and runs chunks of `r` until its cursor is exhausted, at the
  /// region's nested width; records the first exception.
  void run_chunks(Region& r) {
    const WidthScope scope(r.width);
    for (;;) {
      const std::size_t c = r.next.fetch_add(1, std::memory_order_relaxed);
      if (c >= r.chunks) return;
      try {
        (*r.body)(c);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(mu_);
        if (!r.error) r.error = std::current_exception();
      }
    }
  }

  /// An open region with unclaimed chunks and room for a helper.
  Region* joinable() const {
    for (Region* r : open_) {
      if (r->helpers < r->helper_cap &&
          r->next.load(std::memory_order_relaxed) < r->chunks) {
        return r;
      }
    }
    return nullptr;
  }

  void worker_loop() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      Region* r = nullptr;
      wake_.wait(lock, [&] { return stop_ || (r = joinable()) != nullptr; });
      if (stop_) return;
      ++r->helpers;
      lock.unlock();
      run_chunks(*r);
      lock.lock();
      // Notified under the lock: the poster cannot return (and destroy
      // r) before this call is done with it.
      if (--r->helpers == 0) r->left.notify_one();
    }
  }

  std::mutex mu_;
  std::condition_variable wake_;  ///< workers: a region was posted
  std::vector<Region*> open_;     ///< joinable regions, oldest first
  bool stop_ = false;
  std::vector<std::thread> threads_;  ///< grown under mu_ by posters
};

}  // namespace

int nested_width() { return t_width; }

void parallel_chunks(std::size_t chunks, std::uint64_t work,
                     const ChunkBody& fn) {
  Region r;
  r.body = &fn;
  r.chunks = chunks;
  r.width = t_width;
  r.helper_cap = work >= kNestedWorkFloor ? t_width - 1 : 0;
  WorkerPool::instance().run(r);
}

void EpochScheduler::set_threads(int threads) {
  XD_CHECK_MSG(threads >= 1, "scheduler thread count must be >= 1");
  threads_ = threads;
}

void EpochScheduler::run(std::size_t n,
                         const std::function<void(std::size_t)>& fn) const {
  const int workers =
      static_cast<int>(std::min<std::size_t>(static_cast<std::size_t>(threads_),
                                             n ? n : 1));
  if (workers <= 1) {
    const WidthScope scope(threads_);
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  WorkerPool::instance().dispatch(workers, [&](int /*w*/) {
    const WidthScope scope(threads_);
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      fn(i);
    }
  });
}

void EpochScheduler::run_forked(
    RoundLedger& root, std::size_t n,
    const std::function<void(std::size_t, RoundLedger&)>& fn) const {
  std::vector<RoundLedger*> branches;
  branches.reserve(n);
  for (std::size_t i = 0; i < n; ++i) branches.push_back(&root.fork());
  try {
    run(n, [&](std::size_t i) { fn(i, *branches[i]); });
  } catch (...) {
    root.join();
    throw;
  }
  root.join();
}

void EpochScheduler::run_partitioned(
    std::size_t n, int workers,
    const std::function<void(int, std::size_t, std::size_t)>& body) {
  XD_CHECK_MSG(workers >= 1, "worker count must be >= 1");
  if (workers == 1) {
    body(0, 0, n);
    return;
  }
  WorkerPool::instance().dispatch(workers, [&](int w) {
    const std::size_t lo =
        n * static_cast<std::size_t>(w) / static_cast<std::size_t>(workers);
    const std::size_t hi = n * (static_cast<std::size_t>(w) + 1) /
                           static_cast<std::size_t>(workers);
    body(w, lo, hi);
  });
}

}  // namespace xd::congest
