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

/// The sched.spawn site, hit as worker slot `w` is handed out: the hook
/// runs first, then an armed rule may fail the hand-off.
void hand_off_fault(FaultPlane& faults, int w) {
  faults.call_hook("sched.spawn", w);
  if (faults.should_fire("sched.spawn", static_cast<std::uint64_t>(w))) {
    throw CheckError("injected fault: sched.spawn at worker " +
                     std::to_string(w));
  }
}

/// Runs slot `w` behind the sched.stall / sched.throw sites and returns its
/// exception (null on success), so every slot of a dispatch runs even when
/// an earlier one threw.
std::exception_ptr run_slot(const SlotBody& body, int w, bool sched_armed) {
  try {
    if (sched_armed) {
      FaultPlane& faults = FaultPlane::instance();
      if (faults.should_fire("sched.stall", static_cast<std::uint64_t>(w))) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      if (faults.should_fire("sched.throw", static_cast<std::uint64_t>(w))) {
        throw CheckError("injected fault: sched.throw in worker " +
                         std::to_string(w));
      }
    }
    body(w);
  } catch (...) {
    return std::current_exception();
  }
  return nullptr;
}

/// The process-wide pool of parked worker threads behind every scheduler.
/// It grows lazily to the widest dispatch ever requested and serves one
/// dispatch at a time; the dispatching thread hands out slots, then waits
/// at the barrier without running any itself, so its thread_local state
/// never sees item work.  A dispatch that finds the pool busy -- a nested
/// epoch started from inside an item, or another host thread's epoch --
/// runs its slots on the calling thread in slot order instead; the
/// determinism contract makes the outputs identical either way.
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

  /// Runs body(w) for every slot w in [0, workers) and returns after all
  /// complete, rethrowing the first exception.  A failed hand-off waits
  /// for the slots already handed out, then rethrows the hand-off error
  /// (their own exceptions are dropped: the epoch did not run at full
  /// width, so its partial results are void anyway).
  void dispatch(int workers, const SlotBody& body) {
    FaultPlane& faults = FaultPlane::instance();
    const bool sched_armed = faults.armed(FaultCategory::kSched);
    bool idle = false;
    if (!busy_.compare_exchange_strong(idle, true,
                                       std::memory_order_acquire)) {
      std::exception_ptr first_error;
      for (int w = 0; w < workers; ++w) {
        if (sched_armed) hand_off_fault(faults, w);
        std::exception_ptr e = run_slot(body, w, sched_armed);
        if (e && !first_error) first_error = std::move(e);
      }
      if (first_error) std::rethrow_exception(first_error);
      return;
    }
    struct Release {
      std::atomic<bool>& busy;
      ~Release() { busy.store(false, std::memory_order_release); }
    } release{busy_};

    {
      const std::lock_guard<std::mutex> lock(mu_);
      while (threads_.size() < static_cast<std::size_t>(workers)) {
        threads_.emplace_back([this] { worker_loop(); });
      }
      body_ = &body;
      sched_armed_ = sched_armed;
      posted_ = taken_ = finished_ = 0;
    }
    // Slot-by-slot hand-off decisions, then one release of every slot that
    // passed: slots 0..handed-1 run even when slot `handed` failed.
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
    {
      const std::lock_guard<std::mutex> lock(mu_);
      posted_ = handed;
    }
    for (int w = 0; w < handed; ++w) wake_.notify_one();

    std::unique_lock<std::mutex> lock(mu_);
    done_.wait(lock, [&] { return finished_ == posted_; });
    body_ = nullptr;
    std::exception_ptr body_error = std::exchange(error_, nullptr);
    lock.unlock();
    if (hand_off_error) std::rethrow_exception(hand_off_error);
    if (body_error) std::rethrow_exception(body_error);
  }

 private:
  WorkerPool() = default;

  void worker_loop() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      wake_.wait(lock, [&] { return stop_ || taken_ < posted_; });
      if (stop_) return;
      const int w = taken_++;
      const SlotBody& body = *body_;
      const bool sched_armed = sched_armed_;
      lock.unlock();
      std::exception_ptr e = run_slot(body, w, sched_armed);
      lock.lock();
      if (e && !error_) error_ = std::move(e);
      if (++finished_ == posted_) {
        lock.unlock();
        done_.notify_one();
        lock.lock();
      }
    }
  }

  std::atomic<bool> busy_{false};  ///< a host thread owns the pool
  std::mutex mu_;
  std::condition_variable wake_;  ///< workers: a slot was handed out
  std::condition_variable done_;  ///< dispatcher: a slot finished
  // The current dispatch, guarded by mu_.
  const SlotBody* body_ = nullptr;
  bool sched_armed_ = false;
  int posted_ = 0;    ///< slots handed out
  int taken_ = 0;     ///< slots claimed by a worker
  int finished_ = 0;  ///< slots completed
  std::exception_ptr error_;
  bool stop_ = false;
  std::vector<std::thread> threads_;  ///< grown under mu_ by the dispatcher
};

}  // namespace

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
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  WorkerPool::instance().dispatch(workers, [&](int /*w*/) {
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
