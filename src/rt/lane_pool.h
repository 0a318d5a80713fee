#ifndef POLYDAB_RT_LANE_POOL_H_
#define POLYDAB_RT_LANE_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "rt/epoch_barrier.h"
#include "rt/spsc_queue.h"
#include "rt/thread_control.h"

/// \file lane_pool.h
/// The real-thread lane runtime (docs/CONCURRENCY.md): a `std::jthread`
/// worker pool fed by one lock-free SPSC job ring per worker
/// (spsc_queue.h), synchronized with the dispatching thread through
/// per-lane epoch counters (epoch_barrier.h) and driven by a
/// start/stop/pause/status lifecycle (thread_control.h).
///
/// Structure: exactly one dispatching thread (the simulator's event
/// loop) calls Dispatch / AwaitEpoch / Quiesce / Pause / Resume / Stop.
/// Worker `w` is the only consumer of ring `w`, so every ring really is
/// single-producer single-consumer. A job is a `Status()` closure; a
/// non-OK return latches as the pool's failure (first one wins) and every
/// subsequent AwaitEpoch / Quiesce reports it — the dispatcher aborts the
/// run, which is how a worker abort surfaces as a `status=failed` partial
/// metrics report (tools/partial_metrics.cmake).
///
/// A worker whose ring runs empty spins for rt::kSpinBudget
/// (spin_wait.h), then parks on a per-worker eventcount (sleeping flag +
/// condvar); Dispatch wakes it with a Dekker-style seq_cst fence pair, so
/// either the producer observes `sleeping` and notifies, or the parking
/// worker observes the pushed job in its re-check — no lost wakeups, and
/// no mutex on the dispatch fast path while the worker is busy or
/// spinning.

namespace polydab::rt {

class LanePool {
 public:
  /// One unit of lane work. Must be safe to run on a pool thread: by the
  /// runtime's ownership discipline it may read anything the dispatcher
  /// promises not to mutate until the job's epoch is awaited, and write
  /// only its own result slot.
  using Job = std::function<Status()>;

  struct Options {
    int workers = 1;        ///< pool size, >= 1
    int queue_capacity = 256;  ///< per-worker ring capacity (rounded to 2^k)
  };

  LanePool() = default;
  ~LanePool();  ///< Stop() + join
  LanePool(const LanePool&) = delete;
  LanePool& operator=(const LanePool&) = delete;

  /// Validate options, spawn the workers, transition idle -> running.
  Status Start(const Options& options);

  int workers() const { return static_cast<int>(threads_.size()); }

  /// Whether worker \p w is parked on its eventcount (it ran out of work
  /// and its spin budget). For tests and status; racy by nature.
  bool parked(int w) const {
    return workers_[static_cast<size_t>(w)]->sleeping.load(
        std::memory_order_relaxed);
  }

  /// Enqueue \p job on worker \p w's ring and return its epoch (the
  /// value to pass to AwaitEpoch). Blocks (yield-spin) while the ring is
  /// full — the worker is draining it. Dispatcher thread only.
  uint64_t Dispatch(int w, Job job);

  /// Block until worker \p w has completed at least \p epoch jobs, then
  /// report the pool's latched failure if any job has failed.
  Status AwaitEpoch(int w, uint64_t epoch);

  /// Full barrier: every dispatched job on every worker has completed.
  /// Taken at AAO joint solves, before Pause takes effect on the
  /// dispatcher's state, and at shutdown. OK at once on a pool that was
  /// never started (zero workers).
  Status Quiesce();

  /// Lifecycle (thread_control.h). Pause parks workers after their
  /// current job; queued jobs wait until Resume.
  Status Pause();
  Status Resume();
  /// Idempotent, and safe on a pool that was never started; wakes and
  /// joins every worker. Queued-but-unstarted jobs are abandoned (the
  /// dispatcher owns their result slots).
  void Stop();

  RunState state() const { return control_.state(); }

  /// One-line status for logs/tests, e.g.
  /// "state=running workers=3 dispatched=17 completed=17 failed=0".
  std::string StatusLine() const;

 private:
  struct Worker {
    std::unique_ptr<SpscQueue<Job>> ring;
    // Eventcount parking state. `sleeping` is the Dekker flag; `mu`/`cv`
    // only back the actual park/wake, never the job path.
    std::atomic<bool> sleeping{false};
    std::mutex mu;
    std::condition_variable cv;
  };

  void WorkerLoop(int w);
  void LatchFailure(const Status& s);
  Status Failure() const;

  ThreadControl control_;
  std::unique_ptr<EpochBarrier> barrier_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::jthread> threads_;
  std::atomic<bool> failed_{false};
  mutable std::mutex fail_mu_;
  Status failure_;  // guarded by fail_mu_
};

}  // namespace polydab::rt

#endif  // POLYDAB_RT_LANE_POOL_H_
