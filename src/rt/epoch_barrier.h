#ifndef POLYDAB_RT_EPOCH_BARRIER_H_
#define POLYDAB_RT_EPOCH_BARRIER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

/// \file epoch_barrier.h
/// Epoch-based synchronization between the dispatching thread and the
/// lane workers (docs/CONCURRENCY.md). Each lane keeps two monotonic
/// counters: `dispatched` (advanced by the dispatcher when it enqueues a
/// job) and `completed` (advanced by the worker when the job is done).
/// The value of `dispatched` after enqueuing a job is that job's *epoch*;
/// the dispatcher blocks in AwaitEpoch(lane, epoch) until the lane's
/// `completed` counter reaches it. AwaitQuiesce() is the full barrier the
/// simulator takes at AAO joint solves, at pause, and at shutdown:
/// completed == dispatched on every lane.
///
/// Memory model: Arrive() is a release increment and the await side reads
/// with acquire, so everything the worker wrote while executing the job
/// happens-before AwaitEpoch's return. AwaitEpoch spins for
/// rt::kSpinBudget (spin_wait.h), then blocks with C++20 atomic
/// wait/notify on the per-lane `completed` word (futex-backed), so a long
/// await burns no CPU.

namespace polydab::rt {

class EpochBarrier {
 public:
  explicit EpochBarrier(int lanes);

  int lanes() const { return static_cast<int>(lanes_.size()); }

  /// Dispatcher side: account one enqueued job on \p lane; returns the
  /// job's epoch (the value AwaitEpoch must reach).
  uint64_t Announce(int lane);

  /// Worker side: mark one job on \p lane complete and wake waiters.
  void Arrive(int lane);

  /// Block until \p lane has completed at least \p epoch jobs.
  void AwaitEpoch(int lane, uint64_t epoch) const;

  /// Block until every lane's completed counter equals its dispatched
  /// counter. Only the dispatching thread may call this (it is the only
  /// thread that advances `dispatched`, so the equality is stable).
  void AwaitQuiesce() const;

  uint64_t dispatched(int lane) const;
  uint64_t completed(int lane) const;

 private:
  // One cache line per lane: `completed` is hammered by the worker and
  // waited on by the dispatcher; keep lanes from false-sharing.
  struct alignas(64) Lane {
    std::atomic<uint64_t> dispatched{0};
    std::atomic<uint64_t> completed{0};
  };
  std::vector<std::unique_ptr<Lane>> lanes_;
};

}  // namespace polydab::rt

#endif  // POLYDAB_RT_EPOCH_BARRIER_H_
