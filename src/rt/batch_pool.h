#ifndef POLYDAB_RT_BATCH_POOL_H_
#define POLYDAB_RT_BATCH_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"

/// \file batch_pool.h
/// The refresh service's worker pool (docs/CONCURRENCY.md): `std::jthread`
/// workers that share one batch of independent items, numbered 0..n-1,
/// with the thread that opened it. Every claimant takes the lowest
/// unclaimed item from one atomic counter, so items are claimed in index
/// order and each runs exactly once. Each item has a `done` flag; its
/// claimant runs it and then release-stores the flag, so whoever acquires
/// the flag sees everything the item's run wrote.
///
/// One thread, the owner (the simulator's event loop), calls Start, Open,
/// Await, Close and Stop; batches never overlap. Open wakes
/// min(workers, n - 1) workers (the owner claims too), Await has the owner
/// claim alongside them until the item it needs is done, and Close waits
/// until every worker woken for the batch has left it. A worker touches
/// the batch only between its wake-up and its leaving, so the owner may
/// reuse everything the batch referenced once Close returns.
///
/// Every blocking wait spins for rt::kSpinBudget first (spin_wait.h), then
/// parks: a worker on its own wake word's condition variable, the owner
/// with C++20 `atomic::wait` on an item's `done` flag or on the count of
/// workers inside. (libstdc++'s `atomic::wait` yields the CPU before it
/// sleeps, and a thread that yielded can wake milliseconds late while its
/// waker keeps running, as the owner does right after Open.)

namespace polydab::rt {

class BatchPool {
 public:
  /// Runs item `i` of the open batch; called on a worker or the owner.
  using Work = std::function<void(size_t)>;

  BatchPool() = default;
  ~BatchPool();  ///< Stop()
  BatchPool(const BatchPool&) = delete;
  BatchPool& operator=(const BatchPool&) = delete;

  /// Spawn \p workers (>= 1) workers, parked until an Open wakes them. A
  /// pool that is never started runs every item on the owner.
  Status Start(int workers);

  int workers() const { return static_cast<int>(threads_.size()); }

  /// Open a batch of \p n items run by \p work and wake min(workers,
  /// n - 1) workers, none for n < 2, to claim them. \p fail_at is the
  /// fault hook behind SimConfig::rt_fail_at: when the fail_at-th worker
  /// woken over the pool's life (1-based; 0 = never) is woken here, it
  /// claims nothing and latches an injected abort for Close to report.
  /// No batch may be open.
  void Open(size_t n, Work work, int64_t fail_at = 0);

  /// Return once item \p i is done. While it is not, claim and run the
  /// next unclaimed item here; once every item is claimed, wait for i's
  /// flag.
  void Await(size_t i);

  bool done(size_t i) const {
    return done_[i].load(std::memory_order_acquire) != 0;
  }

  /// End the batch: run any item still unclaimed, wait until every woken
  /// worker has left, then report the first failure latched over the
  /// pool's life (OK if none).
  Status Close();

  /// Wake and join every worker; idempotent, and safe on a pool that was
  /// never started. A worker inside an open batch first finishes claiming
  /// it.
  void Stop();

 private:
  // One worker's wake word, bumped under `mu` by Open (and Stop) and
  // read lock-free while the worker spins; own cache line.
  struct alignas(64) Wake {
    std::atomic<uint32_t> word{0};
    std::mutex mu;
    std::condition_variable cv;

    void Bump();
  };

  void WorkerLoop(size_t w);
  bool RunNext();

  // Claimed by every thread of the batch: its own cache line.
  alignas(64) std::atomic<size_t> next_{0};
  size_t n_ = 0;
  size_t capacity_ = 0;
  std::unique_ptr<std::atomic<uint32_t>[]> done_;
  Work work_;
  // Workers of the open batch that have not left it yet.
  std::atomic<uint32_t> inside_{0};
  // Index among this batch's woken workers that fails, or past them.
  size_t fail_worker_ = 0;
  int64_t woken_total_ = 0;
  // The first failure. Written only by a batch's one failing worker and
  // read by Close once every worker has left, so the inside_ count
  // orders every access.
  Status failure_;
  std::atomic<bool> stop_{false};
  std::unique_ptr<Wake[]> wake_;
  std::vector<std::jthread> threads_;
};

}  // namespace polydab::rt

#endif  // POLYDAB_RT_BATCH_POOL_H_
