#ifndef POLYDAB_RT_CLAIM_QUEUE_H_
#define POLYDAB_RT_CLAIM_QUEUE_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/logging.h"
#include "rt/spin_wait.h"

/// \file claim_queue.h
/// Work sharing over one batch of independent items, numbered 0..n-1, in
/// index order (docs/CONCURRENCY.md, "The claim queue"). Pool workers and
/// the dispatcher claim items from one atomic counter, so the lowest
/// unclaimed item is always the next one taken and every item runs
/// exactly once. Each item has a `done` flag; its claimant runs it and
/// then release-stores the flag, so whoever acquires the flag sees
/// everything the item's run wrote.
///
/// Ownership: only the dispatcher calls Reset and Await, and it calls
/// Reset only once every Drain of the previous batch has returned (the
/// lane pool's epoch await is that guarantee). Drain is safe from any
/// number of threads at once.

namespace polydab::rt {

class ClaimQueue {
 public:
  /// Open a batch of \p n items, none claimed.
  void Reset(size_t n) {
    if (n > capacity_) {
      capacity_ = std::max(n, 2 * capacity_);
      done_ = std::make_unique<std::atomic<uint32_t>[]>(capacity_);
    }
    for (size_t i = 0; i < n; ++i) {
      done_[i].store(0, std::memory_order_relaxed);
    }
    n_ = n;
    next_.store(0, std::memory_order_relaxed);
  }

  size_t size() const { return n_; }

  /// Claim items in index order and run `work(i)` on each until every
  /// item of the batch is claimed.
  template <class Work>
  void Drain(Work&& work) {
    while (RunNext(work)) {
    }
  }

  /// Dispatcher: return once item \p i is done. While it is not, claim
  /// and run the next unclaimed item inline; once every item is claimed,
  /// spin for kSpinBudget, then block on i's flag.
  template <class Work>
  void Await(size_t i, Work&& work) {
    POLYDAB_DCHECK(i < n_);
    std::atomic<uint32_t>& done = done_[i];
    while (done.load(std::memory_order_acquire) == 0) {
      if (RunNext(work)) continue;
      if (SpinUntil([&] { return done.load(std::memory_order_acquire); })) {
        return;
      }
      done.wait(0, std::memory_order_acquire);
    }
  }

  bool done(size_t i) const {
    return done_[i].load(std::memory_order_acquire) != 0;
  }

 private:
  template <class Work>
  bool RunNext(Work& work) {
    if (next_.load(std::memory_order_relaxed) >= n_) return false;
    const size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= n_) return false;
    work(i);
    done_[i].store(1, std::memory_order_release);
    // No syscall unless the dispatcher is parked on the flag.
    done_[i].notify_all();
    return true;
  }

  // Claimed by every thread of the batch: its own cache line.
  alignas(64) std::atomic<size_t> next_{0};
  size_t n_ = 0;
  size_t capacity_ = 0;
  std::unique_ptr<std::atomic<uint32_t>[]> done_;
};

}  // namespace polydab::rt

#endif  // POLYDAB_RT_CLAIM_QUEUE_H_
