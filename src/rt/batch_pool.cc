#include "rt/batch_pool.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "rt/spin_wait.h"

namespace polydab::rt {

BatchPool::~BatchPool() { Stop(); }

Status BatchPool::Start(int workers) {
  if (workers < 1) {
    return Status::InvalidArgument("BatchPool: workers must be >= 1");
  }
  if (!threads_.empty() || stop_.load(std::memory_order_relaxed)) {
    return Status::InvalidArgument("BatchPool: already started");
  }
  const size_t count = static_cast<size_t>(workers);
  wake_ = std::make_unique<Wake[]>(count);
  threads_.reserve(count);
  for (size_t w = 0; w < count; ++w) {
    threads_.emplace_back([this, w] { WorkerLoop(w); });
  }
  return Status::OK();
}

void BatchPool::Open(size_t n, Work work, int64_t fail_at) {
  POLYDAB_DCHECK(inside_.load(std::memory_order_relaxed) == 0);
  if (n > capacity_) {
    capacity_ = std::max(n, 2 * capacity_);
    done_ = std::make_unique<std::atomic<uint32_t>[]>(capacity_);
  }
  for (size_t i = 0; i < n; ++i) done_[i].store(0, std::memory_order_relaxed);
  n_ = n;
  next_.store(0, std::memory_order_relaxed);
  work_ = std::move(work);
  const size_t woken = n < 2 ? 0 : std::min(threads_.size(), n - 1);
  const int64_t fail = fail_at - woken_total_ - 1;
  fail_worker_ = fail >= 0 ? static_cast<size_t>(fail)
                           : std::numeric_limits<size_t>::max();
  woken_total_ += static_cast<int64_t>(woken);
  inside_.store(static_cast<uint32_t>(woken), std::memory_order_relaxed);
  for (size_t w = 0; w < woken; ++w) wake_[w].Bump();
}

void BatchPool::Await(size_t i) {
  POLYDAB_DCHECK(i < n_);
  std::atomic<uint32_t>& done = done_[i];
  while (done.load(std::memory_order_acquire) == 0) {
    if (RunNext()) continue;
    if (SpinUntil([&] { return done.load(std::memory_order_acquire); })) {
      return;
    }
    done.wait(0, std::memory_order_acquire);
  }
}

Status BatchPool::Close() {
  while (RunNext()) {
  }
  auto left = [&] { return inside_.load(std::memory_order_acquire) == 0; };
  if (!SpinUntil(left)) {
    for (uint32_t v; (v = inside_.load(std::memory_order_acquire)) != 0;) {
      inside_.wait(v, std::memory_order_acquire);
    }
  }
  return failure_;
}

void BatchPool::Stop() {
  stop_.store(true, std::memory_order_relaxed);
  for (size_t w = 0; w < threads_.size(); ++w) wake_[w].Bump();
  threads_.clear();  // jthread dtor joins
}

void BatchPool::Wake::Bump() {
  {
    // Under the mutex, so a worker between its last check and its sleep
    // cannot miss the bump; the release publishes the batch.
    std::lock_guard<std::mutex> lock(mu);
    word.fetch_add(1, std::memory_order_release);
  }
  // No syscall unless the worker is parked.
  cv.notify_one();
}

bool BatchPool::RunNext() {
  if (next_.load(std::memory_order_relaxed) >= n_) return false;
  const size_t i = next_.fetch_add(1, std::memory_order_relaxed);
  if (i >= n_) return false;
  work_(i);
  done_[i].store(1, std::memory_order_release);
  // No syscall unless the owner is parked on the flag.
  done_[i].notify_all();
  return true;
}

void BatchPool::WorkerLoop(size_t w) {
  Wake& wake = wake_[w];
  uint32_t seen = 0;
  auto woken = [&] {
    return wake.word.load(std::memory_order_acquire) != seen;
  };
  for (;;) {
    // The next batch usually opens within the spin budget, and a
    // spinning worker costs Open no wake-up.
    if (!SpinUntil(woken)) {
      std::unique_lock<std::mutex> lock(wake.mu);
      wake.cv.wait(lock, woken);
    }
    seen = wake.word.load(std::memory_order_acquire);
    if (stop_.load(std::memory_order_relaxed)) return;
    if (w != fail_worker_) {
      while (RunNext()) {
      }
    } else if (failure_.ok()) {
      failure_ = Status::Internal("rt: injected worker abort (rt_fail_at)");
    }
    // Leaving: after this the worker touches nothing of the batch.
    if (inside_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      inside_.notify_one();
    }
  }
}

}  // namespace polydab::rt
