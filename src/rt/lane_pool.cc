#include "rt/lane_pool.h"

#include <utility>

#include "rt/spin_wait.h"

namespace polydab::rt {

LanePool::~LanePool() { Stop(); }

Status LanePool::Start(const Options& options) {
  if (options.workers < 1) {
    return Status::InvalidArgument("LanePool: workers must be >= 1");
  }
  if (options.queue_capacity < 1) {
    return Status::InvalidArgument("LanePool: queue_capacity must be >= 1");
  }
  if (!threads_.empty()) {
    return Status::InvalidArgument("LanePool: already started");
  }
  barrier_ = std::make_unique<EpochBarrier>(options.workers);
  workers_.reserve(static_cast<size_t>(options.workers));
  for (int w = 0; w < options.workers; ++w) {
    auto worker = std::make_unique<Worker>();
    worker->ring = std::make_unique<SpscQueue<Job>>(
        static_cast<size_t>(options.queue_capacity));
    workers_.push_back(std::move(worker));
  }
  POLYDAB_RETURN_NOT_OK(control_.Start());
  threads_.reserve(static_cast<size_t>(options.workers));
  for (int w = 0; w < options.workers; ++w) {
    threads_.emplace_back([this, w] { WorkerLoop(w); });
  }
  return Status::OK();
}

uint64_t LanePool::Dispatch(int w, Job job) {
  Worker& worker = *workers_[static_cast<size_t>(w)];
  while (!worker.ring->TryPush(std::move(job))) {
    // Ring full: the worker is behind; it drains without needing us.
    std::this_thread::yield();
  }
  const uint64_t epoch = barrier_->Announce(w);
  // Dekker handshake with the parking side (WorkerLoop): after the push,
  // either we observe sleeping == true here and wake the worker, or the
  // worker's post-flag re-check observes the pushed job. Both fences are
  // seq_cst so the two (store flag; read ring) / (store ring; read flag)
  // pairs cannot both read stale values.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (worker.sleeping.load(std::memory_order_relaxed)) {
    std::lock_guard<std::mutex> lock(worker.mu);
    worker.cv.notify_one();
  }
  return epoch;
}

Status LanePool::AwaitEpoch(int w, uint64_t epoch) {
  barrier_->AwaitEpoch(w, epoch);
  return Failure();
}

Status LanePool::Quiesce() {
  // A pool that was never started has no jobs to wait for.
  if (barrier_ != nullptr) barrier_->AwaitQuiesce();
  return Failure();
}

Status LanePool::Pause() { return control_.Pause(); }

Status LanePool::Resume() { return control_.Resume(); }

void LanePool::Stop() {
  control_.RequestStop();
  for (auto& worker : workers_) {
    // Wake idle parkers; paused workers wake via ThreadControl's condvar.
    std::lock_guard<std::mutex> lock(worker->mu);
    worker->cv.notify_all();
  }
  threads_.clear();  // jthread dtor joins
}

std::string LanePool::StatusLine() const {
  uint64_t dispatched = 0;
  uint64_t completed = 0;
  if (barrier_ != nullptr) {
    for (int w = 0; w < barrier_->lanes(); ++w) {
      dispatched += barrier_->dispatched(w);
      completed += barrier_->completed(w);
    }
  }
  return std::string("state=") + Name(control_.state()) +
         " workers=" + std::to_string(workers_.size()) +
         " dispatched=" + std::to_string(dispatched) +
         " completed=" + std::to_string(completed) +
         " failed=" + (failed_.load(std::memory_order_acquire) ? "1" : "0");
}

void LanePool::WorkerLoop(int w) {
  Worker& me = *workers_[static_cast<size_t>(w)];
  for (;;) {
    // Blocks while paused; false once stopping.
    if (!control_.AwaitRunnable()) return;
    Job job;
    if (me.ring->TryPop(&job)) {
      Status s = job ? job() : Status::OK();
      if (!s.ok()) LatchFailure(s);
      barrier_->Arrive(w);
      continue;
    }
    // Ring empty: spin for the budget — the next service's job usually
    // lands within it, and a spinning worker costs Dispatch no wake —
    // then park on the eventcount. The fence pairs with Dispatch's — see
    // there.
    if (SpinUntil([&] {
          return !me.ring->EmptyApprox() ||
                 control_.state() != RunState::kRunning;
        })) {
      continue;
    }
    me.sleeping.store(true, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    {
      std::unique_lock<std::mutex> lock(me.mu);
      me.cv.wait(lock, [&] {
        return control_.state() != RunState::kRunning ||
               !me.ring->EmptyApprox();
      });
    }
    me.sleeping.store(false, std::memory_order_relaxed);
  }
}

void LanePool::LatchFailure(const Status& s) {
  std::lock_guard<std::mutex> lock(fail_mu_);
  if (failure_.ok()) failure_ = s;
  failed_.store(true, std::memory_order_release);
}

Status LanePool::Failure() const {
  if (!failed_.load(std::memory_order_acquire)) return Status::OK();
  std::lock_guard<std::mutex> lock(fail_mu_);
  return failure_;
}

}  // namespace polydab::rt
