#include "rt/epoch_barrier.h"

#include "rt/spin_wait.h"

namespace polydab::rt {

EpochBarrier::EpochBarrier(int lanes) {
  if (lanes < 1) lanes = 1;
  lanes_.reserve(static_cast<size_t>(lanes));
  for (int i = 0; i < lanes; ++i) lanes_.push_back(std::make_unique<Lane>());
}

uint64_t EpochBarrier::Announce(int lane) {
  Lane& l = *lanes_[static_cast<size_t>(lane)];
  return l.dispatched.fetch_add(1, std::memory_order_relaxed) + 1;
}

void EpochBarrier::Arrive(int lane) {
  Lane& l = *lanes_[static_cast<size_t>(lane)];
  l.completed.fetch_add(1, std::memory_order_release);
  l.completed.notify_all();
}

void EpochBarrier::AwaitEpoch(int lane, uint64_t epoch) const {
  const Lane& l = *lanes_[static_cast<size_t>(lane)];
  if (SpinUntil([&] {
        return l.completed.load(std::memory_order_acquire) >= epoch;
      })) {
    return;
  }
  uint64_t done = l.completed.load(std::memory_order_acquire);
  while (done < epoch) {
    l.completed.wait(done, std::memory_order_acquire);
    done = l.completed.load(std::memory_order_acquire);
  }
}

void EpochBarrier::AwaitQuiesce() const {
  for (const auto& lane : lanes_) {
    // `dispatched` is stable here: only the caller advances it.
    const uint64_t target = lane->dispatched.load(std::memory_order_relaxed);
    uint64_t done = lane->completed.load(std::memory_order_acquire);
    while (done < target) {
      lane->completed.wait(done, std::memory_order_acquire);
      done = lane->completed.load(std::memory_order_acquire);
    }
  }
}

uint64_t EpochBarrier::dispatched(int lane) const {
  return lanes_[static_cast<size_t>(lane)]->dispatched.load(
      std::memory_order_relaxed);
}

uint64_t EpochBarrier::completed(int lane) const {
  return lanes_[static_cast<size_t>(lane)]->completed.load(
      std::memory_order_acquire);
}

}  // namespace polydab::rt
