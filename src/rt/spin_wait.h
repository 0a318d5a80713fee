#ifndef POLYDAB_RT_SPIN_WAIT_H_
#define POLYDAB_RT_SPIN_WAIT_H_

#include <chrono>

/// \file spin_wait.h
/// The runtime's one spin-then-park rule (docs/CONCURRENCY.md): a thread
/// about to block first spins for kSpinBudget of wall time. A refresh
/// service dispatches its solve jobs and finishes its groups within tens
/// of microseconds of each other, so a short spin usually sees the work
/// or the result arrive and skips both the futex sleep and the waker's
/// futex wake. The budget is wall time read from steady_clock, not a
/// pause count, so it means the same on every CPU.

namespace polydab::rt {

inline constexpr std::chrono::microseconds kSpinBudget{50};

/// One spin-loop pause hint.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Poll \p ready until it returns true or kSpinBudget has passed; returns
/// its last answer. The caller parks when this returns false.
template <class Ready>
bool SpinUntil(Ready&& ready) {
  if (ready()) return true;  // no clock read when already ready
  const auto deadline = std::chrono::steady_clock::now() + kSpinBudget;
  while (!ready()) {
    if (std::chrono::steady_clock::now() >= deadline) return ready();
    CpuRelax();
  }
  return true;
}

}  // namespace polydab::rt

#endif  // POLYDAB_RT_SPIN_WAIT_H_
