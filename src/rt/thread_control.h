#ifndef POLYDAB_RT_THREAD_CONTROL_H_
#define POLYDAB_RT_THREAD_CONTROL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>

#include "common/status.h"

/// \file thread_control.h
/// Start/stop/pause/status state machine shared by a pool of worker
/// threads — the MAGPIE `simmer`-style ThreadControl idiom: one small
/// mutex-guarded object owns the lifecycle, workers poll it between work
/// items, and the owner drives transitions without touching the workers
/// directly. Used by rt::LanePool (lane_pool.h); see docs/CONCURRENCY.md.
///
/// Legal transitions:
///
///     idle --Start()--> running <--Pause()/Resume()--> paused
///       \                    \______________________________/
///        \                                 |
///         \------------RequestStop()-------+--> stopping (terminal)
///
/// Workers call AwaitRunnable() between jobs: it returns true immediately
/// while running, blocks while paused, and returns false once stopping —
/// the worker's signal to exit its loop. All waiting is condvar-based;
/// every transition notifies. The state is written under the mutex but
/// read lock-free, so the running fast path and a spinning worker's
/// state() polls never touch the mutex.

namespace polydab::rt {

enum class RunState : uint8_t { kIdle, kRunning, kPaused, kStopping };

/// Lower-case serialization name ("idle", "running", "paused",
/// "stopping") for status lines and tests.
const char* Name(RunState state);

class ThreadControl {
 public:
  /// idle -> running. InvalidArgument from any other state.
  Status Start();
  /// running -> paused. InvalidArgument from any other state.
  Status Pause();
  /// paused -> running. InvalidArgument from any other state.
  Status Resume();
  /// Any state -> stopping; idempotent. Wakes every blocked waiter.
  void RequestStop();

  RunState state() const;

  /// Worker side: true = proceed with work (state is running); blocks
  /// while paused; false = stopping, exit the work loop.
  bool AwaitRunnable();

  /// One-line status, e.g. "state=running transitions=3".
  std::string StatusLine() const;

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::atomic<RunState> state_{RunState::kIdle};  // written under mu_
  uint64_t transitions_ = 0;
};

}  // namespace polydab::rt

#endif  // POLYDAB_RT_THREAD_CONTROL_H_
