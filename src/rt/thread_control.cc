#include "rt/thread_control.h"

namespace polydab::rt {

const char* Name(RunState state) {
  switch (state) {
    case RunState::kIdle:
      return "idle";
    case RunState::kRunning:
      return "running";
    case RunState::kPaused:
      return "paused";
    case RunState::kStopping:
      return "stopping";
  }
  return "?";
}

Status ThreadControl::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ != RunState::kIdle) {
    return Status::InvalidArgument(std::string("ThreadControl: Start from ") +
                                   Name(state_));
  }
  state_ = RunState::kRunning;
  ++transitions_;
  cv_.notify_all();
  return Status::OK();
}

Status ThreadControl::Pause() {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ != RunState::kRunning) {
    return Status::InvalidArgument(std::string("ThreadControl: Pause from ") +
                                   Name(state_));
  }
  state_ = RunState::kPaused;
  ++transitions_;
  cv_.notify_all();
  return Status::OK();
}

Status ThreadControl::Resume() {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ != RunState::kPaused) {
    return Status::InvalidArgument(std::string("ThreadControl: Resume from ") +
                                   Name(state_));
  }
  state_ = RunState::kRunning;
  ++transitions_;
  cv_.notify_all();
  return Status::OK();
}

void ThreadControl::RequestStop() {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ == RunState::kStopping) return;
  state_ = RunState::kStopping;
  ++transitions_;
  cv_.notify_all();
}

RunState ThreadControl::state() const {
  return state_.load(std::memory_order_acquire);
}

bool ThreadControl::AwaitRunnable() {
  if (state() == RunState::kRunning) return true;
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return state_ != RunState::kPaused; });
  return state_ == RunState::kRunning ||
         state_ == RunState::kIdle;  // idle: pool not started yet — treat as
                                     // runnable so Dispatch-before-Start is a
                                     // structural error, not a deadlock
}

std::string ThreadControl::StatusLine() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::string("state=") + Name(state_) +
         " transitions=" + std::to_string(transitions_);
}

}  // namespace polydab::rt
