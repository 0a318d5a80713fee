#include "obs/trace_canon.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace polydab::obs {

Status CanonicalizeThreadedTrace(TraceFile* trace) {
  for (const TraceEvent& e : trace->events) {
    if (e.thread != -1) {
      return Status::InvalidArgument(
          "trace_canon: event id=" + std::to_string(e.id) +
          " is tagged with thread " + std::to_string(e.thread) +
          "; threaded runs emit every event on the event loop");
    }
  }
  for (auto it = trace->info.begin(); it != trace->info.end();) {
    if (it->first.rfind("rt_", 0) == 0) {
      it = trace->info.erase(it);
    } else {
      ++it;
    }
  }
  return Status::OK();
}

Status StripRecoveryEvents(TraceFile* trace) {
  std::stable_sort(
      trace->events.begin(), trace->events.end(),
      [](const TraceEvent& a, const TraceEvent& b) { return a.id < b.id; });

  auto is_recovery = [](TraceEventKind k) {
    return k == TraceEventKind::kCheckpointBegin ||
           k == TraceEventKind::kCheckpointEnd ||
           k == TraceEventKind::kCoordCrash ||
           k == TraceEventKind::kRecoveryReplay;
  };

  std::vector<TraceEvent> kept;
  kept.reserve(trace->events.size());
  bool removed_any = false;
  for (TraceEvent& e : trace->events) {
    if (is_recovery(e.kind)) {
      removed_any = true;
    } else {
      kept.push_back(std::move(e));
    }
  }
  if (!removed_any) {
    trace->events = std::move(kept);
    return Status::OK();
  }

  std::unordered_map<uint64_t, uint64_t> id_map;
  id_map.reserve(kept.size());
  for (size_t i = 0; i < kept.size(); ++i) {
    id_map.emplace(kept[i].id, static_cast<uint64_t>(i) + 1);
  }
  for (TraceEvent& e : kept) {
    e.id = id_map.at(e.id);
    if (e.cause != 0) {
      auto it = id_map.find(e.cause);
      if (it == id_map.end()) {
        return Status::InvalidArgument(
            "trace_canon: event cites removed recovery event " +
            std::to_string(e.cause) + " as its cause");
      }
      e.cause = it->second;
    }
  }
  trace->events = std::move(kept);
  return Status::OK();
}

}  // namespace polydab::obs
