#include "obs/trace.h"

namespace polydab::obs {

namespace {

constexpr NameOf<TraceEventKind> kKindNames[] = {
    {TraceEventKind::kRefreshEmitted, "refresh_emitted"},
    {TraceEventKind::kRefreshArrived, "refresh_arrived"},
    {TraceEventKind::kSecondaryViolation, "secondary_violation"},
    {TraceEventKind::kRecomputeStart, "recompute_start"},
    {TraceEventKind::kRecomputeEnd, "recompute_end"},
    {TraceEventKind::kDabChangeSent, "dab_change_sent"},
    {TraceEventKind::kDabChangeInstalled, "dab_change_installed"},
    {TraceEventKind::kAaoSolve, "aao_solve"},
    {TraceEventKind::kUserNotification, "user_notification"},
    {TraceEventKind::kFidelityViolation, "fidelity_violation"},
    {TraceEventKind::kPlannerPlan, "planner_plan"},
    {TraceEventKind::kPlannerReplan, "planner_replan"},
    {TraceEventKind::kShardBarrier, "shard_barrier"},
    {TraceEventKind::kFaultDrop, "fault_drop"},
    {TraceEventKind::kRetransmit, "retransmit"},
    {TraceEventKind::kAck, "ack"},
    {TraceEventKind::kDupSuppressed, "dup_suppressed"},
    {TraceEventKind::kHeartbeat, "heartbeat"},
    {TraceEventKind::kCrash, "crash"},
    {TraceEventKind::kLeaseExpire, "lease_expire"},
    {TraceEventKind::kDegrade, "degrade"},
    {TraceEventKind::kRecover, "recover"},
    {TraceEventKind::kLaneStall, "lane_stall"},
    {TraceEventKind::kQueryRegister, "query_register"},
    {TraceEventKind::kQueryModify, "query_modify"},
    {TraceEventKind::kQueryDeregister, "query_deregister"},
    {TraceEventKind::kAdmissionReject, "admission_reject"},
    {TraceEventKind::kPlanPatch, "plan_patch"},
    {TraceEventKind::kAlertFire, "alert_fire"},
    {TraceEventKind::kAlertResolve, "alert_resolve"},
    {TraceEventKind::kCheckpointBegin, "checkpoint_begin"},
    {TraceEventKind::kCheckpointEnd, "checkpoint_end"},
    {TraceEventKind::kCoordCrash, "coord_crash"},
    {TraceEventKind::kRecoveryReplay, "recovery_replay"},
};

template <class R>
void AppendLines(const char* tag, const std::vector<R>& recs,
                 std::string* out) {
  for (const R& r : recs) AppendRecordLine("type", tag, r, out);
}

}  // namespace

std::span<const NameOf<TraceEventKind>> TraceEventKindNames() {
  return kKindNames;
}

const char* Name(TraceEventKind kind) {
  return NameFor<TraceEventKind>(kKindNames, kind);
}

bool ParseTraceEventKind(const std::string& name, TraceEventKind* out) {
  return ValueFor<TraceEventKind>(kKindNames, name, out);
}

std::string TraceToJsonLines(const TraceFile& trace) {
  std::string out;
  // Events dominate; one line is typically under 120 bytes.
  out.reserve(trace.events.size() * 96 + 1024);
  AppendInfoLines(trace.info, &out);
  AppendLines("query_info", trace.queries, &out);
  AppendLines("event", trace.events, &out);
  AppendLines("run_summary", trace.summaries, &out);
  return out;
}

Result<TraceFile> ParseTraceJsonLines(const std::string& text) {
  TraceFile trace;
  POLYDAB_RETURN_NOT_OK(
      ForEachRecord(text, "trace", "type", [&](const Record& rec) {
        if (rec.tag == "event") {
          return ReadListRecord(rec, nullptr, &trace.events);
        }
        if (rec.tag == "query_info") {
          return ReadListRecord(rec, nullptr, &trace.queries);
        }
        if (rec.tag == "run_summary") {
          return ReadListRecord(rec, nullptr, &trace.summaries);
        }
        if (rec.tag == "info") return ReadInfo(rec, &trace.info);
        return UnknownRecordType(rec);
      }));
  return trace;
}

Status SaveTraceFile(const TraceFile& trace, const std::string& path) {
  return WriteFileText(path, TraceToJsonLines(trace));
}

Result<TraceFile> LoadTraceFile(const std::string& path) {
  POLYDAB_ASSIGN_OR_RETURN(const std::string text, ReadFileText(path));
  return ParseTraceJsonLines(text);
}

TraceSink::TraceSink(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  buffer_.reserve(capacity_);
}

TraceSink::~TraceSink() { Finish(); }

Status TraceSink::StreamTo(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  if (next_id_.load(std::memory_order_relaxed) != 1) {
    return Status::InvalidArgument(
        "StreamTo must be called before the first Emit");
  }
  if (file_ != nullptr) {
    return Status::InvalidArgument("trace sink already streaming");
  }
  file_ = std::fopen(path.c_str(), "w");
  if (file_ == nullptr) {
    return Status::InvalidArgument("cannot open '" + path + "' for writing");
  }
  path_ = path;
  return Status::OK();
}

uint64_t TraceSink::Emit(TraceEvent e) {
  std::lock_guard<std::mutex> lock(mu_);
  // The id must be assigned inside the critical section: with concurrent
  // emitters (the rt:: worker pool), taking the id first would let two
  // threads buffer out of id order, breaking the record-order == id-order
  // invariant the streamed file and Collect() rely on (regression:
  // obs_test ConcurrentEmitsKeepIdOrder).
  e.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  if (observer_ != nullptr) observer_->OnEvent(e);
  if (discard_) return e.id;
  if (buffer_.size() >= capacity_ && file_ != nullptr) {
    // Streaming mode: the ring segment is full, drain it to disk. A write
    // failure here must not crash the traced run; Finish reports it.
    (void)FlushLocked();
  }
  buffer_.push_back(e);  // capture mode grows past capacity_ (amortized)
  return e.id;
}

void TraceSink::SetObserver(TraceObserver* observer) {
  std::lock_guard<std::mutex> lock(mu_);
  observer_ = observer;
}

void TraceSink::SetDiscard(bool discard) {
  std::lock_guard<std::mutex> lock(mu_);
  discard_ = discard;
}

void TraceSink::SetInfo(const std::string& key, const std::string& value) {
  std::lock_guard<std::mutex> lock(mu_);
  info_[key] = value;
}

void TraceSink::AddQueryInfo(TraceQueryInfo info) {
  std::lock_guard<std::mutex> lock(mu_);
  if (suppress_query_infos_) return;
  queries_.push_back(std::move(info));
}

void TraceSink::AddRunSummary(const TraceRunSummary& summary) {
  std::lock_guard<std::mutex> lock(mu_);
  summaries_.push_back(summary);
}

Status TraceSink::FlushLocked() {
  std::string out;
  for (const auto& [key, value] : info_) {
    auto [it, fresh] = info_written_.emplace(key, value);
    if (!fresh && it->second == value) continue;
    it->second = value;
    AppendRecordLine("type", "info", InfoRecord{key, value}, &out);
  }
  AppendLines("event", buffer_, &out);
  buffer_.clear();
  const size_t written = std::fwrite(out.data(), 1, out.size(), file_);
  if (written != out.size()) {
    return Status::Internal("short write to '" + path_ + "'");
  }
  return Status::OK();
}

Status TraceSink::Finish() {
  std::lock_guard<std::mutex> lock(mu_);
  if (finished_ || file_ == nullptr) {
    finished_ = true;
    return Status::OK();
  }
  finished_ = true;
  Status flushed = FlushLocked();  // also writes info set since last flush
  // Trailing metadata: query sets and run summaries.
  std::string out;
  AppendLines("query_info", queries_, &out);
  AppendLines("run_summary", summaries_, &out);
  const size_t written = std::fwrite(out.data(), 1, out.size(), file_);
  const bool closed = std::fclose(file_) == 0;
  file_ = nullptr;
  POLYDAB_RETURN_NOT_OK(flushed);
  if (written != out.size() || !closed) {
    return Status::Internal("short write to '" + path_ + "'");
  }
  return Status::OK();
}

TraceFile TraceSink::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  TraceFile trace;
  trace.info = info_;
  trace.queries = queries_;
  trace.events = buffer_;
  trace.summaries = summaries_;
  return trace;
}

}  // namespace polydab::obs
