#include "sim/simulation.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <deque>
#include <limits>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>
#include <utility>

#include "common/hash.h"
#include "core/multi_query.h"
#include "core/query_index.h"
#include "core/validator.h"
#include "gp/solve_engine.h"
#include "obs/json_util.h"
#include "obs/slo.h"
#include "obs/timeseries.h"
#include "recovery/checkpoint.h"
#include "recovery/recovery.h"
#include "recovery/wal.h"
#include "rt/batch_pool.h"

#include "common/logging.h"

namespace polydab::sim {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

using K = obs::TraceEventKind;
using WalKind = recovery::WalRecord::Kind;

// Event::type values. The event record is the checkpoint's 'ev' record
// (recovery/checkpoint.h), so the heap array is the snapshot verbatim.
enum EventType : int {
  kRefresh,
  kDabChange,
  kAckArrive,   // fault mode: coordinator ack reaching the source
  kHeartbeat,   // fault mode: source liveness signal reaching C
};
// value: refresh: item value; dab-change: new filter width. seq: 0 =
// unsequenced (fault-free runs, DAB changes).
using Event = recovery::CheckpointEvent;

/// In-flight message queue. Drop-in for the former
/// `std::priority_queue<Event, std::vector<Event>, std::greater<Event>>`
/// ordered by time: the standard specifies priority_queue::push as
/// push_back + push_heap and ::pop as pop_heap + pop_back, so this
/// explicit heap is bit-identical to it — while exposing the underlying
/// array, which the crash-recovery checkpoint (src/recovery/) serializes
/// verbatim and restores without re-heapifying (docs/RECOVERY.md).
struct EventQueue {
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return a.time > b.time;
    }
  };
  std::vector<Event> c;  // valid heap under Later

  bool empty() const { return c.empty(); }
  const Event& top() const { return c.front(); }
  void push(Event e) {
    c.push_back(e);
    std::push_heap(c.begin(), c.end(), Later{});
  }
  void pop() {
    std::pop_heap(c.begin(), c.end(), Later{});
    c.pop_back();
  }
};

/// Cached `sim.*` instrument pointers, resolved once per run. All null
/// when no registry is attached, so every recording site is one branch.
/// The coordinator counters are incremented at exactly the sites that
/// bump the corresponding SimMetrics fields, keeping the registry and the
/// returned metrics a single source of truth (asserted in sim_test.cc).
struct SimInstruments {
  obs::Counter* refreshes = nullptr;
  obs::Counter* recomputations = nullptr;
  obs::Counter* dab_change_messages = nullptr;
  obs::Counter* user_notifications = nullptr;
  obs::Counter* solver_failures = nullptr;
  obs::Counter* cause_secondary_escape = nullptr;
  obs::Counter* cause_single_dab_staleness = nullptr;
  obs::Counter* cause_aao_periodic = nullptr;
  obs::Counter* shard_barriers = nullptr;
  // `sim.fault.*`, mirroring the SimMetrics fault counters. Registered
  // only when the run's FaultConfig is active so fault-free runs keep
  // their historical registry contents (and run-report bytes) unchanged.
  obs::Counter* fault_drops = nullptr;
  obs::Counter* retransmits = nullptr;
  obs::Counter* duplicates_suppressed = nullptr;
  obs::Counter* lease_expiries = nullptr;
  obs::Counter* degraded_query_seconds = nullptr;
  obs::Histogram* message_delay = nullptr;
  obs::Histogram* queue_wait = nullptr;
  obs::Histogram* shard_dispatch_wait = nullptr;
  obs::Histogram* tick_refreshes = nullptr;
  obs::Histogram* tick_recomputations = nullptr;

  SimInstruments() = default;
  SimInstruments(obs::MetricRegistry* reg, bool fault_active) {
    if (reg == nullptr) return;
    if (fault_active) {
      fault_drops = reg->GetCounter("sim.fault.drops");
      retransmits = reg->GetCounter("sim.fault.retransmits");
      duplicates_suppressed =
          reg->GetCounter("sim.fault.duplicates_suppressed");
      lease_expiries = reg->GetCounter("sim.fault.lease_expiries");
      degraded_query_seconds =
          reg->GetCounter("sim.fault.degraded_query_seconds");
    }
    refreshes = reg->GetCounter("sim.coordinator.refreshes");
    recomputations = reg->GetCounter("sim.coordinator.recomputations");
    dab_change_messages =
        reg->GetCounter("sim.coordinator.dab_change_messages");
    user_notifications =
        reg->GetCounter("sim.coordinator.user_notifications");
    solver_failures = reg->GetCounter("sim.coordinator.solver_failures");
    cause_secondary_escape =
        reg->GetCounter("sim.recompute_cause.secondary_escape");
    cause_single_dab_staleness =
        reg->GetCounter("sim.recompute_cause.single_dab_staleness");
    cause_aao_periodic = reg->GetCounter("sim.recompute_cause.aao_periodic");
    shard_barriers = reg->GetCounter("sim.coordinator.shard_barriers");
    message_delay = reg->GetHistogram("sim.net.message_delay_seconds");
    queue_wait = reg->GetHistogram("sim.coordinator.queue_wait_seconds");
    shard_dispatch_wait =
        reg->GetHistogram("sim.coordinator.shard_dispatch_wait_seconds");
    tick_refreshes = reg->GetHistogram("sim.tick.refreshes");
    tick_recomputations = reg->GetHistogram("sim.tick.recomputations");
  }
};

/// Bump a SimMetrics counter and its registry mirror together.
void Count(int64_t& field, obs::Counter* mirror) {
  ++field;
  if (mirror != nullptr) mirror->Inc();
}

/// One distinct solve of a refresh service (docs/CONCURRENCY.md): the
/// stale parts whose solve inputs are bitwise equal share it.
struct SolveGroup {
  const core::PlanPart* leader = nullptr;  // the part actually solved
  uint64_t hash = 0;                       // core::ReplanInputsHash
  Result<QueryDabs> result{Status::Internal("rt: job not yet run")};
  gp::SolveRecord solve;
  bool shared = false;  // other stale parts install copies of `result`

  // The one call site of core::ReplanPart in the refresh service, run by
  // whichever thread claims the group.
  void Solve(const Vector& view, const Vector& rates,
             const core::PlannerConfig& cfg) {
    result = core::ReplanPart(*leader, view, rates, cfg, &solve);
  }
};

// A stale part found by pass 1, in oracle order: the position of its
// query in the item's query list, the part, the refreshed item's slot in
// the part's DABs, the anchor its drift was measured from and the group
// whose solve it installs.
struct StalePart {
  size_t k = 0;
  size_t pi = 0;
  size_t idx = 0;
  double anchor = 0.0;
  size_t group = 0;
};

/// Where one primary width of an item's EQI merge lives: part `part` of
/// slot `slot`'s plan, at `var` in its DABs.
struct MinSource {
  int slot = 0;
  int part = 0;
  int var = 0;
  bool operator==(const MinSource&) const = default;
};

/// Reinstate an RNG stream from its checkpoint text.
Status RestoreRng(const std::string& state, const char* name, Rng* rng) {
  std::istringstream in(state);
  in >> rng->engine();
  if (in.fail()) {
    return Status::InvalidArgument(std::string("restart: bad ") + name +
                                   "-RNG stream state in checkpoint");
  }
  return Status::OK();
}

struct FileCloser {
  void operator()(std::FILE* f) const { std::fclose(f); }
};

/// The coordinator of §V's push simulation (docs/DESIGN.md, "Engine").
/// Its state is the checkpoint's records — the query slots, the item
/// tables, the event heap, the run counters and the fault protocol's
/// per-source and per-item tables (recovery/checkpoint.h) — so a snapshot
/// copies them whole and a restart reinstates them whole. Its methods are
/// the protocol steps, and it is the ServiceOps the churn driver calls.
class Coordinator final : public ServiceOps {
 public:
  Coordinator(const std::vector<PolynomialQuery>& queries,
              workload::TickSource& source, const Vector& rates,
              const SimConfig& config);
  // Pool jobs hold references into the members.
  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Everything before tick 1: the WAL, telemetry, the lane pool, and
  /// either the t=0 plan or the restore of a checkpoint.
  Status Start();
  /// The tick loop to end of stream (or to the injected crash), then the
  /// run's final accounting.
  Result<SimMetrics> Run();

  // ServiceOps (docs/SERVICE.md).
  const Vector& View() const override { return items_.view; }
  const Vector& Rates() const override { return rates_; }
  Result<core::QueryPlan> TrialPlan(const PolynomialQuery& query) override;
  Status Register(const PolynomialQuery& query, core::QueryPlan plan,
                  double admission_estimate, int degrade_attempts) override;
  Status Modify(int query_id, double new_qab, core::QueryPlan plan) override;
  Status Deregister(int query_id) override;
  void AdmissionReject(int query_id, double estimate, double budget,
                       int reason) override;

 private:
  enum class Row { kLive, kEnd, kCrash };

  // Start-up.
  void ConfigureTelemetry();
  Status StartFresh();
  Status Restore();
  Status StageReplay();
  void InitFaultTables();
  void AssignLanes(const std::vector<int>& lanes);
  void AddQueryInfo(size_t qi);

  // The tick loop.
  Result<Row> NextRow(int tick, Vector* row);
  Status Tick(int tick, const Vector& row);
  Status DeliverUntil(double now);
  Status ArriveRefresh(const Event& ev);
  void CollectStaleParts(const Event& ev);
  Status NotifyAndInstall(const Event& ev, uint64_t arrival_id);
  void SettleLanes(double t, size_t home_lane);
  Status AaoSolve(double now);
  void PushSources(const Vector& row, double now);
  void SampleFidelity(double now);
  Status Checkpoint(int tick, double now);
  recovery::CheckpointState BuildCheckpoint(int tick, uint64_t end_id);
  SimMetrics Finish();

  // Filters: the EQI merge (§IV) and filter shipping.
  void ScanMinSources(size_t item, std::vector<MinSource>* out) const;
  void IndexMinSources(const std::vector<VarId>& items);
  void IndexAllMinSources();
  void CheckMinSources(const std::vector<VarId>& items) const;
  double ItemMinPrimary(size_t item) const;
  void AnchorPart(size_t qi, size_t pi);
  void ShipDabChanges(size_t qi, size_t pi, double now, uint64_t cause_id,
                      bool emit_item_barriers);
  void ShipChurnChanges(const std::vector<VarId>& items, uint64_t cause_id,
                        int q_id, int q_lane);
  void ShipFilter(size_t item, double fresh, double old_width, double now,
                  uint64_t cause_id, int32_t query, int32_t part,
                  int32_t shard);

  // The fault protocol (docs/ROBUSTNESS.md).
  void SendData(size_t item, double value, int64_t seq, uint64_t emit_id,
                int klass, double now);
  void SendAck(int item, int64_t seq, double now, uint64_t cause_id);
  void RecordContact(int s, double t, uint64_t cid);
  void InjectStalls(double now);
  void CrashSources(double now);
  void Retransmit(double now);
  void Heartbeat(double now);
  void ExpireLeases(double now);

  // Churn transactions.
  int FindLive(int query_id) const;
  void EnsureDqi();
  void RefreshPartition();
  void ChargeLane(size_t qi);
  void EmitPlanPatch(uint64_t cause_id);
  void AppendChurnWal(const char* op, int query_id);

  /// Stamp the node and emit; 0 when untraced. EmitNow first moves the
  /// sink's clock to the event's time.
  uint64_t Emit(obs::TraceEvent e) {
    if (trace_ == nullptr) return 0;
    e.node = tnode_;
    return trace_->Emit(e);
  }
  uint64_t EmitNow(const obs::TraceEvent& e) {
    if (trace_ != nullptr) trace_->SetNow(e.time);
    return Emit(e);
  }
  /// A query's lane as traced events carry it (-1 on a serial run).
  int32_t Lane(size_t qi) const { return sharded_ ? slots_[qi].shard : -1; }

  // Inputs and run constants.
  const SimConfig& config_;
  workload::TickSource& source_;
  const Vector& rates_;
  const size_t n_items_;
  const int num_shards_;
  const bool sharded_;
  const bool aao_mode_;
  const bool fault_mode_;
  const int num_sources_;  // which source pushes an item: attribution only
  recovery::RecoveryConfig* const rec_;
  const recovery::CheckpointState* const ckpt_;  // restart snapshot or null
  obs::TraceSink* const trace_;
  const int32_t tnode_;
  // The config fingerprint sealed into every checkpoint block; a restart
  // refuses a snapshot taken under a different engine config. The
  // recovery knobs are absent from Describe(), so a crashed run and its
  // restart fingerprint identically.
  const uint32_t config_fp_;

  // Randomness: the fault layer owns a second forked stream, so injection
  // decisions and protocol-message delays never perturb the main delay
  // draws, and an inactive config takes no fault branch at all.
  Rng master_;
  DelayModel delays_;
  FaultModel faults_;

  SimInstruments ins_;
  // Memoizing solve server (gp/solve_engine.h, docs/SOLVER.md), attached
  // through SolverOptions::engine so every GP solve of the run routes
  // through it. Declared before the pool, which holds a pointer to it.
  gp::SolveEngine solve_engine_;
  // The planner config with the registry, engine and trace propagated;
  // groups solve under solve_cfg_, which has no trace, and the event loop
  // emits each part's planner_replan event at its oracle slot.
  core::PlannerConfig planner_cfg_;
  core::PlannerConfig solve_cfg_;
  const bool recompute_every_refresh_;
  std::unique_ptr<std::FILE, FileCloser> wal_file_;

  // Coordinator state: the checkpoint's records. `queries_` is the one
  // copy of each polynomial; slots are append-only, so a deregistered
  // query keeps its index with `alive` off and its plan empty.
  std::vector<PolynomialQuery> queries_;
  std::vector<recovery::QuerySlot> slots_;
  std::vector<core::QueryPlan> plans_;
  // anchors_[q][p]: the item values part p's DABs were computed at.
  std::vector<std::vector<Vector>> anchors_;
  recovery::CheckpointItems items_;
  EventQueue events_;
  SimMetrics metrics_;
  std::vector<recovery::CheckpointItemFault> item_fault_;  // fault mode
  std::vector<recovery::CheckpointSource> source_fault_;   // fault mode
  std::vector<std::vector<int>> source_items_;  // source -> queried items
  // The EQI merge's index, derived from item_queries and the plans and
  // never checkpointed: where each item's primary widths live, in the
  // order a walk of its queries' parts meets them.
  std::vector<std::vector<MinSource>> min_sources_;
  // Incremental view-side query evaluation: the coordinator's values only
  // change on refresh arrivals, so fidelity checks patch affected queries.
  std::optional<core::IncrementalEvaluator> view_eval_;
  // Built at the first churn op, seeded with every slot in slot order, so
  // slot i of the dynamic index is query index i.
  std::unique_ptr<core::DynamicQueryIndex> dqi_;
  int ticks_seen_ = 1;  // rows consumed so far, tick 0 included
  int cur_tick_ = 0;    // the churn transactions' logical clock
  double cur_now_ = 0.0;
  int64_t aao_next_tick_ = 0;
  core::AaoSolution last_aao_;
  bool have_aao_ = false;
  int64_t tick_refresh_base_ = 0;  // per-tick rate histogram snapshots
  int64_t tick_recompute_base_ = 0;

  // Restart replay: audit records are only appended once the replay span
  // is exhausted, so a restart never re-writes rows the WAL already holds.
  uint64_t last_ckpt_end_id_ = 0;
  const recovery::WalRecord* crash_marker_ = nullptr;
  std::vector<const recovery::WalRecord*> replay_rows_;
  bool replay_done_ = true;
  size_t replay_idx_ = 0;

  // Per-service scratch: busy time accrued on each lane while servicing
  // one refresh, the pre-service lane clocks (the shard-barrier time
  // payload), which lanes a barrier joined, and the solve pipeline's
  // groups and stale parts.
  std::vector<double> lane_busy_;
  std::vector<double> pre_free_;
  std::vector<uint8_t> barrier_lane_;
  bool barrier_any_ = false;
  std::deque<SolveGroup> solve_groups_;
  std::vector<StalePart> stale_parts_;
  // Declared last: its destructor joins every worker before anything a
  // batch references is destroyed, however the run exits.
  rt::BatchPool pool_;
};

gp::SolveEngine::Options EngineOptions(const SimConfig& config) {
  gp::SolveEngine::Options opt;
  opt.cache_entries = config.solve_cache;
  opt.registry = config.registry;
  return opt;
}

uint32_t ConfigFingerprint(const SimConfig& config) {
  const std::string desc = config.Describe();
  return Fnv1a32(desc.data(), desc.size());
}

Coordinator::Coordinator(const std::vector<PolynomialQuery>& queries,
                         workload::TickSource& source, const Vector& rates,
                         const SimConfig& config)
    : config_(config),
      source_(source),
      rates_(rates),
      n_items_(source.num_items()),
      num_shards_(config.coord_shards),
      sharded_(config.coord_shards > 1),
      aao_mode_(config.aao_period_s > 0.0),
      fault_mode_(config.fault.active()),
      num_sources_(std::max(1, config.num_sources)),
      rec_(config.recovery),
      ckpt_(config.recovery != nullptr ? config.recovery->restart : nullptr),
      trace_(config.trace),
      tnode_(config.trace_node),
      config_fp_(ConfigFingerprint(config)),
      master_(config.seed),
      delays_(config.delays, master_.Fork()),
      faults_(config.fault, master_.Fork()),
      solve_engine_(EngineOptions(config)),
      planner_cfg_(config.planner),
      recompute_every_refresh_(config.planner.method !=
                               core::AssignmentMethod::kDualDab),
      queries_(queries),
      lane_busy_(static_cast<size_t>(config.coord_shards), 0.0),
      pre_free_(static_cast<size_t>(config.coord_shards), 0.0),
      barrier_lane_(static_cast<size_t>(config.coord_shards), 0) {
  // One SimConfig::registry / trace assignment instruments the whole
  // stack: the planner and, through it, the GP solver.
  if (planner_cfg_.registry == nullptr) planner_cfg_.registry = config.registry;
  if (planner_cfg_.dual.solver.registry == nullptr) {
    planner_cfg_.dual.solver.registry = planner_cfg_.registry;
  }
  if (config.solve_cache > 0 && planner_cfg_.dual.solver.engine == nullptr) {
    planner_cfg_.dual.solver.engine = &solve_engine_;
  }
  if (planner_cfg_.trace == nullptr) {
    planner_cfg_.trace = trace_;
    planner_cfg_.trace_node = tnode_;
  }
  solve_cfg_ = planner_cfg_;
  solve_cfg_.trace = nullptr;
  if (aao_mode_) aao_next_tick_ = static_cast<int64_t>(config.aao_period_s);
}

Status Coordinator::Start() {
  if (rec_ != nullptr && !rec_->wal_path.empty()) {
    wal_file_.reset(std::fopen(rec_->wal_path.c_str(), "a"));
    if (wal_file_ == nullptr) {
      return Status::InvalidArgument("cannot open WAL '" + rec_->wal_path +
                                     "' for appending");
    }
    recovery::AppendWal(wal_file_.get(), {.kind = WalKind::kHeader});
  }
  ins_ = SimInstruments(config_.registry, fault_mode_);
  ConfigureTelemetry();
  // The refresh service's solve pipeline (docs/CONCURRENCY.md): threads =
  // 0 never starts the pool, so every group is the event loop's to solve.
  if (config_.threads > 0) {
    POLYDAB_RETURN_NOT_OK(pool_.Start(config_.threads));
    if (trace_ != nullptr) {
      // Stripped again by canonicalization (obs/trace_canon.h), so the
      // canonical trace's info block matches the threads = 0 oracle's.
      trace_->SetInfo("rt_threads", std::to_string(config_.threads));
    }
  }
  return ckpt_ != nullptr ? Restore() : StartFresh();
}

void Coordinator::ConfigureTelemetry() {
  if (trace_ != nullptr) {
    trace_->SetNow(0.0);
    trace_->SetInfo("origin", "sim");
    trace_->SetInfo("method", core::Name(planner_cfg_.method));
    trace_->SetInfo("mu", obs::JsonNumber(planner_cfg_.dual.mu));
    trace_->SetInfo("sim_config", config_.Describe());
    if (fault_mode_) {
      // The offline verifier needs the item -> source mapping and the
      // protocol constants to re-derive crash windows, retransmit chains
      // and lease deadlines (obs/trace_check.cc).
      trace_->SetInfo("fault_config", config_.fault.Describe());
      trace_->SetInfo("num_sources", std::to_string(num_sources_));
      trace_->SetInfo("fault_retx_timeout_s",
                      obs::JsonNumber(config_.fault.retx_timeout_s));
      trace_->SetInfo("fault_heartbeat_s",
                      obs::JsonNumber(config_.fault.heartbeat_s));
      trace_->SetInfo("fault_lease_s", obs::JsonNumber(config_.fault.lease_s));
    }
    if (sharded_) {
      trace_->SetInfo("coord_shards", std::to_string(num_shards_));
      trace_->SetInfo("shard_policy", Name(config_.shard_policy));
    }
  }
  // Windowed series telemetry (obs/timeseries.h): install the recorder
  // as the sink's observer before any emission so window 0 sees the t=0
  // initial installs, and stamp the metadata the checker's alerting mode
  // needs to replay the series from the events alone.
  obs::SeriesRecorder* const series = config_.series;
  if (series != nullptr) {
    trace_->SetInfo("series_window_s",
                    std::to_string(series->config().window_ticks));
    if (!series->config().rules.empty()) {
      trace_->SetInfo("slo_rules",
                      obs::CanonicalSloRules(series->config().rules));
    }
    if (series->config().breakdown) trace_->SetInfo("series_breakdown", "1");
    series->SetInitialQueries(static_cast<int64_t>(queries_.size()));
    series->SetAlertSink(trace_);
    trace_->SetObserver(series);
  }
}

/// Lane partition: pin each slot to \p lanes' entry (-1 for a dead slot,
/// never read since dead slots leave item_queries), make each item's home
/// the lane of its first query, and list every lane with a query on the
/// item so cross-lane EQI merges know which lanes a barrier joins.
void Coordinator::AssignLanes(const std::vector<int>& lanes) {
  for (size_t qi = 0; qi < slots_.size(); ++qi) slots_[qi].shard = lanes[qi];
  items_.item_home_shard.assign(n_items_, -1);
  for (size_t i = 0; i < n_items_; ++i) {
    std::vector<int>& item_lanes = items_.item_shards[i];
    item_lanes.clear();
    const std::vector<int>& qs = items_.item_queries[i];
    if (qs.empty()) continue;
    items_.item_home_shard[i] = slots_[static_cast<size_t>(qs[0])].shard;
    for (int qi : qs) {
      item_lanes.push_back(slots_[static_cast<size_t>(qi)].shard);
    }
    std::sort(item_lanes.begin(), item_lanes.end());
    item_lanes.erase(std::unique(item_lanes.begin(), item_lanes.end()),
                     item_lanes.end());
  }
}

void Coordinator::AddQueryInfo(size_t qi) {
  if (trace_ == nullptr) return;
  obs::TraceQueryInfo info;
  info.query = queries_[qi].id;
  info.node = tnode_;
  info.shard = Lane(qi);
  info.qab = queries_[qi].qab;
  for (VarId v : queries_[qi].p.Variables()) {
    info.items.push_back(static_cast<int32_t>(v));
  }
  trace_->AddQueryInfo(std::move(info));
}

/// The fault protocol's tables, sized only in fault mode. A fresh
/// source's first heartbeat fires at tick 1 and its t=0 install counts as
/// contact.
void Coordinator::InitFaultTables() {
  if (!fault_mode_) return;
  const size_t ns = static_cast<size_t>(num_sources_);
  item_fault_.assign(n_items_, recovery::CheckpointItemFault{});
  source_fault_.assign(ns, recovery::CheckpointSource{});
  source_items_.resize(ns);
  for (size_t i = 0; i < n_items_; ++i) {
    if (!items_.item_queries[i].empty()) {
      source_items_[i % ns].push_back(static_cast<int>(i));
    }
  }
}

Status Coordinator::StartFresh() {
  items_.item_queries.resize(n_items_);
  for (size_t qi = 0; qi < queries_.size(); ++qi) {
    for (VarId v : queries_[qi].p.Variables()) {
      if (static_cast<size_t>(v) >= n_items_) {
        return Status::InvalidArgument(
            "query references item beyond trace set");
      }
      items_.item_queries[static_cast<size_t>(v)].push_back(
          static_cast<int>(qi));
    }
  }
  // With a single lane every query lands on lane 0 and the event loop
  // reduces to the historical serial coordinator bit-identically.
  slots_.resize(queries_.size());
  items_.item_shards.resize(n_items_);
  {
    core::QueryIndex qindex(queries_, n_items_);
    AssignLanes(config_.shard_policy == ShardPolicy::kQueryHash
                    ? qindex.ShardByQueryId(num_shards_)
                    : qindex.ShardByComponent(num_shards_));
  }
  items_.shard_free_at.assign(static_cast<size_t>(num_shards_), 0.0);

  // Tick 0: the initial snapshot every party starts in agreement on.
  Vector row;
  auto first = source_.Next(&row);
  if (!first.ok()) return first.status();
  if (!*first) return Status::InvalidArgument("trace too short");
  items_.source_value = row;
  items_.last_pushed = row;
  items_.view = row;
  InitFaultTables();

  // Initial planning: time zero, not counted as recomputation; the
  // initial filters are installed synchronously.
  plans_.resize(queries_.size());
  anchors_.resize(queries_.size());
  for (size_t qi = 0; qi < queries_.size(); ++qi) {
    auto plan =
        core::PlanQueryParts(queries_[qi], items_.view, rates_, planner_cfg_);
    if (!plan.ok()) {
      return Status::Internal("initial planning failed for query " +
                              std::to_string(queries_[qi].id) + ": " +
                              plan.status().ToString());
    }
    plans_[qi] = std::move(plan).value();
    anchors_[qi].resize(plans_[qi].parts.size());
    for (size_t pi = 0; pi < plans_[qi].parts.size(); ++pi) {
      AnchorPart(qi, pi);
    }
    if (config_.paranoid_validation) {
      Status valid = core::ValidatePlan(plans_[qi], items_.view);
      if (!valid.ok()) {
        return Status::Internal("plan validation failed for query " +
                                std::to_string(queries_[qi].id) + ": " +
                                valid.ToString());
      }
    }
  }
  IndexAllMinSources();
  items_.min_primary.resize(n_items_);
  items_.installed_dab.resize(n_items_);
  for (size_t i = 0; i < n_items_; ++i) {
    items_.min_primary[i] = ItemMinPrimary(i);
    items_.installed_dab[i] = items_.min_primary[i];
  }
  for (size_t qi = 0; qi < queries_.size(); ++qi) AddQueryInfo(qi);
  // Items no query uses keep an infinite width and never refresh, so
  // their installs are not recorded.
  for (size_t i = 0; i < n_items_; ++i) {
    if (std::isinf(items_.installed_dab[i])) continue;
    Emit({.kind = K::kDabChangeInstalled, .item = static_cast<int32_t>(i),
          .a = items_.installed_dab[i]});
  }
  // §I-B: each refresh pushes the query results whose QAB the change
  // would violate relative to what the user last saw.
  view_eval_.emplace(queries_, items_.view);
  for (size_t qi = 0; qi < queries_.size(); ++qi) {
    slots_[qi].last_user_value = view_eval_->QueryValue(qi);
  }
  return Status::OK();
}

/// Restart: reinstate the snapshot's records whole — the caller must hand
/// the same initial query set, and every width, fingerprint and mode the
/// snapshot carries is checked against this run first — then stage the
/// WAL replay. The t=0 solves, query infos and install events all live in
/// the crashed run's trace.
Status Coordinator::Restore() {
  const recovery::CheckpointState& ck = *ckpt_;
  if (ck.config_fp != config_fp_) {
    return Status::InvalidArgument(
        "restart: checkpoint was taken under a different engine config "
        "(fingerprint mismatch)");
  }
  if (static_cast<size_t>(ck.num_items) != n_items_) {
    return Status::InvalidArgument(
        "restart: checkpoint item count " + std::to_string(ck.num_items) +
        " != trace set width " + std::to_string(n_items_));
  }
  if (ck.num_sources != num_sources_) {
    return Status::InvalidArgument("restart: checkpoint source count mismatch");
  }
  if (ck.num_shards != num_shards_) {
    return Status::InvalidArgument("restart: checkpoint shard count mismatch");
  }
  if (ck.fault_mode != fault_mode_) {
    return Status::InvalidArgument(
        "restart: checkpoint fault-mode flag mismatch");
  }
  if (ck.queries.size() < queries_.size()) {
    return Status::InvalidArgument(
        "restart: checkpoint has fewer query slots than the initial "
        "workload");
  }
  // Only the prefix ids are checkable: churn may have modified bodies.
  for (size_t qi = 0; qi < queries_.size(); ++qi) {
    if (ck.queries[qi].id != queries_[qi].id) {
      return Status::InvalidArgument(
          "restart: initial query slot " + std::to_string(qi) +
          " id mismatch (checkpoint " + std::to_string(ck.queries[qi].id) +
          ", workload " + std::to_string(queries_[qi].id) + ")");
    }
  }
  const recovery::CheckpointItems& ci = ck.items;
  if (ci.item_queries.size() != n_items_ ||
      ci.item_home_shard.size() != n_items_ ||
      ci.item_shards.size() != n_items_) {
    return Status::InvalidArgument(
        "restart: checkpoint item-table width mismatch");
  }
  if (ci.source_value.size() != n_items_ ||
      ci.last_pushed.size() != n_items_ || ci.view.size() != n_items_) {
    return Status::InvalidArgument(
        "restart: checkpoint value-vector width mismatch");
  }
  if (ci.min_primary.size() != n_items_ ||
      ci.installed_dab.size() != n_items_) {
    return Status::InvalidArgument(
        "restart: checkpoint DAB-vector width mismatch");
  }
  if (ci.shard_free_at.size() != static_cast<size_t>(num_shards_)) {
    return Status::InvalidArgument(
        "restart: checkpoint lane-clock width mismatch");
  }
  if (fault_mode_) {
    if (ck.sources.size() != static_cast<size_t>(num_sources_)) {
      return Status::InvalidArgument(
          "restart: checkpoint source-table size mismatch");
    }
    if (ck.item_fault.size() != n_items_) {
      return Status::InvalidArgument(
          "restart: checkpoint item-fault table size mismatch");
    }
  } else if (!ck.sources.empty() || !ck.item_fault.empty()) {
    return Status::InvalidArgument(
        "restart: checkpoint carries fault tables but the fault layer "
        "is inactive");
  }

  // The slot vector: the initial queries plus any churn-registered slots.
  queries_.clear();
  Vector qvals;
  for (const recovery::CheckpointQuery& cq : ck.queries) {
    queries_.push_back(PolynomialQuery{cq.id, cq.poly, cq.qab});
    slots_.push_back(cq.slot);
    qvals.push_back(cq.query_value);
  }
  items_ = ci;
  static_cast<recovery::RunCounters&>(metrics_) = ck.metrics;
  InitFaultTables();
  if (fault_mode_) {
    source_fault_ = ck.sources;
    item_fault_ = ck.item_fault;
  }
  plans_.resize(queries_.size());
  anchors_.resize(queries_.size());
  for (const recovery::CheckpointPart& cp : ck.parts) {
    if (cp.slot < 0 || static_cast<size_t>(cp.slot) >= queries_.size()) {
      return Status::InvalidArgument(
          "restart: checkpoint part references slot " +
          std::to_string(cp.slot) + " out of range");
    }
    const size_t slot = static_cast<size_t>(cp.slot);
    if (static_cast<size_t>(cp.part) != plans_[slot].parts.size()) {
      return Status::InvalidArgument(
          "restart: checkpoint part records for slot " +
          std::to_string(cp.slot) + " out of order");
    }
    if (cp.primary.size() != cp.vars.size() ||
        cp.secondary.size() != cp.vars.size() ||
        cp.anchor.size() != cp.vars.size()) {
      return Status::InvalidArgument(
          "restart: checkpoint part DAB or anchor widths disagree with "
          "its variable list");
    }
    core::PlanPart part;
    part.subquery = PolynomialQuery{queries_[slot].id, cp.poly, cp.pqab};
    part.dabs.vars = cp.vars;
    part.dabs.primary = cp.primary;
    part.dabs.secondary = cp.secondary;
    part.dabs.recompute_rate = cp.recompute_rate;
    part.dabs.single_dab = cp.single_dab;
    part.dabs.never_stale = cp.never_stale;
    plans_[slot].parts.push_back(std::move(part));
    anchors_[slot].push_back(cp.anchor);
  }
  IndexAllMinSources();
  view_eval_.emplace(queries_, items_.view);
  view_eval_->RestoreState(items_.view, std::move(qvals),
                           ck.updates_since_rebase);
  if (ck.dqi_built) {
    // Replay membership: every slot is added in slot order, then the dead
    // ones removed. ComponentMin and the shard assignment are
    // content-determined, so the rebuilt index answers identically.
    EnsureDqi();
    for (size_t qi = 0; qi < queries_.size(); ++qi) {
      if (!slots_[qi].alive) dqi_->RemoveQuery(static_cast<int>(qi));
    }
  }
  events_.c = ck.events;
  POLYDAB_RETURN_NOT_OK(RestoreRng(ck.delay_rng, "delay", &delays_.rng()));
  POLYDAB_RETURN_NOT_OK(RestoreRng(ck.fault_rng, "fault", &faults_.rng()));
  if (config_.registry != nullptr) {
    for (const recovery::CheckpointInstrument& ins : ck.instruments) {
      if (ins.kind == 'c') {
        obs::Counter* c = config_.registry->GetCounter(ins.name);
        c->Add(ins.count - c->value());
      } else if (ins.kind == 'g') {
        config_.registry->GetGauge(ins.name)->Set(ins.value);
      } else {
        config_.registry->GetHistogram(ins.name)->RestoreState(
            ins.buckets, ins.count, ins.sum, ins.raw_min, ins.raw_max);
      }
    }
  } else if (!ck.instruments.empty()) {
    return Status::InvalidArgument(
        "restart: checkpoint carries registry instruments but the "
        "restart has no metric registry attached");
  }
  if (config_.service != nullptr) {
    POLYDAB_RETURN_NOT_OK(config_.service->RestoreState(ck.service_state));
  } else if (!ck.service_state.empty()) {
    return Status::InvalidArgument(
        "restart: checkpoint carries service-driver state but no "
        "service driver is attached");
  }
  if (trace_ != nullptr) {
    if (ck.trace_next_id == 0) {
      return Status::InvalidArgument(
          "restart: checkpoint was taken untraced but the restart has a "
          "trace sink");
    }
    // Continue event numbering where the snapshot left off, and hold
    // back query infos while replaying: the crashed trace already has
    // every info recorded before the crash.
    trace_->SetNextId(ck.trace_next_id);
    trace_->SuppressQueryInfos(true);
  } else if (ck.trace_next_id != 0) {
    return Status::InvalidArgument(
        "restart: checkpoint was taken traced but the restart has no "
        "trace sink");
  }
  ticks_seen_ = ck.ticks_seen;
  tick_refresh_base_ = metrics_.refreshes;
  tick_recompute_base_ = metrics_.recomputations;
  last_ckpt_end_id_ = ck.ckpt_end_id;
  return StageReplay();
}

/// Stage the replay: every WAL row after the snapshot and before the
/// crash marker, in tick order, gap-free.
Status Coordinator::StageReplay() {
  const int ckpt_tick = ckpt_->tick;
  crash_marker_ = recovery::LastCrashMarker(*rec_->wal);
  if (crash_marker_ == nullptr) {
    return Status::InvalidArgument(
        "restart: WAL has no crash marker (the crashed run did not "
        "terminate through the injector)");
  }
  if (crash_marker_->tick <= ckpt_tick) {
    return Status::InvalidArgument(
        "restart: WAL crash marker (tick " +
        std::to_string(crash_marker_->tick) +
        ") precedes the checkpoint (tick " + std::to_string(ckpt_tick) +
        "); checkpoint and WAL files disagree");
  }
  if (crash_marker_->cause != last_ckpt_end_id_) {
    return Status::InvalidArgument(
        "restart: WAL crash marker cites checkpoint_end id " +
        std::to_string(crash_marker_->cause) +
        " but the loaded snapshot's is " +
        std::to_string(last_ckpt_end_id_));
  }
  int expect = ckpt_tick + 1;
  for (const recovery::WalRecord& r : *rec_->wal) {
    if (r.kind != WalKind::kRow) continue;
    if (r.tick <= ckpt_tick || r.tick >= crash_marker_->tick) continue;
    if (r.tick != expect) {
      return Status::InvalidArgument(
          "restart: WAL rows are not contiguous (expected tick " +
          std::to_string(expect) + ", found tick " + std::to_string(r.tick) +
          ")");
    }
    if (r.values.size() != n_items_) {
      return Status::InvalidArgument(
          "restart: WAL row at tick " + std::to_string(r.tick) +
          " has width " + std::to_string(r.values.size()) + ", expected " +
          std::to_string(n_items_));
    }
    replay_rows_.push_back(&r);
    ++expect;
  }
  if (expect != crash_marker_->tick) {
    return Status::InvalidArgument(
        "restart: WAL is missing rows between the checkpoint (tick " +
        std::to_string(ckpt_tick) + ") and the crash (tick " +
        std::to_string(crash_marker_->tick) + ")");
  }
  replay_done_ = false;
  return Status::OK();
}

Result<SimMetrics> Coordinator::Run() {
  Vector row;
  for (int tick = ckpt_ != nullptr ? ckpt_->tick + 1 : 1;; ++tick) {
    Result<Row> got = NextRow(tick, &row);
    if (!got.ok()) return got.status();
    if (*got == Row::kEnd) break;
    if (*got == Row::kCrash) {
      // The partial metrics go back to the caller; rec->crashed tells
      // the tool this was the injector, not a normal end of trace.
      return metrics_;
    }
    POLYDAB_RETURN_NOT_OK(Tick(tick, row));
  }
  if (ticks_seen_ < 2) return Status::InvalidArgument("trace too short");
  return Finish();
}

/// The tick's source row: a logged row while a restart replays, else the
/// live source's next row, unless the crash injector fires first.
Result<Coordinator::Row> Coordinator::NextRow(int tick, Vector* row) {
  if (!replay_done_ && replay_idx_ >= replay_rows_.size()) {
    // WAL exhausted: this is exactly the crashed run's crash instant.
    // Re-emit the coord_crash replica — its id must reproduce the
    // marker's, a built-in replay-determinism self-check — then mark the
    // recovery boundary and fall through to live consumption.
    replay_done_ = true;
    if (trace_ != nullptr) {
      const double ct = static_cast<double>(tick);
      const uint64_t xid = EmitNow({.time = ct, .kind = K::kCoordCrash,
                                    .cause = last_ckpt_end_id_, .flag = tick});
      if (xid != crash_marker_->event_id) {
        return Status::Internal(
            "recovery replay diverged: coord_crash replica got event id " +
            std::to_string(xid) + " but the crashed run recorded " +
            std::to_string(crash_marker_->event_id));
      }
      Emit({.time = ct, .kind = K::kRecoveryReplay, .cause = xid,
            .a = static_cast<double>(replay_rows_.size()),
            .b = static_cast<double>(ckpt_->tick)});
      trace_->SuppressQueryInfos(false);
    }
  }
  if (!replay_done_) {
    const recovery::WalRecord* wr = replay_rows_[replay_idx_++];
    if (wr->tick != tick) {
      return Status::Internal("recovery replay desynchronized at tick " +
                              std::to_string(tick));
    }
    *row = wr->values;
    return Row::kLive;
  }
  if (rec_ != nullptr && rec_->crash_at_tick == tick) {
    // Injected coordinator crash: top of the tick, before the tick's row
    // is consumed, so the WAL's last row is tick - 1 and the restart
    // resumes by replaying up to exactly here.
    const uint64_t xid = EmitNow({.time = static_cast<double>(tick),
                                  .kind = K::kCoordCrash,
                                  .cause = last_ckpt_end_id_, .flag = tick});
    if (wal_file_ != nullptr) {
      recovery::AppendWal(wal_file_.get(),
                          {.kind = WalKind::kCrash, .tick = tick,
                           .event_id = xid, .cause = last_ckpt_end_id_});
      std::fflush(wal_file_.get());
    }
    rec_->crashed = true;
    rec_->crash_event_id = xid;
    return Row::kCrash;
  }
  auto more = source_.Next(row);
  if (!more.ok()) return more.status();
  if (!*more) return Row::kEnd;
  if (wal_file_ != nullptr) {
    recovery::AppendWal(wal_file_.get(),
                        {.kind = WalKind::kRow, .tick = tick, .values = *row});
  }
  return Row::kLive;
}

Status Coordinator::Tick(int tick, const Vector& row) {
  ++ticks_seen_;
  const double now = static_cast<double>(tick);

  // 1. Deliver everything that arrived since the last tick.
  POLYDAB_RETURN_NOT_OK(DeliverUntil(now));

  // 1a. Injected coordinator-lane stalls, after delivery: messages
  //     already in by `now` predate the stall.
  if (fault_mode_ && config_.fault.stall_prob > 0.0) InjectStalls(now);

  // 1b. Runtime churn, after message delivery and before source pushes,
  //     so a query registered this tick sees (and filters) this tick's
  //     values.
  if (config_.service != nullptr) {
    cur_tick_ = tick;
    cur_now_ = now;
    if (trace_ != nullptr) trace_->SetNow(now);
    POLYDAB_RETURN_NOT_OK(config_.service->OnTick(tick, now, *this));
  }

  // 2. Figure-7 mode: periodic joint AAO recomputation.
  if (aao_mode_ && tick >= aao_next_tick_) {
    POLYDAB_RETURN_NOT_OK(AaoSolve(now));
  }

  // 3. Sources advance to this tick's trace values and push filtered
  //    changes. Fault mode first settles which sources are down this
  //    tick, and afterwards runs the reliability protocol: timeout
  //    retransmissions and per-source heartbeats.
  if (fault_mode_ && config_.fault.crash_prob > 0.0) CrashSources(now);
  PushSources(row, now);
  if (fault_mode_) {
    Retransmit(now);
    Heartbeat(now);
  }

  // 3b. Zero-delay messages generated this tick arrive "instantly":
  //     deliver them before sampling fidelity so that a zero-delay
  //     network preserves Condition 1 exactly.
  POLYDAB_RETURN_NOT_OK(DeliverUntil(now));

  // 3c. Source leases.
  if (fault_mode_) ExpireLeases(now);

  // 4. Fidelity sample: is each query's QAB currently met at C?
  if (tick % config_.fidelity_stride == 0) SampleFidelity(now);

  // 5. Per-tick activity rates (events per simulated second).
  if (ins_.tick_refreshes != nullptr) {
    ins_.tick_refreshes->Record(
        static_cast<double>(metrics_.refreshes - tick_refresh_base_));
    ins_.tick_recomputations->Record(
        static_cast<double>(metrics_.recomputations - tick_recompute_base_));
    tick_refresh_base_ = metrics_.refreshes;
    tick_recompute_base_ = metrics_.recomputations;
  }

  // 6. Window closes happen here, at the tick boundary and outside any
  //    Emit, so SLO alert events carry time = the boundary and precede
  //    every later-timed event (the trace stays time-monotonic).
  if (config_.series != nullptr) config_.series->OnTickEnd(now);

  // 7. Durable checkpoint at the configured simulated-time cadence.
  //    `replay_done_` is always true by now (the replay span never
  //    contains a cadence tick, since the snapshot tick is itself the
  //    last cadence multiple before the crash), kept as a guard.
  if (rec_ != nullptr && !rec_->checkpoint_path.empty() && replay_done_ &&
      tick % rec_->interval_s == 0) {
    POLYDAB_RETURN_NOT_OK(Checkpoint(tick, now));
  }
  return Status::OK();
}

/// Deliver all messages with arrival time <= now. DAB-change events that
/// a recomputation emits at `now` (e.g. under zero delays) are picked up
/// within the same call. Non-OK only when a woken pool worker failed
/// (rt_fail_at): the service reports it as it closes its batch.
Status Coordinator::DeliverUntil(double now) {
  while (!events_.empty() && events_.top().time <= now) {
    const Event ev = events_.top();
    events_.pop();
    switch (ev.type) {
      case kDabChange:
        items_.installed_dab[static_cast<size_t>(ev.item)] = ev.value;
        Emit({.time = ev.time, .kind = K::kDabChangeInstalled, .item = ev.item,
              .cause = ev.trace_id, .a = ev.value});
        break;
      case kAckArrive: {
        // Source side: the ack clears the retransmit obligation for this
        // seq and anything older (a newer pending seq stays live).
        recovery::CheckpointItemFault& f =
            item_fault_[static_cast<size_t>(ev.item)];
        if (f.pending_live && ev.seq >= f.pending_seq) f.pending_live = false;
        break;
      }
      case kHeartbeat:
        // Liveness only: heartbeats cost the coordinator nothing and do
        // not queue behind lane work. Event.item carries the source id.
        RecordContact(ev.item, ev.time,
                      EmitNow({.time = ev.time, .kind = K::kHeartbeat,
                               .source = ev.item}));
        break;
      default:
        POLYDAB_RETURN_NOT_OK(ArriveRefresh(ev));
    }
  }
  return Status::OK();
}

/// A refresh reaching its item's home lane: queue behind the lane's
/// earlier work, suppress an already-delivered seq, else service it — the
/// §III-A.2 secondary-range check, recompute and §IV merge.
Status Coordinator::ArriveRefresh(const Event& ev) {
  // Each coordinator lane is a serial resource: a refresh that arrives
  // while its item's home lane is still busy waits in that lane's queue.
  // This queueing is what turns recomputation volume into fidelity loss
  // (§V-B.1); with one lane, every refresh waits for everything.
  const size_t item = static_cast<size_t>(ev.item);
  const int home = items_.item_home_shard[item];
  const size_t home_lane = static_cast<size_t>(home < 0 ? 0 : home);
  const double free_at = items_.shard_free_at[home_lane];
  if (ev.time < free_at) {
    Event deferred = ev;
    deferred.time = free_at;
    deferred.wait += free_at - ev.time;
    events_.push(deferred);
    return Status::OK();
  }
  const int32_t source = ev.item % num_sources_;
  const int32_t shard = sharded_ ? static_cast<int32_t>(home_lane) : -1;
  if (fault_mode_ && ev.seq != 0 &&
      ev.seq <= item_fault_[item].delivered_seq) {
    // An already-delivered seq (injected duplicate, or a retransmit that
    // raced its own ack): suppressed without the QAB-check cost, but
    // still a liveness contact, and re-acked in case the earlier ack was
    // the casualty.
    Count(metrics_.duplicates_suppressed, ins_.duplicates_suppressed);
    const uint64_t dup_id = EmitNow({.time = ev.time, .kind = K::kDupSuppressed,
                                     .source = source, .item = ev.item,
                                     .shard = shard, .cause = ev.trace_id,
                                     .a = ev.value,
                                     .flag = static_cast<int32_t>(ev.seq)});
    RecordContact(source, ev.time, dup_id);
    SendAck(ev.item, ev.seq, ev.time, dup_id);
    return Status::OK();
  }
  // Refresh processing begins. The full queue wait — summed across every
  // deferral — is recorded exactly once, now that it is known.
  if (ins_.queue_wait != nullptr && ev.wait > 0.0) {
    ins_.queue_wait->Record(ev.wait);
  }
  Count(metrics_.refreshes, ins_.refreshes);
  const uint64_t arrival_id = EmitNow({.time = ev.time,
                                       .kind = K::kRefreshArrived,
                                       .source = source, .item = ev.item,
                                       .shard = shard, .cause = ev.trace_id,
                                       .a = ev.value, .b = ev.wait,
                                       .flag = static_cast<int32_t>(ev.seq)});
  if (fault_mode_ && ev.seq != 0) {
    item_fault_[item].delivered_seq = ev.seq;
    RecordContact(source, ev.time, arrival_id);
    SendAck(ev.item, ev.seq, ev.time, arrival_id);
  }
  std::fill(lane_busy_.begin(), lane_busy_.end(), 0.0);
  pre_free_ = items_.shard_free_at;
  std::fill(barrier_lane_.begin(), barrier_lane_.end(), 0);
  barrier_any_ = false;
  lane_busy_[home_lane] = delays_.Check();
  items_.view[item] = ev.value;
  view_eval_->Update(static_cast<VarId>(ev.item), ev.value);
  CollectStaleParts(ev);
  POLYDAB_RETURN_NOT_OK(NotifyAndInstall(ev, arrival_id));
  SettleLanes(ev.time, home_lane);
  return Status::OK();
}

/// Pass 1, the service's one staleness walk: visit the parts this refresh
/// makes stale in oracle order, with no RNG draw and no emission. Stale
/// parts are grouped by bitwise-equal solve inputs (core::SameReplanInputs;
/// the hash only picks candidates) and each group's leader is solved once.
/// The groups form one batch of the worker pool, claimed in group order:
/// when there is more than one, Open wakes workers that claim and solve
/// groups until none is left, and pass 2 claims alongside. Solvers read
/// the view, the rates and the leader part concurrently; the event loop
/// mutates none of them until the group is done. A part's anchors and
/// secondary DABs only move at its own install and each part is stale at
/// most once per service, so the set pass 1 records is the set pass 2
/// installs.
void Coordinator::CollectStaleParts(const Event& ev) {
  const std::vector<int>& item_qs =
      items_.item_queries[static_cast<size_t>(ev.item)];
  solve_groups_.clear();
  stale_parts_.clear();
  for (size_t k = 0; k < item_qs.size(); ++k) {
    const size_t qi = static_cast<size_t>(item_qs[k]);
    core::QueryPlan& plan = plans_[qi];
    for (size_t pi = 0; pi < plan.parts.size(); ++pi) {
      core::PlanPart& part = plan.parts[pi];
      const int idx = part.dabs.IndexOf(static_cast<VarId>(ev.item));
      if (idx < 0) continue;
      // Value-independent assignments (LAQs) never go stale.
      if (part.dabs.never_stale) continue;
      // Single-DAB schemes are stale on every refresh; Dual-DAB only once
      // the value escapes the part's secondary range.
      double anchor = 0.0;
      if (!recompute_every_refresh_) {
        anchor = anchors_[qi][pi][static_cast<size_t>(idx)];
        const double drift = std::fabs(ev.value - anchor);
        const double limit = part.dabs.secondary[static_cast<size_t>(idx)] *
                             (1.0 + config_.violation_tol);
        if (drift <= limit) continue;
      }
      const uint64_t hash = core::ReplanInputsHash(part);
      size_t g = 0;
      while (g < solve_groups_.size() &&
             !(solve_groups_[g].hash == hash &&
               core::SameReplanInputs(*solve_groups_[g].leader, part))) {
        ++g;
      }
      stale_parts_.push_back({k, pi, static_cast<size_t>(idx), anchor, g});
      if (g < solve_groups_.size()) {
        solve_groups_[g].shared = true;
        continue;
      }
      SolveGroup& group = solve_groups_.emplace_back();
      group.leader = &part;
      group.hash = hash;
    }
  }
  pool_.Open(solve_groups_.size(),
             [this](size_t g) {
               solve_groups_[g].Solve(items_.view, rates_, solve_cfg_);
             },
             config_.rt_fail_at);
}

/// Pass 2: notify users, then install pass 1's stale parts in the order
/// it found them.
Status Coordinator::NotifyAndInstall(const Event& ev, uint64_t arrival_id) {
  const std::vector<int>& item_qs =
      items_.item_queries[static_cast<size_t>(ev.item)];
  size_t next_stale = 0;
  for (size_t k = 0; k < item_qs.size(); ++k) {
    const size_t qi = static_cast<size_t>(item_qs[k]);
    recovery::QuerySlot& slot = slots_[qi];
    const size_t lane = static_cast<size_t>(slot.shard);
    const int32_t query = queries_[qi].id;
    // Push the fresh result to the user when it drifted past the QAB
    // since the last notification.
    const double qv = view_eval_->QueryValue(qi);
    const double prev_user = slot.last_user_value;
    if (std::fabs(qv - prev_user) > queries_[qi].qab) {
      slot.last_user_value = qv;
      Count(metrics_.user_notifications, ins_.user_notifications);
      Emit({.time = ev.time, .kind = K::kUserNotification, .item = ev.item,
            .query = query, .shard = Lane(qi), .cause = arrival_id, .a = qv,
            .b = prev_user});
      lane_busy_[lane] += delays_.Push();
    }
    for (; next_stale < stale_parts_.size() && stale_parts_[next_stale].k == k;
         ++next_stale) {
      const StalePart& sp = stale_parts_[next_stale];
      const int32_t pi = static_cast<int32_t>(sp.pi);
      core::PlanPart& part = plans_[qi].parts[sp.pi];
      // Under Dual-DAB the recomputation's cause is the secondary
      // violation; under single-DAB staleness it is the arrival itself.
      uint64_t cause = arrival_id;
      if (!recompute_every_refresh_) {
        cause = Emit({.time = ev.time, .kind = K::kSecondaryViolation,
                      .item = ev.item, .query = query, .part = pi,
                      .shard = Lane(qi), .cause = arrival_id, .a = ev.value,
                      .b = sp.anchor, .c = part.dabs.secondary[sp.idx]});
      }
      // This part's assignment is stale (§I-B): recompute it, warm-started
      // from the previous assignment.
      Count(metrics_.recomputations, ins_.recomputations);
      if (ins_.recomputations != nullptr) {
        (recompute_every_refresh_ ? ins_.cause_single_dab_staleness
                                  : ins_.cause_secondary_escape)
            ->Inc();
      }
      const uint64_t start_id = Emit({.time = ev.time,
                                      .kind = K::kRecomputeStart,
                                      .item = ev.item, .query = query,
                                      .part = pi, .shard = Lane(qi),
                                      .cause = cause});
      lane_busy_[lane] += delays_.RecomputeCpu();
      // The group's done flag is the only synchronization a result needs
      // before its install; until it is set, the event loop solves the
      // next unclaimed group itself. A part other than its group's leader
      // installs a copy of the leader's result — exact, because
      // ReplanPart is a pure function of the inputs the group shares plus
      // the view and rates every solve of this service reads.
      pool_.Await(sp.group);
      SolveGroup& group = solve_groups_[sp.group];
      Result<QueryDabs> fresh =
          group.leader != &part
              ? core::ReplanPartByCopy(part, group.result, group.solve,
                                       planner_cfg_)
          : group.shared ? Result<QueryDabs>(group.result)
                         : std::move(group.result);
      core::TraceReplan(planner_cfg_, part, fresh.ok());
      const uint64_t end_id = Emit({.time = ev.time, .kind = K::kRecomputeEnd,
                                    .item = ev.item, .query = query, .part = pi,
                                    .shard = Lane(qi), .cause = start_id,
                                    .flag = fresh.ok() ? 1 : 0});
      if (!fresh.ok()) {
        Count(metrics_.solver_failures, ins_.solver_failures);
        continue;  // keep the stale plan; better than none
      }
      part.dabs = std::move(fresh).value();
      if (config_.paranoid_validation) {
        // Only the freshly replanned part is anchored at the current
        // view; sibling parts keep their own (older) anchors.
        Status valid = core::ValidatePart(part, items_.view);
        POLYDAB_CHECK(valid.ok());
      }
      AnchorPart(qi, sp.pi);
      ShipDabChanges(qi, sp.pi, ev.time, end_id, /*emit_item_barriers=*/true);
    }
  }
  // Every group is done; Close waits out the workers still looking for
  // one and reports an rt_fail_at abort.
  return pool_.Close();
}

/// End of service: the home lane ran from the arrival; a lane that got
/// work dispatched from here starts once it drains its own earlier work.
/// Lanes a barrier joined then advance together.
void Coordinator::SettleLanes(double t, size_t home_lane) {
  std::vector<double>& free_at = items_.shard_free_at;
  free_at[home_lane] = t + lane_busy_[home_lane];
  if (!sharded_) return;
  for (size_t s = 0; s < free_at.size(); ++s) {
    if (s == home_lane || lane_busy_[s] == 0.0) continue;
    const double start = std::max(t, pre_free_[s]);
    if (ins_.shard_dispatch_wait != nullptr && start > t) {
      ins_.shard_dispatch_wait->Record(start - t);
    }
    free_at[s] = start + lane_busy_[s];
  }
  if (!barrier_any_) return;
  double joined = 0.0;
  for (size_t s = 0; s < free_at.size(); ++s) {
    if (barrier_lane_[s] != 0) joined = std::max(joined, free_at[s]);
  }
  for (size_t s = 0; s < free_at.size(); ++s) {
    if (barrier_lane_[s] != 0) free_at[s] = joined;
  }
}

/// Figure 7's AAO-T mode: every query's DABs recomputed jointly.
Status Coordinator::AaoSolve(double now) {
  aao_next_tick_ +=
      std::max<int64_t>(1, static_cast<int64_t>(config_.aao_period_s));
  if (trace_ != nullptr) trace_->SetNow(now);
  auto joint = core::SolveAao(queries_, items_.view, rates_, planner_cfg_.dual,
                              have_aao_ ? &last_aao_ : nullptr);
  const uint64_t aao_id = Emit({.time = now, .kind = K::kAaoSolve,
                                .a = static_cast<double>(queries_.size()),
                                .flag = joint.ok() ? 1 : 0});
  if (!joint.ok()) {
    Count(metrics_.solver_failures, ins_.solver_failures);
    return Status::OK();
  }
  last_aao_ = *joint;
  have_aao_ = true;
  if (sharded_) {
    // The joint solve reads and replaces every query's plan: one global
    // barrier joins every lane before any filter ships.
    std::vector<double>& free_at = items_.shard_free_at;
    double joined = now;
    for (double f : free_at) joined = std::max(joined, f);
    if (ins_.shard_barriers != nullptr) ins_.shard_barriers->Inc();
    Emit({.time = now, .kind = K::kShardBarrier, .cause = aao_id, .a = joined,
          .b = static_cast<double>(free_at.size())});
    free_at.assign(free_at.size(), joined);
  }
  for (size_t qi = 0; qi < queries_.size(); ++qi) {
    Count(metrics_.recomputations, ins_.recomputations);
    if (ins_.cause_aao_periodic != nullptr) ins_.cause_aao_periodic->Inc();
    const obs::TraceEvent start{.time = now, .kind = K::kRecomputeStart,
                                .query = queries_[qi].id, .part = 0,
                                .shard = Lane(qi), .cause = aao_id};
    obs::TraceEvent end = start;
    end.kind = K::kRecomputeEnd;
    end.cause = Emit(start);
    end.flag = 1;  // the joint solve already succeeded
    Emit(end);
    plans_[qi].parts.assign(1,
                            core::PlanPart{queries_[qi], joint->per_query[qi]});
    anchors_[qi].resize(1);
    AnchorPart(qi, 0);
  }
  IndexAllMinSources();
  for (size_t qi = 0; qi < queries_.size(); ++qi) {
    ShipDabChanges(qi, 0, now, aao_id, /*emit_item_barriers=*/false);
  }
  return Status::OK();
}

void Coordinator::PushSources(const Vector& row, double now) {
  for (size_t item = 0; item < n_items_; ++item) {
    items_.source_value[item] = row[item];
    const double dab = items_.installed_dab[item];
    if (std::isinf(dab)) continue;  // item unused by any query
    const double value = items_.source_value[item];
    if (!(std::fabs(value - items_.last_pushed[item]) > dab)) continue;
    const size_t src = item % static_cast<size_t>(num_sources_);
    int64_t seq = 0;
    if (fault_mode_) {
      // A crashed source neither pushes nor records the value as pushed:
      // the drift persists, so recovery pushes immediately.
      if (source_fault_[src].crashed_until > now) continue;
      seq = item_fault_[item].next_seq++;
    }
    const uint64_t emit_id = Emit({.time = now, .kind = K::kRefreshEmitted,
                                   .source = static_cast<int32_t>(src),
                                   .item = static_cast<int32_t>(item),
                                   .a = value, .b = dab,
                                   .c = items_.last_pushed[item],
                                   .flag = static_cast<int32_t>(seq)});
    items_.last_pushed[item] = value;
    if (fault_mode_) {
      // Register the retransmit obligation before the send: the source
      // cannot know the copy will be lost.
      recovery::CheckpointItemFault& f = item_fault_[item];
      f.pending_live = true;
      f.pending_seq = seq;
      f.pending_value = value;
      f.pending_emit_id = emit_id;
      f.pending_next_retx = now + config_.fault.retx_timeout_s;
      f.pending_attempts = 0;
      SendData(item, value, seq, emit_id, /*klass=*/0, now);
    } else {
      const double delay = delays_.Push() + delays_.Network();
      if (ins_.message_delay != nullptr) ins_.message_delay->Record(delay);
      events_.push(Event{now + delay, kRefresh, static_cast<int>(item), value,
                         emit_id, 0.0});
    }
  }
}

void Coordinator::SampleFidelity(double now) {
  const int stride = config_.fidelity_stride;
  int64_t sampled = 0;
  for (size_t qi = 0; qi < queries_.size(); ++qi) {
    recovery::QuerySlot& slot = slots_[qi];
    // Deregistered queries owe no fidelity (their slots persist only for
    // index stability).
    if (!slot.alive) continue;
    ++sampled;
    const bool degraded = fault_mode_ && slot.degraded_items > 0;
    if (degraded) {
      metrics_.degraded_query_seconds += static_cast<double>(stride);
      if (ins_.degraded_query_seconds != nullptr) {
        ins_.degraded_query_seconds->Add(stride);
      }
    }
    const PolynomialQuery& q = queries_[qi];
    const double at_source = q.p.Evaluate(items_.source_value);
    const double at_coord = view_eval_->QueryValue(qi);
    if (!(std::fabs(at_source - at_coord) >
          q.qab * (1.0 + config_.violation_tol))) {
      continue;
    }
    slot.violated_time += stride;
    if (trace_ == nullptr) continue;
    obs::TraceEvent e{.time = now, .kind = K::kFidelityViolation, .query = q.id,
                      .a = at_source, .b = at_coord, .c = q.qab};
    if (degraded) {
      // flag 1: the query is in declared-degraded service; the violation
      // is covered by the degradation announcement.
      e.flag = 1;
      e.cause = slot.degrade_event;
    } else if (fault_mode_) {
      // flag 2: a concrete fault explains the stale view. The
      // deterministic blame scan (first item in Variables() order whose
      // source is mid-crash, else whose newest loss is still undelivered)
      // is mirrored exactly by the offline verifier. flag stays 0 for
      // benign violations (message in flight, stale plan after solver
      // failure).
      for (VarId v : q.p.Variables()) {
        const size_t it = static_cast<size_t>(v);
        const recovery::CheckpointSource& src =
            source_fault_[it % static_cast<size_t>(num_sources_)];
        const recovery::CheckpointItemFault& f = item_fault_[it];
        if (src.crashed_until > now || f.drop_seq > f.delivered_seq) {
          e.flag = 2;
          e.cause = src.crashed_until > now ? src.crash_event : f.drop_eid;
          break;
        }
      }
    }
    Emit(e);
  }
  if (config_.series != nullptr) config_.series->AddFidelitySamples(sampled);
}

/// Durable checkpoint (docs/RECOVERY.md), taken at the tick boundary —
/// the lane pool holds no in-flight work between ticks, so the snapshot is
/// a consistent cut even under threads > 0 — and bracketed by
/// checkpoint_begin / checkpoint_end events whose ids the snapshot itself
/// records; the restart continues numbering after them.
Status Coordinator::Checkpoint(int tick, double now) {
  const uint64_t begin_id = EmitNow({.time = now, .kind = K::kCheckpointBegin,
                                     .a = static_cast<double>(tick)});
  const uint64_t end_id = begin_id == 0 ? 0 : begin_id + 1;
  POLYDAB_RETURN_NOT_OK(recovery::WriteCheckpoint(
      BuildCheckpoint(tick, end_id), rec_->checkpoint_path));
  if (wal_file_ != nullptr) std::fflush(wal_file_.get());
  if (trace_ != nullptr &&
      Emit({.time = now, .kind = K::kCheckpointEnd, .cause = begin_id}) !=
          end_id) {
    return Status::Internal(
        "checkpoint events interleaved with a concurrent emission");
  }
  last_ckpt_end_id_ = end_id;
  return Status::OK();
}

/// The coordinator's full mutable state at the end of \p tick. `end_id`
/// is the id the checkpoint_end event will get (0 untraced); the restart
/// resumes event numbering at end_id + 1.
recovery::CheckpointState Coordinator::BuildCheckpoint(int tick,
                                                       uint64_t end_id) {
  recovery::CheckpointState snap;
  snap.tick = tick;
  snap.ticks_seen = ticks_seen_;
  snap.config_fp = config_fp_;
  snap.num_items = static_cast<int>(n_items_);
  snap.num_sources = num_sources_;
  snap.num_shards = num_shards_;
  snap.trace_next_id = end_id == 0 ? 0 : end_id + 1;
  snap.ckpt_end_id = end_id;
  snap.fault_mode = fault_mode_;
  snap.dqi_built = dqi_ != nullptr;
  snap.updates_since_rebase = view_eval_->updates_since_rebase();
  snap.metrics = metrics_;
  snap.queries.reserve(queries_.size());
  for (size_t qi = 0; qi < queries_.size(); ++qi) {
    const PolynomialQuery& q = queries_[qi];
    snap.queries.push_back(
        {q.id, q.qab, q.p, slots_[qi], view_eval_->QueryValue(qi)});
  }
  for (size_t qi = 0; qi < queries_.size(); ++qi) {
    for (size_t pi = 0; pi < plans_[qi].parts.size(); ++pi) {
      const core::PlanPart& part = plans_[qi].parts[pi];
      snap.parts.push_back({static_cast<int>(qi), static_cast<int>(pi),
                            part.subquery.p, part.subquery.qab,
                            part.dabs.vars, part.dabs.primary,
                            part.dabs.secondary, part.dabs.recompute_rate,
                            part.dabs.single_dab, part.dabs.never_stale,
                            anchors_[qi][pi]});
    }
  }
  snap.items = items_;
  snap.events = events_.c;
  snap.sources = source_fault_;
  snap.item_fault = item_fault_;
  if (config_.registry != nullptr) {
    for (const obs::MetricRegistry::Entry& en : config_.registry->Entries()) {
      recovery::CheckpointInstrument ci;
      ci.name = en.name;
      switch (en.kind) {
        case obs::InstrumentKind::kCounter:
          ci.kind = 'c';
          ci.count = en.counter->value();
          break;
        case obs::InstrumentKind::kGauge:
          ci.kind = 'g';
          ci.value = en.gauge->value();
          break;
        case obs::InstrumentKind::kHistogram:
          ci.kind = 'h';
          en.histogram->SnapshotState(&ci.buckets, &ci.count, &ci.sum,
                                      &ci.raw_min, &ci.raw_max);
          break;
      }
      snap.instruments.push_back(std::move(ci));
    }
  }
  std::ostringstream delay_rng, fault_rng;
  delay_rng << delays_.rng().engine();
  fault_rng << faults_.rng().engine();
  snap.delay_rng = delay_rng.str();
  snap.fault_rng = fault_rng.str();
  if (config_.service != nullptr) {
    snap.service_state = config_.service->SnapshotState();
  }
  return snap;
}

SimMetrics Coordinator::Finish() {
  // Per-query fidelity loss over the query's own registration interval:
  // sampled ticks run from max(reg, 1) through min(dereg - 1, last tick).
  // For a query registered at tick 0 and never deregistered this is the
  // historical ticks - 1 denominator, bit for bit. A query whose interval
  // contains no sampled tick contributes zero loss.
  double loss_sum = 0.0;
  for (const recovery::QuerySlot& slot : slots_) {
    const int first = std::max(slot.reg_tick, 1);
    const int last = slot.dereg_tick < 0
                         ? ticks_seen_ - 1
                         : std::min(slot.dereg_tick - 1, ticks_seen_ - 1);
    const int denom = last - first + 1;
    if (denom <= 0) continue;
    loss_sum += 100.0 * slot.violated_time / static_cast<double>(denom);
  }
  metrics_.mean_fidelity_loss_pct =
      loss_sum / static_cast<double>(queries_.size());
  if (obs::MetricRegistry* reg = config_.registry; reg != nullptr) {
    reg->GetGauge("sim.run.queries")
        ->Set(static_cast<double>(queries_.size()));
    reg->GetGauge("sim.run.items")->Set(static_cast<double>(n_items_));
    reg->GetGauge("sim.run.ticks")->Set(static_cast<double>(ticks_seen_));
    reg->GetGauge("sim.run.coord_shards")
        ->Set(static_cast<double>(num_shards_));
    reg->GetGauge("sim.fidelity.mean_loss_pct")
        ->Set(metrics_.mean_fidelity_loss_pct);
  }
  if (config_.series != nullptr) {
    // Close the trailing partial window and write the series totals.
    // After the end-of-run gauges above, so the final window's registry
    // samples capture them.
    config_.series->Finalize(static_cast<double>(ticks_seen_ - 1));
  }
  if (trace_ != nullptr) {
    // Trailing self-description: the replay verifier re-derives each of
    // these fields from the raw events and demands exact equality.
    obs::TraceRunSummary s;
    s.node = tnode_;
    s.queries = static_cast<int64_t>(queries_.size());
    s.ticks = ticks_seen_;
    s.fidelity_stride = config_.fidelity_stride;
    s.violation_tol = config_.violation_tol;
    s.refreshes = metrics_.refreshes;
    s.recomputations = metrics_.recomputations;
    s.dab_change_messages = metrics_.dab_change_messages;
    s.user_notifications = metrics_.user_notifications;
    s.solver_failures = metrics_.solver_failures;
    s.mean_fidelity_loss_pct = metrics_.mean_fidelity_loss_pct;
    s.fault_drops = metrics_.fault_drops;
    s.retransmits = metrics_.retransmits;
    s.duplicates_suppressed = metrics_.duplicates_suppressed;
    s.lease_expiries = metrics_.lease_expiries;
    s.degraded_query_seconds = metrics_.degraded_query_seconds;
    trace_->AddRunSummary(s);
  }
  return metrics_;
}

/// Where \p item's primary widths live: every part of every plan that
/// references it, in the order the item's query list and each plan's
/// parts are walked.
void Coordinator::ScanMinSources(size_t item,
                                 std::vector<MinSource>* out) const {
  out->clear();
  for (int qi : items_.item_queries[item]) {
    const std::vector<core::PlanPart>& parts =
        plans_[static_cast<size_t>(qi)].parts;
    for (size_t pi = 0; pi < parts.size(); ++pi) {
      const int idx = parts[pi].dabs.IndexOf(static_cast<VarId>(item));
      if (idx >= 0) out->push_back({qi, static_cast<int>(pi), idx});
    }
  }
}

/// Rebuild the index of \p items after their query lists or the shape of
/// one of their queries' plans changed. A replan keeps a part's variables,
/// so an install needs no update.
void Coordinator::IndexMinSources(const std::vector<VarId>& items) {
  for (VarId v : items) {
    const size_t item = static_cast<size_t>(v);
    ScanMinSources(item, &min_sources_[item]);
  }
}

void Coordinator::IndexAllMinSources() {
  min_sources_.resize(n_items_);
  for (size_t i = 0; i < n_items_; ++i) ScanMinSources(i, &min_sources_[i]);
}

/// Paranoid validation, before every merge an install or a churn op
/// ships: the index of \p items must list exactly what a brute-force walk
/// finds, in walk order, so the indexed minimum equals the scan's bit for
/// bit.
void Coordinator::CheckMinSources(const std::vector<VarId>& items) const {
  if (!config_.paranoid_validation) return;
  std::vector<MinSource> scan;
  for (VarId v : items) {
    const size_t item = static_cast<size_t>(v);
    ScanMinSources(item, &scan);
    POLYDAB_CHECK(scan == min_sources_[item]);
  }
}

/// Minimum primary DAB for one item across every part of every plan that
/// references it (the EQI merge of §IV), read through the index. The
/// minimum runs over the scan's values in the scan's order, so it is the
/// scan's result exactly.
double Coordinator::ItemMinPrimary(size_t item) const {
  double m = kInf;
  for (const MinSource& src : min_sources_[item]) {
    const core::PlanPart& part =
        plans_[static_cast<size_t>(src.slot)].parts[static_cast<size_t>(
            src.part)];
    m = std::min(m, part.dabs.primary[static_cast<size_t>(src.var)]);
  }
  return m;
}

void Coordinator::AnchorPart(size_t qi, size_t pi) {
  const std::vector<VarId>& vars = plans_[qi].parts[pi].dabs.vars;
  Vector& anchor = anchors_[qi][pi];
  anchor.resize(vars.size());
  for (size_t i = 0; i < vars.size(); ++i) {
    anchor[i] = items_.view[static_cast<size_t>(vars[i])];
  }
}

/// After part (qi, pi) was replanned at time `now`, refresh the EQI merge
/// over its items and ship changed filters to the sources. `cause_id`
/// links each sent filter to the recompute_end / aao_solve trace event
/// that produced it. When a merged item's queries span several lanes, the
/// merge reads plans owned by other lanes, so a shard barrier joins them
/// first; the AAO path passes `emit_item_barriers` = false because it
/// already synchronized every lane through one global barrier.
void Coordinator::ShipDabChanges(size_t qi, size_t pi, double now,
                                 uint64_t cause_id, bool emit_item_barriers) {
  CheckMinSources(plans_[qi].parts[pi].dabs.vars);
  for (VarId v : plans_[qi].parts[pi].dabs.vars) {
    const size_t item = static_cast<size_t>(v);
    const double fresh = ItemMinPrimary(item);
    const double old_width = items_.min_primary[item];
    if (!(std::fabs(fresh - old_width) > 1e-9 * std::max(1.0, old_width))) {
      continue;
    }
    items_.min_primary[item] = fresh;
    const std::vector<int>& lanes = items_.item_shards[item];
    if (emit_item_barriers && sharded_ && lanes.size() > 1) {
      double bt = now;
      for (int s : lanes) {
        bt = std::max(bt, pre_free_[static_cast<size_t>(s)]);
        barrier_lane_[static_cast<size_t>(s)] = 1;
      }
      barrier_any_ = true;
      if (ins_.shard_barriers != nullptr) ins_.shard_barriers->Inc();
      Emit({.time = now, .kind = K::kShardBarrier,
            .item = static_cast<int32_t>(item), .cause = cause_id, .a = bt,
            .b = static_cast<double>(lanes.size())});
    }
    ShipFilter(item, fresh, old_width, now, cause_id, queries_[qi].id,
               static_cast<int32_t>(pi), Lane(qi));
  }
}

/// Refresh the EQI merge over \p items after a churn op and ship changed
/// filters. Like ShipDabChanges, minus barrier emission: a churn op is a
/// control-plane transaction whose lane-time charge already covers the
/// repartition, and the merge here runs against the post-transaction
/// partition. An item whose last query departed is retired silently —
/// the coordinator drops the subscription in the same transaction, so no
/// filter message crosses the network.
void Coordinator::ShipChurnChanges(const std::vector<VarId>& items,
                                   uint64_t cause_id, int q_id, int q_lane) {
  CheckMinSources(items);
  for (VarId v : items) {
    const size_t item = static_cast<size_t>(v);
    const double fresh =
        items_.item_queries[item].empty() ? kInf : ItemMinPrimary(item);
    const double old_width = items_.min_primary[item];
    const bool changed =
        std::isinf(fresh) != std::isinf(old_width) ||
        (!std::isinf(fresh) &&
         std::fabs(fresh - old_width) > 1e-9 * std::max(1.0, old_width));
    if (!changed) continue;
    items_.min_primary[item] = fresh;
    if (std::isinf(fresh)) {
      items_.installed_dab[item] = kInf;
      continue;
    }
    const bool by_query = q_id >= 0;  // a deregistration ships unowned
    ShipFilter(item, fresh, old_width, cur_now_, cause_id,
               by_query ? q_id : -1, -1, sharded_ && by_query ? q_lane : -1);
  }
}

/// Send one filter-change message for \p item: count it, draw its delay
/// and queue its install. A previously retired item has an infinite old
/// width, recorded as 0 so the serialized trace stays finite.
void Coordinator::ShipFilter(size_t item, double fresh, double old_width,
                             double now, uint64_t cause_id, int32_t query,
                             int32_t part, int32_t shard) {
  Count(metrics_.dab_change_messages, ins_.dab_change_messages);
  const double delay = delays_.Check() + delays_.Network();
  if (ins_.message_delay != nullptr) ins_.message_delay->Record(delay);
  const uint64_t sent_id =
      Emit({.time = now, .kind = K::kDabChangeSent,
            .item = static_cast<int32_t>(item), .query = query, .part = part,
            .shard = shard, .cause = cause_id, .a = fresh,
            .b = std::isinf(old_width) ? 0.0 : old_width});
  events_.push(Event{now + delay, kDabChange, static_cast<int>(item), fresh,
                     sent_id, 0.0});
}

/// Send one data-refresh copy (klass 0: first copy, 1: retransmit)
/// through the fault layer. The first copy draws its delay from the main
/// stream — exactly the draws a fault-free run makes — so protocol_only
/// runs keep the data path's timings; retransmit copies and all injected
/// extras draw from the fault stream.
void Coordinator::SendData(size_t item, double value, int64_t seq,
                           uint64_t emit_id, int klass, double now) {
  if (faults_.DropMessage()) {
    Count(metrics_.fault_drops, ins_.fault_drops);
    // Per-item send seqs are non-decreasing (pending holds only the
    // latest), so this drop is the item's newest outstanding loss.
    item_fault_[item].drop_seq = seq;
    item_fault_[item].drop_eid =
        Emit({.time = now, .kind = K::kFaultDrop,
              .source = static_cast<int32_t>(item) % num_sources_,
              .item = static_cast<int32_t>(item), .cause = emit_id, .a = value,
              .b = static_cast<double>(klass),
              .flag = static_cast<int32_t>(seq)});
    return;
  }
  double delay = klass == 0 ? delays_.Push() + delays_.Network()
                            : faults_.ProtocolDelay(config_.delays);
  delay += faults_.ExtraDelay();
  if (ins_.message_delay != nullptr) ins_.message_delay->Record(delay);
  if (klass == 0 && faults_.DuplicateMessage()) {
    // The duplicate copy races the original on its own delay draw.
    const double dup_delay =
        faults_.ProtocolDelay(config_.delays) + faults_.ExtraDelay();
    events_.push(Event{now + dup_delay, kRefresh, static_cast<int>(item),
                       value, emit_id, 0.0, seq});
  }
  events_.push(Event{now + delay, kRefresh, static_cast<int>(item), value,
                     emit_id, 0.0, seq});
}

/// The coordinator acks delivered (or suppressed-duplicate) seq `seq` of
/// `item` back to its source; the ack itself can be dropped.
void Coordinator::SendAck(int item, int64_t seq, double now,
                          uint64_t cause_id) {
  const uint64_t ack_id = Emit({.time = now, .kind = K::kAck, .item = item,
                                .cause = cause_id,
                                .flag = static_cast<int32_t>(seq)});
  // Audit record only: restart replay regenerates acks deterministically
  // from the rows, so the loader never feeds these back.
  if (wal_file_ != nullptr && replay_done_) {
    recovery::AppendWal(wal_file_.get(), {.kind = WalKind::kAck, .time = now,
                                          .item = item, .seq = seq});
  }
  if (faults_.DropMessage()) {
    Count(metrics_.fault_drops, ins_.fault_drops);
    Emit({.time = now,
          .kind = K::kFaultDrop,
          .source = item % num_sources_,
          .item = item,
          .cause = ack_id,
          .b = 2.0,  // message class: ack
          .flag = static_cast<int32_t>(seq)});
    return;
  }
  events_.push(Event{now + faults_.ProtocolDelay(config_.delays) +
                         faults_.ExtraDelay(),
                     kAckArrive, item, 0.0, ack_id, 0.0, seq});
}

/// Contact from source `s` observed at the coordinator (a delivered or
/// suppressed refresh, or a heartbeat): refresh the lease and recover any
/// of the source's items whose lease had lapsed. A query leaves degraded
/// service once every one of its expired items recovered.
void Coordinator::RecordContact(int s, double t, uint64_t cid) {
  const size_t ss = static_cast<size_t>(s);
  source_fault_[ss].last_contact = t;
  source_fault_[ss].contact_event = cid;
  for (int item : source_items_[ss]) {
    recovery::CheckpointItemFault& f = item_fault_[static_cast<size_t>(item)];
    if (!f.expired) continue;
    f.expired = false;
    f.expire_event = 0;
    for (int qi : items_.item_queries[static_cast<size_t>(item)]) {
      recovery::QuerySlot& slot = slots_[static_cast<size_t>(qi)];
      if (--slot.degraded_items != 0) continue;
      Emit({.time = t, .kind = K::kRecover, .source = s,
            .query = queries_[static_cast<size_t>(qi)].id, .cause = cid});
      slot.degrade_event = 0;
    }
  }
}

/// Injected coordinator-lane stalls: the lane's busy-until clock jumps
/// forward, so queued refreshes defer behind the outage.
void Coordinator::InjectStalls(double now) {
  std::vector<double>& free_at = items_.shard_free_at;
  for (size_t s = 0; s < free_at.size(); ++s) {
    if (!faults_.StallNow()) continue;
    const double dur = faults_.StallDuration();
    free_at[s] = std::max(free_at[s], now) + dur;
    EmitNow({.time = now, .kind = K::kLaneStall,
             .shard = sharded_ ? static_cast<int32_t>(s) : -1, .a = dur});
  }
}

/// A crashed source keeps drifting but emits nothing (pushes,
/// retransmits, heartbeats) until its outage window passes.
void Coordinator::CrashSources(double now) {
  for (int s = 0; s < num_sources_; ++s) {
    recovery::CheckpointSource& sf = source_fault_[static_cast<size_t>(s)];
    if (sf.crashed_until > now) continue;  // already down
    if (!faults_.CrashNow()) continue;
    const double dur = faults_.CrashDuration();
    sf.crashed_until = now + dur;
    sf.crash_event =
        EmitNow({.time = now, .kind = K::kCrash, .source = s, .a = dur});
  }
}

/// Timeout retransmissions: exponential backoff, gap capped at 8x.
void Coordinator::Retransmit(double now) {
  for (size_t item = 0; item < n_items_; ++item) {
    recovery::CheckpointItemFault& f = item_fault_[item];
    if (!f.pending_live || now < f.pending_next_retx) continue;
    const size_t src = item % static_cast<size_t>(num_sources_);
    if (source_fault_[src].crashed_until > now) continue;  // source down
    ++f.pending_attempts;
    Count(metrics_.retransmits, ins_.retransmits);
    const uint64_t rid =
        EmitNow({.time = now,
                 .kind = K::kRetransmit,
                 .source = static_cast<int32_t>(src),
                 .item = static_cast<int32_t>(item),
                 .cause = f.pending_emit_id,  // this seq's previous emission
                 .a = f.pending_value,
                 .b = static_cast<double>(f.pending_attempts),
                 .flag = static_cast<int32_t>(f.pending_seq)});
    f.pending_next_retx =
        now + config_.fault.retx_timeout_s *
                  static_cast<double>(1 << std::min(f.pending_attempts, 3));
    f.pending_emit_id = rid;  // the next retransmit chains from this one
    SendData(item, f.pending_value, f.pending_seq, rid, /*klass=*/1, now);
  }
}

/// Per-source heartbeats. The timer freezes during a crash (no advance),
/// so a recovering source announces itself on its first live tick.
void Coordinator::Heartbeat(double now) {
  for (int s = 0; s < num_sources_; ++s) {
    const size_t ss = static_cast<size_t>(s);
    recovery::CheckpointSource& sf = source_fault_[ss];
    if (source_items_[ss].empty() || sf.crashed_until > now ||
        now < sf.next_heartbeat) {
      continue;
    }
    sf.next_heartbeat = now + config_.fault.heartbeat_s;
    if (faults_.DropMessage()) {
      Count(metrics_.fault_drops, ins_.fault_drops);
      EmitNow({.time = now,
               .kind = K::kFaultDrop,
               .source = s,
               .b = 3.0});  // message class: heartbeat
      continue;
    }
    events_.push(Event{now + faults_.ProtocolDelay(config_.delays) +
                           faults_.ExtraDelay(),
                       kHeartbeat, s, 0.0, 0, 0.0});
  }
}

/// Source leases: an item whose source has been silent past lease_s plus
/// the item's worst-case drift time (from its installed DAB and the ddm
/// rate, capped at 3x lease_s) is declared stale; each affected query
/// degrades — gracefully, with a widening rate |dQ/d(item)|, when the
/// query is linear in the item, or as unboundable otherwise
/// (core::WideningFor).
void Coordinator::ExpireLeases(double now) {
  for (size_t item = 0; item < n_items_; ++item) {
    if (items_.item_queries[item].empty() || item_fault_[item].expired) {
      continue;
    }
    const size_t src = item % static_cast<size_t>(num_sources_);
    const double rate = std::max(rates_[item], core::kMinRate);
    double drift_time = items_.installed_dab[item] / rate;
    if (planner_cfg_.dual.ddm == core::DataDynamicsModel::kRandomWalk) {
      drift_time *= drift_time;
    }
    const double deadline = config_.fault.lease_s +
                            std::min(drift_time, 3.0 * config_.fault.lease_s);
    if (now - source_fault_[src].last_contact <= deadline) continue;
    item_fault_[item].expired = true;
    Count(metrics_.lease_expiries, ins_.lease_expiries);
    const uint64_t xid = EmitNow({.time = now, .kind = K::kLeaseExpire,
                                  .source = static_cast<int32_t>(src),
                                  .item = static_cast<int32_t>(item),
                                  .a = source_fault_[src].last_contact,
                                  .b = deadline});
    item_fault_[item].expire_event = xid;
    for (int qi : items_.item_queries[item]) {
      const size_t q = static_cast<size_t>(qi);
      if (slots_[q].degraded_items++ != 0) continue;  // already degraded
      uint64_t did = 0;
      if (trace_ != nullptr) {
        const core::StalenessWidening w = core::WideningFor(
            queries_[q], static_cast<VarId>(item), items_.view);
        did = Emit({.time = now, .kind = K::kDegrade,
                    .item = static_cast<int32_t>(item), .query = queries_[q].id,
                    .cause = xid, .a = w.sensitivity, .b = rate,
                    .flag = w.boundable ? 1 : 0});
      }
      slots_[q].degrade_event = did;
    }
  }
}

int Coordinator::FindLive(int query_id) const {
  for (size_t i = 0; i < queries_.size(); ++i) {
    if (slots_[i].alive && queries_[i].id == query_id) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

/// Built lazily at the first churn op, which keeps the no-churn path free
/// of the construction work.
void Coordinator::EnsureDqi() {
  if (dqi_ != nullptr) return;
  dqi_ = std::make_unique<core::DynamicQueryIndex>(
      n_items_, config_.plan_maintenance == PlanMaintenance::kRebuild
                    ? core::DynamicQueryIndex::Maintenance::kRebuild
                    : core::DynamicQueryIndex::Maintenance::kIncremental);
  for (const PolynomialQuery& q : queries_) {
    dqi_->AddQuery(q.id, q.p.Variables());
  }
}

/// Re-derive the lane partition from the dynamic index after a churn
/// event.
void Coordinator::RefreshPartition() {
  AssignLanes(dqi_->ShardAssignment(
      num_shards_, config_.shard_policy == ShardPolicy::kEqiComponents));
}

/// Plan installation is coordinator work: charge the query's lane one
/// recompute per plan part, exactly as a secondary-violation replan would.
void Coordinator::ChargeLane(size_t qi) {
  double busy = 0.0;
  for (size_t pi = 0; pi < plans_[qi].parts.size(); ++pi) {
    busy += delays_.RecomputeCpu();
  }
  double& free_at =
      items_.shard_free_at[static_cast<size_t>(slots_[qi].shard)];
  free_at = std::max(cur_now_, free_at) + busy;
}

/// The plan_patch invariant: after every churn event, hash the complete
/// live plan state (id, lane, EQI component label, QAB) in ascending-id
/// order. The offline checker re-derives components and lanes from
/// scratch and recomputes the same digest, which is what holds
/// incremental maintenance to from-scratch-rebuild equality.
void Coordinator::EmitPlanPatch(uint64_t cause_id) {
  if (trace_ == nullptr) return;
  std::vector<std::pair<int, size_t>> live;  // (query id, slot)
  for (size_t qi = 0; qi < queries_.size(); ++qi) {
    if (slots_[qi].alive) live.emplace_back(queries_[qi].id, qi);
  }
  std::sort(live.begin(), live.end());  // live ids are unique
  uint32_t digest = kFnv1a32Seed;
  for (const auto& [id, qi] : live) {
    digest = HashPlanRecord(digest, id, slots_[qi].shard,
                            dqi_->ComponentMin(static_cast<int>(qi)),
                            queries_[qi].qab);
  }
  Emit({.time = cur_now_, .kind = K::kPlanPatch, .cause = cause_id,
        .a = static_cast<double>(dqi_->num_active()),
        .b = static_cast<double>(dqi_->num_components()),
        .flag = static_cast<int32_t>(digest)});
}

void Coordinator::AppendChurnWal(const char* op, int query_id) {
  if (wal_file_ == nullptr || !replay_done_) return;
  recovery::AppendWal(wal_file_.get(), {.kind = WalKind::kChurn,
                                        .tick = cur_tick_, .op = op,
                                        .query_id = query_id});
}

Result<core::QueryPlan> Coordinator::TrialPlan(const PolynomialQuery& q) {
  for (VarId v : q.p.Variables()) {
    if (static_cast<size_t>(v) >= n_items_) {
      return Status::InvalidArgument(
          "candidate query references item beyond universe");
    }
  }
  return core::PlanQueryParts(q, items_.view, rates_, planner_cfg_);
}

Status Coordinator::Register(const PolynomialQuery& q, core::QueryPlan plan,
                             double estimate, int degrade_attempts) {
  for (VarId v : q.p.Variables()) {
    if (static_cast<size_t>(v) >= n_items_) {
      return Status::InvalidArgument(
          "registered query references item beyond universe");
    }
  }
  if (FindLive(q.id) >= 0) {
    return Status::InvalidArgument("query id already registered: " +
                                   std::to_string(q.id));
  }
  EnsureDqi();
  const size_t qi = queries_.size();
  queries_.push_back(q);
  slots_.push_back({.reg_tick = cur_tick_});
  plans_.push_back(std::move(plan));
  anchors_.emplace_back(plans_[qi].parts.size());
  for (size_t pi = 0; pi < plans_[qi].parts.size(); ++pi) AnchorPart(qi, pi);
  const std::vector<VarId> items = q.p.Variables();
  for (VarId v : items) {
    items_.item_queries[static_cast<size_t>(v)].push_back(
        static_cast<int>(qi));
  }
  IndexMinSources(items);
  dqi_->AddQuery(q.id, items);
  RefreshPartition();
  view_eval_->AddQuery(q);
  slots_[qi].last_user_value = view_eval_->QueryValue(qi);
  AddQueryInfo(qi);
  const uint64_t reg_id = Emit({.time = cur_now_, .kind = K::kQueryRegister,
                                .query = q.id, .shard = Lane(qi), .a = q.qab,
                                .b = estimate, .flag = degrade_attempts});
  ChargeLane(qi);
  EmitPlanPatch(reg_id);
  ShipChurnChanges(items, reg_id, q.id, slots_[qi].shard);
  AppendChurnWal("register", q.id);
  return Status::OK();
}

Status Coordinator::Modify(int query_id, double new_qab,
                           core::QueryPlan plan) {
  const int qi = FindLive(query_id);
  if (qi < 0) {
    return Status::InvalidArgument("modify of unknown query id: " +
                                   std::to_string(query_id));
  }
  const size_t q = static_cast<size_t>(qi);
  const double old_qab = queries_[q].qab;
  queries_[q].qab = new_qab;
  plans_[q] = std::move(plan);
  anchors_[q].resize(plans_[q].parts.size());
  for (size_t pi = 0; pi < plans_[q].parts.size(); ++pi) AnchorPart(q, pi);
  const std::vector<VarId> items = queries_[q].p.Variables();
  IndexMinSources(items);
  EnsureDqi();
  RefreshPartition();
  const uint64_t mod_id = Emit({.time = cur_now_, .kind = K::kQueryModify,
                                .query = query_id, .shard = Lane(q),
                                .a = new_qab, .b = old_qab});
  ChargeLane(q);
  EmitPlanPatch(mod_id);
  ShipChurnChanges(items, mod_id, query_id, slots_[q].shard);
  AppendChurnWal("modify", query_id);
  return Status::OK();
}

Status Coordinator::Deregister(int query_id) {
  const int qi = FindLive(query_id);
  if (qi < 0) {
    return Status::InvalidArgument("deregister of unknown query id: " +
                                   std::to_string(query_id));
  }
  const size_t q = static_cast<size_t>(qi);
  EnsureDqi();
  // The pre-removal lane stamps the trace event; afterwards the slot has
  // no lane.
  const int32_t lane = Lane(q);
  slots_[q].alive = false;
  slots_[q].dereg_tick = cur_tick_;
  const std::vector<VarId> items = queries_[q].p.Variables();
  for (VarId v : items) {
    std::vector<int>& qs = items_.item_queries[static_cast<size_t>(v)];
    qs.erase(std::remove(qs.begin(), qs.end(), qi), qs.end());
  }
  plans_[q].parts.clear();
  anchors_[q].clear();
  IndexMinSources(items);
  dqi_->RemoveQuery(qi);
  RefreshPartition();
  const uint64_t de_id = Emit({.time = cur_now_, .kind = K::kQueryDeregister,
                               .query = query_id, .shard = lane});
  // Dropping a query is bookkeeping, not solver work: no lane charge.
  EmitPlanPatch(de_id);
  ShipChurnChanges(items, de_id, /*q_id=*/-1, /*q_lane=*/-1);
  AppendChurnWal("deregister", query_id);
  return Status::OK();
}

void Coordinator::AdmissionReject(int query_id, double estimate,
                                  double budget, int reason) {
  // A duplicate-id attempt while the id is live is dropped rather than
  // traced: the checker's invariant is that a rejected id is not active.
  // The admission layer counts it either way.
  if (FindLive(query_id) >= 0) return;
  Emit({.time = cur_now_, .kind = K::kAdmissionReject, .query = query_id,
        .a = estimate, .b = budget, .flag = reason});
}

}  // namespace

const char* Name(ShardPolicy policy) {
  switch (policy) {
    case ShardPolicy::kEqiComponents:
      return "eqi_components";
    case ShardPolicy::kQueryHash:
      return "query_hash";
  }
  return "?";
}

const char* Name(PlanMaintenance maintenance) {
  switch (maintenance) {
    case PlanMaintenance::kIncremental:
      return "incremental";
    case PlanMaintenance::kRebuild:
      return "rebuild";
  }
  return "?";
}

std::string SimConfig::Describe() const {
  char buf[416];
  std::snprintf(
      buf, sizeof(buf),
      "%s sources=%d seed=%llu coord_shards=%d shard_policy=%s "
      "aao_period_s=%g fidelity_stride=%d "
      "violation_tol=%g paranoid_validation=%s zero_delay=%s "
      "node_node_mean=%g check_mean=%g push_mean=%g recompute_cpu_s=%g",
      planner.Describe().c_str(), num_sources,
      static_cast<unsigned long long>(seed), coord_shards, Name(shard_policy),
      aao_period_s, fidelity_stride,
      violation_tol, paranoid_validation ? "true" : "false",
      delays.zero_delay ? "true" : "false", delays.node_node_mean,
      delays.check_mean, delays.push_mean, delays.recompute_cpu_s);
  std::string out = buf;
  if (fault.active()) {
    out += " fault{";
    out += fault.Describe();
    if (fault.protocol_only) out += " protocol_only";
    out += "}";
  }
  return out;
}

std::ostream& operator<<(std::ostream& os, const SimConfig& config) {
  return os << config.Describe();
}

Status SimConfig::Validate() const {
  if (coord_shards < 1) {
    return Status::InvalidArgument("coord_shards must be >= 1");
  }
  if (threads < 0) return Status::InvalidArgument("threads must be >= 0");
  if (rt_fail_at < 0) {
    return Status::InvalidArgument("rt_fail_at must be >= 0");
  }
  if (threads == 0 && rt_fail_at != 0) {
    // It counts woken pool workers, and threads = 0 has none.
    return Status::InvalidArgument("rt_fail_at requires threads > 0");
  }
  if (solve_cache < 0) {
    return Status::InvalidArgument("solve_cache must be >= 0");
  }
  if (fidelity_stride < 1) {
    return Status::InvalidArgument("fidelity_stride must be >= 1, got " +
                                   std::to_string(fidelity_stride));
  }
  // The period becomes an int tick count; NaN fails both comparisons.
  if (!(aao_period_s >= 0.0 && aao_period_s <= INT_MAX)) {
    return Status::InvalidArgument(
        "aao_period_s must be 0 (off) or a finite period in (0, " +
        std::to_string(INT_MAX) + "] seconds, got " +
        obs::JsonNumber(aao_period_s));
  }
  // A malformed delay or fault config would otherwise surface as a NaN
  // epidemic or a hard CHECK abort deep inside a run.
  POLYDAB_RETURN_NOT_OK(delays.Validate());
  POLYDAB_RETURN_NOT_OK(fault.Validate());
  const bool aao_mode = aao_period_s > 0.0;
  if (service != nullptr) {
    // Churn rewrites the query set mid-run; the AAO joint solve and the
    // fault-protocol side tables both assume a fixed set.
    if (aao_mode) {
      return Status::InvalidArgument(
          "service churn cannot be combined with AAO-periodic mode");
    }
    if (fault.active()) {
      return Status::InvalidArgument(
          "service churn cannot be combined with fault injection");
    }
  }
  if (series != nullptr) {
    // The recorder folds the event stream, so it is meaningless without
    // one; and a replay-mode (derive_samples) recorder re-derives its
    // sample grid from events instead of taking the engine's feed.
    if (trace == nullptr) {
      return Status::InvalidArgument(
          "series recording requires a trace sink");
    }
    if (trace_node != -1) {
      return Status::InvalidArgument(
          "series recording is single-coordinator only");
    }
    if (series->config().derive_samples) {
      return Status::InvalidArgument(
          "series recorder is configured for replay (derive_samples); "
          "engine runs feed samples directly");
    }
    if (series->finalized()) {
      return Status::InvalidArgument("series recorder already finalized");
    }
  }
  if (recovery != nullptr) {
    // Restart correctness rests on re-running the tick loop with
    // identical inputs, so modes that would need extra non-checkpointed
    // state are rejected outright rather than half-supported. The solve
    // memo needs none: a hit is bitwise-verified and replays the solve's
    // stats, so a cold cache after restart changes only its hit counters.
    POLYDAB_RETURN_NOT_OK(recovery->Validate());
    if (series != nullptr) {
      return Status::InvalidArgument(
          "crash recovery is incompatible with series recording (the "
          "recorder's window fold is not checkpointed)");
    }
    if (aao_mode) {
      return Status::InvalidArgument(
          "crash recovery is incompatible with AAO mode (the joint "
          "allocation is not checkpointed)");
    }
    if (rt_fail_at > 0) {
      return Status::InvalidArgument(
          "crash recovery is incompatible with rt_fail_at fault injection "
          "(the dispatch counter is not checkpointed)");
    }
  }
  return Status::OK();
}

Result<SimMetrics> RunSimulation(const std::vector<PolynomialQuery>& queries,
                                 const workload::TraceSet& traces,
                                 const Vector& rates,
                                 const SimConfig& config) {
  // Thin adapter over the streaming entry point. The two checks here keep
  // the historical error precedence (empty query set before short trace);
  // the streaming body can only discover a short stream after consuming
  // it.
  if (queries.empty()) {
    return Status::InvalidArgument("no queries to simulate");
  }
  if (traces.num_ticks < 2) {
    return Status::InvalidArgument("trace too short");
  }
  workload::TraceSetTickSource source(&traces);
  return RunSimulation(queries, source, rates, config);
}

Result<SimMetrics> RunSimulation(const std::vector<PolynomialQuery>& queries,
                                 workload::TickSource& source,
                                 const Vector& rates,
                                 const SimConfig& config) {
  if (queries.empty()) {
    return Status::InvalidArgument("no queries to simulate");
  }
  if (rates.size() < source.num_items()) {
    return Status::InvalidArgument("rates vector smaller than item count");
  }
  POLYDAB_RETURN_NOT_OK(config.Validate());
  if (config.aao_period_s > 0.0) {
    for (const PolynomialQuery& q : queries) {
      if (!q.IsPositiveCoefficient()) {
        return Status::InvalidArgument(
            "AAO-periodic mode requires positive-coefficient queries");
      }
    }
  }
  Coordinator coordinator(queries, source, rates, config);
  POLYDAB_RETURN_NOT_OK(coordinator.Start());
  return coordinator.Run();
}

}  // namespace polydab::sim
