#include "sim/simulation.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <ostream>
#include <queue>
#include <sstream>
#include <utility>

#include "common/hash.h"
#include "core/multi_query.h"
#include "gp/solve_engine.h"
#include "core/query_index.h"
#include "core/validator.h"
#include "obs/json_util.h"
#include "obs/slo.h"
#include "obs/timeseries.h"
#include "recovery/checkpoint.h"
#include "recovery/recovery.h"
#include "recovery/wal.h"
#include "rt/lane_pool.h"

#include "common/logging.h"

namespace polydab::sim {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

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
  size_t size() const { return c.size(); }
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

/// Whole simulation state; method-free aggregation kept local to this TU.
struct State {
  std::vector<std::vector<int>> item_queries;  // item -> query indices

  // Source side.
  Vector source_value;    // true current value per item
  Vector last_pushed;     // value at last push per item
  Vector installed_dab;   // filter width currently active at the source

  // Coordinator side. Each query's plan consists of one or two
  // independently maintained parts (two under Half and Half, §III-B.2);
  // anchors[q][p] holds the item values the part's DABs were computed at.
  Vector view;  // C's item values
  std::vector<core::QueryPlan> plans;
  std::vector<std::vector<Vector>> anchors;
  Vector min_primary;  // EQI merge target per item

  // Coordinator lanes (sharded coordinator; one lane == the historical
  // serial resource). Queries are pinned to lanes; an item's *home* lane
  // is the lane of the first query referencing it (-1: unused item), and
  // item_shards lists every lane with a query referencing the item, so
  // cross-lane EQI merges know which lanes a barrier must join.
  std::vector<int> query_shard;               // query index -> lane
  std::vector<int> item_home_shard;           // item -> home lane
  std::vector<std::vector<int>> item_shards;  // item -> sorted unique lanes
  std::vector<double> shard_free_at;          // per-lane busy-until time

  // Bookkeeping.
  std::vector<double> violated_time;  // per query: fidelity loss
  EventQueue events;
};

/// Minimum primary DAB for one item across every part of every plan that
/// references it (the EQI merge of §IV).
double ItemMinPrimary(const State& st, int item) {
  double m = kInf;
  for (int qi : st.item_queries[static_cast<size_t>(item)]) {
    for (const core::PlanPart& part : st.plans[static_cast<size_t>(qi)].parts) {
      const int idx = part.dabs.IndexOf(static_cast<VarId>(item));
      if (idx >= 0) {
        m = std::min(m, part.dabs.primary[static_cast<size_t>(idx)]);
      }
    }
  }
  return m;
}

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

/// ServiceOps implementation handed to the churn driver: thin forwarding
/// shims over lambdas local to the run (they capture the whole engine
/// state), so the churn transaction logic stays next to the event loop it
/// mutates.
class EngineOps final : public ServiceOps {
 public:
  const Vector* view = nullptr;
  const Vector* rates = nullptr;
  std::function<Result<core::QueryPlan>(const PolynomialQuery&)> trial;
  std::function<Status(const PolynomialQuery&, core::QueryPlan, double, int)>
      register_fn;
  std::function<Status(int, double, core::QueryPlan)> modify_fn;
  std::function<Status(int)> deregister_fn;
  std::function<void(int, double, double, int)> reject_fn;

  const Vector& View() const override { return *view; }
  const Vector& Rates() const override { return *rates; }
  Result<core::QueryPlan> TrialPlan(const PolynomialQuery& query) override {
    return trial(query);
  }
  Status Register(const PolynomialQuery& query, core::QueryPlan plan,
                  double admission_estimate, int degrade_attempts) override {
    return register_fn(query, std::move(plan), admission_estimate,
                       degrade_attempts);
  }
  Status Modify(int query_id, double new_qab, core::QueryPlan plan) override {
    return modify_fn(query_id, new_qab, std::move(plan));
  }
  Status Deregister(int query_id) override { return deregister_fn(query_id); }
  void AdmissionReject(int query_id, double estimate, double budget,
                       int reason) override {
    reject_fn(query_id, estimate, budget, reason);
  }
};

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

Result<SimMetrics> RunSimulation(
    const std::vector<PolynomialQuery>& initial_queries,
    workload::TickSource& source, const Vector& rates,
    const SimConfig& config) {
  if (initial_queries.empty()) {
    return Status::InvalidArgument("no queries to simulate");
  }
  // Runtime churn appends to (and edits QABs inside) this local copy;
  // every reference below reads it, so a run without churn sees exactly
  // the caller's set.
  std::vector<PolynomialQuery> queries = initial_queries;
  const size_t n_items = source.num_items();
  if (rates.size() < n_items) {
    return Status::InvalidArgument("rates vector smaller than item count");
  }
  if (config.coord_shards < 1) {
    return Status::InvalidArgument("coord_shards must be >= 1");
  }
  if (config.threads < 0) {
    return Status::InvalidArgument("threads must be >= 0");
  }
  if (config.rt_fail_at < 0) {
    return Status::InvalidArgument("rt_fail_at must be >= 0");
  }
  if (config.threads == 0 && config.rt_fail_at != 0) {
    // It counts pool-dispatched solve jobs, and threads = 0 has none.
    return Status::InvalidArgument("rt_fail_at requires threads > 0");
  }
  if (config.solve_cache < 0) {
    return Status::InvalidArgument("solve_cache must be >= 0");
  }
  // A malformed delay or fault config would otherwise surface as a NaN
  // epidemic or a hard CHECK abort deep inside a run; reject it up front
  // with a diagnostic naming the field.
  POLYDAB_RETURN_NOT_OK(config.delays.Validate());
  POLYDAB_RETURN_NOT_OK(config.fault.Validate());
  const int num_shards = config.coord_shards;
  const bool sharded = num_shards > 1;
  const bool aao_mode = config.aao_period_s > 0.0;
  if (config.service != nullptr) {
    // Churn rewrites the query set mid-run; the AAO joint solve and the
    // fault-protocol side tables both assume a fixed set. Keeping the
    // combinations out keeps both features' byte-identity oracles intact.
    if (aao_mode) {
      return Status::InvalidArgument(
          "service churn cannot be combined with AAO-periodic mode");
    }
    if (config.fault.active()) {
      return Status::InvalidArgument(
          "service churn cannot be combined with fault injection");
    }
  }
  if (aao_mode) {
    for (const PolynomialQuery& q : queries) {
      if (!q.IsPositiveCoefficient()) {
        return Status::InvalidArgument(
            "AAO-periodic mode requires positive-coefficient queries");
      }
    }
  }
  if (config.series != nullptr) {
    // The recorder folds the event stream, so it is meaningless without
    // one; and a replay-mode (derive_samples) recorder re-derives its
    // sample grid from events instead of taking the engine's feed.
    if (config.trace == nullptr) {
      return Status::InvalidArgument(
          "series recording requires a trace sink");
    }
    if (config.trace_node != -1) {
      return Status::InvalidArgument(
          "series recording is single-coordinator only");
    }
    if (config.series->config().derive_samples) {
      return Status::InvalidArgument(
          "series recorder is configured for replay (derive_samples); "
          "engine runs feed samples directly");
    }
    if (config.series->finalized()) {
      return Status::InvalidArgument("series recorder already finalized");
    }
  }
  // Crash-recovery layer (src/recovery/, docs/RECOVERY.md). Restart
  // correctness rests on re-running the tick loop with identical inputs,
  // so engine modes that would need extra non-checkpointed state — series
  // fold offsets, the AAO joint solution, the rt fault-injection dispatch
  // counter — are rejected outright rather than half-supported. The solve
  // memo needs none: a hit is bitwise-verified and replays the solve's
  // stats, so a cold cache after restart changes only its hit counters.
  recovery::RecoveryConfig* const rec = config.recovery;
  if (rec != nullptr) {
    POLYDAB_RETURN_NOT_OK(rec->Validate());
    if (config.series != nullptr) {
      return Status::InvalidArgument(
          "crash recovery is incompatible with series recording (the "
          "recorder's window fold is not checkpointed)");
    }
    if (config.aao_period_s > 0.0) {
      return Status::InvalidArgument(
          "crash recovery is incompatible with AAO mode (the joint "
          "allocation is not checkpointed)");
    }
    if (config.rt_fail_at > 0) {
      return Status::InvalidArgument(
          "crash recovery is incompatible with rt_fail_at fault injection "
          "(the dispatch counter is not checkpointed)");
    }
  }
  const bool rec_restart = rec != nullptr && rec->restarting();
  const recovery::CheckpointState* const ckpt =
      rec_restart ? rec->restart : nullptr;
  const bool rec_ckpt = rec != nullptr && !rec->checkpoint_path.empty();

  Rng master(config.seed);
  DelayModel delays(config.delays, master.Fork());
  // The fault layer owns a second forked stream: injection decisions and
  // protocol-message delays never perturb the main delay draws, so a
  // zero-probability (protocol_only) chaos run keeps the data path's
  // timings, and an inactive config takes no fault branch at all.
  FaultModel faults(config.fault, master.Fork());
  const bool fault_mode = config.fault.active();

  // Recovery: the config fingerprint sealed into every checkpoint block;
  // a restart refuses a snapshot taken under a different engine config.
  // The recovery knobs themselves are absent from Describe(), so a
  // crashed run and its restart — which differ only in those knobs —
  // fingerprint identically, as intended: they are control inputs, not
  // state-bearing configuration.
  const std::string config_desc = config.Describe();
  const uint32_t config_fp =
      Fnv1a32(config_desc.data(), config_desc.size());
  struct FileCloser {
    void operator()(std::FILE* f) const { std::fclose(f); }
  };
  std::unique_ptr<std::FILE, FileCloser> wal_file;
  using WalKind = recovery::WalRecord::Kind;
  if (rec != nullptr && !rec->wal_path.empty()) {
    wal_file.reset(std::fopen(rec->wal_path.c_str(), "a"));
    if (wal_file == nullptr) {
      return Status::InvalidArgument("cannot open WAL '" + rec->wal_path +
                                     "' for appending");
    }
    recovery::AppendWal(wal_file.get(), {.kind = WalKind::kHeader});
  }
  // Replay bookkeeping, filled by the restore block below. Declared this
  // early because the ack/churn lambdas capture them: audit records are
  // only appended once the replay span is exhausted (`replay_done`), so a
  // restart never re-writes rows the WAL already holds.
  uint64_t last_ckpt_end_id = 0;
  const recovery::WalRecord* crash_marker = nullptr;
  std::vector<const recovery::WalRecord*> replay_rows;
  bool replay_done = true;
  size_t replay_idx = 0;

  // Telemetry: cache instruments once and propagate the registry into the
  // planner (and through it the GP solver) so one SimConfig::registry
  // assignment instruments the whole stack.
  SimInstruments ins(config.registry, fault_mode);
  core::PlannerConfig planner_cfg = config.planner;
  if (planner_cfg.registry == nullptr) {
    planner_cfg.registry = config.registry;
  }
  if (planner_cfg.dual.solver.registry == nullptr) {
    planner_cfg.dual.solver.registry = planner_cfg.registry;
  }

  // Memoizing solve server (gp/solve_engine.h, docs/SOLVER.md).
  // Attached through SolverOptions::engine, so every GP solve in the run
  // — per-part replans, plan-time solves, AAO joint solves, rt workers —
  // routes through the one shared engine; every result is bit-identical
  // to the direct path by construction. Declared before the lane pool so
  // it outlives the workers that hold a pointer to it.
  const bool engine_on = config.solve_cache > 0;
  gp::SolveEngine::Options engine_opt;
  engine_opt.cache_entries = config.solve_cache;
  engine_opt.registry = config.registry;
  gp::SolveEngine solve_engine(engine_opt);
  if (engine_on && planner_cfg.dual.solver.engine == nullptr) {
    planner_cfg.dual.solver.engine = &solve_engine;
  }

  // Causal event trace (obs/trace.h): propagated into the planner like
  // the registry. Every emission site below is one branch when off.
  obs::TraceSink* const trace = config.trace;
  const int32_t tnode = config.trace_node;
  if (planner_cfg.trace == nullptr) {
    planner_cfg.trace = trace;
    planner_cfg.trace_node = tnode;
  }
  // Which source pushes an item's refreshes; purely an attribution label.
  const int num_sources = std::max(1, config.num_sources);
  if (trace != nullptr) {
    trace->SetNow(0.0);
    trace->SetInfo("origin", "sim");
    trace->SetInfo("method", core::Name(planner_cfg.method));
    trace->SetInfo("mu", obs::JsonNumber(planner_cfg.dual.mu));
    trace->SetInfo("sim_config", config.Describe());
    if (fault_mode) {
      // The offline verifier needs the item -> source mapping and the
      // protocol constants to re-derive crash windows, retransmit chains
      // and lease deadlines (obs/trace_check.cc).
      trace->SetInfo("fault_config", config.fault.Describe());
      trace->SetInfo("num_sources", std::to_string(num_sources));
      trace->SetInfo("fault_retx_timeout_s",
                     obs::JsonNumber(config.fault.retx_timeout_s));
      trace->SetInfo("fault_heartbeat_s",
                     obs::JsonNumber(config.fault.heartbeat_s));
      trace->SetInfo("fault_lease_s", obs::JsonNumber(config.fault.lease_s));
    }
  }
  // Windowed series telemetry (obs/timeseries.h): install the recorder
  // as the sink's observer before any emission so window 0 sees the t=0
  // initial installs, and stamp the metadata the checker's alerting mode
  // needs to replay the series from the events alone.
  if (config.series != nullptr) {
    trace->SetInfo("series_window_s",
                   std::to_string(config.series->config().window_ticks));
    const std::vector<obs::SloRule>& slo_rules = config.series->config().rules;
    if (!slo_rules.empty()) {
      trace->SetInfo("slo_rules", obs::CanonicalSloRules(slo_rules));
    }
    if (config.series->config().breakdown) {
      trace->SetInfo("series_breakdown", "1");
    }
    config.series->SetInitialQueries(static_cast<int64_t>(queries.size()));
    config.series->SetAlertSink(trace);
    trace->SetObserver(config.series);
  }

  State st;

  // The refresh service's solve pipeline (docs/CONCURRENCY.md). Pass 1
  // walks the parts a refresh makes stale, groups them by bitwise-equal
  // solve inputs and solves each group once, spread over the lane pool's
  // workers (src/rt/) and the event loop itself; pass 2 installs the
  // results in oracle order. threads = 0 never starts the pool, so every
  // group is the event loop's to solve inline. The pool is declared after
  // `st` and after `solve_groups` so its destructor joins every worker
  // before anything a job closure references is destroyed, however the
  // run exits.
  struct SolveGroup {
    const core::PlanPart* leader = nullptr;  // the part actually solved
    uint64_t hash = 0;                       // core::ReplanInputsHash
    Result<QueryDabs> result{Status::Internal("rt: job not yet run")};
    gp::SolveRecord solve;
    int slot = 0;  // pool worker, or pool.workers() for the event loop
    uint64_t epoch = 0;
    bool shared = false;  // other stale parts install copies of `result`

    // The one call site of core::ReplanPart in the refresh service, on a
    // worker or inline.
    void Solve(const Vector& view, const Vector& rates,
               const core::PlannerConfig& cfg) {
      result = core::ReplanPart(*leader, view, rates, cfg, &solve);
    }
  };
  // A stale part found by pass 1, in oracle order: the position of its
  // query in the item's query list, the part, the refreshed item's slot
  // in the part's DABs, the anchor its drift was measured from and the
  // group whose solve it installs.
  struct StalePart {
    size_t k = 0;
    size_t pi = 0;
    size_t idx = 0;
    double anchor = 0.0;
    size_t group = 0;
  };
  std::deque<SolveGroup> solve_groups;  // deque: workers hold entry pointers
  std::vector<StalePart> stale_parts;
  int64_t solve_jobs_dispatched = 0;
  // Groups solve without the trace: the event loop emits each part's
  // planner_replan event at its oracle slot in pass 2.
  core::PlannerConfig solve_cfg = planner_cfg;
  solve_cfg.trace = nullptr;
  rt::LanePool pool;
  if (config.threads > 0) {
    rt::LanePool::Options rt_opt;
    rt_opt.workers = config.threads;
    POLYDAB_RETURN_NOT_OK(pool.Start(rt_opt));
    if (trace != nullptr) {
      // Stripped again by canonicalization (obs/trace_canon.h), so the
      // canonical trace's info block matches the threads = 0 oracle's.
      trace->SetInfo("rt_threads", std::to_string(config.threads));
    }
  }

  // Restart: rebuild the full slot vector — the initial queries plus any
  // churn-registered slots — from the snapshot before any structure keyed
  // by query index is built. The caller must hand the same initial set;
  // only the prefix ids are checkable (churn may have modified bodies).
  if (rec_restart) {
    if (ckpt->config_fp != config_fp) {
      return Status::InvalidArgument(
          "restart: checkpoint was taken under a different engine config "
          "(fingerprint mismatch)");
    }
    if (static_cast<size_t>(ckpt->num_items) != n_items) {
      return Status::InvalidArgument(
          "restart: checkpoint item count " +
          std::to_string(ckpt->num_items) + " != trace set width " +
          std::to_string(n_items));
    }
    if (ckpt->num_sources != num_sources) {
      return Status::InvalidArgument(
          "restart: checkpoint source count mismatch");
    }
    if (ckpt->num_shards != num_shards) {
      return Status::InvalidArgument(
          "restart: checkpoint shard count mismatch");
    }
    if (ckpt->fault_mode != fault_mode) {
      return Status::InvalidArgument(
          "restart: checkpoint fault-mode flag mismatch");
    }
    if (ckpt->queries.size() < queries.size()) {
      return Status::InvalidArgument(
          "restart: checkpoint has fewer query slots than the initial "
          "workload");
    }
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      if (ckpt->queries[qi].id != queries[qi].id) {
        return Status::InvalidArgument(
            "restart: initial query slot " + std::to_string(qi) +
            " id mismatch (checkpoint " +
            std::to_string(ckpt->queries[qi].id) + ", workload " +
            std::to_string(queries[qi].id) + ")");
      }
    }
    queries.clear();
    for (const recovery::CheckpointQuery& cq : ckpt->queries) {
      queries.push_back(PolynomialQuery{cq.id, cq.poly, cq.qab});
    }
  }

  if (!rec_restart) {
    st.item_queries.resize(n_items);
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      for (VarId v : queries[qi].p.Variables()) {
        if (static_cast<size_t>(v) >= n_items) {
          return Status::InvalidArgument(
              "query references item beyond trace set");
        }
        st.item_queries[static_cast<size_t>(v)].push_back(
            static_cast<int>(qi));
      }
    }

    // Lane partition. With a single lane every query lands on lane 0 and
    // the event loop below reduces to the historical serial coordinator
    // (bit-identically: same iteration order, same RNG draw order, same
    // floating-point accumulation sequence).
    {
      core::QueryIndex qindex(queries, n_items);
      st.query_shard = config.shard_policy == ShardPolicy::kQueryHash
                           ? qindex.ShardByQueryId(num_shards)
                           : qindex.ShardByComponent(num_shards);
    }
    st.item_home_shard.assign(n_items, -1);
    st.item_shards.resize(n_items);
    for (size_t i = 0; i < n_items; ++i) {
      const auto& qs = st.item_queries[i];
      if (qs.empty()) continue;
      st.item_home_shard[i] = st.query_shard[static_cast<size_t>(qs[0])];
      auto& lanes = st.item_shards[i];
      for (int qi : qs) {
        lanes.push_back(st.query_shard[static_cast<size_t>(qi)]);
      }
      std::sort(lanes.begin(), lanes.end());
      lanes.erase(std::unique(lanes.begin(), lanes.end()), lanes.end());
    }
  } else {
    // These structures evolve under churn (dead slots leave, modified
    // polynomials move items), so they are restored verbatim rather than
    // rebuilt from the slot vector.
    if (ckpt->item_queries.size() != n_items ||
        ckpt->item_home_shard.size() != n_items ||
        ckpt->item_shards.size() != n_items) {
      return Status::InvalidArgument(
          "restart: checkpoint item-table width mismatch");
    }
    st.item_queries = ckpt->item_queries;
    st.item_home_shard = ckpt->item_home_shard;
    st.item_shards = ckpt->item_shards;
    st.query_shard.resize(queries.size());  // restored with the slots below
  }
  st.shard_free_at.assign(static_cast<size_t>(num_shards), 0.0);
  if (trace != nullptr && sharded) {
    trace->SetInfo("coord_shards", std::to_string(num_shards));
    trace->SetInfo("shard_policy", Name(config.shard_policy));
  }

  // Tick 0: the initial snapshot every party starts in agreement on. On
  // restart the tool has already positioned the source past every
  // consumed tick; the snapshot carries the three value vectors.
  Vector row;
  if (!rec_restart) {
    {
      auto first = source.Next(&row);
      if (!first.ok()) return first.status();
      if (!*first) return Status::InvalidArgument("trace too short");
    }
    st.source_value = row;
    st.last_pushed = st.source_value;
    st.view = st.source_value;
  } else {
    if (ckpt->source_value.size() != n_items ||
        ckpt->last_pushed.size() != n_items || ckpt->view.size() != n_items) {
      return Status::InvalidArgument(
          "restart: checkpoint value-vector width mismatch");
    }
    st.source_value = ckpt->source_value;
    st.last_pushed = ckpt->last_pushed;
    st.view = ckpt->view;
  }
  st.plans.resize(queries.size());
  st.anchors.resize(queries.size());
  st.violated_time.assign(queries.size(), 0.0);

  SimMetrics metrics;

  // --- Fault-mode protocol state (docs/ROBUSTNESS.md). Sized only when
  // the fault layer is active; every use below is behind `fault_mode`. ---
  // The item and source tables are the checkpoint's 'if' and 'src'
  // records (recovery/checkpoint.h), so snapshot and restore copy them
  // whole. A fresh source's first heartbeat fires at tick 1 and its t=0
  // install counts as contact.
  std::vector<recovery::CheckpointItemFault> item_fault;  // item -> state
  std::vector<recovery::CheckpointSource> source_fault;   // source -> state
  std::vector<int> degraded_items;        // query -> # of its expired items
  std::vector<uint64_t> degrade_event;    // query -> trace id of the degrade
  std::vector<std::vector<int>> source_items;  // source -> its queried items
  if (fault_mode) {
    item_fault.assign(n_items, recovery::CheckpointItemFault{});
    const size_t ns = static_cast<size_t>(num_sources);
    source_fault.assign(ns, recovery::CheckpointSource{});
    source_items.resize(ns);
    for (size_t i = 0; i < n_items; ++i) {
      if (!st.item_queries[i].empty()) {
        source_items[i % ns].push_back(static_cast<int>(i));
      }
    }
    degraded_items.assign(queries.size(), 0);
    degrade_event.assign(queries.size(), 0);
  }

  if (rec_restart) {
    // Counters and the fault-protocol tables resume from the snapshot.
    metrics.refreshes = ckpt->refreshes;
    metrics.recomputations = ckpt->recomputations;
    metrics.dab_change_messages = ckpt->dab_change_messages;
    metrics.user_notifications = ckpt->user_notifications;
    metrics.solver_failures = ckpt->solver_failures;
    metrics.fault_drops = ckpt->fault_drops;
    metrics.retransmits = ckpt->retransmits;
    metrics.duplicates_suppressed = ckpt->duplicates_suppressed;
    metrics.lease_expiries = ckpt->lease_expiries;
    metrics.degraded_query_seconds = ckpt->degraded_query_seconds;
    if (fault_mode) {
      if (ckpt->sources.size() != static_cast<size_t>(num_sources)) {
        return Status::InvalidArgument(
            "restart: checkpoint source-table size mismatch");
      }
      if (ckpt->item_fault.size() != n_items) {
        return Status::InvalidArgument(
            "restart: checkpoint item-fault table size mismatch");
      }
      source_fault = ckpt->sources;
      item_fault = ckpt->item_fault;
    } else if (!ckpt->sources.empty() || !ckpt->item_fault.empty()) {
      return Status::InvalidArgument(
          "restart: checkpoint carries fault tables but the fault layer "
          "is inactive");
    }
  }

  // Contact from source `s` observed at the coordinator (a delivered or
  // suppressed refresh, or a heartbeat): refresh the lease and recover
  // any of the source's items whose lease had lapsed. A query leaves
  // degraded service once every one of its expired items recovered.
  auto record_contact = [&](int s, double t, uint64_t cid) {
    const size_t ss = static_cast<size_t>(s);
    source_fault[ss].last_contact = t;
    source_fault[ss].contact_event = cid;
    for (int item : source_items[ss]) {
      recovery::CheckpointItemFault& f = item_fault[static_cast<size_t>(item)];
      if (!f.expired) continue;
      f.expired = false;
      f.expire_event = 0;
      for (int qi : st.item_queries[static_cast<size_t>(item)]) {
        const size_t q = static_cast<size_t>(qi);
        if (--degraded_items[q] == 0) {
          if (trace != nullptr) {
            obs::TraceEvent e;
            e.time = t;
            e.kind = obs::TraceEventKind::kRecover;
            e.node = tnode;
            e.source = s;
            e.query = queries[q].id;
            e.cause = cid;
            trace->Emit(e);
          }
          degrade_event[q] = 0;
        }
      }
    }
  };

  // Send one data-refresh copy (klass 0: first copy, 1: retransmit)
  // through the fault layer. The first copy draws its delay from the main
  // stream — exactly the draws a fault-free run makes — so protocol_only
  // runs keep the data path's timings; retransmit copies and all
  // injected extras draw from the fault stream.
  auto send_data = [&](size_t item, double value, int64_t seq,
                       uint64_t emit_id, int klass, double now) {
    if (faults.DropMessage()) {
      ++metrics.fault_drops;
      if (ins.fault_drops != nullptr) ins.fault_drops->Inc();
      // Per-item send seqs are non-decreasing (pending holds only the
      // latest), so this drop is the item's newest outstanding loss.
      item_fault[item].drop_seq = seq;
      if (trace != nullptr) {
        obs::TraceEvent e;
        e.time = now;
        e.kind = obs::TraceEventKind::kFaultDrop;
        e.node = tnode;
        e.source = static_cast<int32_t>(item) % num_sources;
        e.item = static_cast<int32_t>(item);
        e.cause = emit_id;
        e.a = value;
        e.b = static_cast<double>(klass);
        e.flag = static_cast<int32_t>(seq);
        item_fault[item].drop_eid = trace->Emit(e);
      }
      return;
    }
    double delay = klass == 0 ? delays.Push() + delays.Network()
                              : faults.ProtocolDelay(config.delays);
    delay += faults.ExtraDelay();
    if (ins.message_delay != nullptr) ins.message_delay->Record(delay);
    if (klass == 0 && faults.DuplicateMessage()) {
      // The duplicate copy races the original on its own delay draw.
      const double dup_delay =
          faults.ProtocolDelay(config.delays) + faults.ExtraDelay();
      Event dup{now + dup_delay, EventType::kRefresh,
                static_cast<int>(item), value, emit_id, 0.0};
      dup.seq = seq;
      st.events.push(dup);
    }
    Event ev{now + delay, EventType::kRefresh, static_cast<int>(item),
             value, emit_id, 0.0};
    ev.seq = seq;
    st.events.push(ev);
  };

  // Coordinator acks delivered (or suppressed-duplicate) seq `seq` of
  // `item` back to its source; the ack itself can be dropped.
  auto send_ack = [&](int item, int64_t seq, double now, uint64_t cause_id) {
    uint64_t ack_id = 0;
    if (trace != nullptr) {
      obs::TraceEvent e;
      e.time = now;
      e.kind = obs::TraceEventKind::kAck;
      e.node = tnode;
      e.item = item;
      e.cause = cause_id;
      e.flag = static_cast<int32_t>(seq);
      ack_id = trace->Emit(e);
    }
    // Audit record only: restart replay regenerates acks deterministically
    // from the rows, so the loader never feeds these back.
    if (wal_file != nullptr && replay_done) {
      recovery::AppendWal(wal_file.get(), {.kind = WalKind::kAck, .time = now,
                                           .item = item, .seq = seq});
    }
    if (faults.DropMessage()) {
      ++metrics.fault_drops;
      if (ins.fault_drops != nullptr) ins.fault_drops->Inc();
      if (trace != nullptr) {
        obs::TraceEvent e;
        e.time = now;
        e.kind = obs::TraceEventKind::kFaultDrop;
        e.node = tnode;
        e.source = item % num_sources;
        e.item = item;
        e.cause = ack_id;
        e.b = 2.0;  // message class: ack
        e.flag = static_cast<int32_t>(seq);
        trace->Emit(e);
      }
      return;
    }
    Event ack{now + faults.ProtocolDelay(config.delays) + faults.ExtraDelay(),
              EventType::kAckArrive, item, 0.0, ack_id, 0.0};
    ack.seq = seq;
    st.events.push(ack);
  };

  auto anchor_part = [&](size_t qi, size_t pi) {
    const core::PlanPart& part = st.plans[qi].parts[pi];
    Vector& anchor = st.anchors[qi][pi];
    anchor.resize(part.dabs.vars.size());
    for (size_t i = 0; i < part.dabs.vars.size(); ++i) {
      anchor[i] = st.view[static_cast<size_t>(part.dabs.vars[i])];
    }
  };

  // Initial planning (time zero; not counted as recomputation, and the
  // initial filters are installed synchronously). A restart skips this
  // wholesale — the t=0 solves, query infos, and install events all live
  // in the crashed run's trace — and reinstates plans, anchors, and the
  // per-item merge state bit-exactly from the snapshot instead.
  if (!rec_restart) {
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      auto plan = core::PlanQueryParts(queries[qi], st.view, rates,
                                       planner_cfg);
      if (!plan.ok()) {
        return Status::Internal("initial planning failed for query " +
                                std::to_string(queries[qi].id) + ": " +
                                plan.status().ToString());
      }
      st.plans[qi] = std::move(plan).value();
      st.anchors[qi].resize(st.plans[qi].parts.size());
      for (size_t pi = 0; pi < st.plans[qi].parts.size(); ++pi) {
        anchor_part(qi, pi);
      }
      if (config.paranoid_validation) {
        Status valid = core::ValidatePlan(st.plans[qi], st.view);
        if (!valid.ok()) {
          return Status::Internal("plan validation failed for query " +
                                  std::to_string(queries[qi].id) + ": " +
                                  valid.ToString());
        }
      }
    }
    st.min_primary.resize(n_items);
    st.installed_dab.resize(n_items);
    for (size_t i = 0; i < n_items; ++i) {
      st.min_primary[i] = ItemMinPrimary(st, static_cast<int>(i));
      st.installed_dab[i] = st.min_primary[i];
    }
    if (trace != nullptr) {
      for (size_t qi = 0; qi < queries.size(); ++qi) {
        obs::TraceQueryInfo info;
        info.query = queries[qi].id;
        info.node = tnode;
        if (sharded) info.shard = st.query_shard[qi];
        info.qab = queries[qi].qab;
        for (VarId v : queries[qi].p.Variables()) {
          info.items.push_back(static_cast<int32_t>(v));
        }
        trace->AddQueryInfo(std::move(info));
      }
      // The initial plan's filters install synchronously at time zero
      // (cause 0); items no query uses keep an infinite width and never
      // refresh, so they are not recorded.
      for (size_t i = 0; i < n_items; ++i) {
        if (std::isinf(st.installed_dab[i])) continue;
        obs::TraceEvent e;
        e.kind = obs::TraceEventKind::kDabChangeInstalled;
        e.node = tnode;
        e.item = static_cast<int32_t>(i);
        e.a = st.installed_dab[i];
        trace->Emit(e);
      }
    }
  } else {
    for (const recovery::CheckpointPart& cp : ckpt->parts) {
      if (cp.slot < 0 || static_cast<size_t>(cp.slot) >= queries.size()) {
        return Status::InvalidArgument(
            "restart: checkpoint part references slot " +
            std::to_string(cp.slot) + " out of range");
      }
      const size_t slot = static_cast<size_t>(cp.slot);
      if (static_cast<size_t>(cp.part) != st.plans[slot].parts.size()) {
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
      part.subquery = PolynomialQuery{queries[slot].id, cp.poly, cp.pqab};
      part.dabs.vars = cp.vars;
      part.dabs.primary = cp.primary;
      part.dabs.secondary = cp.secondary;
      part.dabs.recompute_rate = cp.recompute_rate;
      part.dabs.single_dab = cp.single_dab;
      part.dabs.never_stale = cp.never_stale;
      st.plans[slot].parts.push_back(std::move(part));
      st.anchors[slot].push_back(cp.anchor);
    }
    if (ckpt->min_primary.size() != n_items ||
        ckpt->installed_dab.size() != n_items) {
      return Status::InvalidArgument(
          "restart: checkpoint DAB-vector width mismatch");
    }
    st.min_primary = ckpt->min_primary;
    st.installed_dab = ckpt->installed_dab;
  }

  // Per-service scratch for the lane clocks: busy time accrued on each
  // lane while servicing one refresh, the pre-service lane clocks (the
  // shard-barrier time payload — the instant every involved lane has
  // drained its earlier work), and which lanes a barrier joined.
  std::vector<double> lane_busy(static_cast<size_t>(num_shards), 0.0);
  std::vector<double> pre_free(static_cast<size_t>(num_shards), 0.0);
  std::vector<uint8_t> barrier_lane(static_cast<size_t>(num_shards), 0);
  bool barrier_any = false;

  // After part (qi, pi) was replanned at time `now`, refresh the EQI merge
  // over its items and ship changed filters to the sources. `cause_id`
  // links each sent filter to the recompute_end / aao_solve trace event
  // that produced it (0 when tracing is off). When a merged item's queries
  // span several lanes, the merge reads plans owned by other lanes, so a
  // shard barrier joins them first; the AAO path passes
  // `emit_item_barriers` = false because it already synchronized every
  // lane through one global barrier.
  auto ship_dab_changes = [&](size_t qi, size_t pi, double now,
                              uint64_t cause_id, bool emit_item_barriers) {
    for (VarId v : st.plans[qi].parts[pi].dabs.vars) {
      const size_t item = static_cast<size_t>(v);
      const double fresh = ItemMinPrimary(st, static_cast<int>(item));
      if (std::fabs(fresh - st.min_primary[item]) >
          1e-9 * std::max(1.0, st.min_primary[item])) {
        const double old_width = st.min_primary[item];
        st.min_primary[item] = fresh;
        if (emit_item_barriers && sharded && st.item_shards[item].size() > 1) {
          double bt = now;
          for (int s : st.item_shards[item]) {
            bt = std::max(bt, pre_free[static_cast<size_t>(s)]);
            barrier_lane[static_cast<size_t>(s)] = 1;
          }
          barrier_any = true;
          if (ins.shard_barriers != nullptr) ins.shard_barriers->Inc();
          if (trace != nullptr) {
            obs::TraceEvent e;
            e.time = now;
            e.kind = obs::TraceEventKind::kShardBarrier;
            e.node = tnode;
            e.item = static_cast<int32_t>(item);
            e.cause = cause_id;
            e.a = bt;
            e.b = static_cast<double>(st.item_shards[item].size());
            trace->Emit(e);
          }
        }
        ++metrics.dab_change_messages;
        if (ins.dab_change_messages != nullptr) ins.dab_change_messages->Inc();
        const double delay = delays.Check() + delays.Network();
        if (ins.message_delay != nullptr) ins.message_delay->Record(delay);
        uint64_t sent_id = 0;
        if (trace != nullptr) {
          obs::TraceEvent e;
          e.time = now;
          e.kind = obs::TraceEventKind::kDabChangeSent;
          e.node = tnode;
          e.item = static_cast<int32_t>(item);
          e.query = queries[qi].id;
          e.part = static_cast<int32_t>(pi);
          if (sharded) e.shard = st.query_shard[qi];
          e.cause = cause_id;
          e.a = fresh;
          e.b = old_width;
          sent_id = trace->Emit(e);
        }
        st.events.push(Event{now + delay, EventType::kDabChange,
                             static_cast<int>(item), fresh, sent_id, 0.0});
      }
    }
  };

  // Incremental view-side query evaluation: the coordinator's values only
  // change on refresh arrivals, so the per-tick fidelity check patches
  // affected queries instead of re-evaluating everything.
  core::IncrementalEvaluator view_eval(queries, st.view);

  // §I-B: for each refresh, the coordinator checks which QABs would be
  // violated relative to the value last sent to the user, and pushes those
  // query results. last_user_value tracks what each user last saw.
  Vector last_user_value(queries.size());
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    last_user_value[qi] = view_eval.QueryValue(qi);
  }

  // --- Runtime churn state (docs/SERVICE.md). Slots are append-only:
  // a deregistered query keeps its index (q_alive flips off and its plan
  // empties), so every parallel per-query array stays index-stable. All
  // of this is inert — allocated but never branched on — when no service
  // driver is attached or the driver never issues an op, which is what
  // keeps a zero-churn run byte-identical to the historical path. ---
  std::vector<uint8_t> q_alive(queries.size(), 1);
  std::vector<int> q_reg_tick(queries.size(), 0);
  std::vector<int> q_dereg_tick(queries.size(),
                                std::numeric_limits<int>::max());
  std::unique_ptr<core::DynamicQueryIndex> dqi;
  int cur_tick = 0;     // logical clock for the churn transaction lambdas
  double cur_now = 0.0;

  // Lazily built at the first churn op; seeded with every live slot in
  // slot order so slot i of the dynamic index is query index i. Building
  // it on demand (rather than always) keeps the no-churn path free of the
  // extra construction work.
  auto ensure_dqi = [&]() {
    if (dqi != nullptr) return;
    dqi = std::make_unique<core::DynamicQueryIndex>(
        n_items, config.plan_maintenance == PlanMaintenance::kRebuild
                     ? core::DynamicQueryIndex::Maintenance::kRebuild
                     : core::DynamicQueryIndex::Maintenance::kIncremental);
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      dqi->AddQuery(queries[qi].id, queries[qi].p.Variables());
    }
  };

  // Re-derive the lane partition and the per-item lane tables from the
  // dynamic index after a churn event. Dead slots get lane -1; they are
  // never referenced from item_queries, so the -1 is never read.
  auto refresh_partition = [&]() {
    st.query_shard = dqi->ShardAssignment(
        num_shards, config.shard_policy == ShardPolicy::kEqiComponents);
    st.item_home_shard.assign(n_items, -1);
    for (size_t i = 0; i < n_items; ++i) {
      auto& lanes = st.item_shards[i];
      lanes.clear();
      const auto& qs = st.item_queries[i];
      if (qs.empty()) continue;
      st.item_home_shard[i] = st.query_shard[static_cast<size_t>(qs[0])];
      for (int qi : qs) {
        lanes.push_back(st.query_shard[static_cast<size_t>(qi)]);
      }
      std::sort(lanes.begin(), lanes.end());
      lanes.erase(std::unique(lanes.begin(), lanes.end()), lanes.end());
    }
  };

  // The plan_patch invariant: after every churn event, hash the complete
  // live plan state (id, lane, EQI component label, QAB) in ascending-id
  // order. The offline checker re-derives components and lanes from
  // scratch and recomputes the same digest, which is what holds
  // incremental maintenance to from-scratch-rebuild equality.
  auto emit_plan_patch = [&](uint64_t cause_id) {
    if (trace == nullptr) return;
    std::vector<size_t> live;
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      if (q_alive[qi] != 0) live.push_back(qi);
    }
    std::sort(live.begin(), live.end(),
              [&](size_t a, size_t b) { return queries[a].id < queries[b].id; });
    uint32_t digest = kFnv1a32Seed;
    for (size_t qi : live) {
      digest = HashPlanRecord(digest, queries[qi].id, st.query_shard[qi],
                              dqi->ComponentMin(static_cast<int>(qi)),
                              queries[qi].qab);
    }
    obs::TraceEvent e;
    e.time = cur_now;
    e.kind = obs::TraceEventKind::kPlanPatch;
    e.node = tnode;
    e.cause = cause_id;
    e.a = static_cast<double>(dqi->num_active());
    e.b = static_cast<double>(dqi->num_components());
    e.flag = static_cast<int32_t>(digest);
    trace->Emit(e);
  };

  // Refresh the EQI merge over \p items after a churn op and ship changed
  // filters. Like ship_dab_changes, minus barrier emission: a churn op is
  // a control-plane transaction whose lane-time charge already covers the
  // repartition, and the merge here runs against the post-transaction
  // partition. An item whose last query departed is retired silently —
  // the coordinator drops the subscription in the same transaction, so no
  // filter message crosses the network.
  auto ship_churn_changes = [&](const std::vector<VarId>& items,
                                uint64_t cause_id, int q_id, int q_lane) {
    for (VarId v : items) {
      const size_t item = static_cast<size_t>(v);
      const double fresh = st.item_queries[item].empty()
                               ? kInf
                               : ItemMinPrimary(st, static_cast<int>(item));
      const double old_width = st.min_primary[item];
      const bool changed =
          std::isinf(fresh) != std::isinf(old_width) ||
          (!std::isinf(fresh) &&
           std::fabs(fresh - old_width) > 1e-9 * std::max(1.0, old_width));
      if (!changed) continue;
      st.min_primary[item] = fresh;
      if (std::isinf(fresh)) {
        st.installed_dab[item] = kInf;
        continue;
      }
      ++metrics.dab_change_messages;
      if (ins.dab_change_messages != nullptr) ins.dab_change_messages->Inc();
      const double delay = delays.Check() + delays.Network();
      if (ins.message_delay != nullptr) ins.message_delay->Record(delay);
      uint64_t sent_id = 0;
      if (trace != nullptr) {
        obs::TraceEvent e;
        e.time = cur_now;
        e.kind = obs::TraceEventKind::kDabChangeSent;
        e.node = tnode;
        e.item = static_cast<int32_t>(item);
        if (q_id >= 0) e.query = q_id;
        if (sharded && q_id >= 0) e.shard = q_lane;
        e.cause = cause_id;
        e.a = fresh;
        // A previously-retired item has an infinite merged width; record
        // 0 so the serialized trace stays finite.
        e.b = std::isinf(old_width) ? 0.0 : old_width;
        sent_id = trace->Emit(e);
      }
      st.events.push(Event{cur_now + delay, EventType::kDabChange,
                           static_cast<int>(item), fresh, sent_id, 0.0});
    }
  };

  auto find_live = [&](int query_id) -> int {
    for (size_t i = 0; i < queries.size(); ++i) {
      if (q_alive[i] != 0 && queries[i].id == query_id) {
        return static_cast<int>(i);
      }
    }
    return -1;
  };

  auto do_register = [&](const PolynomialQuery& q, core::QueryPlan plan,
                         double estimate, int degrade_attempts) -> Status {
    for (VarId v : q.p.Variables()) {
      if (static_cast<size_t>(v) >= n_items) {
        return Status::InvalidArgument(
            "registered query references item beyond universe");
      }
    }
    if (find_live(q.id) >= 0) {
      return Status::InvalidArgument("query id already registered: " +
                                     std::to_string(q.id));
    }
    ensure_dqi();
    const size_t qi = queries.size();
    queries.push_back(q);
    q_alive.push_back(1);
    q_reg_tick.push_back(cur_tick);
    q_dereg_tick.push_back(std::numeric_limits<int>::max());
    st.plans.push_back(std::move(plan));
    st.anchors.emplace_back();
    st.anchors[qi].resize(st.plans[qi].parts.size());
    for (size_t pi = 0; pi < st.plans[qi].parts.size(); ++pi) {
      anchor_part(qi, pi);
    }
    st.violated_time.push_back(0.0);
    const std::vector<VarId> items = q.p.Variables();
    for (VarId v : items) {
      st.item_queries[static_cast<size_t>(v)].push_back(
          static_cast<int>(qi));
    }
    dqi->AddQuery(q.id, items);
    refresh_partition();
    const int lane = st.query_shard[qi];
    view_eval.AddQuery(q);
    last_user_value.push_back(view_eval.QueryValue(qi));
    uint64_t reg_id = 0;
    if (trace != nullptr) {
      obs::TraceQueryInfo info;
      info.query = q.id;
      info.node = tnode;
      if (sharded) info.shard = lane;
      info.qab = q.qab;
      for (VarId v : items) info.items.push_back(static_cast<int32_t>(v));
      trace->AddQueryInfo(std::move(info));
      obs::TraceEvent e;
      e.time = cur_now;
      e.kind = obs::TraceEventKind::kQueryRegister;
      e.node = tnode;
      e.query = q.id;
      if (sharded) e.shard = lane;
      e.a = q.qab;
      e.b = estimate;
      e.flag = degrade_attempts;
      reg_id = trace->Emit(e);
    }
    // Plan installation is coordinator work: charge the query's lane one
    // recompute per plan part, exactly as a secondary-violation replan
    // would.
    double busy = 0.0;
    for (size_t pi = 0; pi < st.plans[qi].parts.size(); ++pi) {
      busy += delays.RecomputeCpu();
    }
    const size_t lane_s = static_cast<size_t>(lane);
    st.shard_free_at[lane_s] =
        std::max(cur_now, st.shard_free_at[lane_s]) + busy;
    emit_plan_patch(reg_id);
    ship_churn_changes(items, reg_id, q.id, lane);
    if (wal_file != nullptr && replay_done) {
      recovery::AppendWal(wal_file.get(), {.kind = WalKind::kChurn,
                                           .tick = cur_tick, .op = "register",
                                           .query_id = q.id});
    }
    return Status::OK();
  };

  auto do_modify = [&](int query_id, double new_qab,
                       core::QueryPlan plan) -> Status {
    const int qi = find_live(query_id);
    if (qi < 0) {
      return Status::InvalidArgument("modify of unknown query id: " +
                                     std::to_string(query_id));
    }
    const size_t q = static_cast<size_t>(qi);
    const double old_qab = queries[q].qab;
    queries[q].qab = new_qab;
    st.plans[q] = std::move(plan);
    st.anchors[q].resize(st.plans[q].parts.size());
    for (size_t pi = 0; pi < st.plans[q].parts.size(); ++pi) {
      anchor_part(q, pi);
    }
    ensure_dqi();
    refresh_partition();
    const int lane = st.query_shard[q];
    uint64_t mod_id = 0;
    if (trace != nullptr) {
      obs::TraceEvent e;
      e.time = cur_now;
      e.kind = obs::TraceEventKind::kQueryModify;
      e.node = tnode;
      e.query = query_id;
      if (sharded) e.shard = lane;
      e.a = new_qab;
      e.b = old_qab;
      mod_id = trace->Emit(e);
    }
    double busy = 0.0;
    for (size_t pi = 0; pi < st.plans[q].parts.size(); ++pi) {
      busy += delays.RecomputeCpu();
    }
    const size_t lane_s = static_cast<size_t>(lane);
    st.shard_free_at[lane_s] =
        std::max(cur_now, st.shard_free_at[lane_s]) + busy;
    emit_plan_patch(mod_id);
    ship_churn_changes(queries[q].p.Variables(), mod_id, query_id, lane);
    if (wal_file != nullptr && replay_done) {
      recovery::AppendWal(wal_file.get(), {.kind = WalKind::kChurn,
                                           .tick = cur_tick, .op = "modify",
                                           .query_id = query_id});
    }
    return Status::OK();
  };

  auto do_deregister = [&](int query_id) -> Status {
    const int qi = find_live(query_id);
    if (qi < 0) {
      return Status::InvalidArgument("deregister of unknown query id: " +
                                     std::to_string(query_id));
    }
    const size_t q = static_cast<size_t>(qi);
    ensure_dqi();
    // The pre-removal lane stamps the trace event; afterwards the slot
    // has no lane.
    const int lane = st.query_shard[q];
    q_alive[q] = 0;
    q_dereg_tick[q] = cur_tick;
    const std::vector<VarId> items = queries[q].p.Variables();
    for (VarId v : items) {
      auto& qs = st.item_queries[static_cast<size_t>(v)];
      qs.erase(std::remove(qs.begin(), qs.end(), qi), qs.end());
    }
    st.plans[q].parts.clear();
    st.anchors[q].clear();
    dqi->RemoveQuery(qi);
    refresh_partition();
    uint64_t de_id = 0;
    if (trace != nullptr) {
      obs::TraceEvent e;
      e.time = cur_now;
      e.kind = obs::TraceEventKind::kQueryDeregister;
      e.node = tnode;
      e.query = query_id;
      if (sharded) e.shard = lane;
      de_id = trace->Emit(e);
    }
    // Dropping a query is bookkeeping, not solver work: no lane charge.
    emit_plan_patch(de_id);
    ship_churn_changes(items, de_id, /*q_id=*/-1, /*q_lane=*/-1);
    if (wal_file != nullptr && replay_done) {
      recovery::AppendWal(wal_file.get(), {.kind = WalKind::kChurn,
                                           .tick = cur_tick, .op = "deregister",
                                           .query_id = query_id});
    }
    return Status::OK();
  };

  auto do_trial = [&](const PolynomialQuery& q) -> Result<core::QueryPlan> {
    for (VarId v : q.p.Variables()) {
      if (static_cast<size_t>(v) >= n_items) {
        return Status::InvalidArgument(
            "candidate query references item beyond universe");
      }
    }
    return core::PlanQueryParts(q, st.view, rates, planner_cfg);
  };

  auto do_reject = [&](int query_id, double estimate, double budget,
                       int reason) {
    // A duplicate-id attempt while the id is live is dropped rather than
    // traced: the checker's invariant is that a rejected id is not
    // active. The admission layer counts it either way.
    if (find_live(query_id) >= 0) return;
    if (trace != nullptr) {
      obs::TraceEvent e;
      e.time = cur_now;
      e.kind = obs::TraceEventKind::kAdmissionReject;
      e.node = tnode;
      e.query = query_id;
      e.a = estimate;
      e.b = budget;
      e.flag = reason;
      trace->Emit(e);
    }
  };

  EngineOps ops;
  ops.view = &st.view;
  ops.rates = &rates;
  ops.trial = do_trial;
  ops.register_fn = do_register;
  ops.modify_fn = do_modify;
  ops.deregister_fn = do_deregister;
  ops.reject_fn = do_reject;

  int aao_next_tick =
      aao_mode ? static_cast<int>(config.aao_period_s)
               : std::numeric_limits<int>::max();
  core::AaoSolution last_aao;
  bool have_aao = false;

  // Single-DAB schemes (Optimal Refresh, WSDAB) recompute on *every*
  // refresh: their correctness condition covers drift from the exact
  // anchor values only, so any view change stales the assignment (§I-B,
  // Figure 2). The Dual-DAB scheme recomputes only when a value escapes
  // its secondary range (§III-A.2).
  const bool recompute_every_refresh =
      planner_cfg.method != core::AssignmentMethod::kDualDab;

  // Deliver all messages with arrival time <= now. DAB-change events that
  // a recomputation emits at `now` (e.g. under zero delays) are picked up
  // within the same call. Non-OK only when a pool job failed: the abort
  // latched in the pool surfaces at the next epoch await.
  auto deliver_until = [&](double now) -> Status {
    while (!st.events.empty() && st.events.top().time <= now) {
      const Event ev = st.events.top();
      st.events.pop();
      if (ev.type == EventType::kDabChange) {
        st.installed_dab[static_cast<size_t>(ev.item)] = ev.value;
        if (trace != nullptr) {
          obs::TraceEvent e;
          e.time = ev.time;
          e.kind = obs::TraceEventKind::kDabChangeInstalled;
          e.node = tnode;
          e.item = ev.item;
          e.cause = ev.trace_id;
          e.a = ev.value;
          trace->Emit(e);
        }
        continue;
      }
      if (ev.type == EventType::kAckArrive) {
        // Source side: the ack clears the retransmit obligation for this
        // seq and anything older (a newer pending seq stays live).
        recovery::CheckpointItemFault& f =
            item_fault[static_cast<size_t>(ev.item)];
        if (f.pending_live && ev.seq >= f.pending_seq) f.pending_live = false;
        continue;
      }
      if (ev.type == EventType::kHeartbeat) {
        // Liveness only: heartbeats cost the coordinator nothing and do
        // not queue behind lane work. Event.item carries the source id.
        uint64_t hb_id = 0;
        if (trace != nullptr) {
          trace->SetNow(ev.time);
          obs::TraceEvent e;
          e.time = ev.time;
          e.kind = obs::TraceEventKind::kHeartbeat;
          e.node = tnode;
          e.source = ev.item;
          hb_id = trace->Emit(e);
        }
        record_contact(ev.item, ev.time, hb_id);
        continue;
      }
      // Each coordinator lane is a serial resource: a refresh that arrives
      // while its item's home lane is still busy (checking earlier
      // refreshes, recomputing DABs) waits in that lane's queue. This
      // queueing is what turns recomputation volume into fidelity loss
      // (§V-B.1); with one lane, every refresh waits for everything.
      const int home = st.item_home_shard[static_cast<size_t>(ev.item)];
      const size_t home_lane = static_cast<size_t>(home < 0 ? 0 : home);
      if (ev.time < st.shard_free_at[home_lane]) {
        Event deferred = ev;
        deferred.time = st.shard_free_at[home_lane];
        deferred.wait += st.shard_free_at[home_lane] - ev.time;
        st.events.push(deferred);
        continue;
      }
      if (fault_mode && ev.seq != 0 &&
          ev.seq <= item_fault[static_cast<size_t>(ev.item)].delivered_seq) {
        // An already-delivered seq (injected duplicate, or a retransmit
        // that raced its own ack): suppressed without the QAB-check cost,
        // but still a liveness contact, and re-acked in case the earlier
        // ack was the casualty.
        ++metrics.duplicates_suppressed;
        if (ins.duplicates_suppressed != nullptr) {
          ins.duplicates_suppressed->Inc();
        }
        uint64_t dup_id = 0;
        if (trace != nullptr) {
          trace->SetNow(ev.time);
          obs::TraceEvent e;
          e.time = ev.time;
          e.kind = obs::TraceEventKind::kDupSuppressed;
          e.node = tnode;
          e.source = ev.item % num_sources;
          e.item = ev.item;
          if (sharded) e.shard = static_cast<int32_t>(home_lane);
          e.cause = ev.trace_id;
          e.a = ev.value;
          e.flag = static_cast<int32_t>(ev.seq);
          dup_id = trace->Emit(e);
        }
        record_contact(ev.item % num_sources, ev.time, dup_id);
        send_ack(ev.item, ev.seq, ev.time, dup_id);
        continue;
      }
      // Refresh processing begins. The full queue wait — summed across
      // every deferral this refresh went through — is recorded exactly
      // once, now that it is known.
      if (ins.queue_wait != nullptr && ev.wait > 0.0) {
        ins.queue_wait->Record(ev.wait);
      }
      ++metrics.refreshes;
      if (ins.refreshes != nullptr) ins.refreshes->Inc();
      uint64_t arrival_id = 0;
      if (trace != nullptr) {
        trace->SetNow(ev.time);
        obs::TraceEvent e;
        e.time = ev.time;
        e.kind = obs::TraceEventKind::kRefreshArrived;
        e.node = tnode;
        e.source = ev.item % num_sources;
        e.item = ev.item;
        if (sharded) e.shard = static_cast<int32_t>(home_lane);
        e.cause = ev.trace_id;
        e.a = ev.value;
        e.b = ev.wait;
        if (ev.seq != 0) e.flag = static_cast<int32_t>(ev.seq);
        arrival_id = trace->Emit(e);
      }
      if (fault_mode && ev.seq != 0) {
        item_fault[static_cast<size_t>(ev.item)].delivered_seq = ev.seq;
        record_contact(ev.item % num_sources, ev.time, arrival_id);
        send_ack(ev.item, ev.seq, ev.time, arrival_id);
      }
      std::fill(lane_busy.begin(), lane_busy.end(), 0.0);
      pre_free = st.shard_free_at;
      std::fill(barrier_lane.begin(), barrier_lane.end(), 0);
      barrier_any = false;
      lane_busy[home_lane] = delays.Check();
      st.view[static_cast<size_t>(ev.item)] = ev.value;
      view_eval.Update(static_cast<VarId>(ev.item), ev.value);
      // Pass 1, the service's one staleness walk: visit the parts this
      // refresh makes stale in oracle order, with no RNG draw and no
      // emission. Stale parts are grouped by bitwise-equal solve inputs
      // (core::SameReplanInputs; the hash only picks candidates) and each
      // group's leader is solved once. Groups go round-robin to slots
      // 0..workers: the pool workers, then the event loop, which solves
      // its share inline once the others are dispatched. Solvers read
      // st.view / rates / the leader part concurrently; the event loop
      // mutates none of them until the group's epoch is awaited in pass 2.
      // A part's anchors and secondary DABs only move at its own install
      // and each part is stale at most once per service, so the set pass
      // 1 records is the set pass 2 installs.
      const std::vector<int>& item_qs =
          st.item_queries[static_cast<size_t>(ev.item)];
      solve_groups.clear();
      stale_parts.clear();
      const int loop_slot = pool.workers();
      const size_t slots = static_cast<size_t>(loop_slot) + 1;
      for (size_t k = 0; k < item_qs.size(); ++k) {
        const size_t qi = static_cast<size_t>(item_qs[k]);
        core::QueryPlan& plan = st.plans[qi];
        for (size_t pi = 0; pi < plan.parts.size(); ++pi) {
          core::PlanPart& part = plan.parts[pi];
          const int idx = part.dabs.IndexOf(static_cast<VarId>(ev.item));
          if (idx < 0) continue;
          // Value-independent assignments (LAQs) never go stale.
          if (part.dabs.never_stale) continue;
          // Single-DAB schemes are stale on every refresh; Dual-DAB only
          // once the value escapes the part's secondary range.
          double anchor = 0.0;
          if (!recompute_every_refresh) {
            anchor = st.anchors[qi][pi][static_cast<size_t>(idx)];
            const double drift = std::fabs(ev.value - anchor);
            const double limit =
                part.dabs.secondary[static_cast<size_t>(idx)] *
                (1.0 + config.violation_tol);
            if (drift <= limit) continue;
          }
          const uint64_t hash = core::ReplanInputsHash(part);
          size_t g = 0;
          while (g < solve_groups.size() &&
                 !(solve_groups[g].hash == hash &&
                   core::SameReplanInputs(*solve_groups[g].leader, part))) {
            ++g;
          }
          stale_parts.push_back(
              {k, pi, static_cast<size_t>(idx), anchor, g});
          if (g < solve_groups.size()) {
            solve_groups[g].shared = true;
            continue;
          }
          SolveGroup& group = solve_groups.emplace_back();
          group.leader = &part;
          group.hash = hash;
          group.slot = static_cast<int>(g % slots);
          if (group.slot == loop_slot) continue;
          const bool abort_job =
              ++solve_jobs_dispatched == config.rt_fail_at;
          group.epoch = pool.Dispatch(
              group.slot, [&group, &view = st.view, &rates, &solve_cfg,
                           abort_job]() {
                if (abort_job) {
                  return Status::Internal(
                      "rt: injected worker abort (rt_fail_at)");
                }
                group.Solve(view, rates, solve_cfg);
                return Status::OK();
              });
        }
      }
      for (SolveGroup& group : solve_groups) {
        if (group.slot == loop_slot) group.Solve(st.view, rates, solve_cfg);
      }
      // Pass 2: notify users, then install pass 1's stale parts in the
      // order it found them.
      size_t next_stale = 0;
      for (size_t k = 0; k < item_qs.size(); ++k) {
        const size_t qi = static_cast<size_t>(item_qs[k]);
        const size_t lane = static_cast<size_t>(st.query_shard[qi]);
        // Push the fresh result to the user when it drifted past the QAB
        // since the last notification.
        const double qv = view_eval.QueryValue(qi);
        const double prev_user = last_user_value[qi];
        if (std::fabs(qv - prev_user) > queries[qi].qab) {
          last_user_value[qi] = qv;
          ++metrics.user_notifications;
          if (ins.user_notifications != nullptr) ins.user_notifications->Inc();
          if (trace != nullptr) {
            obs::TraceEvent e;
            e.time = ev.time;
            e.kind = obs::TraceEventKind::kUserNotification;
            e.node = tnode;
            e.item = ev.item;
            e.query = queries[qi].id;
            if (sharded) e.shard = static_cast<int32_t>(lane);
            e.cause = arrival_id;
            e.a = qv;
            e.b = prev_user;
            trace->Emit(e);
          }
          lane_busy[lane] += delays.Push();
        }
        for (; next_stale < stale_parts.size() &&
               stale_parts[next_stale].k == k;
             ++next_stale) {
          const StalePart& sp = stale_parts[next_stale];
          const size_t pi = sp.pi;
          core::PlanPart& part = st.plans[qi].parts[pi];
          // Under Dual-DAB the recomputation's cause is the secondary
          // violation; under single-DAB staleness it is the arrival
          // itself.
          uint64_t recompute_cause = arrival_id;
          if (!recompute_every_refresh && trace != nullptr) {
            obs::TraceEvent e;
            e.time = ev.time;
            e.kind = obs::TraceEventKind::kSecondaryViolation;
            e.node = tnode;
            e.item = ev.item;
            e.query = queries[qi].id;
            e.part = static_cast<int32_t>(pi);
            if (sharded) e.shard = static_cast<int32_t>(lane);
            e.cause = arrival_id;
            e.a = ev.value;
            e.b = sp.anchor;
            e.c = part.dabs.secondary[sp.idx];
            recompute_cause = trace->Emit(e);
          }
          // This part's assignment is stale (§I-B): recompute it.
          // Warm-starting from the previous assignment keeps each
          // re-solve cheap even when every refresh triggers one.
          ++metrics.recomputations;
          if (ins.recomputations != nullptr) {
            ins.recomputations->Inc();
            (recompute_every_refresh ? ins.cause_single_dab_staleness
                                     : ins.cause_secondary_escape)
                ->Inc();
          }
          uint64_t start_id = 0;
          if (trace != nullptr) {
            obs::TraceEvent e;
            e.time = ev.time;
            e.kind = obs::TraceEventKind::kRecomputeStart;
            e.node = tnode;
            e.item = ev.item;
            e.query = queries[qi].id;
            e.part = static_cast<int32_t>(pi);
            if (sharded) e.shard = static_cast<int32_t>(lane);
            e.cause = recompute_cause;
            start_id = trace->Emit(e);
          }
          lane_busy[lane] += delays.RecomputeCpu();
          // The epoch await is the only synchronization a result needs
          // before its install. A part other than its group's leader
          // installs a copy of the leader's result — exact, because
          // ReplanPart is a pure function of the inputs the group shares
          // plus the view and rates every solve of this service reads.
          SolveGroup& group = solve_groups[sp.group];
          if (group.slot < pool.workers()) {
            POLYDAB_RETURN_NOT_OK(pool.AwaitEpoch(group.slot, group.epoch));
          }
          Result<QueryDabs> fresh =
              group.leader != &part
                  ? core::ReplanPartByCopy(part, group.result, group.solve,
                                           planner_cfg)
              : group.shared ? Result<QueryDabs>(group.result)
                             : std::move(group.result);
          core::TraceReplan(planner_cfg, part, fresh.ok());
          uint64_t end_id = 0;
          if (trace != nullptr) {
            obs::TraceEvent e;
            e.time = ev.time;
            e.kind = obs::TraceEventKind::kRecomputeEnd;
            e.node = tnode;
            e.item = ev.item;
            e.query = queries[qi].id;
            e.part = static_cast<int32_t>(pi);
            if (sharded) e.shard = static_cast<int32_t>(lane);
            e.cause = start_id;
            e.flag = fresh.ok() ? 1 : 0;
            end_id = trace->Emit(e);
          }
          if (!fresh.ok()) {
            ++metrics.solver_failures;
            if (ins.solver_failures != nullptr) ins.solver_failures->Inc();
            continue;  // keep the stale plan; better than none
          }
          part.dabs = std::move(fresh).value();
          if (config.paranoid_validation) {
            // Only the freshly replanned part is anchored at the current
            // view; sibling parts keep their own (older) anchors.
            Status valid = core::ValidatePart(part, st.view);
            POLYDAB_CHECK(valid.ok());
          }
          anchor_part(qi, pi);
          ship_dab_changes(qi, pi, ev.time, end_id,
                           /*emit_item_barriers=*/true);
        }
      }
      // End of service: the home lane ran from the arrival; a lane that
      // got work dispatched from here starts once it drains its own
      // earlier work. Lanes a barrier joined then advance together.
      st.shard_free_at[home_lane] = ev.time + lane_busy[home_lane];
      if (sharded) {
        for (size_t s = 0; s < st.shard_free_at.size(); ++s) {
          if (s == home_lane || lane_busy[s] == 0.0) continue;
          const double start = std::max(ev.time, pre_free[s]);
          if (ins.shard_dispatch_wait != nullptr && start > ev.time) {
            ins.shard_dispatch_wait->Record(start - ev.time);
          }
          st.shard_free_at[s] = start + lane_busy[s];
        }
        if (barrier_any) {
          double joined = 0.0;
          for (size_t s = 0; s < st.shard_free_at.size(); ++s) {
            if (barrier_lane[s] != 0) {
              joined = std::max(joined, st.shard_free_at[s]);
            }
          }
          for (size_t s = 0; s < st.shard_free_at.size(); ++s) {
            if (barrier_lane[s] != 0) st.shard_free_at[s] = joined;
          }
        }
      }
    }
    return Status::OK();
  };

  // Per-tick activity snapshots for the rate histograms.
  int64_t tick_refresh_base = 0;
  int64_t tick_recompute_base = 0;

  // Rows consumed from the source so far (tick 0 included); the
  // streaming run length is discovered, not declared.
  int ticks_seen = 1;

  // Assemble a full snapshot of the coordinator's mutable state at the
  // end of tick `tick` (docs/RECOVERY.md). `end_id` is the id the
  // checkpoint_end event will get (0 untraced); the restart resumes event
  // numbering at end_id + 1.
  auto build_checkpoint = [&](int tick, uint64_t end_id) {
    recovery::CheckpointState snap;
    snap.tick = tick;
    snap.ticks_seen = ticks_seen;
    snap.config_fp = config_fp;
    snap.num_items = static_cast<int>(n_items);
    snap.num_sources = num_sources;
    snap.num_shards = num_shards;
    snap.trace_next_id = end_id == 0 ? 0 : end_id + 1;
    snap.ckpt_end_id = end_id;
    snap.fault_mode = fault_mode;
    snap.dqi_built = dqi != nullptr;
    snap.updates_since_rebase = view_eval.updates_since_rebase();
    snap.refreshes = metrics.refreshes;
    snap.recomputations = metrics.recomputations;
    snap.dab_change_messages = metrics.dab_change_messages;
    snap.user_notifications = metrics.user_notifications;
    snap.solver_failures = metrics.solver_failures;
    snap.fault_drops = metrics.fault_drops;
    snap.retransmits = metrics.retransmits;
    snap.duplicates_suppressed = metrics.duplicates_suppressed;
    snap.lease_expiries = metrics.lease_expiries;
    snap.degraded_query_seconds = metrics.degraded_query_seconds;
    snap.queries.reserve(queries.size());
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      recovery::CheckpointQuery cq;
      cq.id = queries[qi].id;
      cq.qab = queries[qi].qab;
      cq.poly = queries[qi].p;
      cq.alive = q_alive[qi] != 0;
      cq.reg_tick = q_reg_tick[qi];
      cq.dereg_tick = q_dereg_tick[qi] == std::numeric_limits<int>::max()
                          ? -1
                          : q_dereg_tick[qi];
      cq.violated_time = st.violated_time[qi];
      cq.last_user_value = last_user_value[qi];
      cq.shard = st.query_shard[qi];
      cq.query_value = view_eval.QueryValue(qi);
      if (fault_mode) {
        cq.degraded_items = degraded_items[qi];
        cq.degrade_event = degrade_event[qi];
      }
      snap.queries.push_back(std::move(cq));
    }
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      for (size_t pi = 0; pi < st.plans[qi].parts.size(); ++pi) {
        const core::PlanPart& part = st.plans[qi].parts[pi];
        recovery::CheckpointPart cp;
        cp.slot = static_cast<int>(qi);
        cp.part = static_cast<int>(pi);
        cp.poly = part.subquery.p;
        cp.pqab = part.subquery.qab;
        cp.vars = part.dabs.vars;
        cp.primary = part.dabs.primary;
        cp.secondary = part.dabs.secondary;
        cp.recompute_rate = part.dabs.recompute_rate;
        cp.single_dab = part.dabs.single_dab;
        cp.never_stale = part.dabs.never_stale;
        cp.anchor = st.anchors[qi][pi];
        snap.parts.push_back(std::move(cp));
      }
    }
    snap.view = st.view;
    snap.source_value = st.source_value;
    snap.last_pushed = st.last_pushed;
    snap.installed_dab = st.installed_dab;
    snap.min_primary = st.min_primary;
    snap.item_home_shard = st.item_home_shard;
    snap.item_queries = st.item_queries;
    snap.item_shards = st.item_shards;
    snap.shard_free_at = st.shard_free_at;
    snap.events = st.events.c;
    snap.sources = source_fault;
    snap.item_fault = item_fault;
    if (config.registry != nullptr) {
      for (const obs::MetricRegistry::Entry& en : config.registry->Entries()) {
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
    {
      std::ostringstream os;
      os << delays.rng().engine();
      snap.delay_rng = os.str();
    }
    {
      std::ostringstream os;
      os << faults.rng().engine();
      snap.fault_rng = os.str();
    }
    if (config.service != nullptr) {
      snap.service_state = config.service->SnapshotState();
    }
    return snap;
  };

  // ---- Restart: apply the remaining snapshot state and stage the WAL
  // replay. Everything structural (queries, plans, lanes, fault tables)
  // was restored above; what's left is the exact mutable tail — the
  // evaluator's delta chain, user-visible values, churn clocks, the
  // in-flight event heap, both RNG streams, telemetry, and the service
  // driver — plus the post-checkpoint rows to re-run. ----
  if (rec_restart) {
    last_ckpt_end_id = ckpt->ckpt_end_id;
    Vector qvals(queries.size());
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      const recovery::CheckpointQuery& cq = ckpt->queries[qi];
      qvals[qi] = cq.query_value;
      st.query_shard[qi] = cq.shard;
      st.violated_time[qi] = cq.violated_time;
      last_user_value[qi] = cq.last_user_value;
      q_alive[qi] = cq.alive ? 1 : 0;
      q_reg_tick[qi] = cq.reg_tick;
      q_dereg_tick[qi] =
          cq.dereg_tick < 0 ? std::numeric_limits<int>::max() : cq.dereg_tick;
      if (fault_mode) {
        degraded_items[qi] = cq.degraded_items;
        degrade_event[qi] = cq.degrade_event;
      }
    }
    view_eval.RestoreState(st.view, std::move(qvals),
                           ckpt->updates_since_rebase);
    if (ckpt->dqi_built) {
      // Rebuild the dynamic index by replaying membership: every slot is
      // added in slot order (so dqi slot i == query index i, the
      // ensure_dqi invariant), then the dead ones removed. ComponentMin
      // and the shard assignment are content-determined, so the rebuilt
      // index answers identically to the crashed run's.
      ensure_dqi();
      for (size_t qi = 0; qi < queries.size(); ++qi) {
        if (q_alive[qi] == 0) {
          dqi->RemoveQuery(static_cast<int>(qi));
        }
      }
    }
    st.events.c = ckpt->events;
    {
      std::istringstream in(ckpt->delay_rng);
      in >> delays.rng().engine();
      if (in.fail()) {
        return Status::InvalidArgument(
            "restart: bad delay-RNG stream state in checkpoint");
      }
    }
    {
      std::istringstream in(ckpt->fault_rng);
      in >> faults.rng().engine();
      if (in.fail()) {
        return Status::InvalidArgument(
            "restart: bad fault-RNG stream state in checkpoint");
      }
    }
    if (config.registry != nullptr) {
      for (const recovery::CheckpointInstrument& ci : ckpt->instruments) {
        if (ci.kind == 'c') {
          obs::Counter* c = config.registry->GetCounter(ci.name);
          c->Add(ci.count - c->value());
        } else if (ci.kind == 'g') {
          config.registry->GetGauge(ci.name)->Set(ci.value);
        } else {
          config.registry->GetHistogram(ci.name)->RestoreState(
              ci.buckets, ci.count, ci.sum, ci.raw_min, ci.raw_max);
        }
      }
    } else if (!ckpt->instruments.empty()) {
      return Status::InvalidArgument(
          "restart: checkpoint carries registry instruments but the "
          "restart has no metric registry attached");
    }
    if (config.service != nullptr) {
      POLYDAB_RETURN_NOT_OK(config.service->RestoreState(ckpt->service_state));
    } else if (!ckpt->service_state.empty()) {
      return Status::InvalidArgument(
          "restart: checkpoint carries service-driver state but no "
          "service driver is attached");
    }
    if (trace != nullptr) {
      if (ckpt->trace_next_id == 0) {
        return Status::InvalidArgument(
            "restart: checkpoint was taken untraced but the restart has a "
            "trace sink");
      }
      // Continue event numbering where the snapshot left off, and hold
      // back query infos while replaying: the crashed trace already has
      // every info recorded before the crash.
      trace->SetNextId(ckpt->trace_next_id);
      trace->SuppressQueryInfos(true);
    } else if (ckpt->trace_next_id != 0) {
      return Status::InvalidArgument(
          "restart: checkpoint was taken traced but the restart has no "
          "trace sink");
    }
    ticks_seen = ckpt->ticks_seen;
    if (ckpt->shard_free_at.size() != static_cast<size_t>(num_shards)) {
      return Status::InvalidArgument(
          "restart: checkpoint lane-clock width mismatch");
    }
    st.shard_free_at = ckpt->shard_free_at;
    tick_refresh_base = metrics.refreshes;
    tick_recompute_base = metrics.recomputations;
    // Stage the replay: every WAL row after the snapshot and before the
    // crash marker, in tick order, gap-free.
    crash_marker = recovery::LastCrashMarker(*rec->wal);
    if (crash_marker == nullptr) {
      return Status::InvalidArgument(
          "restart: WAL has no crash marker (the crashed run did not "
          "terminate through the injector)");
    }
    if (crash_marker->tick <= ckpt->tick) {
      return Status::InvalidArgument(
          "restart: WAL crash marker (tick " +
          std::to_string(crash_marker->tick) +
          ") precedes the checkpoint (tick " + std::to_string(ckpt->tick) +
          "); checkpoint and WAL files disagree");
    }
    if (crash_marker->cause != last_ckpt_end_id) {
      return Status::InvalidArgument(
          "restart: WAL crash marker cites checkpoint_end id " +
          std::to_string(crash_marker->cause) +
          " but the loaded snapshot's is " +
          std::to_string(last_ckpt_end_id));
    }
    int expect = ckpt->tick + 1;
    for (const recovery::WalRecord& r : *rec->wal) {
      if (r.kind != recovery::WalRecord::Kind::kRow) continue;
      if (r.tick <= ckpt->tick || r.tick >= crash_marker->tick) continue;
      if (r.tick != expect) {
        return Status::InvalidArgument(
            "restart: WAL rows are not contiguous (expected tick " +
            std::to_string(expect) + ", found tick " +
            std::to_string(r.tick) + ")");
      }
      if (r.values.size() != n_items) {
        return Status::InvalidArgument(
            "restart: WAL row at tick " + std::to_string(r.tick) +
            " has width " + std::to_string(r.values.size()) +
            ", expected " + std::to_string(n_items));
      }
      replay_rows.push_back(&r);
      ++expect;
    }
    if (expect != crash_marker->tick) {
      return Status::InvalidArgument(
          "restart: WAL is missing rows between the checkpoint (tick " +
          std::to_string(ckpt->tick) + ") and the crash (tick " +
          std::to_string(crash_marker->tick) + ")");
    }
    replay_done = false;
  }

  for (int tick = rec_restart ? ckpt->tick + 1 : 1;; ++tick) {
    if (!replay_done && replay_idx >= replay_rows.size()) {
      // WAL exhausted: this is exactly the crashed run's crash instant.
      // Re-emit the coord_crash replica — its id must reproduce the
      // marker's, a built-in replay-determinism self-check — then mark
      // the recovery boundary and fall through to live consumption.
      replay_done = true;
      if (trace != nullptr) {
        const double ct = static_cast<double>(tick);
        trace->SetNow(ct);
        obs::TraceEvent e;
        e.time = ct;
        e.kind = obs::TraceEventKind::kCoordCrash;
        e.node = tnode;
        e.cause = last_ckpt_end_id;
        e.flag = tick;
        const uint64_t xid = trace->Emit(e);
        if (xid != crash_marker->event_id) {
          return Status::Internal(
              "recovery replay diverged: coord_crash replica got event id " +
              std::to_string(xid) + " but the crashed run recorded " +
              std::to_string(crash_marker->event_id));
        }
        obs::TraceEvent r2;
        r2.time = ct;
        r2.kind = obs::TraceEventKind::kRecoveryReplay;
        r2.node = tnode;
        r2.cause = xid;
        r2.a = static_cast<double>(replay_rows.size());
        r2.b = static_cast<double>(ckpt->tick);
        trace->Emit(r2);
        trace->SuppressQueryInfos(false);
      }
    }
    if (!replay_done) {
      const recovery::WalRecord* wr = replay_rows[replay_idx++];
      if (wr->tick != tick) {
        return Status::Internal("recovery replay desynchronized at tick " +
                                std::to_string(tick));
      }
      row = wr->values;
    } else {
      if (rec != nullptr && rec->crash_at_tick == tick) {
        // --- Injected coordinator crash: top of the tick, before the
        // tick's row is consumed, so the WAL's last row is tick - 1 and
        // the restart resumes by replaying up to exactly here. The
        // partial metrics go back to the caller; rec->crashed tells the
        // tool this was the injector, not a normal end-of-trace. ---
        uint64_t xid = 0;
        if (trace != nullptr) {
          const double ct = static_cast<double>(tick);
          trace->SetNow(ct);
          obs::TraceEvent e;
          e.time = ct;
          e.kind = obs::TraceEventKind::kCoordCrash;
          e.node = tnode;
          e.cause = last_ckpt_end_id;
          e.flag = tick;
          xid = trace->Emit(e);
        }
        if (wal_file != nullptr) {
          recovery::AppendWal(wal_file.get(),
                              {.kind = WalKind::kCrash, .tick = tick,
                               .event_id = xid, .cause = last_ckpt_end_id});
          std::fflush(wal_file.get());
        }
        rec->crashed = true;
        rec->crash_event_id = xid;
        POLYDAB_RETURN_NOT_OK(pool.Quiesce());
        pool.Stop();
        return metrics;
      }
      {
        auto more = source.Next(&row);
        if (!more.ok()) return more.status();
        if (!*more) break;
      }
      if (wal_file != nullptr) {
        recovery::AppendWal(wal_file.get(), {.kind = WalKind::kRow,
                                             .tick = tick, .values = row});
      }
    }
    ++ticks_seen;
    const double now = static_cast<double>(tick);

    // 1. Deliver everything that arrived since the last tick.
    POLYDAB_RETURN_NOT_OK(deliver_until(now));

    // 1a. Injected coordinator-lane stalls: the lane's busy-until clock
    //     jumps forward, so queued refreshes defer behind the outage.
    //     After delivery — messages already in by `now` predate the
    //     stall, and the trace stays time-monotonic.
    if (fault_mode && config.fault.stall_prob > 0.0) {
      for (size_t s = 0; s < st.shard_free_at.size(); ++s) {
        if (!faults.StallNow()) continue;
        const double dur = faults.StallDuration();
        st.shard_free_at[s] = std::max(st.shard_free_at[s], now) + dur;
        if (trace != nullptr) {
          trace->SetNow(now);
          obs::TraceEvent e;
          e.time = now;
          e.kind = obs::TraceEventKind::kLaneStall;
          e.node = tnode;
          if (sharded) e.shard = static_cast<int32_t>(s);
          e.a = dur;
          trace->Emit(e);
        }
      }
    }

    // 1b. Runtime churn: hand the service driver the engine ops, after
    //     message delivery and before source pushes, so a query
    //     registered this tick sees (and filters) this tick's values.
    if (config.service != nullptr) {
      cur_tick = tick;
      cur_now = now;
      if (trace != nullptr) trace->SetNow(now);
      POLYDAB_RETURN_NOT_OK(config.service->OnTick(tick, now, ops));
    }

    // 2. Figure-7 mode: periodic joint AAO recomputation.
    if (aao_mode && tick >= aao_next_tick) {
      aao_next_tick += std::max(1, static_cast<int>(config.aao_period_s));
      // Epoch barrier at the AAO global barrier: every lane's dispatched
      // solves must have completed before the joint solve reads and
      // rewrites all plans. (Each service already awaits its own jobs, so
      // this quiesce is a cheap invariant, not a stall.)
      POLYDAB_RETURN_NOT_OK(pool.Quiesce());
      if (trace != nullptr) trace->SetNow(now);
      auto joint = core::SolveAao(queries, st.view, rates,
                                  planner_cfg.dual,
                                  have_aao ? &last_aao : nullptr);
      uint64_t aao_id = 0;
      if (trace != nullptr) {
        obs::TraceEvent e;
        e.time = now;
        e.kind = obs::TraceEventKind::kAaoSolve;
        e.node = tnode;
        e.a = static_cast<double>(queries.size());
        e.flag = joint.ok() ? 1 : 0;
        aao_id = trace->Emit(e);
      }
      if (!joint.ok()) {
        ++metrics.solver_failures;
        if (ins.solver_failures != nullptr) ins.solver_failures->Inc();
      } else {
        last_aao = *joint;
        have_aao = true;
        if (sharded) {
          // The joint solve reads and replaces every query's plan: one
          // global barrier joins every lane before any filter ships.
          double joined = now;
          for (double f : st.shard_free_at) joined = std::max(joined, f);
          if (ins.shard_barriers != nullptr) ins.shard_barriers->Inc();
          if (trace != nullptr) {
            obs::TraceEvent e;
            e.time = now;
            e.kind = obs::TraceEventKind::kShardBarrier;
            e.node = tnode;
            e.cause = aao_id;
            e.a = joined;
            e.b = static_cast<double>(st.shard_free_at.size());
            trace->Emit(e);
          }
          st.shard_free_at.assign(st.shard_free_at.size(), joined);
        }
        for (size_t qi = 0; qi < queries.size(); ++qi) {
          ++metrics.recomputations;  // each query's DABs were recomputed
          if (ins.recomputations != nullptr) {
            ins.recomputations->Inc();
            ins.cause_aao_periodic->Inc();
          }
          if (trace != nullptr) {
            obs::TraceEvent e;
            e.time = now;
            e.kind = obs::TraceEventKind::kRecomputeStart;
            e.node = tnode;
            e.query = queries[qi].id;
            e.part = 0;
            if (sharded) e.shard = st.query_shard[qi];
            e.cause = aao_id;
            const uint64_t start_id = trace->Emit(e);
            e.kind = obs::TraceEventKind::kRecomputeEnd;
            e.cause = start_id;
            e.flag = 1;  // the joint solve already succeeded
            trace->Emit(e);
          }
          st.plans[qi].parts.assign(
              1, core::PlanPart{queries[qi], joint->per_query[qi]});
          st.anchors[qi].resize(1);
          anchor_part(qi, 0);
        }
        for (size_t qi = 0; qi < queries.size(); ++qi) {
          ship_dab_changes(qi, 0, now, aao_id, /*emit_item_barriers=*/false);
        }
      }
    }

    // 3. Sources advance to this tick's trace values and push filtered
    //    changes. Fault mode first settles which sources are down this
    //    tick: a crashed source keeps drifting but emits nothing (pushes,
    //    retransmits, heartbeats) until its outage window passes.
    if (fault_mode && config.fault.crash_prob > 0.0) {
      for (int s = 0; s < num_sources; ++s) {
        const size_t ss = static_cast<size_t>(s);
        if (source_fault[ss].crashed_until > now) continue;  // already down
        if (!faults.CrashNow()) continue;
        const double dur = faults.CrashDuration();
        source_fault[ss].crashed_until = now + dur;
        if (trace != nullptr) {
          trace->SetNow(now);
          obs::TraceEvent e;
          e.time = now;
          e.kind = obs::TraceEventKind::kCrash;
          e.node = tnode;
          e.source = s;
          e.a = dur;
          source_fault[ss].crash_event = trace->Emit(e);
        }
      }
    }
    for (size_t item = 0; item < n_items; ++item) {
      st.source_value[item] = row[item];
      const double dab = st.installed_dab[item];
      if (std::isinf(dab)) continue;  // item unused by any query
      if (std::fabs(st.source_value[item] - st.last_pushed[item]) > dab) {
        int64_t seq = 0;
        if (fault_mode) {
          // A crashed source neither pushes nor records the value as
          // pushed: the drift persists, so recovery pushes immediately.
          if (source_fault[item % static_cast<size_t>(num_sources)]
                  .crashed_until > now) {
            continue;
          }
          seq = item_fault[item].next_seq++;
        }
        uint64_t emit_id = 0;
        if (trace != nullptr) {
          obs::TraceEvent e;
          e.time = now;
          e.kind = obs::TraceEventKind::kRefreshEmitted;
          e.node = tnode;
          e.source = static_cast<int32_t>(item) % num_sources;
          e.item = static_cast<int32_t>(item);
          e.a = st.source_value[item];
          e.b = dab;
          e.c = st.last_pushed[item];
          if (seq != 0) e.flag = static_cast<int32_t>(seq);
          emit_id = trace->Emit(e);
        }
        st.last_pushed[item] = st.source_value[item];
        if (fault_mode) {
          // Register the retransmit obligation before the send: the
          // source cannot know the copy will be lost.
          recovery::CheckpointItemFault& f = item_fault[item];
          f.pending_live = true;
          f.pending_seq = seq;
          f.pending_value = st.source_value[item];
          f.pending_emit_id = emit_id;
          f.pending_next_retx = now + config.fault.retx_timeout_s;
          f.pending_attempts = 0;
          send_data(item, st.source_value[item], seq, emit_id,
                    /*klass=*/0, now);
        } else {
          const double delay = delays.Push() + delays.Network();
          if (ins.message_delay != nullptr) ins.message_delay->Record(delay);
          st.events.push(Event{now + delay, EventType::kRefresh,
                               static_cast<int>(item), st.source_value[item],
                               emit_id, 0.0});
        }
      }
    }

    // 3a. Reliability protocol: timeout retransmissions (exponential
    //     backoff, gap capped at 8x) and per-source heartbeats.
    if (fault_mode) {
      for (size_t item = 0; item < n_items; ++item) {
        recovery::CheckpointItemFault& f = item_fault[item];
        if (!f.pending_live || now < f.pending_next_retx) continue;
        const size_t src = item % static_cast<size_t>(num_sources);
        if (source_fault[src].crashed_until > now) continue;  // source down
        ++f.pending_attempts;
        ++metrics.retransmits;
        if (ins.retransmits != nullptr) ins.retransmits->Inc();
        uint64_t rid = 0;
        if (trace != nullptr) {
          trace->SetNow(now);
          obs::TraceEvent e;
          e.time = now;
          e.kind = obs::TraceEventKind::kRetransmit;
          e.node = tnode;
          e.source = static_cast<int32_t>(src);
          e.item = static_cast<int32_t>(item);
          e.cause = f.pending_emit_id;  // the previous emission of this seq
          e.a = f.pending_value;
          e.b = static_cast<double>(f.pending_attempts);
          e.flag = static_cast<int32_t>(f.pending_seq);
          rid = trace->Emit(e);
        }
        f.pending_next_retx =
            now + config.fault.retx_timeout_s *
                      static_cast<double>(1 << std::min(f.pending_attempts, 3));
        f.pending_emit_id = rid;  // the next retransmit chains from this one
        send_data(item, f.pending_value, f.pending_seq, rid, /*klass=*/1, now);
      }
      for (int s = 0; s < num_sources; ++s) {
        const size_t ss = static_cast<size_t>(s);
        // The heartbeat timer freezes during a crash (no advance), so a
        // recovering source announces itself on its first live tick.
        recovery::CheckpointSource& sf = source_fault[ss];
        if (source_items[ss].empty() || sf.crashed_until > now ||
            now < sf.next_heartbeat) {
          continue;
        }
        sf.next_heartbeat = now + config.fault.heartbeat_s;
        if (faults.DropMessage()) {
          ++metrics.fault_drops;
          if (ins.fault_drops != nullptr) ins.fault_drops->Inc();
          if (trace != nullptr) {
            trace->SetNow(now);
            obs::TraceEvent e;
            e.time = now;
            e.kind = obs::TraceEventKind::kFaultDrop;
            e.node = tnode;
            e.source = s;
            e.b = 3.0;  // message class: heartbeat
            trace->Emit(e);
          }
          continue;
        }
        st.events.push(
            Event{now + faults.ProtocolDelay(config.delays) +
                      faults.ExtraDelay(),
                  EventType::kHeartbeat, s, 0.0, 0, 0.0});
      }
    }

    // 3b. Zero-delay messages generated this tick arrive "instantly":
    //     deliver them before sampling fidelity so that a zero-delay
    //     network preserves Condition 1 exactly.
    POLYDAB_RETURN_NOT_OK(deliver_until(now));

    // 3c. Source leases: an item whose source has been silent past
    //     lease_s plus the item's worst-case drift time (from its
    //     installed DAB and the ddm rate, capped at 3x lease_s) is
    //     declared stale; each affected query degrades — gracefully, with
    //     a widening rate |dQ/d(item)|, when the query is linear in the
    //     item, or as unboundable otherwise (core::WideningFor).
    if (fault_mode) {
      for (size_t item = 0; item < n_items; ++item) {
        if (st.item_queries[item].empty() || item_fault[item].expired) {
          continue;
        }
        const size_t src = item % static_cast<size_t>(num_sources);
        const double rate = std::max(rates[item], core::kMinRate);
        double drift_time = st.installed_dab[item] / rate;
        if (planner_cfg.dual.ddm == core::DataDynamicsModel::kRandomWalk) {
          drift_time *= drift_time;
        }
        const double deadline =
            config.fault.lease_s +
            std::min(drift_time, 3.0 * config.fault.lease_s);
        if (now - source_fault[src].last_contact <= deadline) continue;
        item_fault[item].expired = true;
        ++metrics.lease_expiries;
        if (ins.lease_expiries != nullptr) ins.lease_expiries->Inc();
        uint64_t xid = 0;
        if (trace != nullptr) {
          trace->SetNow(now);
          obs::TraceEvent e;
          e.time = now;
          e.kind = obs::TraceEventKind::kLeaseExpire;
          e.node = tnode;
          e.source = static_cast<int32_t>(src);
          e.item = static_cast<int32_t>(item);
          e.a = source_fault[src].last_contact;
          e.b = deadline;
          xid = trace->Emit(e);
        }
        item_fault[item].expire_event = xid;
        for (int qi : st.item_queries[item]) {
          const size_t q = static_cast<size_t>(qi);
          if (degraded_items[q]++ != 0) continue;  // already degraded
          uint64_t did = 0;
          if (trace != nullptr) {
            const core::StalenessWidening w = core::WideningFor(
                queries[q], static_cast<VarId>(item), st.view);
            obs::TraceEvent e;
            e.time = now;
            e.kind = obs::TraceEventKind::kDegrade;
            e.node = tnode;
            e.item = static_cast<int32_t>(item);
            e.query = queries[q].id;
            e.cause = xid;
            e.a = w.sensitivity;
            e.b = rate;
            e.flag = w.boundable ? 1 : 0;
            did = trace->Emit(e);
          }
          degrade_event[q] = did;
        }
      }
    }

    // 4. Fidelity sample: is each query's QAB currently met at C?
    if (tick % config.fidelity_stride == 0) {
      int64_t sampled = 0;
      for (size_t qi = 0; qi < queries.size(); ++qi) {
        // Deregistered queries owe no fidelity (their slots persist only
        // for index stability).
        if (q_alive[qi] == 0) continue;
        ++sampled;
        const bool degraded =
            fault_mode && degraded_items[qi] > 0;
        if (degraded) {
          metrics.degraded_query_seconds +=
              static_cast<double>(config.fidelity_stride);
          if (ins.degraded_query_seconds != nullptr) {
            ins.degraded_query_seconds->Add(config.fidelity_stride);
          }
        }
        const double at_source = queries[qi].p.Evaluate(st.source_value);
        const double at_coord = view_eval.QueryValue(qi);
        if (std::fabs(at_source - at_coord) >
            queries[qi].qab * (1.0 + config.violation_tol)) {
          st.violated_time[qi] += config.fidelity_stride;
          if (trace != nullptr) {
            obs::TraceEvent e;
            e.time = now;
            e.kind = obs::TraceEventKind::kFidelityViolation;
            e.node = tnode;
            e.query = queries[qi].id;
            e.a = at_source;
            e.b = at_coord;
            e.c = queries[qi].qab;
            if (degraded) {
              // flag 1: the query is in declared-degraded service; the
              // violation is covered by the degradation announcement.
              e.flag = 1;
              e.cause = degrade_event[qi];
            } else if (fault_mode) {
              // flag 2: a concrete fault explains the stale view. The
              // deterministic blame scan (first item in Variables()
              // order whose source is mid-crash, else whose newest loss
              // is still undelivered) is mirrored exactly by the
              // offline verifier. flag stays 0 for benign violations
              // (message in flight, stale plan after solver failure).
              for (VarId v : queries[qi].p.Variables()) {
                const size_t it = static_cast<size_t>(v);
                const size_t s = it % static_cast<size_t>(num_sources);
                if (source_fault[s].crashed_until > now) {
                  e.flag = 2;
                  e.cause = source_fault[s].crash_event;
                  break;
                }
                const recovery::CheckpointItemFault& f = item_fault[it];
                if (f.drop_seq > f.delivered_seq) {
                  e.flag = 2;
                  e.cause = f.drop_eid;
                  break;
                }
              }
            }
            trace->Emit(e);
          }
        }
      }
      if (config.series != nullptr) {
        config.series->AddFidelitySamples(sampled);
      }
    }

    // 5. Per-tick activity rates (events per simulated second).
    if (ins.tick_refreshes != nullptr) {
      ins.tick_refreshes->Record(
          static_cast<double>(metrics.refreshes - tick_refresh_base));
      ins.tick_recomputations->Record(
          static_cast<double>(metrics.recomputations - tick_recompute_base));
      tick_refresh_base = metrics.refreshes;
      tick_recompute_base = metrics.recomputations;
    }

    // 6. Window closes happen here, at the tick boundary and outside any
    //    Emit, so SLO alert events carry time = the boundary and precede
    //    every later-timed event (the trace stays time-monotonic).
    if (config.series != nullptr) {
      config.series->OnTickEnd(now);
    }

    // 7. Durable checkpoint at the configured simulated-time cadence
    //    (docs/RECOVERY.md). Taken at the tick boundary — the lane pool
    //    holds no in-flight work between ticks, so the snapshot is a
    //    consistent cut even under threads > 0 — and bracketed by
    //    checkpoint_begin / checkpoint_end events whose ids the snapshot
    //    itself records; the restart continues numbering after them.
    //    `replay_done` is always true by now (the replay span never
    //    contains a cadence tick, since the snapshot tick is itself the
    //    last cadence multiple before the crash), kept as a guard.
    if (rec_ckpt && replay_done && tick % rec->interval_s == 0) {
      uint64_t begin_id = 0;
      if (trace != nullptr) {
        trace->SetNow(now);
        obs::TraceEvent e;
        e.time = now;
        e.kind = obs::TraceEventKind::kCheckpointBegin;
        e.node = tnode;
        e.a = static_cast<double>(tick);
        begin_id = trace->Emit(e);
      }
      const uint64_t end_id = begin_id == 0 ? 0 : begin_id + 1;
      POLYDAB_RETURN_NOT_OK(recovery::WriteCheckpoint(
          build_checkpoint(tick, end_id), rec->checkpoint_path));
      if (wal_file != nullptr) std::fflush(wal_file.get());
      if (trace != nullptr) {
        obs::TraceEvent e;
        e.time = now;
        e.kind = obs::TraceEventKind::kCheckpointEnd;
        e.node = tnode;
        e.cause = begin_id;
        const uint64_t got = trace->Emit(e);
        if (got != end_id) {
          return Status::Internal(
              "checkpoint events interleaved with a concurrent emission");
        }
      }
      last_ckpt_end_id = end_id;
    }
  }

  if (ticks_seen < 2) {
    return Status::InvalidArgument("trace too short");
  }

  // Shutdown barrier: every dispatched solve has been consumed by its
  // service, so this reports only a latched failure, then parks and joins
  // the workers before the final metrics are read.
  POLYDAB_RETURN_NOT_OK(pool.Quiesce());
  pool.Stop();

  // Per-query fidelity loss over the query's own registration interval:
  // sampled ticks run from max(reg, 1) through min(dereg - 1, last tick).
  // For a query registered at tick 0 and never deregistered this is the
  // historical ticks - 1 denominator, bit for bit. A query whose interval
  // contains no sampled tick contributes zero loss.
  double loss_sum = 0.0;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const int first = std::max(q_reg_tick[qi], 1);
    const int last = std::min(q_dereg_tick[qi] - 1, ticks_seen - 1);
    const int denom = last - first + 1;
    if (denom <= 0) continue;
    loss_sum += 100.0 * st.violated_time[qi] / static_cast<double>(denom);
  }
  metrics.mean_fidelity_loss_pct =
      loss_sum / static_cast<double>(queries.size());
  if (config.registry != nullptr) {
    config.registry->GetGauge("sim.run.queries")
        ->Set(static_cast<double>(queries.size()));
    config.registry->GetGauge("sim.run.items")
        ->Set(static_cast<double>(n_items));
    config.registry->GetGauge("sim.run.ticks")
        ->Set(static_cast<double>(ticks_seen));
    config.registry->GetGauge("sim.run.coord_shards")
        ->Set(static_cast<double>(num_shards));
    config.registry->GetGauge("sim.fidelity.mean_loss_pct")
        ->Set(metrics.mean_fidelity_loss_pct);
  }
  if (config.series != nullptr) {
    // Close the trailing partial window and write the series totals.
    // After the end-of-run gauges above, so the final window's registry
    // samples capture them.
    config.series->Finalize(static_cast<double>(ticks_seen - 1));
  }
  if (trace != nullptr) {
    // Trailing self-description: the replay verifier re-derives each of
    // these fields from the raw events and demands exact equality.
    obs::TraceRunSummary s;
    s.node = tnode;
    s.queries = static_cast<int64_t>(queries.size());
    s.ticks = ticks_seen;
    s.fidelity_stride = config.fidelity_stride;
    s.violation_tol = config.violation_tol;
    s.refreshes = metrics.refreshes;
    s.recomputations = metrics.recomputations;
    s.dab_change_messages = metrics.dab_change_messages;
    s.user_notifications = metrics.user_notifications;
    s.solver_failures = metrics.solver_failures;
    s.mean_fidelity_loss_pct = metrics.mean_fidelity_loss_pct;
    s.fault_drops = metrics.fault_drops;
    s.retransmits = metrics.retransmits;
    s.duplicates_suppressed = metrics.duplicates_suppressed;
    s.lease_expiries = metrics.lease_expiries;
    s.degraded_query_seconds = metrics.degraded_query_seconds;
    trace->AddRunSummary(s);
  }
  return metrics;
}

}  // namespace polydab::sim
