// Benchmark driver: runs one reference workload in this process through
// the library's public API only (workload generators, the streaming
// sim::RunSimulation overload, svc::QueryService, recovery::RecoveryConfig,
// obs::CheckTrace) and prints every metric with its unit. README.md beside
// this file defines the workloads and metrics; run.py builds this program
// and applies the committed correctness gate.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> --workdir <dir>
//
// Timing is outside-in. A TickSource wrapper stamps every row pull and a
// ServiceHooks wrapper times every OnTick call, so the engine itself is
// unmodified: set-up is RunSimulation entry -> pull of tick 1, tick k's
// latency is pull k -> pull k+1, and the loop is pull of tick 1 -> return.
// The run is closed-loop: the engine pulls the next row only after it has
// finished the previous tick.
//
// --trace 0 measures the end-to-end metrics with registry and trace off.
// --trace 1 runs the traced leg instead: a MetricRegistry and a capture
// TraceSink are attached and their totals split the loop wall by layer.
// The last stdout line is "PERFBENCH_RESULT <json>", consumed by run.py.

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/planner.h"
#include "harness.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_canon.h"
#include "obs/trace_check.h"
#include "recovery/recovery.h"
#include "sim/simulation.h"
#include "svc/query_service.h"
#include "workload/churn_gen.h"
#include "workload/query_gen.h"
#include "workload/rate_estimator.h"
#include "workload/tick_source.h"
#include "workload/trace.h"

namespace polydab::perfbench {
namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

// ---------------------------------------------------------------------------
// Workloads. README.md records why each one was chosen.

enum class WorkloadId { kPaperDual, kSharedSaturated, kServiceChurn };

struct Workload {
  WorkloadId id;
  const char* name;
  int items;
  /// Simulated ticks per engine run.
  int ticks;
  /// Independent input sets per benchmark run, each generated from its own
  /// seed derived from --seed. Single instances differ widely in how much
  /// work their ticks carry; an ensemble keeps a run's totals close to the
  /// workload's mean whatever the seed.
  int instances;
  double mu;
  /// Worker threads of the workload's own configuration, and of the
  /// reference leg that prices the lane runtime (rt.parallel_gain).
  int threads;
  int reference_threads;
};

constexpr Workload kWorkloads[] = {
    {WorkloadId::kPaperDual, "paper_dual", 100, 80, 64, 5.0, 0, 2},
    {WorkloadId::kSharedSaturated, "shared_saturated", 60, 70, 16, 1.0, 2, 0},
    {WorkloadId::kServiceChurn, "service_churn", 100, 100, 16, 5.0, 0, 2},
};

struct Inputs {
  workload::TraceSet traces;
  Vector rates;
  Vector initial;
  std::vector<PolynomialQuery> queries;
  std::vector<workload::ChurnOp> churn;  // service_churn only
};

/// One input set of a run's ensemble.
struct Instance {
  uint64_t seed;
  Inputs inputs;
};

Result<Inputs> MakeInputs(const Workload& w, uint64_t seed) {
  Inputs in;
  Rng rng(seed);
  workload::TraceSetConfig tc;
  tc.num_items = w.items;
  tc.num_ticks = w.ticks + 1;  // row 0 is the initial snapshot
  POLYDAB_ASSIGN_OR_RETURN(in.traces, workload::GenerateTraceSet(tc, &rng));
  POLYDAB_ASSIGN_OR_RETURN(in.rates, workload::EstimateRates(in.traces, 60));
  in.initial = in.traces.Snapshot(0);
  workload::QueryGenConfig qc;
  qc.num_items = w.items;
  switch (w.id) {
    case WorkloadId::kPaperDual: {
      // §V-A: portfolio PPQs plus dependent arbitrage PQs (Fig. 8(b)).
      POLYDAB_ASSIGN_OR_RETURN(
          in.queries,
          workload::GeneratePortfolioQueries(75, qc, in.initial, &rng));
      std::vector<PolynomialQuery> arb;
      POLYDAB_ASSIGN_OR_RETURN(
          arb, workload::GenerateArbitrageQueries(25, qc, in.initial,
                                                  /*dependent=*/true, &rng));
      for (PolynomialQuery& q : arb) {
        q.id = static_cast<int>(in.queries.size());
        in.queries.push_back(std::move(q));
      }
      break;
    }
    case WorkloadId::kSharedSaturated: {
      // Each base query registered by 4 users under fresh ids: their plan
      // parts are bitwise-equal GPs, the regularity the solve memo serves.
      std::vector<PolynomialQuery> base;
      POLYDAB_ASSIGN_OR_RETURN(
          base, workload::GeneratePortfolioQueries(30, qc, in.initial, &rng));
      for (int user = 0; user < 4; ++user) {
        for (const PolynomialQuery& q : base) {
          in.queries.push_back(q);
          in.queries.back().id = static_cast<int>(in.queries.size()) - 1;
        }
      }
      break;
    }
    case WorkloadId::kServiceChurn: {
      POLYDAB_ASSIGN_OR_RETURN(
          in.queries,
          workload::GeneratePortfolioQueries(20, qc, in.initial, &rng));
      workload::ChurnConfig cc;
      cc.arrival_rate = 0.5;
      cc.mean_lifetime_s = 120.0;
      cc.modify_prob = 0.2;
      cc.horizon_s = static_cast<double>(w.ticks);
      cc.num_items = w.items;
      Rng churn_rng(seed + 1);
      POLYDAB_ASSIGN_OR_RETURN(
          in.churn,
          workload::GenerateChurnSchedule(cc, in.initial, &churn_rng));
      break;
    }
  }
  return in;
}

sim::SimConfig BaseConfig(const Workload& w, uint64_t seed) {
  sim::SimConfig c;
  c.seed = seed;
  c.planner.dual.mu = w.mu;
  switch (w.id) {
    case WorkloadId::kPaperDual:
      c.planner.method = core::AssignmentMethod::kDualDab;
      break;
    case WorkloadId::kSharedSaturated:
      c.planner.method = core::AssignmentMethod::kOptimalRefresh;
      c.solve_cache = 4096;
      break;
    case WorkloadId::kServiceChurn:
      c.planner.method = core::AssignmentMethod::kWsDab;
      c.coord_shards = 4;
      c.plan_maintenance = sim::PlanMaintenance::kIncremental;
      break;
  }
  return c;
}

// ---------------------------------------------------------------------------
// Outside-in instrumentation.

/// Registry totals of the two layers that run inside the engine: the
/// planner (core, GP solves included) and the GP solver. Read at the
/// harness's own boundaries, they attribute the time between two stamps.
struct LayerProbe {
  obs::Histogram* plan = nullptr;
  obs::Histogram* replan = nullptr;
  obs::Histogram* solve = nullptr;

  explicit LayerProbe(obs::MetricRegistry* reg) {
    if (reg == nullptr) return;
    plan = reg->GetHistogram("core.planner.plan_seconds");
    replan = reg->GetHistogram("core.planner.replan_seconds");
    solve = reg->GetHistogram("gp.solver.solve_seconds");
  }
  bool on() const { return plan != nullptr; }
  double core() const { return on() ? plan->sum() + replan->sum() : 0.0; }
  double gp() const { return on() ? solve->sum() : 0.0; }
};

/// Stamps every row pull, with the layer probe's totals at that moment.
class StampedSource : public workload::TickSource {
 public:
  StampedSource(workload::TickSource* inner, const LayerProbe* probe)
      : inner_(inner), probe_(probe) {}

  size_t num_items() const override { return inner_->num_items(); }
  int num_ticks_hint() const override { return inner_->num_ticks_hint(); }
  Result<bool> Next(Vector* row) override {
    pulls.push_back(NowNs());
    core_at_pull.push_back(probe_->core());
    gp_at_pull.push_back(probe_->gp());
    return inner_->Next(row);
  }
  Status Rewind() override { return inner_->Rewind(); }

  std::vector<int64_t> pulls;
  std::vector<double> core_at_pull;
  std::vector<double> gp_at_pull;

 private:
  workload::TickSource* inner_;
  const LayerProbe* probe_;
};

/// Times every OnTick of the service driver and the planner/GP time spent
/// inside it; forwards the checkpoint round trip untouched.
class TimedService : public sim::ServiceHooks {
 public:
  TimedService(sim::ServiceHooks* inner, const LayerProbe* probe)
      : inner_(inner), probe_(probe) {}

  Status OnTick(int tick, double now, sim::ServiceOps& ops) override {
    const double core0 = probe_->core();
    const int64_t start = NowNs();
    Status s = inner_->OnTick(tick, now, ops);
    spans.emplace_back(start, NowNs());
    core_inside += probe_->core() - core0;
    return s;
  }
  std::string SnapshotState() const override {
    return inner_->SnapshotState();
  }
  Status RestoreState(const std::string& state) override {
    return inner_->RestoreState(state);
  }

  std::vector<std::pair<int64_t, int64_t>> spans;
  double core_inside = 0.0;  ///< planner seconds inside OnTick

 private:
  sim::ServiceHooks* inner_;
  const LayerProbe* probe_;
};

// ---------------------------------------------------------------------------
// CPU choice.

/// Seconds of a fixed floating-point loop on the calling thread's CPU, the
/// faster of two tries.
double CpuProbeSeconds() {
  volatile double sink = 0.0;
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 2; ++rep) {
    const int64_t t0 = NowNs();
    double x = 1.0;
    double acc = 0.0;
    for (int i = 0; i < 50'000; ++i) {
      x = x * 1.0000001 + 1e-9;
      acc += std::sqrt(x + i);
    }
    sink = sink + acc;
    best = std::min(best, Seconds(NowNs() - t0));
  }
  return best;
}

/// Restricts the calling thread, and every thread it starts from then on,
/// to the `count` CPUs of the process's starting affinity set that run the
/// probe fastest at this moment. On a shared host a single vCPU slows down
/// by up to 1.5x for spells of seconds while the others keep their speed
/// (README.md, "Steadiness"); choosing afresh before every engine run keeps
/// those spells out of the timings.
void PinToFastestCpus(int count) {
  static const cpu_set_t allowed = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) CPU_ZERO(&set);
    return set;
  }();
  std::vector<std::pair<int, double>> probes;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof(one), &one) != 0) continue;
    probes.emplace_back(cpu, CpuProbeSeconds());
  }
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  for (int cpu : FastestCpus(std::move(probes), count)) CPU_SET(cpu, &chosen);
  if (CPU_COUNT(&chosen) == 0) chosen = allowed;
  sched_setaffinity(0, sizeof(chosen), &chosen);
}

// ---------------------------------------------------------------------------
// One engine run.

struct Counters {
  int64_t refreshes = 0;
  int64_t recomputations = 0;
  int64_t dab_changes = 0;
  int64_t notifications = 0;
  int64_t solver_failures = 0;
  uint64_t fidelity_bits = 0;  ///< the loss percentage's IEEE-754 bits

  static Counters Of(const sim::SimMetrics& m) {
    return Counters{m.refreshes,        m.recomputations,
                    m.dab_change_messages, m.user_notifications,
                    m.solver_failures,
                    std::bit_cast<uint64_t>(m.mean_fidelity_loss_pct)};
  }
  bool operator==(const Counters&) const = default;
};

struct RunOptions {
  int threads = 0;
  obs::MetricRegistry* registry = nullptr;
  obs::TraceSink* trace = nullptr;
};

struct RunResult {
  Status status;
  sim::SimMetrics metrics;
  int64_t entry_ns = 0;
  int64_t return_ns = 0;
  std::vector<int64_t> pulls;
  std::vector<double> core_at_pull;
  std::vector<double> gp_at_pull;
  double core_at_return = 0.0;
  double gp_at_return = 0.0;
  std::vector<std::pair<int64_t, int64_t>> svc_spans;
  double core_in_svc = 0.0;
  int64_t svc_ops = 0;
  int64_t recovery_bytes = 0;
  int64_t initial_queries = 0;

  bool ok() const { return status.ok() && pulls.size() >= 3; }
  double setup_s() const { return Seconds(pulls[1] - entry_ns); }
  double loop_s() const { return Seconds(return_ns - pulls[1]); }
  double wall_s() const { return Seconds(return_ns - entry_ns); }
  int64_t ticks() const { return static_cast<int64_t>(pulls.size()) - 2; }
  double svc_busy_s() const {
    int64_t ns = 0;
    for (const auto& [a, b] : svc_spans) ns += b - a;
    return Seconds(ns);
  }
  /// Plans and re-plans the run asked the engine for: the initial plans,
  /// every recomputation and every service operation.
  int64_t attempted() const {
    return initial_queries + metrics.recomputations + svc_ops;
  }
  int64_t failed() const { return ok() ? metrics.solver_failures : 1; }
};

int64_t FileSize(const std::string& path) {
  std::error_code ec;
  const auto n = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<int64_t>(n);
}

RunResult RunEngine(const Workload& w, uint64_t seed, const Inputs& in,
                    const std::string& workdir, const RunOptions& o) {
  sim::SimConfig c = BaseConfig(w, seed);
  c.threads = o.threads;
  c.registry = o.registry;
  c.trace = o.trace;
  const LayerProbe probe(o.registry);

  std::unique_ptr<svc::QueryService> service;
  std::unique_ptr<TimedService> timed;
  recovery::RecoveryConfig rc;
  if (w.id == WorkloadId::kServiceChurn) {
    service = std::make_unique<svc::QueryService>(
        svc::AdmissionConfig{}, in.churn, o.registry, c.plan_maintenance);
    timed = std::make_unique<TimedService>(service.get(), &probe);
    c.service = timed.get();
    // Checkpoint + WAL at the default 60 s cadence; the files are
    // truncated per run because the engine appends to them.
    rc.checkpoint_path = workdir + "/" + w.name + ".ckpt";
    rc.wal_path = workdir + "/" + w.name + ".wal";
    std::filesystem::remove(rc.checkpoint_path);
    std::filesystem::remove(rc.wal_path);
    c.recovery = &rc;
  }

  workload::TraceSetTickSource rows(&in.traces);
  StampedSource source(&rows, &probe);
  PinToFastestCpus(o.threads + 1);  // the event loop and its workers
  RunResult r;
  r.entry_ns = NowNs();
  Result<sim::SimMetrics> m =
      sim::RunSimulation(in.queries, source, in.rates, c);
  r.return_ns = NowNs();
  r.core_at_return = probe.core();
  r.gp_at_return = probe.gp();
  r.status = m.ok() ? Status::OK() : m.status();
  if (m.ok()) r.metrics = *m;
  r.pulls = std::move(source.pulls);
  r.core_at_pull = std::move(source.core_at_pull);
  r.gp_at_pull = std::move(source.gp_at_pull);
  r.initial_queries = static_cast<int64_t>(in.queries.size());
  if (timed != nullptr) {
    r.svc_spans = std::move(timed->spans);
    r.core_in_svc = timed->core_inside;
    r.svc_ops = service->registrations() + service->modifications() +
                service->deregistrations() + service->rejections();
    r.recovery_bytes = FileSize(rc.checkpoint_path) + FileSize(rc.wal_path);
  }
  return r;
}

/// Record one run's harness spans: run > {setup, loop > tick > svc}.
void RecordSpans(const RunResult& r, const char* leg, int run_id,
                 SpanRecorder* spans) {
  if (!r.ok()) return;
  const int run = spans->Add(leg, r.entry_ns, r.return_ns, -1, run_id);
  spans->Add("setup", r.entry_ns, r.pulls[1], run, run_id);
  const int loop = spans->Add("loop", r.pulls[1], r.return_ns, run, run_id);
  size_t next_svc = 0;
  for (size_t k = 1; k + 1 < r.pulls.size(); ++k) {
    const int tick =
        spans->Add("tick", r.pulls[k], r.pulls[k + 1], loop, run_id);
    while (next_svc < r.svc_spans.size() &&
           r.svc_spans[next_svc].first < r.pulls[k + 1]) {
      spans->Add("svc", r.svc_spans[next_svc].first,
                 r.svc_spans[next_svc].second, tick, run_id);
      ++next_svc;
    }
  }
}

// ---------------------------------------------------------------------------
// Reporting.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double Median(std::vector<double> v) { return NearestRank(std::move(v), 0.5); }

/// The process's peak resident set (VmHWM of /proc/self/status). getrusage's
/// ru_maxrss is not used: Linux carries it across execve, so it would report
/// the launching process's peak whenever that is the larger one.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  long kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out;
}

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back(Metric{name, value, unit});
    std::printf("  %-28s %18.6f %s\n", name.c_str(), value, unit.c_str());
  }
  void Check(bool ok, const std::string& what) {
    if (ok) return;
    failures_.push_back(what);
    std::printf("  CHECK FAILED: %s\n", what.c_str());
  }
  void AddCounters(const Counters& c) { counters_.push_back(c); }
  void AddWork(int64_t attempted, int64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  bool ok() const { return failures_.empty(); }
  double success_pct() const {
    return attempted_ > 0 ? 100.0 * static_cast<double>(attempted_ - failed_) /
                                static_cast<double>(attempted_)
                          : 0.0;
  }

  void Print(const Workload& w, uint64_t seed, int trace) const {
    std::printf("PERFBENCH_RESULT {\"workload\":\"%s\",\"seed\":%" PRIu64
                ",\"trace\":%d,\"correct\":%s,\"attempted\":%" PRId64
                ",\"failed\":%" PRId64 ",\"checks\":[",
                w.name, seed, trace, ok() ? "true" : "false", attempted_,
                failed_);
    for (size_t i = 0; i < failures_.size(); ++i) {
      std::printf("%s\"%s\"", i ? "," : "", JsonEscape(failures_[i]).c_str());
    }
    std::printf("],\"counters\":[");
    for (size_t i = 0; i < counters_.size(); ++i) {
      const Counters& c = counters_[i];
      std::printf("%s{\"refreshes\":%" PRId64 ",\"recomputations\":%" PRId64
                  ",\"dab_changes\":%" PRId64 ",\"notifications\":%" PRId64
                  ",\"solver_failures\":%" PRId64
                  ",\"fidelity_bits\":\"%016" PRIx64 "\"}",
                  i ? "," : "", c.refreshes, c.recomputations, c.dab_changes,
                  c.notifications, c.solver_failures, c.fidelity_bits);
    }
    std::printf("],\"metrics\":{");
    for (size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", i ? "," : "",
                  metrics_[i].name.c_str(), metrics_[i].value,
                  metrics_[i].unit.c_str());
    }
    std::printf("}}\n");
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
  std::vector<Counters> counters_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

std::string Describe(const Counters& c) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "refreshes=%" PRId64 " recomputations=%" PRId64
                " dab_changes=%" PRId64 " notifications=%" PRId64
                " solver_failures=%" PRId64 " fidelity_bits=%016" PRIx64,
                c.refreshes, c.recomputations, c.dab_changes,
                c.notifications, c.solver_failures, c.fidelity_bits);
  return buf;
}

void CheckSame(Report* report, const Counters& got, const Counters& want,
               const std::string& what) {
  report->Check(got == want, what + ": " + Describe(got) + " vs " +
                                 Describe(want));
}

void CheckRun(Report* report, const RunResult& r, const std::string& what) {
  report->Check(r.ok(), what + " failed: " + r.status.ToString());
}

/// Capture-traced run plus offline replay: the trace must pass CheckTrace
/// (canonicalized first when pool workers emitted into it) and its
/// counters must equal the untraced run's. Returns the traced run.
RunResult TracedRun(const Workload& w, uint64_t seed, const Inputs& in,
                    const std::string& workdir, int threads,
                    obs::MetricRegistry* registry, const Counters& untraced,
                    Report* report, double* check_s, uint64_t* events) {
  obs::TraceSink sink;
  RunOptions o;
  o.threads = threads;
  o.registry = registry;
  o.trace = &sink;
  RunResult r = RunEngine(w, seed, in, workdir, o);
  CheckRun(report, r, "traced run");
  if (!r.ok()) return r;
  CheckSame(report, Counters::Of(r.metrics), untraced,
            "traced counters differ from untraced");
  *events = sink.emitted();
  const int64_t t0 = NowNs();
  obs::TraceFile trace = sink.Collect();
  Status canon = threads > 0 ? obs::CanonicalizeThreadedTrace(&trace)
                             : Status::OK();
  report->Check(canon.ok(), "trace canonicalization: " + canon.ToString());
  Result<obs::TraceCheckReport> checked = obs::CheckTrace(trace);
  *check_s = Seconds(NowNs() - t0);
  if (!checked.ok()) {
    report->Check(false, "CheckTrace: " + checked.status().ToString());
  } else {
    std::string first =
        checked->failures.empty() ? "" : checked->failures.front();
    report->Check(checked->ok(), "CheckTrace found " +
                                     std::to_string(checked->failure_count) +
                                     " violations, first: " + first);
  }
  return r;
}

/// Mean nanoseconds per Polynomial::Evaluate over the workload's queries
/// (the churn schedule's registrations included), each at its instance's
/// tick-0 snapshot.
double PolyEvalNs(const std::vector<Instance>& ensemble) {
  std::vector<std::pair<const Polynomial*, const Vector*>> calls_of_one_round;
  for (const Instance& inst : ensemble) {
    const Vector* at = &inst.inputs.initial;
    for (const PolynomialQuery& q : inst.inputs.queries) {
      calls_of_one_round.emplace_back(&q.p, at);
    }
    for (const workload::ChurnOp& op : inst.inputs.churn) {
      if (op.kind == workload::ChurnOp::Kind::kRegister) {
        calls_of_one_round.emplace_back(&op.query.p, at);
      }
    }
  }
  volatile double sink = 0.0;
  int64_t calls = 0;
  const int64_t t0 = NowNs();
  int64_t t1 = t0;
  while (t1 - t0 < 200'000'000) {  // 0.2 s
    double acc = 0.0;
    for (int rep = 0; rep < 10; ++rep) {
      for (const auto& [poly, at] : calls_of_one_round) {
        acc += poly->Evaluate(*at);
      }
    }
    sink = sink + acc;
    calls += 10 * static_cast<int64_t>(calls_of_one_round.size());
    t1 = NowNs();
  }
  return static_cast<double>(t1 - t0) / static_cast<double>(calls);
}

/// Self seconds per span name of one run's span tree.
std::map<std::string, double> RunSelfSeconds(const RunResult& r) {
  SpanRecorder one;
  RecordSpans(r, "run", 0, &one);
  std::map<std::string, double> out;
  for (const auto& [name, ns] : SelfTimeByName(one.spans())) {
    out[name] = Seconds(ns);
  }
  return out;
}

// ---------------------------------------------------------------------------
// The two legs.

/// Passes over the ensemble the end-to-end leg makes at least, so every
/// instance's fastest run is a minimum over several.
constexpr int kMinPasses = 3;

/// End-to-end leg: registry and trace off. Passes over the whole ensemble,
/// each running every instance once; after kMinPasses, another pass starts
/// only while it is expected to end within `seconds`. The runs are
/// deterministic, so the passes repeat identical work and every timing is
/// taken as its minimum over the passes: each instance's set-up, each
/// tick's interval and each instance's wind-down after its last pull. An
/// instance's loop wall is the sum of its per-tick minima plus its minimum
/// wind-down; throughput is all ticks over the summed loop walls, so every
/// instance weighs by its work. An untimed traced replay of the first
/// instance then checks the protocol.
void EndToEnd(const Workload& w, const std::vector<Instance>& ensemble,
              const std::string& workdir, double seconds, SpanRecorder* spans,
              Report* report) {
  RunOptions timed;
  timed.threads = w.threads;
  const size_t k = ensemble.size();
  int span_run = 0;

  std::vector<Counters> counters(k);
  std::vector<double> setup_s(k, std::numeric_limits<double>::infinity());
  std::vector<int64_t> winddown_ns(k, std::numeric_limits<int64_t>::max());
  std::vector<std::vector<int64_t>> tick_ns(k);
  double ticks = 0.0;
  double recomputations = 0.0;
  double total_cost = 0.0;
  double fidelity = 0.0;
  int passes = 0;
  double rss = 0.0;
  const int64_t t0 = NowNs();
  for (double elapsed = 0.0;
       passes < kMinPasses || elapsed * (passes + 1) / passes <= seconds;
       elapsed = Seconds(NowNs() - t0)) {
    for (size_t i = 0; i < k; ++i) {
      const Instance& inst = ensemble[i];
      RunResult r = RunEngine(w, inst.seed, inst.inputs, workdir, timed);
      CheckRun(report, r, "timed run");
      if (!r.ok()) return;
      RecordSpans(r, "timed_run", span_run++, spans);
      report->AddWork(r.attempted(), r.failed());
      setup_s[i] = std::min(setup_s[i], r.setup_s());
      winddown_ns[i] = std::min(winddown_ns[i], r.return_ns - r.pulls.back());
      const Counters c = Counters::Of(r.metrics);
      if (passes > 0) {
        CheckSame(report, c, counters[i],
                  "instance " + std::to_string(i) +
                      ": repeated run is not deterministic");
        MinInto(&tick_ns[i], TickIntervals(r.pulls));
        continue;
      }
      counters[i] = c;
      tick_ns[i] = TickIntervals(r.pulls);
      ticks += static_cast<double>(r.ticks());
      recomputations += static_cast<double>(r.metrics.recomputations);
      total_cost += r.metrics.TotalCost(w.mu) / static_cast<double>(k);
      fidelity += r.metrics.mean_fidelity_loss_pct / static_cast<double>(k);
    }
    // Later passes repeat the same runs, but each run starts a fresh
    // worker pool, and new threads can spread their allocations over more
    // malloc arenas; the first pass's peak is the workload's footprint.
    if (passes++ == 0) rss = PeakRssMb();
  }
  std::vector<double> tick_ms;
  int64_t loop_ns = 0;
  for (size_t i = 0; i < k; ++i) {
    loop_ns += winddown_ns[i];
    for (int64_t ns : tick_ns[i]) {
      loop_ns += ns;
      tick_ms.push_back(static_cast<double>(ns) * 1e-6);
    }
  }
  const double loop_total = Seconds(loop_ns);
  std::printf("%zu instances x %d passes of %d ticks, %.3f s of loop wall "
              "(sum of per-tick minima), %zu tick samples, %zu set-up "
              "samples; per instance: total cost %.1f, fidelity loss %.4f "
              "%%\n",
              k, passes, w.ticks, loop_total, tick_ms.size(), setup_s.size(),
              total_cost, fidelity);
  report->Add("ticks_per_s", ticks / loop_total, "1/s");
  report->Add("recomputes_per_s", recomputations / loop_total, "1/s");
  report->Add("tick_p50_ms", NearestRank(tick_ms, 0.50), "ms");
  report->Add("tick_p99_ms", NearestRank(tick_ms, 0.99), "ms");
  report->Add("setup_s", Median(setup_s), "s");
  report->Add("peak_rss_mb", rss, "MB");
  report->Add("op_success_pct", report->success_pct(), "%");
  for (const Counters& c : counters) report->AddCounters(c);

  double check_s = 0.0;
  uint64_t events = 0;
  TracedRun(w, ensemble[0].seed, ensemble[0].inputs, workdir, w.threads,
            nullptr, counters[0], report, &check_s, &events);
}

/// Instances the traced leg covers: its three runs per instance would not
/// fit a run's budget for the largest ensembles.
constexpr size_t kTracedInstances = 8;

/// Traced leg: the per-layer split, summed over the first kTracedInstances
/// instances. Per instance: an untraced run at the workload's own thread
/// count (the base of obs.overhead_ratio), one at the reference thread
/// count (rt.parallel_gain), then the run with a MetricRegistry and a
/// capture TraceSink attached. The registry is shared by the traced runs,
/// so its totals and quantiles cover every traced instance.
void Layers(const Workload& w, const std::vector<Instance>& ensemble,
            const std::string& workdir, double gen_s, SpanRecorder* spans,
            Report* report) {
  report->Add("poly.eval_ns", PolyEvalNs(ensemble), "ns");
  report->Add("workload.gen_s", gen_s, "s");

  RunOptions plain;
  plain.threads = w.threads;
  RunOptions ref = plain;
  ref.threads = w.reference_threads;
  obs::MetricRegistry reg;
  int run_id = 0;
  double base_loop = 0.0, serial_wall = 0.0, threaded_wall = 0.0;
  double loop = 0.0, tick_self = 0.0, loop_self = 0.0;
  double core_loop = 0.0, gp_loop = 0.0, core_tail = 0.0;
  double core_in_svc = 0.0, svc_busy = 0.0, check_s = 0.0;
  double total_cost = 0.0, fidelity = 0.0, recovery_bytes = 0.0;
  int64_t svc_ops = 0, dab_changes = 0, refreshes = 0, recomputations = 0;
  uint64_t events = 0;
  const size_t traced = std::min<size_t>(ensemble.size(), kTracedInstances);
  const double k = static_cast<double>(traced);
  for (size_t i = 0; i < traced; ++i) {
    const Instance& inst = ensemble[i];
    RunResult base = RunEngine(w, inst.seed, inst.inputs, workdir, plain);
    CheckRun(report, base, "untraced run");
    if (!base.ok()) return;
    RecordSpans(base, "untraced_run", run_id++, spans);
    const Counters counters = Counters::Of(base.metrics);
    report->AddCounters(counters);
    report->AddWork(base.attempted(), base.failed());

    RunResult reference = RunEngine(w, inst.seed, inst.inputs, workdir, ref);
    CheckRun(report, reference, "reference-threads run");
    if (!reference.ok()) return;
    RecordSpans(reference, "reference_threads_run", run_id++, spans);
    CheckSame(report, Counters::Of(reference.metrics), counters,
              "threads=" + std::to_string(w.reference_threads) +
                  " counters differ from threads=" +
                  std::to_string(w.threads));
    serial_wall += (w.threads == 0 ? base : reference).wall_s();
    threaded_wall += (w.threads == 0 ? reference : base).wall_s();
    base_loop += base.loop_s();

    double one_check_s = 0.0;
    uint64_t one_events = 0;
    RunResult t = TracedRun(w, inst.seed, inst.inputs, workdir, w.threads,
                            &reg, counters, report, &one_check_s,
                            &one_events);
    if (!t.ok()) return;
    RecordSpans(t, "traced_run", run_id++, spans);
    check_s += one_check_s;
    events += one_events;
    const std::map<std::string, double> self = RunSelfSeconds(t);
    tick_self += self.at("tick");
    loop_self += self.at("loop");
    const size_t last = t.pulls.size() - 1;
    loop += t.loop_s();
    core_loop += t.core_at_return - t.core_at_pull[1];
    gp_loop += t.gp_at_return - t.gp_at_pull[1];
    core_tail += t.core_at_return - t.core_at_pull[last];
    core_in_svc += t.core_in_svc;
    svc_busy += t.svc_busy_s();
    svc_ops += t.svc_ops;
    recovery_bytes += static_cast<double>(base.recovery_bytes) / k;
    dab_changes += t.metrics.dab_change_messages;
    refreshes += t.metrics.refreshes;
    recomputations += t.metrics.recomputations;
    total_cost += t.metrics.TotalCost(w.mu) / k;
    fidelity += t.metrics.mean_fidelity_loss_pct / k;
  }
  std::printf("loop wall summed over %zu instances (s): untraced %.4f, "
              "traced %.4f\n",
              traced, base_loop, loop);

  auto hist = [&reg](const char* name) { return reg.GetHistogram(name); };
  auto count = [&reg](const char* name) {
    return static_cast<double>(reg.GetCounter(name)->value());
  };
  const obs::Histogram* solve = hist("gp.solver.solve_seconds");
  const obs::Histogram* replan = hist("core.planner.replan_seconds");
  const obs::Histogram* plan = hist("core.planner.plan_seconds");
  const obs::Histogram* newton = hist("gp.solver.newton_iterations");
  const obs::Histogram* maint =
      hist("svc.plan_maintenance.incremental_seconds");
  const double solves = count("gp.solver.solves");
  const double hits = count("gp.engine.cache_hits");
  const double misses = count("gp.engine.cache_misses");

  report->Add("gp.solve_s", solve->sum(), "s");
  report->Add("gp.solve_p99_us", solve->Quantile(0.99) * 1e6, "us");
  report->Add("gp.newton_per_solve", newton->mean(), "count");
  report->Add("gp.phase1_share",
              solves > 0 ? count("gp.solver.phase1_solves") / solves : 0.0,
              "ratio");
  report->Add("gp.memo_hit_ratio",
              hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
  report->Add("core.replan_s", replan->sum(), "s");
  report->Add("core.replan_p99_us", replan->Quantile(0.99) * 1e6, "us");
  report->Add("core.plan_s", plan->sum(), "s");
  report->Add("core.self_s", replan->sum() + plan->sum() - solve->sum(), "s");

  // Split of the traced loop wall (pull of tick 1 -> return). The planner
  // and solver totals are read at every row pull and around every OnTick,
  // so each is attributed to the harness span it happened in:
  //   gp      solver seconds in the loop
  //   core    planner seconds in the loop, minus gp
  //   svc     OnTick wall minus the planner time inside it
  //   sim     tick self time (tick minus its svc spans) minus the planner
  //           time outside OnTick
  //   other   loop self time (the wind-down after the end-of-stream pull)
  //           minus the planner time there
  // On a threaded workload the pool runs the re-solves, so gp and core
  // there are worker CPU-seconds that overlap the loop, and sim.self_s is
  // the event loop's wall including its waits on the workers.
  const bool serial_engine = w.threads == 0;
  const double svc_self = svc_busy - core_in_svc;
  const double sim_self =
      serial_engine ? tick_self - (core_loop - core_tail - core_in_svc)
                    : tick_self;
  const double other = serial_engine ? loop_self - core_tail : loop_self;
  report->Add("sim.loop_s", loop, "s");
  report->Add("sim.self_s", sim_self, "s");
  report->Add("other_s", other, "s");
  report->Add("sim.total_cost", total_cost, "messages");
  report->Add("sim.fidelity_loss_pct", fidelity, "%");
  report->Add("sim.dab_changes", static_cast<double>(dab_changes), "count");
  report->Add("sim.recomputes_per_refresh",
              refreshes > 0 ? static_cast<double>(recomputations) /
                                  static_cast<double>(refreshes)
                            : 0.0,
              "ratio");
  report->Add("svc.busy_s", svc_busy, "s");
  report->Add("svc.ops", static_cast<double>(svc_ops), "count");
  report->Add("svc.maintenance_p99_us", maint->Quantile(0.99) * 1e6, "us");
  report->Add("rt.parallel_gain", serial_wall / threaded_wall, "ratio");
  report->Add("recovery.bytes_written", recovery_bytes, "bytes");
  report->Add("obs.events", static_cast<double>(events), "count");
  report->Add("obs.check_s", check_s, "s");
  report->Add("obs.overhead_ratio", loop / base_loop, "ratio");

  if (serial_engine) {
    // Conservation: the parts must each be non-negative and add up to the
    // loop wall, within 2 % of it. A negative part means registry time
    // fell outside the harness span it was attributed to.
    const double parts[] = {gp_loop, core_loop - gp_loop, svc_self, sim_self,
                            other};
    const char* names[] = {"gp", "core", "svc", "sim", "other"};
    double sum = 0.0;
    for (size_t i = 0; i < 5; ++i) {
      sum += parts[i];
      report->Check(parts[i] >= -0.02 * loop,
                    std::string("layer split: negative ") + names[i] +
                        " part " + std::to_string(parts[i]) + " s");
    }
    report->Check(std::abs(sum - loop) <= 0.02 * loop,
                  "layer split sums to " + std::to_string(sum) +
                      " s, loop wall " + std::to_string(loop) + " s");
    std::printf("layer split of the %.3f s loop: gp %.1f%%, core %.1f%%, "
                "svc %.1f%%, sim %.1f%%, other %.1f%%\n",
                loop, 100 * parts[0] / loop, 100 * parts[1] / loop,
                100 * parts[2] / loop, 100 * parts[3] / loop,
                100 * parts[4] / loop);
  }
}

// ---------------------------------------------------------------------------

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload "
               "<paper_dual|shared_saturated|service_churn> --seed <n> "
               "--seconds <s> --trace <0|1> --workdir <dir>\n"
               "       perfbench_driver --selftest\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload_name;
  std::string workdir;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  bool selftest_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") {
      selftest_only = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const std::string val = argv[++i];
    try {
      if (arg == "--workload") {
        workload_name = val;
      } else if (arg == "--seed") {
        seed = std::stoull(val);
      } else if (arg == "--seconds") {
        seconds = std::stod(val);
      } else if (arg == "--trace") {
        trace = std::stoi(val);
      } else if (arg == "--workdir") {
        workdir = val;
      } else {
        return Usage();
      }
    } catch (const std::exception&) {
      return Usage();
    }
  }

  const int selftest_failures = RunSelfTests();
  if (selftest_only) {
    std::printf("selftest: %d failures\n", selftest_failures);
    return selftest_failures == 0 ? 0 : 1;
  }
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (workload_name == cand.name) w = &cand;
  }
  if (w == nullptr || seconds <= 0.0 || (trace != 0 && trace != 1) ||
      workdir.empty()) {
    return Usage();
  }
  std::filesystem::create_directories(workdir);
  // Every engine run starts a fresh worker pool, and glibc may hand a new
  // thread a new malloc arena or share an existing one, depending on which
  // arena locks are held at that instant; peak RSS then differs by an
  // arena's footprint from run to run. One arena makes the footprint
  // repeat; a deployed coordinator starts its pool once and settles too.
  mallopt(M_ARENA_MAX, 1);

  Report report;
  report.Check(selftest_failures == 0, "harness self-tests failed");
  std::vector<Instance> ensemble;
  const int64_t gen_t0 = NowNs();
  for (int i = 0; i < w->instances; ++i) {
    const uint64_t instance_seed = seed * 1000 + static_cast<uint64_t>(i);
    Result<Inputs> in = MakeInputs(*w, instance_seed);
    if (!in.ok()) {
      std::fprintf(stderr, "inputs: %s\n", in.status().ToString().c_str());
      return 1;
    }
    ensemble.push_back(Instance{instance_seed, std::move(*in)});
  }
  const double gen_s = Seconds(NowNs() - gen_t0);
  const Inputs& first = ensemble.front().inputs;
  std::printf("%s seed=%" PRIu64 " trace=%d: %d instances of %d items, "
              "%zu queries, %zu churn ops, %d ticks\n",
              w->name, seed, trace, w->instances, w->items,
              first.queries.size(), first.churn.size(), w->ticks);

  SpanRecorder spans;
  if (trace == 0) {
    EndToEnd(*w, ensemble, workdir, seconds, &spans, &report);
  } else {
    Layers(*w, ensemble, workdir, gen_s, &spans, &report);
  }
  const std::string span_path = workdir + "/spans-" + w->name + "-seed" +
                                std::to_string(seed) + "-trace" +
                                std::to_string(trace) + ".jsonl";
  report.Check(spans.WriteJsonLines(span_path),
               "cannot write spans to " + span_path);
  report.Print(*w, seed, trace);
  return report.ok() ? 0 : 1;
}

}  // namespace
}  // namespace polydab::perfbench

int main(int argc, char** argv) {
  return polydab::perfbench::Main(argc, argv);
}
