// polydab_experiment: config-driven experiment runner.
//
// Runs one simulation of the paper's protocol with every knob exposed on
// the command line and prints the four metrics (plus message breakdowns)
// in a single machine-parsable line, so parameter sweeps can be scripted
// without writing C++.
//
// Usage:
//   polydab_experiment [key=value ...]
//
// Keys (defaults in parentheses):
//   queries=N        number of queries (50)
//   kind=ppq|pq      portfolio PPQs or arbitrage general PQs (ppq)
//   dependent=0|1    arbitrage legs share items (0)
//   method=dual|optimal|wsdab          assignment scheme (dual)
//   heuristic=ds|hh  general-PQ heuristic (ds)
//   ddm=mono|walk    data-dynamics model in the optimizer (mono)
//   mu=X             recomputation cost in messages (5)
//   rates=mean|ewma|p95|unit           rate estimator (mean)
//   items=N          data items (100)
//   ticks=N          trace length in seconds (2000)
//   traces=FILE      replay a CSV trace set instead of synthesizing
//                    (one column per item, one row per second)
//   delay_ms=X       mean node-node delay (110)
//   recompute_ms=X   coordinator CPU per recomputation (2)
//   aao_period=X     seconds between joint AAO solves, finite and at
//                    most INT_MAX; 0 = EQI (0)
//   coord-shards=N   coordinator lanes, >= 1; 1 = the serial
//                    coordinator (1)
//   shard-policy=eqi|hash   query partition: EQI component grouping or
//                    plain query-id hashing (eqi)
//   threads=N        real-thread lane runtime (src/rt/,
//                    docs/CONCURRENCY.md): N >= 1 spreads each refresh
//                    service's distinct per-part GP re-solves over an
//                    N-worker std::jthread pool and the event loop, with
//                    metrics and the canonicalized trace byte-identical
//                    to the threads=0 run under the same seed. 0 = no
//                    pool: the event loop solves every re-solve itself (0)
//   rt-fail-at=K     test hook: abort the K-th pool worker woken over
//                    the run (1-based), exercising the pool's
//                    failure path; requires threads > 0; 0 = never (0)
//   solve-cache=N    solve engine (gp/solve_engine.h, docs/SOLVER.md)
//                    exact-match LRU memo capacity in entries; hits
//                    replay the memoized solution and its solver
//                    telemetry bit-identically. Works with any threads
//                    setting and with the recovery knobs. 0 = off (0)
//   seed=N           RNG seed (1)
//   csv=0|1          print a CSV row instead of key=value (0)
//   metrics-out=FILE write a JSON-lines telemetry run report (src/obs/)
//                    with solver/planner/simulator instruments — see
//                    docs/OBSERVABILITY.md. GNU-style "--key=value"
//                    spellings are accepted for every key.
//   trace-out=FILE   stream a causal event trace (obs/trace.h) of the
//                    whole run, with a trailing run summary for
//                    self-validation; replay and verify it offline with
//                    polydab_tracecheck.
//   flame-out=FILE   fold the run's trace into cost-attribution
//                    flamegraph stacks (obs/trace_fold.h) and write the
//                    Brendan Gregg folded-stack lines; works with or
//                    without trace-out (without, the trace is captured in
//                    memory just for the folding). The folding verifies
//                    conservation against the run totals and fails the
//                    run if it does not hold.
//   flame-group-by=query|item|lane     identity frame that roots the
//                    folded stacks (query)
//   fault-drop=P     per-message loss probability in [0,1]; any nonzero
//                    fault probability turns on the reliability protocol
//                    (seq/ack/retransmit, heartbeats, leases — see
//                    docs/ROBUSTNESS.md) (0)
//   fault-crash=P    per-source per-tick crash probability in [0,1] (0)
//   retx-timeout-s=X base ack timeout before a refresh is retransmitted,
//                    in seconds, > 0; backs off exponentially (2)
//   lease-s=X        base per-item source lease in seconds, > 0; expiry
//                    degrades the affected queries (15)
//   churn-rate=X     query registration arrivals per second (Poisson);
//                    > 0 turns on the live service layer (svc/, see
//                    docs/SERVICE.md). Incompatible with aao-period > 0
//                    and with fault injection (0)
//   churn-lifetime-s=X   mean registered-query lifetime, seconds (300)
//   churn-zipf=X     Zipf exponent for churned queries' item popularity,
//                    >= 0; 0 = uniform (1)
//   churn-modify-prob=P  probability a churned query gets one mid-life
//                    QAB modification, in [0,1] (0.1)
//   admit-budget=X   admission control: total modeled recomputations per
//                    second accepted across live queries, >= 0 (inf)
//   admit-policy=reject|degrade  over-budget registrations are refused,
//                    or their QAB widened until the estimate fits (reject)
//   ingest=FILE      stream ticks row by row from a CSV file instead of
//                    loading a trace set; the run length is the stream
//                    length and the item count is the file width (ticks=
//                    only bounds the churn horizon). Requires rates=unit;
//                    mutually exclusive with traces=
//   series-out=FILE  fold the run's own event stream into a windowed
//                    time series (obs/timeseries.h) over simulated time
//                    and write it as JSON lines; works with or without
//                    trace-out (without, the events are observed and
//                    discarded, never buffered). Render with
//                    polydab_monitor; cross-verify with
//                    polydab_tracecheck --series=. Works at any
//                    coord-shards
//   series-window-s=N  window width in whole simulated seconds, >= 1;
//                    requires series-out (1)
//   slo=RULES        ';'-separated SLO rules over the per-window metrics
//                    (`<metric> <op> <threshold> [for <N>]`, see
//                    obs/slo.h); evaluated online at every window close,
//                    fires alert_fire / alert_resolve trace events.
//                    Requires series-out
//   series-breakdown=0|1  also record per-lane / per-query / per-source
//                    breakdown rows in the series; requires series-out (0)
//   ckpt-out=FILE    append durable coordinator snapshots (JSONL,
//                    src/recovery/checkpoint.h, docs/RECOVERY.md) at the
//                    ckpt-interval-s cadence; inspect with polydab_ckpt
//   ckpt-interval-s=N  simulated seconds between snapshots, >= 1;
//                    requires ckpt-out (60)
//   wal-out=FILE     append a write-ahead log of every consumed tick row
//                    (plus ack/churn audit records and crash markers);
//                    the restart replays it. The file accumulates across
//                    invocations, so checkpoint + WAL stay a
//                    self-sufficient pair
//   coord-crash-at=K crash injector: terminate the coordinator at the
//                    top of tick K (>= 1), after appending a WAL crash
//                    marker; requires ckpt-out and wal-out, incompatible
//                    with restart-from. Exits 0 with the partial metrics
//                    (a metrics-out report carries status=crashed)
//   restart-from=CKPT  resume from the latest complete snapshot in CKPT,
//                    replaying wal-out past it; requires wal-out. The
//                    restarted run is bit-identical to one that never
//                    crashed (tests/recovery_diff_test.cc)
//   merge-trace=FILE the crashed invocation's trace file: the restart
//                    captures its own trace in memory, splices the two
//                    id spaces at the checkpoint boundary and writes the
//                    combined trace to trace-out; requires restart-from
//                    and trace-out
//
// Arguments are validated before any output file is touched: a malformed
// argument (no '='), an unknown key, a non-numeric value for a numeric
// key or an unknown enum value fails fast, and the engine's own mode
// rules (sim::SimConfig::Validate, e.g. coord-shards < 1 or churn with
// aao-period) are checked once the config is built. Each exits 2 with a
// message on stderr. Runtime failures exit 1; success exits 0.

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "obs/run_report.h"
#include "obs/slo.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "obs/trace_canon.h"
#include "obs/trace_fold.h"
#include "recovery/checkpoint.h"
#include "recovery/recovery.h"
#include "recovery/wal.h"
#include "sim/simulation.h"
#include "svc/query_service.h"
#include "workload/churn_gen.h"
#include "workload/query_gen.h"
#include "workload/rate_estimator.h"
#include "workload/tick_source.h"
#include "workload/trace_io.h"

using namespace polydab;

namespace {

/// Usage / validation failure: message on stderr, exit 2 — before any
/// simulation work or output file is touched.
[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "polydab_experiment: %s\n", message.c_str());
  std::exit(2);
}

/// Every key ParseArgs accepts, post-normalization ('-' -> '_'). A key
/// outside this set is a typo that would otherwise silently fall back to
/// the default (e.g. "coord-shard=4" running serially).
const std::set<std::string>& KnownKeys() {
  static const std::set<std::string> keys = {
      "queries",      "kind",         "dependent",  "method",
      "heuristic",    "ddm",          "mu",         "rates",
      "items",        "ticks",        "traces",     "delay_ms",
      "recompute_ms", "aao_period",   "coord_shards",
      "shard_policy", "threads",      "rt_fail_at", "solve_cache",
      "seed",         "csv",          "metrics_out",
      "trace_out",    "flame_out",    "flame_group_by",
      "fault_drop",   "fault_crash",  "lease_s",    "retx_timeout_s",
      "churn_rate",   "churn_lifetime_s",           "churn_zipf",
      "churn_modify_prob",            "admit_budget",
      "admit_policy", "ingest",
      "series_out",   "series_window_s",            "slo",
      "series_breakdown",             "ckpt_out",
      "ckpt_interval_s",              "wal_out",
      "coord_crash_at",               "restart_from",
      "merge_trace",
  };
  return keys;
}

std::map<std::string, std::string> ParseArgs(int argc, char** argv) {
  std::map<std::string, std::string> out;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    while (*arg == '-') ++arg;  // accept --key=value spellings
    const char* eq = std::strchr(arg, '=');
    if (eq == nullptr || eq == arg) {
      Die("malformed argument '" + std::string(argv[i]) +
          "' (want key=value)");
    }
    std::string key(arg, static_cast<size_t>(eq - arg));
    for (char& c : key) {
      if (c == '-') c = '_';  // metrics-out == metrics_out
    }
    if (KnownKeys().count(key) == 0) {
      Die("unknown key '" + key + "' in argument '" + std::string(argv[i]) +
          "'");
    }
    out[std::move(key)] = std::string(eq + 1);
  }
  return out;
}

std::string Get(const std::map<std::string, std::string>& args,
                const std::string& key, const std::string& dflt) {
  auto it = args.find(key);
  return it == args.end() ? dflt : it->second;
}

int GetInt(const std::map<std::string, std::string>& args,
           const std::string& key, int dflt) {
  auto it = args.find(key);
  if (it == args.end()) return dflt;
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(it->second.c_str(), &end, 10);
  if (it->second.empty() || end == nullptr || *end != '\0') {
    Die("invalid integer '" + it->second + "' for " + key);
  }
  if (errno == ERANGE || v < INT_MIN || v > INT_MAX) {
    Die("integer '" + it->second + "' out of range for " + key);
  }
  return static_cast<int>(v);
}

double GetDouble(const std::map<std::string, std::string>& args,
                 const std::string& key, double dflt) {
  auto it = args.find(key);
  if (it == args.end()) return dflt;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  if (it->second.empty() || end == nullptr || *end != '\0') {
    Die("invalid number '" + it->second + "' for " + key);
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  auto args = ParseArgs(argc, argv);
  const int num_queries = GetInt(args, "queries", 50);
  const int num_items = GetInt(args, "items", 100);
  const int ticks = GetInt(args, "ticks", 2000);
  const uint64_t seed = static_cast<uint64_t>(GetInt(args, "seed", 1));
  if (num_queries < 1) Die("queries must be >= 1");
  if (num_items < 1) Die("items must be >= 1");
  if (ticks < 2) Die("ticks must be >= 2");

  // Validate every enum knob before any simulation work, so a typo fails
  // in milliseconds instead of after the trace generation.
  const std::string rates_kind = Get(args, "rates", "mean");
  if (rates_kind != "mean" && rates_kind != "ewma" && rates_kind != "p95" &&
      rates_kind != "unit") {
    Die("unknown rates '" + rates_kind + "' (want mean|ewma|p95|unit)");
  }
  const std::string kind = Get(args, "kind", "ppq");
  if (kind != "ppq" && kind != "pq") {
    Die("unknown kind '" + kind + "' (want ppq|pq)");
  }
  const std::string method = Get(args, "method", "dual");
  if (method != "dual" && method != "optimal" && method != "wsdab") {
    Die("unknown method '" + method + "' (want dual|optimal|wsdab)");
  }
  const std::string heuristic = Get(args, "heuristic", "ds");
  if (heuristic != "ds" && heuristic != "hh") {
    Die("unknown heuristic '" + heuristic + "' (want ds|hh)");
  }
  const std::string ddm = Get(args, "ddm", "mono");
  if (ddm != "mono" && ddm != "walk") {
    Die("unknown ddm '" + ddm + "' (want mono|walk)");
  }
  const std::string shard_policy = Get(args, "shard_policy", "eqi");
  if (shard_policy != "eqi" && shard_policy != "hash") {
    Die("unknown shard-policy '" + shard_policy + "' (want eqi|hash)");
  }
  const int threads = GetInt(args, "threads", 0);
  obs::FoldGroupBy flame_group_by = obs::FoldGroupBy::kQuery;
  if (!obs::ParseFoldGroupBy(Get(args, "flame_group_by", "query"),
                             &flame_group_by)) {
    Die("unknown flame-group-by '" + Get(args, "flame_group_by", "") +
        "' (want query|item|lane)");
  }
  // Service-churn knobs (docs/SERVICE.md), validated to exit 2 before
  // any work like everything above.
  const double churn_rate = GetDouble(args, "churn_rate", 0.0);
  if (!(churn_rate >= 0.0) || !std::isfinite(churn_rate)) {
    Die("churn-rate must be a non-negative rate, got " +
        Get(args, "churn_rate", ""));
  }
  const double churn_lifetime_s = GetDouble(args, "churn_lifetime_s", 300.0);
  if (!(churn_lifetime_s > 0.0) || !std::isfinite(churn_lifetime_s)) {
    Die("churn-lifetime-s must be a positive duration, got " +
        Get(args, "churn_lifetime_s", ""));
  }
  const double churn_zipf = GetDouble(args, "churn_zipf", 1.0);
  if (!(churn_zipf >= 0.0) || !std::isfinite(churn_zipf)) {
    Die("churn-zipf must be a non-negative exponent, got " +
        Get(args, "churn_zipf", ""));
  }
  const double churn_modify_prob = GetDouble(args, "churn_modify_prob", 0.1);
  if (!(churn_modify_prob >= 0.0 && churn_modify_prob <= 1.0)) {
    Die("churn-modify-prob must be a probability in [0,1], got " +
        Get(args, "churn_modify_prob", ""));
  }
  const double admit_budget = GetDouble(
      args, "admit_budget", std::numeric_limits<double>::infinity());
  if (!(admit_budget >= 0.0)) {
    Die("admit-budget must be >= 0, got " + Get(args, "admit_budget", ""));
  }
  const std::string admit_policy = Get(args, "admit_policy", "reject");
  if (admit_policy != "reject" && admit_policy != "degrade") {
    Die("unknown admit-policy '" + admit_policy +
        "' (want reject|degrade)");
  }
  const std::string ingest = Get(args, "ingest", "");
  if (!ingest.empty() && !Get(args, "traces", "").empty()) {
    Die("ingest and traces are mutually exclusive");
  }
  if (!ingest.empty() && args.count("rates") != 0 && rates_kind != "unit") {
    Die("ingest streams ticks once, so only rates=unit is available");
  }
  // Windowed-series knobs (docs/OBSERVABILITY.md "Time series, SLOs and
  // monitoring"), validated to exit 2 before any work like everything
  // above; the rule DSL is parsed here so an unknown metric name or a
  // malformed clause fails fast with the parser's own diagnostic.
  const std::string series_out = Get(args, "series_out", "");
  if (series_out.empty()) {
    for (const char* key :
         {"series_window_s", "slo", "series_breakdown"}) {
      if (args.count(key) != 0) {
        std::string spelled = key;
        for (char& c : spelled) {
          if (c == '_') c = '-';
        }
        Die(spelled + " requires series-out");
      }
    }
  }
  const int series_window_s = GetInt(args, "series_window_s", 1);
  if (series_window_s < 1) {
    Die("series-window-s must be >= 1, got " +
        Get(args, "series_window_s", ""));
  }
  const int series_breakdown = GetInt(args, "series_breakdown", 0);
  if (series_breakdown != 0 && series_breakdown != 1) {
    Die("series-breakdown must be 0 or 1, got " +
        Get(args, "series_breakdown", ""));
  }
  std::vector<obs::SloRule> slo_rules;
  const std::string slo_text = Get(args, "slo", "");
  if (!slo_text.empty()) {
    Result<std::vector<obs::SloRule>> parsed =
        obs::ParseSloRules(slo_text, obs::SeriesMetricNames());
    if (!parsed.ok()) {
      Die("slo: " + parsed.status().ToString());
    }
    slo_rules = std::move(*parsed);
  }
  // Crash-recovery knobs (docs/RECOVERY.md). Their mode rules live in
  // SimConfig::Validate, checked below once the config is built; these are
  // the command line's own spelling rules.
  const std::string ckpt_out = Get(args, "ckpt_out", "");
  const std::string wal_out = Get(args, "wal_out", "");
  const std::string restart_from = Get(args, "restart_from", "");
  const std::string merge_trace = Get(args, "merge_trace", "");
  const int ckpt_interval_s = GetInt(args, "ckpt_interval_s", 60);
  const int coord_crash_at = GetInt(args, "coord_crash_at", 0);
  const bool recovery_active = !ckpt_out.empty() || !wal_out.empty() ||
                               !restart_from.empty() ||
                               args.count("coord_crash_at") != 0;
  if (args.count("ckpt_interval_s") != 0 && ckpt_out.empty()) {
    Die("ckpt-interval-s requires ckpt-out");
  }
  if (args.count("coord_crash_at") != 0 && coord_crash_at < 1) {
    Die("coord-crash-at must be >= 1, got " +
        Get(args, "coord_crash_at", ""));
  }
  if (!merge_trace.empty() && restart_from.empty()) {
    Die("merge-trace requires restart-from");
  }
  if (!merge_trace.empty() && Get(args, "trace_out", "").empty()) {
    Die("merge-trace requires trace-out (where the merged trace goes)");
  }
  if ((coord_crash_at > 0 || !restart_from.empty()) &&
      !Get(args, "flame_out", "").empty()) {
    Die("flame-out cannot fold a partial (crashed or restarted) run; "
        "fold the merged trace offline with polydab_flame");
  }

  // Universe: synthesize traces, replay a CSV trace set (traces=path), or
  // stream ticks row by row from a file (ingest=path) without ever
  // holding the full set in memory. The stream's first row doubles as the
  // query generator's initial snapshot; the source is rewound afterwards
  // so the run still starts at tick 0.
  Rng rng(seed);
  Result<workload::TraceSet> traces = Status::Internal("unset");
  std::unique_ptr<workload::FileTickSource> ingest_source;
  Vector snapshot0;
  int universe_items = num_items;
  const std::string trace_path = Get(args, "traces", "");
  if (!ingest.empty()) {
    auto opened = workload::FileTickSource::Open(ingest);
    if (!opened.ok()) {
      std::fprintf(stderr, "ingest: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    ingest_source = std::move(*opened);
    universe_items = static_cast<int>(ingest_source->num_items());
    Result<bool> first = ingest_source->Next(&snapshot0);
    if (!first.ok() || !*first) {
      std::fprintf(stderr, "ingest: %s\n",
                   first.ok() ? "empty stream"
                              : first.status().ToString().c_str());
      return 1;
    }
    Status rewound = ingest_source->Rewind();
    if (!rewound.ok()) {
      std::fprintf(stderr, "ingest: %s\n", rewound.ToString().c_str());
      return 1;
    }
  } else {
    if (!trace_path.empty()) {
      traces = workload::LoadTraceSetCsv(trace_path);
    } else {
      workload::TraceSetConfig tc;
      tc.num_items = num_items;
      tc.num_ticks = ticks;
      traces = workload::GenerateTraceSet(tc, &rng);
    }
    if (!traces.ok()) {
      std::fprintf(stderr, "traces: %s\n",
                   traces.status().ToString().c_str());
      return 1;
    }
    snapshot0 = traces->Snapshot(0);
  }

  // Rates.
  Result<Vector> rates = Status::Internal("unset");
  if (ingest_source != nullptr) {
    rates = workload::UnitRates(static_cast<size_t>(universe_items));
  } else if (rates_kind == "mean") {
    rates = workload::EstimateRates(*traces, 60);
  } else if (rates_kind == "ewma") {
    rates = workload::EstimateRatesEwma(*traces, 60, 0.1);
  } else if (rates_kind == "p95") {
    rates = workload::EstimateRatesQuantile(*traces, 60, 0.95);
  } else {
    rates = workload::UnitRates(traces->num_items());
  }
  if (!rates.ok()) {
    std::fprintf(stderr, "rates: %s\n", rates.status().ToString().c_str());
    return 1;
  }

  // Queries.
  workload::QueryGenConfig qc;
  qc.num_items = ingest_source != nullptr ? universe_items : num_items;
  Result<std::vector<PolynomialQuery>> queries = Status::Internal("unset");
  if (kind == "ppq") {
    queries = workload::GeneratePortfolioQueries(num_queries, qc, snapshot0,
                                                 &rng);
  } else {
    queries = workload::GenerateArbitrageQueries(
        num_queries, qc, snapshot0, GetInt(args, "dependent", 0) != 0,
        &rng);
  }
  if (!queries.ok()) {
    std::fprintf(stderr, "queries: %s\n",
                 queries.status().ToString().c_str());
    return 1;
  }

  // Simulation config.
  sim::SimConfig config;
  config.planner.method = method == "dual"
                              ? core::AssignmentMethod::kDualDab
                              : method == "optimal"
                                    ? core::AssignmentMethod::kOptimalRefresh
                                    : core::AssignmentMethod::kWsDab;
  config.planner.heuristic = heuristic == "hh"
                                 ? core::GeneralPqHeuristic::kHalfAndHalf
                                 : core::GeneralPqHeuristic::kDifferentSum;
  config.planner.dual.ddm = ddm == "walk"
                                ? core::DataDynamicsModel::kRandomWalk
                                : core::DataDynamicsModel::kMonotonic;
  config.planner.dual.mu = GetDouble(args, "mu", core::kDefaultMu);
  config.delays.node_node_mean = GetDouble(args, "delay_ms", 110.0) / 1000.0;
  config.delays.recompute_cpu_s =
      GetDouble(args, "recompute_ms", 2.0) / 1000.0;
  config.aao_period_s = GetDouble(args, "aao_period", 0.0);
  config.coord_shards = GetInt(args, "coord_shards", 1);
  config.shard_policy = shard_policy == "hash"
                            ? sim::ShardPolicy::kQueryHash
                            : sim::ShardPolicy::kEqiComponents;
  config.seed = seed;
  config.fault.drop_prob = GetDouble(args, "fault_drop", 0.0);
  config.fault.crash_prob = GetDouble(args, "fault_crash", 0.0);
  config.fault.retx_timeout_s = GetDouble(args, "retx_timeout_s", 2.0);
  config.fault.lease_s = GetDouble(args, "lease_s", 15.0);
  config.threads = threads;
  config.rt_fail_at = GetInt(args, "rt_fail_at", 0);
  config.solve_cache = GetInt(args, "solve_cache", 0);

  // Telemetry: attach a registry when a report was requested, so the run
  // records solver/planner/simulator instruments (docs/OBSERVABILITY.md).
  const std::string metrics_out = Get(args, "metrics_out", "");
  obs::MetricRegistry registry;
  if (!metrics_out.empty()) config.registry = &registry;

  // Windowed series (docs/OBSERVABILITY.md "Time series, SLOs and
  // monitoring"): the recorder observes the run's trace sink and folds
  // the event stream into fixed windows of simulated time, evaluating
  // the SLO rules at every close. It samples the registry's instruments
  // per window only when a metrics report was also requested.
  std::unique_ptr<obs::SeriesRecorder> series;
  if (!series_out.empty()) {
    obs::SeriesConfig sc;
    sc.window_ticks = series_window_s;
    sc.breakdown = series_breakdown != 0;
    sc.rules = slo_rules;
    sc.registry = config.registry;
    series = std::make_unique<obs::SeriesRecorder>(sc);
    config.series = series.get();
  }

  // Live service layer (docs/SERVICE.md): generate the churn schedule from
  // a dedicated RNG stream (seed + 1, so the workload and delay draws are
  // untouched) and drive it through admission control.
  std::unique_ptr<svc::QueryService> service;
  if (churn_rate > 0.0) {
    workload::ChurnConfig cc;
    cc.arrival_rate = churn_rate;
    cc.mean_lifetime_s = churn_lifetime_s;
    cc.modify_prob = churn_modify_prob;
    cc.zipf_s = churn_zipf;
    cc.horizon_s = static_cast<double>(
        ingest_source != nullptr ? ticks : traces->num_ticks);
    cc.num_items = qc.num_items;
    Rng churn_rng(seed + 1);
    auto schedule = workload::GenerateChurnSchedule(cc, snapshot0,
                                                    &churn_rng);
    if (!schedule.ok()) {
      std::fprintf(stderr, "churn: %s\n",
                   schedule.status().ToString().c_str());
      return 1;
    }
    svc::AdmissionConfig ac;
    ac.recompute_budget = admit_budget;
    ac.policy = admit_policy == "degrade"
                    ? svc::AdmissionConfig::Policy::kDegrade
                    : svc::AdmissionConfig::Policy::kReject;
    service = std::make_unique<svc::QueryService>(
        ac, std::move(*schedule), config.registry,
        config.plan_maintenance);
    config.service = service.get();
  }

  // Crash recovery (docs/RECOVERY.md): the knob bundle is attached only
  // when a recovery key was named, so knob-free runs stay byte-identical
  // to builds without the recovery layer. A restart points at the
  // snapshot and WAL record buffers now and fills them once the config
  // has validated; the engine checks their consistency and replays the
  // logged rows itself.
  recovery::RecoveryConfig rc;
  recovery::CheckpointState ckpt_state;
  std::vector<recovery::WalRecord> wal_records;
  int restart_crash_tick = 0;
  if (recovery_active) {
    rc.checkpoint_path = ckpt_out;
    rc.wal_path = wal_out;
    rc.interval_s = ckpt_interval_s;
    rc.crash_at_tick = coord_crash_at;
    if (!restart_from.empty()) {
      rc.restart = &ckpt_state;
      if (!wal_out.empty()) rc.wal = &wal_records;
    }
    config.recovery = &rc;
  }

  // Causal event trace (docs/OBSERVABILITY.md "Event tracing"); verify
  // offline with polydab_tracecheck. flame-out needs the events too: with
  // trace-out it re-reads the saved file, without it the sink captures in
  // memory.
  const std::string trace_out = Get(args, "trace_out", "");
  const std::string flame_out = Get(args, "flame_out", "");
  obs::TraceSink sink;
  if (!trace_out.empty() || !flame_out.empty() || !series_out.empty()) {
    config.trace = &sink;
  }

  // The engine's mode rules, checked before any input file of a restart is
  // read or any output file is opened.
  Status valid = config.Validate();
  if (!valid.ok()) Die(valid.ToString());

  if (!restart_from.empty()) {
    Status loaded = recovery::LoadLatestCheckpoint(restart_from, &ckpt_state);
    if (!loaded.ok()) {
      std::fprintf(stderr, "restart-from: %s\n", loaded.ToString().c_str());
      return 1;
    }
    loaded = recovery::LoadWal(wal_out, &wal_records);
    if (!loaded.ok()) {
      std::fprintf(stderr, "wal-out: %s\n", loaded.ToString().c_str());
      return 1;
    }
    const recovery::WalRecord* crash = recovery::LastCrashMarker(wal_records);
    if (crash == nullptr) {
      std::fprintf(stderr,
                   "restart-from: WAL '%s' carries no crash marker (the "
                   "previous invocation did not terminate via "
                   "coord-crash-at)\n",
                   wal_out.c_str());
      return 1;
    }
    restart_crash_tick = crash->tick;
  }

  // A threaded run's trace is captured in memory and canonicalized
  // (obs/trace_canon.h drops its rt_* info keys) before anything reaches
  // disk; streaming is the threads=0 path only. A restarted run also
  // captures in memory — its events must be merged with the crashed
  // invocation's before saving.
  if (!trace_out.empty() && threads == 0 && restart_from.empty()) {
    Status streaming = sink.StreamTo(trace_out);
    if (!streaming.ok()) {
      std::fprintf(stderr, "trace-out: %s\n", streaming.ToString().c_str());
      return 1;
    }
  }
  if (config.trace != nullptr) {
    sink.SetInfo("tool", "polydab_experiment");
    sink.SetInfo("kind", kind);
    // Series-only runs need the event *stream* (the recorder observes
    // every Emit) but not the trace itself: discard mode never buffers.
    if (trace_out.empty() && flame_out.empty()) sink.SetDiscard(true);
  }

  Result<sim::SimMetrics> m = Status::Internal("unset");
  if (!restart_from.empty()) {
    // The engine replays the WAL rows of the crashed span itself; the
    // live source only has to be positioned so its next row belongs to
    // the crash tick T. The crashed invocation consumed exactly T rows
    // (the tick-0 snapshot plus ticks 1..T-1), so T rows are skipped.
    std::unique_ptr<workload::TraceSetTickSource> canned;
    workload::TickSource* src = ingest_source.get();
    if (src == nullptr) {
      canned = std::make_unique<workload::TraceSetTickSource>(&*traces);
      src = canned.get();
    }
    Vector skip_row;
    for (int t = 0; t < restart_crash_tick; ++t) {
      auto got = src->Next(&skip_row);
      if (!got.ok() || !*got) {
        std::fprintf(stderr,
                     "restart-from: tick source ends at row %d but the "
                     "crashed run consumed %d rows\n",
                     t, restart_crash_tick);
        return 1;
      }
    }
    m = sim::RunSimulation(*queries, *src, *rates, config);
  } else if (ingest_source != nullptr) {
    m = sim::RunSimulation(*queries, *ingest_source, *rates, config);
  } else {
    m = sim::RunSimulation(*queries, *traces, *rates, config);
  }
  if (!m.ok()) {
    std::fprintf(stderr, "simulation: %s\n", m.status().ToString().c_str());
    // Partial telemetry beats none: write whatever the instruments saw
    // before the failure, with an explicit status record so downstream
    // tooling can tell a truncated report from a successful one (a
    // successful report carries no `status` key).
    if (!metrics_out.empty()) {
      obs::RunReport report = obs::RunReport::FromRegistry(registry);
      report.info["tool"] = "polydab_experiment";
      report.info["status"] = "failed";
      report.info["error"] = m.status().ToString();
      Status written = report.WriteJsonLines(metrics_out);
      if (!written.ok()) {
        std::fprintf(stderr, "metrics-out: %s\n",
                     written.ToString().c_str());
      }
    }
    return 1;
  }

  if (!trace_out.empty()) {
    if (!restart_from.empty()) {
      // Restarted run: the trace was captured in memory. With
      // merge-trace= the crashed invocation's events with ids below the
      // restart's resume id (the checkpoint's ResumeTraceId) are spliced
      // in front — everything at or past it was re-emitted by the WAL
      // replay — producing one complete id space. Threaded runs are
      // canonicalized as a whole after the merge.
      obs::TraceFile trace = sink.Collect();
      if (!merge_trace.empty()) {
        Result<obs::TraceFile> crashed_trace =
            obs::LoadTraceFile(merge_trace);
        if (!crashed_trace.ok()) {
          std::fprintf(stderr, "merge-trace: %s\n",
                       crashed_trace.status().ToString().c_str());
          return 1;
        }
        const uint64_t resume_id = ckpt_state.ResumeTraceId();
        obs::TraceFile merged;
        merged.info = crashed_trace->info;
        for (const auto& [key, value] : trace.info) {
          merged.info[key] = value;
        }
        // query_info records append in registration order: the crashed
        // side carries every query registered before the crash, the
        // restart side only the post-replay ones (the engine suppresses
        // replay-period re-registrations).
        merged.queries = std::move(crashed_trace->queries);
        merged.queries.insert(merged.queries.end(), trace.queries.begin(),
                              trace.queries.end());
        for (obs::TraceEvent& e : crashed_trace->events) {
          if (e.id < resume_id) merged.events.push_back(std::move(e));
        }
        merged.events.insert(merged.events.end(), trace.events.begin(),
                             trace.events.end());
        std::stable_sort(
            merged.events.begin(), merged.events.end(),
            [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
              return a.id < b.id;
            });
        // The run summary comes from the restart side only: it ran to
        // completion, and its final counters equal the oracle's.
        merged.summary = std::move(trace.summary);
        trace = std::move(merged);
      }
      if (threads > 0) {
        Status canon = obs::CanonicalizeThreadedTrace(&trace);
        if (!canon.ok()) {
          std::fprintf(stderr, "trace-out: %s\n", canon.ToString().c_str());
          return 1;
        }
      }
      Status saved = obs::SaveTraceFile(trace, trace_out);
      if (!saved.ok()) {
        std::fprintf(stderr, "trace-out: %s\n", saved.ToString().c_str());
        return 1;
      }
    } else if (threads > 0) {
      obs::TraceFile trace = sink.Collect();
      // A crashed capture is saved raw: the restart invocation merges
      // it and canonicalizes the merged trace.
      if (!rc.crashed) {
        Status canon = obs::CanonicalizeThreadedTrace(&trace);
        if (!canon.ok()) {
          std::fprintf(stderr, "trace-out: %s\n", canon.ToString().c_str());
          return 1;
        }
      }
      Status saved = obs::SaveTraceFile(trace, trace_out);
      if (!saved.ok()) {
        std::fprintf(stderr, "trace-out: %s\n", saved.ToString().c_str());
        return 1;
      }
    } else {
      Status finished = sink.Finish();
      if (!finished.ok()) {
        std::fprintf(stderr, "trace-out: %s\n",
                     finished.ToString().c_str());
        return 1;
      }
    }
  }

  if (!flame_out.empty()) {
    obs::TraceFile trace;
    if (!trace_out.empty()) {
      // With threads > 0 this re-reads the canonical file written above,
      // so the folding never sees worker tags.
      Result<obs::TraceFile> loaded = obs::LoadTraceFile(trace_out);
      if (!loaded.ok()) {
        std::fprintf(stderr, "flame-out: %s\n",
                     loaded.status().ToString().c_str());
        return 1;
      }
      trace = std::move(loaded).value();
    } else {
      trace = sink.Collect();
      if (threads > 0) {
        Status canon = obs::CanonicalizeThreadedTrace(&trace);
        if (!canon.ok()) {
          std::fprintf(stderr, "flame-out: %s\n", canon.ToString().c_str());
          return 1;
        }
      }
    }
    obs::TraceFoldOptions fold_options;
    fold_options.group_by = flame_group_by;
    Result<obs::TraceFoldReport> folded =
        obs::FoldTrace(trace, fold_options);
    if (!folded.ok()) {
      std::fprintf(stderr, "flame-out: %s\n",
                   folded.status().ToString().c_str());
      return 1;
    }
    const std::string text = folded->ToFolded();
    std::FILE* f = std::fopen(flame_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "flame-out: cannot open '%s'\n",
                   flame_out.c_str());
      return 1;
    }
    const size_t wrote = std::fwrite(text.data(), 1, text.size(), f);
    if (wrote != text.size() || std::fclose(f) != 0) {
      std::fprintf(stderr, "flame-out: write error on '%s'\n",
                   flame_out.c_str());
      return 1;
    }
    if (!folded->ok()) {
      for (const std::string& failure : folded->conservation_failures) {
        std::fprintf(stderr, "flame-out: conservation: %s\n",
                     failure.c_str());
      }
      return 1;
    }
  }

  if (!series_out.empty()) {
    obs::SeriesFile file = series->file();
    file.info["tool"] = "polydab_experiment";
    file.info["window_s"] = std::to_string(series_window_s);
    Status written = obs::SaveSeriesFile(file, series_out);
    if (!written.ok()) {
      std::fprintf(stderr, "series-out: %s\n", written.ToString().c_str());
      return 1;
    }
  }

  if (!metrics_out.empty()) {
    obs::RunReport report = obs::RunReport::FromRegistry(registry);
    report.info["tool"] = "polydab_experiment";
    report.info["config"] = config.Describe();
    report.info["kind"] = kind;
    // An injected-crash run writes its partial telemetry with an explicit
    // marker, like the failed-run path above, so downstream tooling never
    // mistakes it for a completed run.
    if (rc.crashed) report.info["status"] = "crashed";
    if (!trace_path.empty()) report.info["traces"] = trace_path;
    Status written = report.WriteJsonLines(metrics_out);
    if (!written.ok()) {
      std::fprintf(stderr, "metrics-out: %s\n", written.ToString().c_str());
      return 1;
    }
  }

  const double mu = config.planner.dual.mu;
  if (GetInt(args, "csv", 0) != 0) {
    std::printf("%s,%s,%g,%d,%d,%lld,%lld,%lld,%lld,%.0f,%.4f\n",
                method.c_str(), kind.c_str(), mu, num_queries, ticks,
                static_cast<long long>(m->refreshes),
                static_cast<long long>(m->recomputations),
                static_cast<long long>(m->dab_change_messages),
                static_cast<long long>(m->user_notifications),
                m->TotalCost(mu), m->mean_fidelity_loss_pct);
  } else {
    std::printf(
        "method=%s kind=%s mu=%g queries=%d ticks=%d refreshes=%lld "
        "recomputations=%lld dab_changes=%lld user_notifications=%lld "
        "total_cost=%.0f fidelity_loss_pct=%.4f solver_failures=%lld\n",
        method.c_str(), kind.c_str(), mu, num_queries, ticks,
        static_cast<long long>(m->refreshes),
        static_cast<long long>(m->recomputations),
        static_cast<long long>(m->dab_change_messages),
        static_cast<long long>(m->user_notifications), m->TotalCost(mu),
        m->mean_fidelity_loss_pct,
        static_cast<long long>(m->solver_failures));
  }
  return 0;
}
