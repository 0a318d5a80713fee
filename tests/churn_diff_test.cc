// Differential test harness for the live-query service layer
// (docs/SERVICE.md): SimConfig::service + svc::QueryService driving
// runtime register / modify / deregister through the engine. Oracles:
//
//  1. Zero-churn identity: a service with an empty schedule — and the
//     streaming TickSource entry point it rides on — must leave the run
//     byte-identical to the historical fixed-query path: same trace
//     JSONL, same SimMetrics, same registry instruments (and no svc.*
//     names recorded at all).
//  2. Plan-maintenance differential: kIncremental (in-place EQI
//     merge/split + shard re-assignment) and kRebuild (from-scratch
//     re-derivation at every churn event) must produce bit-identical
//     traces and metrics across planner methods and shard counts.
//  3. Trace replay: churn traces must pass obs::CheckTrace — including
//     the churn invariants: no query charged outside its registration
//     interval, and every plan_patch digest reproduced by the checker's
//     own from-scratch partition replay. Deliberate corruptions of
//     either invariant must be caught.
//
// Admission control is unit-tested against a fake ServiceOps whose
// TrialPlan costs a query at 1/QAB, making the budget arithmetic exact.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_check.h"
#include "sim/simulation.h"
#include "svc/query_service.h"
#include "workload/churn_gen.h"
#include "workload/query_gen.h"
#include "workload/rate_estimator.h"
#include "workload/tick_source.h"

namespace polydab::svc {
namespace {

/// Same fixed workload as tests/coord_shard_diff_test.cc: 24 items, 500
/// ticks, 10 portfolio PPQs — plus a Poisson churn schedule over the
/// run's horizon.
class ChurnDiffTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(4242);
    workload::TraceSetConfig tc;
    tc.num_items = 24;
    tc.num_ticks = 500;
    tc.vol_lo = 5e-4;
    tc.vol_hi = 2e-3;
    traces_ = *workload::GenerateTraceSet(tc, &rng);
    rates_ = *workload::EstimateRates(traces_, 60);
    workload::QueryGenConfig qc;
    qc.num_items = 24;
    qc.min_pairs = 2;
    qc.max_pairs = 3;
    queries_ = *workload::GeneratePortfolioQueries(10, qc,
                                                   traces_.Snapshot(0), &rng);
  }

  std::vector<workload::ChurnOp> Schedule(uint64_t seed) const {
    workload::ChurnConfig cc;
    cc.arrival_rate = 0.1;
    cc.mean_lifetime_s = 150.0;
    cc.modify_prob = 0.3;
    cc.horizon_s = 500.0;
    cc.num_items = 24;
    Rng rng(seed);
    auto ops = workload::GenerateChurnSchedule(cc, traces_.Snapshot(0), &rng);
    EXPECT_TRUE(ops.ok());
    return *ops;
  }

  sim::SimConfig Config(core::AssignmentMethod method, int shards,
                        sim::PlanMaintenance maintenance) const {
    sim::SimConfig c;
    c.planner.method = method;
    c.planner.dual.mu = 5.0;
    c.seed = 3;
    c.coord_shards = shards;
    c.plan_maintenance = maintenance;
    return c;
  }

  workload::TraceSet traces_;
  Vector rates_;
  std::vector<PolynomialQuery> queries_;
};

void ExpectMetricsEqual(const sim::SimMetrics& got,
                        const sim::SimMetrics& want,
                        const std::string& label) {
  EXPECT_EQ(got.refreshes, want.refreshes) << label;
  EXPECT_EQ(got.recomputations, want.recomputations) << label;
  EXPECT_EQ(got.dab_change_messages, want.dab_change_messages) << label;
  EXPECT_EQ(got.user_notifications, want.user_notifications) << label;
  EXPECT_EQ(got.solver_failures, want.solver_failures) << label;
  EXPECT_EQ(got.mean_fidelity_loss_pct, want.mean_fidelity_loss_pct)
      << label;
}

TEST_F(ChurnDiffTest, ZeroChurnServiceRunIsByteIdenticalToFixedPath) {
  for (int shards : {1, 3}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    // Historical path: canned TraceSet, no service driver.
    obs::TraceSink sink_a;
    obs::MetricRegistry reg_a;
    sim::SimConfig a = Config(core::AssignmentMethod::kDualDab, shards,
                              sim::PlanMaintenance::kIncremental);
    a.trace = &sink_a;
    a.registry = &reg_a;
    auto ma = sim::RunSimulation(queries_, traces_, rates_, a);
    ASSERT_TRUE(ma.ok()) << ma.status().ToString();

    // Service path: streaming tick source + a driver that never issues
    // an op (empty schedule).
    obs::TraceSink sink_b;
    obs::MetricRegistry reg_b;
    QueryService service(AdmissionConfig{}, {}, &reg_b,
                         sim::PlanMaintenance::kIncremental);
    sim::SimConfig b = a;
    b.trace = &sink_b;
    b.registry = &reg_b;
    b.service = &service;
    workload::TraceSetTickSource source(&traces_);
    auto mb = sim::RunSimulation(queries_, source, rates_, b);
    ASSERT_TRUE(mb.ok()) << mb.status().ToString();

    EXPECT_EQ(obs::TraceToJsonLines(sink_a.Collect()),
              obs::TraceToJsonLines(sink_b.Collect()));
    ExpectMetricsEqual(*mb, *ma, "zero churn");

    // Identical instrument sets — in particular no svc.* instruments,
    // which are created lazily at the first executed op.
    const auto ea = reg_a.Entries();
    const auto eb = reg_b.Entries();
    ASSERT_EQ(ea.size(), eb.size());
    for (size_t i = 0; i < ea.size(); ++i) {
      EXPECT_EQ(ea[i].name, eb[i].name);
      EXPECT_EQ(eb[i].name.rfind("svc.", 0), std::string::npos);
      ASSERT_EQ(ea[i].kind, eb[i].kind) << ea[i].name;
      switch (ea[i].kind) {
        case obs::InstrumentKind::kCounter:
          EXPECT_EQ(ea[i].counter->value(), eb[i].counter->value())
              << ea[i].name;
          break;
        case obs::InstrumentKind::kGauge:
          EXPECT_EQ(ea[i].gauge->value(), eb[i].gauge->value())
              << ea[i].name;
          break;
        case obs::InstrumentKind::kHistogram:
          // Sample counts are deterministic; sums of the wall-clock
          // latency histograms are not.
          EXPECT_EQ(ea[i].histogram->count(), eb[i].histogram->count())
              << ea[i].name;
          break;
      }
    }
    EXPECT_EQ(service.registrations(), 0);
    EXPECT_EQ(service.active_queries(), 0);
  }
}

TEST_F(ChurnDiffTest, IncrementalMatchesRebuildBitForBit) {
  for (core::AssignmentMethod method :
       {core::AssignmentMethod::kDualDab, core::AssignmentMethod::kWsDab}) {
    for (int shards : {1, 3}) {
      SCOPED_TRACE(std::string("method=") + core::Name(method) +
                   " shards=" + std::to_string(shards));
      std::string rendered[2];
      sim::SimMetrics metrics[2];
      int run = 0;
      for (sim::PlanMaintenance maintenance :
           {sim::PlanMaintenance::kIncremental,
            sim::PlanMaintenance::kRebuild}) {
        obs::TraceSink sink;
        QueryService service(AdmissionConfig{}, Schedule(7), nullptr,
                             maintenance);
        sim::SimConfig c = Config(method, shards, maintenance);
        c.trace = &sink;
        c.service = &service;
        auto m = sim::RunSimulation(queries_, traces_, rates_, c);
        ASSERT_TRUE(m.ok()) << m.status().ToString();
        metrics[run] = *m;
        rendered[run] = obs::TraceToJsonLines(sink.Collect());
        EXPECT_GT(service.registrations(), 0);
        ++run;
      }
      EXPECT_EQ(rendered[0], rendered[1]);
      ExpectMetricsEqual(metrics[0], metrics[1], "incremental vs rebuild");
    }
  }
}

TEST_F(ChurnDiffTest, IndexedMinMergeMatchesTheScanUnderParanoidChurn) {
  // Paranoid validation re-walks the EQI merge's sources after every
  // install and every churn op and aborts (POLYDAB_CHECK) when the
  // index disagrees with the walk, so a register, modify or deregister
  // that skipped an index update fails this run. The checks must not
  // change the run either: only the config line differs.
  std::string rendered[2];
  sim::SimMetrics metrics[2];
  for (int paranoid = 0; paranoid < 2; ++paranoid) {
    obs::TraceSink sink;
    QueryService service(AdmissionConfig{}, Schedule(11), nullptr,
                         sim::PlanMaintenance::kIncremental);
    sim::SimConfig c = Config(core::AssignmentMethod::kDualDab, 4,
                              sim::PlanMaintenance::kIncremental);
    c.shard_policy = sim::ShardPolicy::kQueryHash;
    c.paranoid_validation = paranoid != 0;
    c.trace = &sink;
    c.service = &service;
    auto m = sim::RunSimulation(queries_, traces_, rates_, c);
    ASSERT_TRUE(m.ok()) << m.status().ToString();
    EXPECT_GT(m->recomputations, 0);
    EXPECT_GT(service.registrations(), 0);
    EXPECT_GT(service.modifications(), 0);
    EXPECT_GT(service.deregistrations(), 0);
    metrics[paranoid] = *m;
    obs::TraceFile trace = sink.Collect();
    ASSERT_EQ(trace.info.erase("sim_config"), 1u);  // names the flag
    rendered[paranoid] = obs::TraceToJsonLines(trace);
  }
  EXPECT_EQ(rendered[1], rendered[0]);
  ExpectMetricsEqual(metrics[1], metrics[0], "paranoid vs plain");
}

TEST_F(ChurnDiffTest, ChurnTracecheckGreenAndRederivesMetrics) {
  for (int shards : {1, 2}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    obs::TraceSink sink;
    obs::MetricRegistry registry;
    QueryService service(AdmissionConfig{}, Schedule(11), &registry,
                         sim::PlanMaintenance::kIncremental);
    sim::SimConfig c = Config(core::AssignmentMethod::kDualDab, shards,
                              sim::PlanMaintenance::kIncremental);
    c.trace = &sink;
    c.registry = &registry;
    c.service = &service;
    auto m = sim::RunSimulation(queries_, traces_, rates_, c);
    ASSERT_TRUE(m.ok()) << m.status().ToString();
    const obs::TraceFile trace = sink.Collect();

    int registers = 0, patches = 0, deregisters = 0;
    for (const obs::TraceEvent& e : trace.events) {
      registers += e.kind == obs::TraceEventKind::kQueryRegister;
      patches += e.kind == obs::TraceEventKind::kPlanPatch;
      deregisters += e.kind == obs::TraceEventKind::kQueryDeregister;
    }
    EXPECT_GT(registers, 0);
    EXPECT_GT(deregisters, 0);
    EXPECT_GE(patches, registers + deregisters);

    auto check = obs::CheckTrace(trace);
    ASSERT_TRUE(check.ok()) << check.status().ToString();
    EXPECT_TRUE(check->ok()) << check->ToText(trace);
    ASSERT_EQ(check->derived.size(), 1u);
    EXPECT_EQ(check->derived[0].refreshes, m->refreshes);
    EXPECT_EQ(check->derived[0].recomputations, m->recomputations);
    EXPECT_EQ(check->derived[0].dab_change_messages,
              m->dab_change_messages);
    EXPECT_EQ(check->derived[0].user_notifications, m->user_notifications);
    EXPECT_EQ(check->derived[0].mean_fidelity_loss_pct,
              m->mean_fidelity_loss_pct);

    // The svc.* instruments mirror the service's own outcome counts.
    EXPECT_EQ(registry.GetCounter("svc.service.registrations")->value(),
              service.registrations());
    EXPECT_EQ(registry.GetCounter("svc.service.deregistrations")->value(),
              service.deregistrations());
    EXPECT_EQ(registry.GetCounter("svc.service.modifications")->value(),
              service.modifications());
    EXPECT_EQ(
        registry.GetHistogram("svc.plan_maintenance.incremental_seconds")
            ->count(),
        service.registrations() + service.deregistrations() +
            service.modifications());
  }
}

/// Generate a churn trace for the corruption tests below.
obs::TraceFile ChurnTrace(const std::vector<PolynomialQuery>& queries,
                          const workload::TraceSet& traces,
                          const Vector& rates,
                          std::vector<workload::ChurnOp> schedule) {
  obs::TraceSink sink;
  QueryService service(AdmissionConfig{}, std::move(schedule), nullptr,
                       sim::PlanMaintenance::kIncremental);
  sim::SimConfig c;
  c.planner.method = core::AssignmentMethod::kDualDab;
  c.planner.dual.mu = 5.0;
  c.seed = 3;
  c.trace = &sink;
  c.service = &service;
  auto m = sim::RunSimulation(queries, traces, rates, c);
  EXPECT_TRUE(m.ok());
  return sink.Collect();
}

TEST_F(ChurnDiffTest, RegistrationIntervalViolationIsCaught) {
  obs::TraceFile trace =
      ChurnTrace(queries_, traces_, rates_, Schedule(11));
  // Retarget a user notification that predates a churned query's
  // registration onto that query: a charge outside its interval.
  size_t reg = trace.events.size();
  int32_t churned = -1;
  // The last registration: plenty of notification traffic precedes it.
  for (size_t i = 0; i < trace.events.size(); ++i) {
    if (trace.events[i].kind == obs::TraceEventKind::kQueryRegister) {
      reg = i;
      churned = trace.events[i].query;
    }
  }
  ASSERT_LT(reg, trace.events.size());
  size_t victim = trace.events.size();
  for (size_t i = 0; i < reg; ++i) {
    if (trace.events[i].kind == obs::TraceEventKind::kUserNotification) {
      victim = i;
    }
  }
  ASSERT_LT(victim, trace.events.size())
      << "no pre-registration notification to corrupt";
  trace.events[victim].query = churned;
  auto check = obs::CheckTrace(trace);
  ASSERT_TRUE(check.ok()) << check.status().ToString();
  EXPECT_FALSE(check->ok());
  EXPECT_NE(check->ToText(trace).find("registration interval"),
            std::string::npos);
}

TEST_F(ChurnDiffTest, PlanPatchDigestMismatchIsCaught) {
  obs::TraceFile trace =
      ChurnTrace(queries_, traces_, rates_, Schedule(11));
  size_t patch = trace.events.size();
  for (size_t i = 0; i < trace.events.size(); ++i) {
    if (trace.events[i].kind == obs::TraceEventKind::kPlanPatch) {
      patch = i;
      break;
    }
  }
  ASSERT_LT(patch, trace.events.size());
  trace.events[patch].flag ^= 1;
  auto check = obs::CheckTrace(trace);
  ASSERT_TRUE(check.ok()) << check.status().ToString();
  EXPECT_FALSE(check->ok());
}

TEST_F(ChurnDiffTest, SeededChurnReplaysByteIdentically) {
  std::string rendered[2];
  for (int run = 0; run < 2; ++run) {
    obs::TraceSink sink;
    QueryService service(AdmissionConfig{}, Schedule(13), nullptr,
                         sim::PlanMaintenance::kIncremental);
    sim::SimConfig c = Config(core::AssignmentMethod::kDualDab, 3,
                              sim::PlanMaintenance::kIncremental);
    c.trace = &sink;
    c.service = &service;
    auto m = sim::RunSimulation(queries_, traces_, rates_, c);
    ASSERT_TRUE(m.ok());
    rendered[run] = obs::TraceToJsonLines(sink.Collect());
  }
  EXPECT_EQ(rendered[0], rendered[1]);
}

/// Fake engine ops: TrialPlan costs a query at 1/QAB (so degrading —
/// doubling the QAB — exactly halves the estimate), and every call is
/// recorded for assertion.
class FakeOps : public sim::ServiceOps {
 public:
  const Vector& View() const override { return view_; }
  const Vector& Rates() const override { return view_; }

  Result<core::QueryPlan> TrialPlan(const PolynomialQuery& query) override {
    if (fail_planning) return Status::NotConverged("no plan");
    core::QueryPlan plan;
    core::PlanPart part;
    part.subquery = query;
    part.dabs.recompute_rate = 1.0 / query.qab;
    plan.parts.push_back(part);
    return plan;
  }

  Status Register(const PolynomialQuery& query, core::QueryPlan,
                  double estimate, int degrade_attempts) override {
    registered.push_back(query);
    estimates.push_back(estimate);
    attempts.push_back(degrade_attempts);
    return Status::OK();
  }

  Status Modify(int query_id, double new_qab, core::QueryPlan) override {
    modified.push_back({query_id, new_qab});
    return Status::OK();
  }

  Status Deregister(int query_id) override {
    deregistered.push_back(query_id);
    return Status::OK();
  }

  void AdmissionReject(int query_id, double, double, int reason) override {
    rejected.push_back({query_id, reason});
    return;
  }

  bool fail_planning = false;
  std::vector<PolynomialQuery> registered;
  std::vector<double> estimates;
  std::vector<int> attempts;
  std::vector<std::pair<int, double>> modified;
  std::vector<int> deregistered;
  std::vector<std::pair<int, int>> rejected;

 private:
  Vector view_ = Vector(4, 1.0);
};

workload::ChurnOp RegisterOp(double time, int id, double qab) {
  workload::ChurnOp op;
  op.time = time;
  op.kind = workload::ChurnOp::Kind::kRegister;
  op.query.id = id;
  op.query.qab = qab;
  op.query_id = id;
  return op;
}

workload::ChurnOp ModifyOp(double time, int id, double new_qab) {
  workload::ChurnOp op;
  op.time = time;
  op.kind = workload::ChurnOp::Kind::kModify;
  op.query_id = id;
  op.new_qab = new_qab;
  return op;
}

workload::ChurnOp DeregisterOp(double time, int id) {
  workload::ChurnOp op;
  op.time = time;
  op.kind = workload::ChurnOp::Kind::kDeregister;
  op.query_id = id;
  return op;
}

TEST(AdmissionControlTest, RejectPolicyRefusesOverBudget) {
  AdmissionConfig ac;
  ac.recompute_budget = 1.5;
  ac.policy = AdmissionConfig::Policy::kReject;
  // Estimates are 1/QAB: 1.0, then 1.0 again — the second would exceed
  // the 1.5 budget and must be refused with reason 0 (over budget).
  std::vector<workload::ChurnOp> ops = {RegisterOp(0.0, 1, 1.0),
                                        RegisterOp(1.0, 2, 1.0)};
  QueryService service(ac, ops, nullptr,
                       sim::PlanMaintenance::kIncremental);
  FakeOps fake;
  ASSERT_TRUE(service.OnTick(2, 2.0, fake).ok());
  ASSERT_EQ(fake.registered.size(), 1u);
  EXPECT_EQ(fake.registered[0].id, 1);
  ASSERT_EQ(fake.rejected.size(), 1u);
  EXPECT_EQ(fake.rejected[0], (std::pair<int, int>{2, 0}));
  EXPECT_EQ(service.registrations(), 1);
  EXPECT_EQ(service.rejections(), 1);
  EXPECT_EQ(service.degraded_registrations(), 0);
  EXPECT_DOUBLE_EQ(service.used_budget(), 1.0);
}

TEST(AdmissionControlTest, DegradePolicyWidensQabUntilTheEstimateFits) {
  AdmissionConfig ac;
  ac.recompute_budget = 0.3;
  ac.policy = AdmissionConfig::Policy::kDegrade;
  // 1/QAB starts at 1.0; two doublings bring it to 0.25 <= 0.3.
  QueryService service(ac, {RegisterOp(0.0, 1, 1.0)}, nullptr,
                       sim::PlanMaintenance::kIncremental);
  FakeOps fake;
  ASSERT_TRUE(service.OnTick(1, 1.0, fake).ok());
  ASSERT_EQ(fake.registered.size(), 1u);
  EXPECT_DOUBLE_EQ(fake.registered[0].qab, 4.0);
  EXPECT_EQ(fake.attempts[0], 2);
  EXPECT_DOUBLE_EQ(fake.estimates[0], 0.25);
  EXPECT_TRUE(fake.rejected.empty());
  EXPECT_EQ(service.degraded_registrations(), 1);
  EXPECT_DOUBLE_EQ(service.used_budget(), 0.25);
}

TEST(AdmissionControlTest, DegradeGivesUpAfterMaxAttempts) {
  AdmissionConfig ac;
  ac.recompute_budget = 1e-6;
  ac.policy = AdmissionConfig::Policy::kDegrade;
  ac.max_degrade_attempts = 3;
  QueryService service(ac, {RegisterOp(0.0, 1, 1.0)}, nullptr,
                       sim::PlanMaintenance::kIncremental);
  FakeOps fake;
  ASSERT_TRUE(service.OnTick(1, 1.0, fake).ok());
  EXPECT_TRUE(fake.registered.empty());
  ASSERT_EQ(fake.rejected.size(), 1u);
  EXPECT_EQ(fake.rejected[0], (std::pair<int, int>{1, 0}));
  EXPECT_EQ(service.rejections(), 1);
  EXPECT_EQ(service.active_queries(), 0);
}

TEST(AdmissionControlTest, InvalidAndUnplannableQueriesAreRejected) {
  QueryService service(
      AdmissionConfig{},
      {RegisterOp(0.0, 1, 0.0), RegisterOp(0.5, 2, 1.0)}, nullptr,
      sim::PlanMaintenance::kIncremental);
  FakeOps fake;
  fake.fail_planning = true;
  ASSERT_TRUE(service.OnTick(1, 1.0, fake).ok());
  ASSERT_EQ(fake.rejected.size(), 2u);
  EXPECT_EQ(fake.rejected[0], (std::pair<int, int>{1, 2}));  // bad QAB
  EXPECT_EQ(fake.rejected[1], (std::pair<int, int>{2, 1}));  // solve fail
  EXPECT_EQ(service.registrations(), 0);
}

TEST(AdmissionControlTest, LifecycleChargesAndReleasesBudget) {
  QueryService service(
      AdmissionConfig{},
      {RegisterOp(0.0, 1, 1.0), ModifyOp(1.0, 1, 2.0),
       DeregisterOp(2.0, 1), ModifyOp(3.0, 99, 1.0),
       DeregisterOp(3.5, 99)},
      nullptr, sim::PlanMaintenance::kIncremental);
  FakeOps fake;
  // Ops execute only once the clock reaches them.
  ASSERT_TRUE(service.OnTick(0, 0.0, fake).ok());
  EXPECT_EQ(service.active_queries(), 1);
  EXPECT_DOUBLE_EQ(service.used_budget(), 1.0);
  ASSERT_TRUE(service.OnTick(1, 1.0, fake).ok());
  EXPECT_EQ(service.modifications(), 1);
  EXPECT_DOUBLE_EQ(service.used_budget(), 0.5);  // 1/QAB with QAB = 2
  ASSERT_TRUE(service.OnTick(4, 4.0, fake).ok());
  EXPECT_EQ(service.deregistrations(), 1);
  EXPECT_EQ(service.active_queries(), 0);
  EXPECT_DOUBLE_EQ(service.used_budget(), 0.0);
  // The ops against id 99 (never registered) were silently skipped.
  ASSERT_EQ(fake.modified.size(), 1u);
  ASSERT_EQ(fake.deregistered.size(), 1u);
  EXPECT_EQ(fake.deregistered[0], 1);
}

}  // namespace
}  // namespace polydab::svc
