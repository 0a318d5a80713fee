// bench_paper: the paper's §V evaluation from one table of figure specs —
// Figures 2/4, 5, 6, 7 and 8(a-c), the §V-A comparison with Sharfman et
// al. [5], the §V-B.1 delay sweep, and two ablations beyond the paper.
//
//   bench_paper [FIGURE...]    the named figures, or all in table order
//
// Prints each figure's tables, then a footer: the verdict on each
// EXPERIMENTS.md claim the figures bear on and the wall clock per figure.
// Writes BENCH_paper.json to the working directory: deterministic values
// only, one row per (figure, point, series) and one per claim with holds
// 0/1, which the `paper` ctest gate diffs at the quick scale (ByScale in
// bench_util.h). Exit status 1 names the figure and status of a failed
// generate, solve or simulation; 2 is an unknown figure name.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "core/baseline.h"
#include "core/laq.h"
#include "core/optimal_refresh.h"
#include "net/relay.h"
#include "sim/simulation.h"

namespace polydab::bench {
namespace {

using core::AssignmentMethod;
using Names = std::vector<std::string>;

/// One EXPERIMENTS.md claim and whether this run bears it out.
struct Claim {
  std::string name;
  bool holds;
  std::string evidence;  ///< where it fails; empty when it holds
};

/// What a figure leaves besides its tables.
struct Report {
  std::vector<BenchRow> rows;
  std::vector<Claim> claims;
};

// ---------------------------------------------------------------------
// Simulation sweeps.

enum class Axis { kQueries, kMu, kDelayMs };
enum class QueryKind { kPortfolio, kArbitrage, kDependentArbitrage };
enum class RateKind { kMean, kUnit, kEwma, kP95 };
enum class Metric { kRecomputations, kRefreshes, kLossPct, kTotalCost };
using enum Metric;
enum class Layout {
  kPanels,  ///< a table per column: rows are points, columns are series
  kWide,    ///< one table: rows are points, a column per series x column
  kLong,    ///< one table at one point: a row per series
};

struct Series {
  std::string label;
  std::function<void(sim::SimConfig*)> edit;
  RateKind rates = RateKind::kMean;
};

struct Column {
  std::string label;  ///< kPanels: the panel's title line
  Metric metric;
};

struct Sweep;

/// A sweep's outcome: per point and series, the run's metrics and the μ
/// that prices its total cost.
struct Grid {
  struct Cell {
    sim::SimMetrics m;
    double mu;
  };
  const Sweep* sweep;
  std::vector<std::vector<Cell>> cells;

  double Get(size_t point, const std::string& series, Metric metric) const;
  size_t last() const { return cells.size() - 1; }
};

/// A claim's check: empty when it holds, else where it fails.
using Check = std::function<std::string(const Grid&)>;

struct Sweep {
  uint64_t trace_seed = 0;
  int ticks = 0;
  QueryKind queries = QueryKind::kPortfolio;
  uint64_t query_seed = 0;
  int num_queries = 0;         ///< the fixed count unless axis is kQueries
  Axis axis = Axis::kQueries;
  std::vector<double> points;  ///< the axis values
  sim::SimConfig base = {};
  std::vector<Series> series = {};
  bool relay = false;  ///< RunRelayOverlay on 10 coordinators
  Layout layout = Layout::kPanels;
  std::string title = {};          ///< kWide/kLong: the table's title line
  std::string series_header = {};  ///< kLong: the series column's header
  std::vector<Column> columns = {};
  std::vector<std::pair<std::string, Check>> claims = {};
};

const char* AxisName(Axis axis) {
  switch (axis) {
    case Axis::kQueries: return "queries";
    case Axis::kMu: return "mu";
    case Axis::kDelayMs: break;
  }
  return "delay_ms";
}

double Value(const Grid::Cell& c, Metric metric) {
  switch (metric) {
    case kRecomputations: return static_cast<double>(c.m.recomputations);
    case kRefreshes: return static_cast<double>(c.m.refreshes);
    case kLossPct: return c.m.mean_fidelity_loss_pct;
    case kTotalCost: return c.m.TotalCost(c.mu);
  }
  return 0.0;
}

double Grid::Get(size_t point, const std::string& series,
                 Metric metric) const {
  size_t i = 0;
  while (i < sweep->series.size() && sweep->series[i].label != series) ++i;
  POLYDAB_CHECK(i < sweep->series.size());
  return Value(cells[point][i], metric);
}

Result<std::vector<PolynomialQuery>> MakeQueries(QueryKind kind, int n,
                                                 const Universe& u,
                                                 Rng* rng) {
  const workload::QueryGenConfig qc;
  if (kind == QueryKind::kPortfolio) {
    return workload::GeneratePortfolioQueries(n, qc, u.initial, rng);
  }
  return workload::GenerateArbitrageQueries(
      n, qc, u.initial, kind == QueryKind::kDependentArbitrage, rng);
}

Result<Vector> MakeRates(RateKind kind, const Universe& u) {
  switch (kind) {
    case RateKind::kUnit: return workload::UnitRates(u.traces.num_items());
    case RateKind::kEwma: return workload::EstimateRatesEwma(u.traces, 60, 0.1);
    case RateKind::kP95:
      return workload::EstimateRatesQuantile(u.traces, 60, 0.95);
    case RateKind::kMean: break;
  }
  return u.rates;
}

Result<sim::SimMetrics> RunPoint(const Sweep& s,
                                 const std::vector<PolynomialQuery>& queries,
                                 const Universe& u, const Vector& rates,
                                 const sim::SimConfig& config) {
  if (!s.relay) {
    return sim::RunSimulation(queries, u.traces, rates, config);
  }
  net::RelayConfig rc;
  rc.num_coordinators = 10;
  rc.fanout = 3;
  rc.planner = config.planner;
  rc.delays = config.delays;
  rc.seed = config.seed;
  POLYDAB_ASSIGN_OR_RETURN(const net::RelayMetrics m,
                           net::RunRelayOverlay(queries, u.traces, rates, rc));
  // The overlay does not model user pushes: user_notifications stays 0.
  sim::SimMetrics out;
  out.refreshes = m.refreshes;
  out.recomputations = m.recomputations;
  out.dab_change_messages = m.dab_change_messages;
  out.solver_failures = m.solver_failures;
  out.mean_fidelity_loss_pct = m.mean_fidelity_loss_pct;
  return out;
}

Result<Grid> RunSweep(const Sweep& s) {
  POLYDAB_ASSIGN_OR_RETURN(
      const Universe u,
      MakeUniverse(workload::TraceKind::kGbmStock, s.trace_seed, 100, s.ticks));
  std::vector<Vector> rates;
  for (const Series& series : s.series) {
    POLYDAB_ASSIGN_OR_RETURN(Vector r, MakeRates(series.rates, u));
    rates.push_back(std::move(r));
  }
  // One query stream per figure: a query-count sweep draws each point's
  // set from it in turn, any other sweep draws one set up front.
  Rng qrng(s.query_seed);
  std::vector<PolynomialQuery> queries;
  Grid grid{&s, {}};
  for (double point : s.points) {
    if (s.axis == Axis::kQueries || grid.cells.empty()) {
      const int n = s.axis == Axis::kQueries ? static_cast<int>(point)
                                             : s.num_queries;
      POLYDAB_ASSIGN_OR_RETURN(queries, MakeQueries(s.queries, n, u, &qrng));
    }
    std::vector<Grid::Cell>& row = grid.cells.emplace_back();
    for (size_t i = 0; i < s.series.size(); ++i) {
      sim::SimConfig c = s.base;
      s.series[i].edit(&c);
      if (s.axis == Axis::kMu) c.planner.dual.mu = point;
      if (s.axis == Axis::kDelayMs) c.delays.node_node_mean = point / 1000.0;
      Result<sim::SimMetrics> m = RunPoint(s, queries, u, rates[i], c);
      if (!m.ok()) {
        return Status(m.status().code(),
                      s.series[i].label + " at " + AxisName(s.axis) + "=" +
                          Fmt(point, 0) + ": " + m.status().message());
      }
      row.push_back({*m, c.planner.dual.mu});
    }
  }
  return grid;
}

void PrintSweep(const Sweep& s, const Grid& g) {
  auto cell = [&](size_t p, size_t i, Metric metric) {
    return Fmt(Value(g.cells[p][i], metric), metric == kLossPct ? 3 : 0);
  };
  // kPanels prints table k of s.columns; kWide one table of all of them.
  auto over_points = [&](const std::string& title, size_t first,
                         size_t end) {
    std::vector<std::string> header = {AxisName(s.axis)};
    for (const Series& series : s.series) {
      for (size_t k = first; k < end; ++k) {
        header.push_back(s.layout == Layout::kWide
                             ? series.label + " " + s.columns[k].label
                             : series.label);
      }
    }
    Table table(header);
    for (size_t p = 0; p < s.points.size(); ++p) {
      std::vector<std::string> row = {Fmt(s.points[p], 0)};
      for (size_t i = 0; i < s.series.size(); ++i) {
        for (size_t k = first; k < end; ++k) {
          row.push_back(cell(p, i, s.columns[k].metric));
        }
      }
      table.AddRow(std::move(row));
    }
    std::printf("%s\n", title.c_str());
    table.Print();
  };
  if (s.layout == Layout::kWide) {
    return over_points(s.title, 0, s.columns.size());
  }
  if (s.layout == Layout::kPanels) {
    for (size_t k = 0; k < s.columns.size(); ++k) {
      over_points((k > 0 ? "\n" : "") + s.columns[k].label, k, k + 1);
    }
    return;
  }
  std::vector<std::string> header = {s.series_header};
  for (const Column& col : s.columns) header.push_back(col.label);
  Table table(header);
  for (size_t i = 0; i < s.series.size(); ++i) {
    std::vector<std::string> row = {s.series[i].label};
    for (const Column& col : s.columns) row.push_back(cell(0, i, col.metric));
    table.AddRow(std::move(row));
  }
  std::printf("%s\n", s.title.c_str());
  table.Print();
}

Status RunSweepFigure(const std::string& figure, const Sweep& s,
                      Report* report) {
  POLYDAB_ASSIGN_OR_RETURN(const Grid g, RunSweep(s));
  PrintSweep(s, g);
  for (size_t p = 0; p < s.points.size(); ++p) {
    for (size_t i = 0; i < s.series.size(); ++i) {
      const sim::SimMetrics& m = g.cells[p][i].m;
      report->rows.push_back(
          BenchRow()
              .Str("figure", figure)
              .Str("axis", AxisName(s.axis))
              .Num("point", s.points[p])
              .Str("series", s.series[i].label)
              .Num("refreshes", m.refreshes)
              .Num("recomputations", m.recomputations)
              .Num("dab_changes", m.dab_change_messages)
              .Num("user_notifications", m.user_notifications)
              .Num("mean_fidelity_loss_pct", m.mean_fidelity_loss_pct)
              .Num("total_cost", Value(g.cells[p][i], kTotalCost)));
    }
  }
  for (const auto& [name, check] : s.claims) {
    const std::string failure = check(g);
    report->claims.push_back({name, failure.empty(), failure});
  }
  return Status::OK();
}

// ---------------------------------------------------------------------
// Claim checks.

/// At every point, \p metric of lower[i] < factor x that of upper[i].
Check Below(Metric metric, Names lower, Names upper, double factor = 1.0) {
  return [=](const Grid& g) {
    std::string failing;
    for (size_t p = 0; p <= g.last(); ++p) {
      for (size_t i = 0; i < lower.size(); ++i) {
        if (!(g.Get(p, lower[i], metric) <
              factor * g.Get(p, upper[i], metric))) {
          failing += (failing.empty() ? "fails at " : ", ") +
                     std::string(AxisName(g.sweep->axis)) + "=" +
                     Fmt(g.sweep->points[p], 0);
          break;
        }
      }
    }
    return failing;
  };
}

/// A claim over the whole grid.
Check Holds(std::function<bool(const Grid&)> holds) {
  return [=](const Grid& g) { return holds(g) ? "" : "fails"; };
}

/// Every series' \p metric rises from the first point to the last.
Check Rises(Metric metric) {
  return Holds([=](const Grid& g) {
    for (const Series& s : g.sweep->series) {
      if (!(g.Get(0, s.label, metric) < g.Get(g.last(), s.label, metric))) {
        return false;
      }
    }
    return true;
  });
}

/// Over every point of \p series, max \p metric <= ratio x min.
Check Within(Metric metric, Names series, double ratio) {
  return Holds([=](const Grid& g) {
    double lo = g.Get(0, series[0], metric), hi = lo;
    for (size_t p = 0; p <= g.last(); ++p) {
      for (const std::string& s : series) {
        lo = std::min(lo, g.Get(p, s, metric));
        hi = std::max(hi, g.Get(p, s, metric));
      }
    }
    return hi <= ratio * lo;
  });
}

// ---------------------------------------------------------------------
// The figures that are not simulation sweeps.

/// Is the assignment (b around anchor) still guaranteed to meet the QAB?
/// Exact check for the product query: worst drift from the coordinator
/// values is P(Vc + b) - P(Vc).
bool StillValid(double vx, double vy, double bx, double by, double qab) {
  return (vx + bx) * (vy + by) - vx * vy <= qab + 1e-12;
}

// Figure 2: the optimal single-DAB assignment b = (1, 1) for
// Q = x*y : 5 at V = (2, 2) is valid at first but becomes invalid after
// one push. Figure 4: the dual assignment b = 0.5 stays valid across the
// same data movement, up to the secondary range (x -> 5.5, y -> 4.5).
// Each row's validity comes from the library's own correctness condition.
Status Fig2Fig4(Report* report) {
  VariableRegistry reg;
  POLYDAB_ASSIGN_OR_RETURN(Polynomial p, Polynomial::Parse("x*y", &reg));
  const PolynomialQuery q{0, p, 5.0};
  POLYDAB_ASSIGN_OR_RETURN(
      QueryDabs opt, core::SolveOptimalRefresh(q, {2.0, 2.0}, {1.0, 1.0}));
  const double bx = opt.primary[0], by = opt.primary[1];
  std::printf(
      "=== Figure 2: Q = x*y : 5, optimal single DABs b = (%.2f, %.2f) "
      "===\n",
      bx, by);
  std::vector<bool> fig2_valid, fig4_valid;
  Table fig2({"V(S,x),V(S,y)", "V(S,Q)", "V(C,x),V(C,y)", "V(C,Q)",
              "remark"});
  struct Row {
    double sx, sy, cx, cy;
    const char* note;
  };
  for (const Row& r : {Row{2.0, 2.0, 2.0, 2.0, "initial"},
                       Row{3.0, 2.0, 3.0, 2.0, "S pushes x to C"},
                       Row{3.9, 2.9, 3.0, 2.0, "no push (within b)"}}) {
    const bool valid = StillValid(r.cx, r.cy, bx, by, q.qab) &&
                       std::fabs(r.sx * r.sy - r.cx * r.cy) <= q.qab;
    fig2_valid.push_back(valid);
    fig2.AddRow({Fmt(r.sx, 1) + ", " + Fmt(r.sy, 1), Fmt(r.sx * r.sy, 2),
                 Fmt(r.cx, 1) + ", " + Fmt(r.cy, 1), Fmt(r.cx * r.cy, 2),
                 std::string(r.note) +
                     (valid ? "" : "  <- b no longer valid")});
  }
  fig2.Print();

  std::printf(
      "\n=== Figure 4: same query, primary b = (0.5, 0.5); validity "
      "checked against Eq. (2) ===\n");
  Table fig4({"V(S,x),V(S,y)", "V(S,Q)", "V(C,Q)", "b still valid?"});
  for (const auto& [x, y] : {std::pair{2.0, 2.0}, std::pair{3.0, 2.0},
                             std::pair{3.5, 2.5}, std::pair{3.9, 2.9},
                             std::pair{5.5, 4.5}}) {
    // With b = 0.5 the coordinator tracks the source to within 0.5 per
    // item; validity at the *current* coordinator values:
    const bool valid = StillValid(x, y, 0.5, 0.5, q.qab);
    fig4_valid.push_back(valid);
    fig4.AddRow({Fmt(x, 1) + ", " + Fmt(y, 1), Fmt(x * y, 2), Fmt(x * y, 2),
                 valid ? "valid" : "invalid"});
  }
  fig4.Print();
  std::printf(
      "\nThe paper's secondary range for b = 0.5 ends just before (5.5, "
      "4.5): c = (3.5, 2.5).\n");

  report->rows.push_back(BenchRow()
                             .Str("figure", "fig2_fig4")
                             .Str("series", "OptimalRefresh")
                             .Num("b_x", bx)
                             .Num("b_y", by));
  report->claims = {
      {"optimal_single_dab_is_b_1_1",
       std::fabs(bx - 1.0) < 1e-3 && std::fabs(by - 1.0) < 1e-3, ""},
      {"single_dab_invalid_after_first_push",
       fig2_valid == std::vector<bool>{true, false, false}, ""},
      {"dual_dab_valid_until_secondary_range",
       fig4_valid == std::vector<bool>{true, true, true, true, false}, ""},
  };
  return Status::OK();
}

// §V-A "Comparison with related work": the geometric-monitoring approach
// of Sharfman et al. [5] adapted to DAB assignment ("WSDAB") produces
// more stringent DABs than Optimal Refresh, because it enforces n
// per-item sufficient conditions instead of the one necessary-and-
// sufficient condition. The paper's worked numbers use f = x*y^4 with
// B = 50 at V = (40, 20) and equal rates, reporting DABs of
// (3.16625, 2.5) for [5] versus (3.87, 2.79) for Optimal Refresh. The
// scanned text garbles the exact function scaling, so this reports both
// f = x*y and f = x*y^4 at those values; the reproduction target is the
// *ordering* (WSDAB strictly tighter, hence more refreshes), not the
// digits.
Status Sharfman(Report* report) {
  std::printf(
      "=== Section V-A comparison vs Sharfman et al. [5] (adapted) ===\n\n");
  VariableRegistry reg;
  const Vector values = {40.0, 20.0};
  const Vector rates = {1.0, 1.0};
  auto load = [&rates](const QueryDabs& d) {
    double s = 0.0;
    for (size_t i = 0; i < d.vars.size(); ++i) {
      s += rates[static_cast<size_t>(d.vars[i])] / d.primary[i];
    }
    return s;
  };
  bool more_refreshes = true;
  struct Case {
    const char* label;
    const char* expr;
    double qab;
  };
  // A larger threshold on the quartic shows the same ordering at DAB
  // magnitudes closer to the paper's worked example.
  for (const Case& c : {Case{"f = x*y", "x*y", 50.0},
                        Case{"f = x*y^4", "x*y^4", 50.0},
                        Case{"f = x*y^4 (B = 1% of f(V))", "x*y^4", 64000.0}}) {
    POLYDAB_ASSIGN_OR_RETURN(Polynomial p, Polynomial::Parse(c.expr, &reg));
    const PolynomialQuery q{0, p, c.qab};
    POLYDAB_ASSIGN_OR_RETURN(QueryDabs ws, core::SolveWsDab(q, values));
    POLYDAB_ASSIGN_OR_RETURN(QueryDabs opt,
                             core::SolveOptimalRefresh(q, values, rates));
    Table t({"scheme", "b_x", "b_y", "modeled refreshes/s"});
    t.AddRow({"WSDAB (per-item, [5]-style)", Fmt(ws.primary[0], 5),
              Fmt(ws.primary[1], 5), Fmt(load(ws), 3)});
    t.AddRow({"Optimal Refresh (this paper)", Fmt(opt.primary[0], 5),
              Fmt(opt.primary[1], 5), Fmt(load(opt), 3)});
    std::printf("--- %s : B = %g at V = (40, 20), equal rates ---\n",
                c.label, c.qab);
    t.Print();
    std::printf("\n");
    more_refreshes &= load(ws) > load(opt);
    for (const auto& [series, d] :
         {std::pair{"WSDAB", &ws}, std::pair{"OptimalRefresh", &opt}}) {
      report->rows.push_back(BenchRow()
                                 .Str("figure", "sharfman")
                                 .Str("case", c.label)
                                 .Str("series", series)
                                 .Num("b_x", d->primary[0])
                                 .Num("b_y", d->primary[1])
                                 .Num("refresh_rate", load(*d)));
    }
  }
  report->claims = {
      {"wsdab_more_refreshes_than_optimal_refresh", more_refreshes, ""}};
  return Status::OK();
}

// Ablation (companion tech-report material): for linear aggregate
// queries sharing data items, how much does jointly optimizing the DABs
// (SolveMultiLaq, one GP) save over solving each LAQ separately and
// installing per-item minima (the EQI-style merge)? The joint optimum can
// rebalance budgets across queries; the min-merge cannot.
Status MultiLaq(Report* report) {
  Rng rng(777);
  const int kItems = 40;
  VariableRegistry reg;
  std::vector<VarId> ids;
  for (int i = 0; i < kItems; ++i) {
    ids.push_back(reg.Intern("m" + std::to_string(i)));
  }
  Vector rates(static_cast<size_t>(kItems));
  for (double& r : rates) r = rng.Uniform(0.01, 1.0);

  Table t({"queries", "items/query", "joint rate", "min-merge rate",
           "saving %"});
  bool saves = true;
  for (int nq : {2, 5, 10, 20}) {
    // Random LAQs over overlapping item subsets.
    std::vector<PolynomialQuery> queries;
    Rng qrng(static_cast<uint64_t>(nq) * 31 + 7);
    double items_per_query = 0.0;
    for (int q = 0; q < nq; ++q) {
      std::vector<Monomial> terms;
      const int k = 4 + static_cast<int>(qrng.UniformInt(0, 6));
      items_per_query += k;
      for (int j = 0; j < k; ++j) {
        const VarId v =
            ids[static_cast<size_t>(qrng.UniformInt(0, kItems - 1))];
        terms.emplace_back(qrng.Uniform(1.0, 10.0),
                           std::vector<std::pair<VarId, int>>{{v, 1}});
      }
      PolynomialQuery query{q, Polynomial(std::move(terms)), 0.0};
      query.qab = qrng.Uniform(5.0, 20.0);
      queries.push_back(std::move(query));
    }
    items_per_query /= nq;
    POLYDAB_ASSIGN_OR_RETURN(core::MultiLaqSolution joint,
                             core::SolveMultiLaq(queries, rates));

    // EQI-style merge of per-query closed forms.
    Vector merged(static_cast<size_t>(kItems), 1e300);
    for (const auto& q : queries) {
      POLYDAB_ASSIGN_OR_RETURN(QueryDabs d, core::SolveLaq(q, rates));
      for (size_t i = 0; i < d.vars.size(); ++i) {
        auto& slot = merged[static_cast<size_t>(d.vars[i])];
        slot = std::min(slot, d.primary[i]);
      }
    }
    double merged_rate = 0.0;
    for (size_t i = 0; i < merged.size(); ++i) {
      if (merged[i] < 1e300) merged_rate += rates[i] / merged[i];
    }
    const double saving =
        100.0 * (merged_rate - joint.total_rate) / merged_rate;
    saves &= saving > 0.0;
    t.AddRow({Fmt(static_cast<int64_t>(nq)), Fmt(items_per_query, 1),
              Fmt(joint.total_rate, 2), Fmt(merged_rate, 2), Fmt(saving, 1)});
    report->rows.push_back(BenchRow()
                               .Str("figure", "ablation_multilaq")
                               .Str("axis", "queries")
                               .Num("point", nq)
                               .Num("items_per_query", items_per_query)
                               .Num("joint_rate", joint.total_rate)
                               .Num("merged_rate", merged_rate));
  }
  std::printf(
      "=== Ablation: multi-LAQ joint GP vs per-query min-merge (modeled "
      "refresh rate) ===\n");
  t.Print();
  report->claims = {{"joint_gp_saves_at_every_size", saves, ""}};
  return Status::OK();
}

// ---------------------------------------------------------------------
// The spec table.

struct Figure {
  std::string name;
  Sweep sweep = {};                  ///< unless `run` is set
  Status (*run)(Report*) = nullptr;  ///< a figure that is not a sweep
};

std::function<void(sim::SimConfig*)> Mu(
    double mu, AssignmentMethod method = AssignmentMethod::kDualDab) {
  return [=](sim::SimConfig* c) {
    c->planner.method = method;
    c->planner.dual.mu = mu;
  };
}

std::vector<Figure> Figures() {
  using core::DataDynamicsModel::kMonotonic;
  using core::DataDynamicsModel::kRandomWalk;
  using core::GeneralPqHeuristic::kDifferentSum;
  using core::GeneralPqHeuristic::kHalfAndHalf;
  const AssignmentMethod opt = AssignmentMethod::kOptimalRefresh;
  auto ddm = [](core::DataDynamicsModel ddm, double mu) {
    return [=](sim::SimConfig* c) {
      c->planner.dual.mu = mu;
      c->planner.dual.ddm = ddm;
    };
  };
  auto heuristic = [](core::GeneralPqHeuristic h, double mu) {
    return [=](sim::SimConfig* c) {
      c->planner.heuristic = h;
      c->planner.dual.mu = mu;
    };
  };
  auto aao = [](double period_s) {
    return [=](sim::SimConfig* c) { c->aao_period_s = period_s; };
  };

  sim::SimConfig base;
  base.planner.method = AssignmentMethod::kDualDab;
  base.seed = 99;
  sim::SimConfig fig5_base = base;
  // The paper measured ~40-70 ms per Dual-DAB solve on 2006 hardware
  // (§V-A "Solver"); 1 ms models a warm-started recomputation. It is
  // enough to make recomputation volume visible as coordinator load
  // (Figure 5(c)) without saturating the coordinator outright at the
  // default bench scale.
  fig5_base.delays.recompute_cpu_s = 0.001;

  // The quick sizes come from the ctest time budget (every figure within
  // 60 s together), not from any claim's verdict.
  const int ticks = ByScale(240, 2000, 10000);
  const std::vector<double> counts = ByScale<std::vector<double>>(
      {10, 20, 40}, {25, 50, 100, 200}, {200, 400, 600, 800, 1000});
  const int nq = ByScale(20, 50, 200);
  const std::string ppqs = std::to_string(nq) + " PPQs";
  const double mu5 = core::kDefaultMu;
  const Names dual = {"Dual mu=1", "Dual mu=5", "Dual mu=10"};
  const Names opt3(3, "OptimalRefresh");
  const Names hh = {"HH mu=1", "HH mu=5", "HH mu=10"};
  const Names ds = {"DS mu=1", "DS mu=5", "DS mu=10"};
  const Names aaos = {"AAO-30", "AAO-120", "AAO-600", "AAO-1500"};
  std::vector<Series> hh_vs_ds;
  for (auto h : {kHalfAndHalf, kDifferentSum}) {
    for (double mu : {1.0, 5.0, 10.0}) {
      const std::string label = h == kHalfAndHalf ? "HH mu=" : "DS mu=";
      hh_vs_ds.push_back({label + Fmt(mu, 0), heuristic(h, mu)});
    }
  }

  return {
      {.name = "fig2_fig4", .run = Fig2Fig4},
      // §V-B.1 "Base Results": PPQs under Dual-DAB for several
      // recomputation costs mu, against Optimal Refresh.
      {.name = "fig5",
       .sweep = {
           .trace_seed = 5001, .ticks = ticks, .query_seed = 42,
           .points = counts, .base = fig5_base,
           .series = {{"OptimalRefresh", Mu(1.0, opt)},
                      {dual[0], Mu(1.0)}, {dual[1], Mu(mu5)},
                      {dual[2], Mu(10.0)}},
           .columns =
               {{"=== Figure 5(a): total recomputations vs #queries ===",
                 kRecomputations},
                {"=== Figure 5(b): refreshes at coordinator vs #queries ===",
                 kRefreshes},
                {"=== Figure 5(c): mean loss in fidelity (%) vs #queries ===",
                 kLossPct}},
           .claims = {
               {"dual_recomputations_10x_below_optimal_refresh",
                Below(kRecomputations, dual, opt3, 0.1)},
               {"dual_recomputations_fall_with_mu",
                Below(kRecomputations, {dual[1], dual[2]},
                      {dual[0], dual[1]})},
               {"dual_refresh_premium_under_10pct",
                Below(kRefreshes, dual, opt3, 1.1)},
               {"optimal_refresh_loss_highest_at_most_queries",
                Holds([=](const Grid& g) {
                  return std::all_of(dual.begin(), dual.end(), [&](auto& s) {
                    return g.Get(g.last(), s, kLossPct) <
                           g.Get(g.last(), opt3[0], kLossPct);
                  });
                })},
               {"loss_grows_with_queries", Rises(kLossPct)}}}},
      // §V-B.1 "Effect of different data dynamics models": Dual-DAB when
      // the optimizer assumes monotonic drift (Mono), a random walk
      // (Random), or no rate information at all (L1, lambda_i = 1).
      {.name = "fig6",
       .sweep = {
           .trace_seed = 6001, .ticks = ticks, .query_seed = 43,
           .points = counts, .base = base,
           .series = {{"Mono mu=1", ddm(kMonotonic, 1.0)},
                      {"Mono mu=5", ddm(kMonotonic, 5.0)},
                      {"Random mu=1", ddm(kRandomWalk, 1.0)},
                      {"Random mu=5", ddm(kRandomWalk, 5.0)},
                      {"L1 mu=5", ddm(kMonotonic, 5.0), RateKind::kUnit}},
           .columns =
               {{"=== Figure 6(a): recomputations vs #queries (ddm effect) ===",
                 kRecomputations},
                {"=== Figure 6(b): refreshes vs #queries (ddm effect) ===",
                 kRefreshes},
                {"=== Figure 6(c): total cost (refreshes + mu*recomputations) "
                 "===",
                 kTotalCost}},
           .claims = {
               {"random_walk_more_recomputations",
                Below(kRecomputations, {"Mono mu=1", "Mono mu=5"},
                      {"Random mu=1", "Random mu=5"})},
               {"random_walk_fewer_refreshes",
                Below(kRefreshes, {"Random mu=1", "Random mu=5"},
                      {"Mono mu=1", "Mono mu=5"})},
               {"l1_more_recomputations",
                Below(kRecomputations, {"Mono mu=5"}, {"L1 mu=5"})},
               {"l1_more_refreshes",
                Below(kRefreshes, {"Mono mu=5"}, {"L1 mu=5"})},
               {"monotonic_lowest_cost_at_mu5",
                Below(kTotalCost, {"Mono mu=5", "Mono mu=5"},
                      {"Random mu=5", "L1 mu=5"})}}}},
      // §V-B.1 "Performance of AAO and EQI": 10 PPQs at one coordinator.
      // EQI solves each query independently and installs the per-item
      // minimum primary DAB; AAO-T re-solves the globally optimal joint
      // program every T s and repairs per-query violations with Dual-DAB
      // in between.
      {.name = "fig7",
       .sweep = {
           .trace_seed = 7001, .ticks = ticks, .query_seed = 44,
           .num_queries = 10, .axis = Axis::kMu,
           .points = {1.0, 2.0, 5.0, 10.0}, .base = base,
           .series = {{"EQI", aao(0.0)}, {aaos[0], aao(30.0)},
                      {aaos[1], aao(120.0)}, {aaos[2], aao(600.0)},
                      {aaos[3], aao(1500.0)}},
           .columns = {{"=== Figure 7(a): refreshes vs mu (10 PPQs) ===",
                        kRefreshes},
                       {"=== Figure 7(b): recomputations vs mu (10 PPQs) ===",
                        kRecomputations},
                       {"=== Figure 7(c): total cost vs mu (10 PPQs) ===",
                        kTotalCost}},
           .claims = {
               {"aao_fewer_refreshes_than_eqi",
                Below(kRefreshes, aaos, Names(4, "EQI"))},
               {"aao_more_recomputations_than_eqi",
                Below(kRecomputations, Names(4, "EQI"), aaos)},
               {"eqi_cost_within_6pct_of_best_aao",
                Below(kTotalCost, Names(4, "EQI"), aaos, 1.06)}}}},
      // §V-B.2: general polynomial queries (arbitrage, P1 - P2) with
      // independent sub-polynomials, Half and Half vs Different Sum.
      {.name = "fig8a",
       .sweep = {
           .trace_seed = 8001, .ticks = ticks,
           .queries = QueryKind::kArbitrage, .query_seed = 45,
           .points = counts, .base = base, .series = hh_vs_ds,
           .columns = {{"=== Figure 8(a): recomputations, independent PQs "
                        "(HH vs DS) ===",
                        kRecomputations},
                       {"=== Figure 8(a) companion: refreshes (DS premium "
                        "should be small) ===",
                        kRefreshes}},
           .claims = {{"ds_fewer_recomputations_than_hh",
                       Below(kRecomputations, ds, hh)},
                      {"ds_refresh_premium_under_1pct",
                       Below(kRefreshes, ds, hh, 1.01)}}}},
      // §V-B.2 with dependent sub-polynomials (P1 and P2 share items).
      {.name = "fig8b",
       .sweep = {
           .trace_seed = 8002, .ticks = ticks,
           .queries = QueryKind::kDependentArbitrage, .query_seed = 46,
           .points = counts, .base = base, .series = hh_vs_ds,
           .columns = {{"=== Figure 8(b): recomputations, dependent PQs "
                        "(HH vs DS) ===",
                        kRecomputations}},
           .claims = {{"ds_fewer_recomputations_than_hh",
                       Below(kRecomputations, ds, hh)}}}},
      // §V-B.3 "Results on a Network": the coherency-preserving
      // dissemination network of [6], 10 coordinators in a fanout-3 relay
      // tree (net/relay.h). The relay charges no coordinator CPU, so its
      // fidelity is network-only; the claims are about recomputations.
      // The shorter trace keeps the recompute-per-refresh schemes, times
      // 10 coordinators, affordable; the paper sweeps up to 10 000
      // queries on this figure.
      {.name = "fig8c",
       .sweep = {
           .trace_seed = 8003, .ticks = ByScale(150, 600, 10000),
           .query_seed = 47,
           .points = ByScale<std::vector<double>>({10, 25, 50}, {25, 75, 200},
                                                  {100, 1000, 10000}),
           .base = base,
           .series = {{"OptimalRefresh", Mu(1.0, opt)},
                      {"WSDAB", Mu(1.0, AssignmentMethod::kWsDab)},
                      {"Dual mu=1", Mu(1.0)}, {"Dual mu=5", Mu(5.0)},
                      {"Dual mu=10", Mu(10.0)}, {"Dual mu=20", Mu(20.0)}},
           .relay = true,
           .columns = {{"=== Figure 8(c): recomputations on a 10-coordinator "
                        "dissemination network ===",
                        kRecomputations}},
           .claims = {
               {"wsdab_more_recomputations_than_optimal_refresh",
                Below(kRecomputations, {"OptimalRefresh"}, {"WSDAB"})},
               {"dual_10x_below_optimal_refresh",
                Below(kRecomputations, {"Dual mu=1"}, {"OptimalRefresh"},
                      0.1)},
               {"dual_recomputations_fall_with_mu",
                Below(kRecomputations,
                      {"Dual mu=5", "Dual mu=10", "Dual mu=20"},
                      {"Dual mu=1", "Dual mu=5", "Dual mu=10"})}}}},
      {.name = "sharfman", .run = Sharfman},
      // §V-B.1 "Effect of Varying Delays": node-node delays from ~30 ms to
      // ~500 ms.
      {.name = "delay_sweep",
       .sweep = {
           .trace_seed = 9001, .ticks = ticks, .query_seed = 48,
           .num_queries = nq, .axis = Axis::kDelayMs,
           .points = {30, 60, 110, 250, 500}, .base = base,
           .series = {{"Opt", Mu(mu5, opt)}, {"Dual", Mu(mu5)}},
           .layout = Layout::kWide,
           .title = "=== Section V-B.1: effect of varying node-node delays (" +
                    ppqs + ") ===",
           .columns = {{"loss%", kLossPct}, {"recomps", kRecomputations}},
           .claims = {
               {"loss_rises_with_delay", Rises(kLossPct)},
               {"optimal_refresh_recomputations_move_under_0_5pct",
                Within(kRecomputations, {"Opt"}, 1.005)}}}},
      // Ablation: rate-of-change estimators feeding the same Dual-DAB
      // planner — the paper's 1-minute-sampled mean, an EWMA of recent
      // movement, conservative 95th-percentile rates, and none at all.
      {.name = "ablation_rates",
       .sweep = {
           .trace_seed = 9101, .ticks = ticks, .query_seed = 49,
           .points = {static_cast<double>(nq)}, .base = base,
           .series = {{"mean", Mu(mu5), RateKind::kMean},
                      {"ewma", Mu(mu5), RateKind::kEwma},
                      {"p95", Mu(mu5), RateKind::kP95},
                      {"unit(L1)", Mu(mu5), RateKind::kUnit}},
           .layout = Layout::kLong,
           .title = "=== Ablation: rate-of-change estimators feeding Dual-DAB "
                    "(mu=" + Fmt(mu5, 0) + ", " + ppqs + ") ===",
           .series_header = "estimator",
           .columns = {{"refreshes", kRefreshes},
                       {"recomputations", kRecomputations},
                       {"total cost", kTotalCost}},
           .claims = {
               {"estimators_within_9pct_of_each_other",
                Within(kTotalCost, {"mean", "ewma", "p95"}, 1.09)},
               {"unit_rates_cost_most",
                Below(kTotalCost, {"mean", "ewma", "p95"},
                      Names(3, "unit(L1)"))}}}},
      {.name = "ablation_multilaq", .run = MultiLaq},
  };
}

int Main(int argc, char** argv) {
  const std::vector<Figure> figures = Figures();
  std::vector<const Figure*> selected;
  for (int i = 1; i < argc; ++i) {
    auto it = std::find_if(figures.begin(), figures.end(),
                           [&](const Figure& f) { return f.name == argv[i]; });
    if (it == figures.end()) {
      std::fprintf(stderr, "bench_paper: unknown figure '%s'; one of:",
                   argv[i]);
      for (const Figure& f : figures) {
        std::fprintf(stderr, " %s", f.name.c_str());
      }
      std::fprintf(stderr, "\n");
      return 2;
    }
    selected.push_back(&*it);
  }
  if (selected.empty()) {
    for (const Figure& f : figures) selected.push_back(&f);
  }

  std::vector<BenchRow> rows;
  std::vector<Claim> claims;
  HarnessTimer timer;
  for (const Figure* f : selected) {
    if (f != selected.front()) std::printf("\n");
    Report report;
    Status status;
    {
      auto t = timer.Section("figure_seconds." + f->name);
      status = f->run != nullptr ? f->run(&report)
                                 : RunSweepFigure(f->name, f->sweep, &report);
    }
    if (!status.ok()) {
      std::fprintf(stderr, "bench_paper: %s failed: %s\n", f->name.c_str(),
                   status.ToString().c_str());
      return 1;
    }
    rows.insert(rows.end(), report.rows.begin(), report.rows.end());
    for (const Claim& c : report.claims) {
      rows.push_back(BenchRow()
                         .Str("figure", f->name)
                         .Str("claim", c.name)
                         .Num("holds", c.holds ? 1 : 0));
      claims.push_back({f->name + " " + c.name, c.holds, c.evidence});
    }
  }

  const auto held = std::count_if(claims.begin(), claims.end(),
                                  [](const Claim& c) { return c.holds; });
  std::printf("\n=== EXPERIMENTS.md claims: %td of %zu hold ===\n", held,
              claims.size());
  for (const Claim& c : claims) {
    std::printf("%-4s%s%s%s\n", c.holds ? "yes" : "NO", c.name.c_str(),
                c.evidence.empty() ? "" : ": ", c.evidence.c_str());
  }
  const int exit_code =
      ExitCode("bench_paper", WriteBenchJson("BENCH_paper.json", rows));
  timer.PrintSummary("bench_paper harness wall-clock per figure");
  return exit_code;
}

}  // namespace
}  // namespace polydab::bench

int main(int argc, char** argv) { return polydab::bench::Main(argc, argv); }
