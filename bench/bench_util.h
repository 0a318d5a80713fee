#ifndef POLYDAB_BENCH_BENCH_UTIL_H_
#define POLYDAB_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "obs/json_util.h"
#include "obs/metrics.h"
#include "obs/record.h"
#include "obs/run_report.h"
#include "sim/simulation.h"
#include "workload/query_gen.h"
#include "workload/rate_estimator.h"
#include "workload/trace.h"

/// \file bench_util.h
/// Shared scaffolding for the bench harnesses: the run scale, the §V
/// experimental universe, the table printer, the BENCH_*.json row writer
/// and the harness wall-clock footer. bench_paper regenerates the
/// paper's §V tables and figures; shapes (orderings, ratios, crossovers)
/// are the reproduction target, not absolute numbers (see EXPERIMENTS.md).

namespace polydab::bench {

/// The value for the run scale the environment selects: the default is
/// scaled down so a sweep runs in minutes; POLYDAB_BENCH_QUICK=1 selects
/// the seconds-long scale the ctest gates run, REPRO_FULL=1 the paper's
/// full scale (100 items, 10 000 s traces, up to 1 000 queries). Quick
/// wins when both are set.
template <typename T>
T ByScale(T quick, T dflt, T full) {
  auto set = [](const char* name) {
    const char* env = std::getenv(name);
    return env != nullptr && env[0] == '1';
  };
  if (set("POLYDAB_BENCH_QUICK")) return quick;
  if (set("REPRO_FULL")) return full;
  return dflt;
}

/// Standard experimental universe of §V-A: items, traces and rate
/// estimates for one data-dynamics shape.
struct Universe {
  workload::TraceSet traces;
  Vector rates;       ///< 1-minute-sampled rate estimates (§V-A)
  Vector initial;     ///< snapshot at tick 0 (query QABs derive from it)
};

inline Result<Universe> MakeUniverse(workload::TraceKind kind, uint64_t seed,
                                     int num_items, int num_ticks) {
  Rng rng(seed);
  workload::TraceSetConfig tc;
  tc.kind = kind;
  tc.num_items = num_items;
  tc.num_ticks = num_ticks;
  Universe u;
  POLYDAB_ASSIGN_OR_RETURN(u.traces, workload::GenerateTraceSet(tc, &rng));
  POLYDAB_ASSIGN_OR_RETURN(u.rates, workload::EstimateRates(u.traces, 60));
  u.initial = u.traces.Snapshot(0);
  return u;
}

/// Simple fixed-width table printer.
class Table {
 public:
  explicit Table(std::vector<std::string> header) : header_(std::move(header)) {}

  void AddRow(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

  void Print() const {
    std::vector<size_t> width(header_.size(), 0);
    for (size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
    for (const auto& r : rows_) {
      for (size_t c = 0; c < r.size(); ++c) {
        if (r[c].size() > width[c]) width[c] = r[c].size();
      }
    }
    auto print_row = [&](const std::vector<std::string>& r) {
      for (size_t c = 0; c < r.size(); ++c) {
        std::printf("%-*s  ", static_cast<int>(width[c]), r[c].c_str());
      }
      std::printf("\n");
    };
    print_row(header_);
    for (const auto& r : rows_) print_row(r);
  }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string Fmt(double v, int decimals = 1) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

inline std::string Fmt(int64_t v) { return std::to_string(v); }

/// One row of a BENCH_*.json file: a flat JSON object, fields in the order
/// added. Numbers print in the shortest form that round-trips, so
/// bench_compare compares deterministic fields bit for bit.
class BenchRow {
 public:
  BenchRow& Str(std::string_view key, std::string_view value) {
    Key(key);
    body_ += '"';
    obs::AppendJsonEscaped(value, &body_);
    body_ += '"';
    return *this;
  }
  template <typename Number>
  BenchRow& Num(std::string_view key, Number value) {
    Key(key);
    body_ += obs::JsonNumber(static_cast<double>(value));
    return *this;
  }
  std::string ToJson() const { return "{" + body_ + "}"; }

 private:
  void Key(std::string_view key) {
    if (!body_.empty()) body_ += ", ";
    body_ += '"';
    obs::AppendJsonEscaped(key, &body_);
    body_ += "\": ";
  }
  std::string body_;
};

/// Write \p rows as the JSON array of one-line objects bench_compare
/// parses, and say so on stdout.
inline Status WriteBenchJson(const std::string& path,
                             const std::vector<BenchRow>& rows) {
  std::string text = "[\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    text += "  " + rows[i].ToJson() + (i + 1 < rows.size() ? ",\n" : "\n");
  }
  text += "]\n";
  POLYDAB_RETURN_NOT_OK(obs::WriteFileText(path, text));
  std::printf("\nwrote %s (%zu rows)\n", path.c_str(), rows.size());
  return Status::OK();
}

/// OK when \p m matches the \p oracle run on every deterministic protocol
/// counter. A sweep over a knob that must move only wall clock (threads,
/// solve cache, checkpoint cadence) fails hard otherwise: one diverged
/// counter makes its wall-clock columns meaningless.
inline Status SameCounters(const std::string& run,
                           const sim::SimMetrics& oracle,
                           const sim::SimMetrics& m) {
  if (m.refreshes == oracle.refreshes &&
      m.recomputations == oracle.recomputations &&
      m.dab_change_messages == oracle.dab_change_messages &&
      m.user_notifications == oracle.user_notifications &&
      m.solver_failures == oracle.solver_failures &&
      m.mean_fidelity_loss_pct == oracle.mean_fidelity_loss_pct) {
    return Status::OK();
  }
  return Status::Internal(run + " diverged from the oracle run (e.g. " +
                          "recomputations " +
                          std::to_string(m.recomputations) + " vs " +
                          std::to_string(oracle.recomputations) + ")");
}

/// The bench binaries' exit status: 0 on success, else 1 with \p status on
/// stderr.
inline int ExitCode(const char* bench, const Status& status) {
  if (status.ok()) return 0;
  std::fprintf(stderr, "%s: %s\n", bench, status.ToString().c_str());
  return 1;
}

/// Wall-clock accounting for the bench harnesses, on the obs instruments
/// instead of ad-hoc clock arithmetic: time each run with Section() (RAII,
/// or call Stop() early), then PrintSummary() renders the collected
/// histograms — count, mean, and tail quantiles per section — as a footer,
/// so slow reproduction runs are visible without rebuilding in a profiler.
class HarnessTimer {
 public:
  /// Time one section into the histogram named \p name (C++17 guaranteed
  /// copy elision carries the ScopedTimer to the caller's scope).
  obs::ScopedTimer Section(const std::string& name) {
    return obs::ScopedTimer(registry_.GetHistogram(name));
  }

  void PrintSummary(const std::string& title = "harness wall-clock") {
    std::printf("\n=== %s ===\n%s", title.c_str(),
                obs::RunReport::FromRegistry(registry_).ToText().c_str());
  }

 private:
  obs::MetricRegistry registry_;
};

}  // namespace polydab::bench

#endif  // POLYDAB_BENCH_BENCH_UTIL_H_
