// polydab_tracecheck: offline trace-replay verifier.
//
// Loads a causal event trace written by `polydab_experiment
// trace-out=FILE` (or any TraceSink user), replays it, and verifies that
// (a) every SimMetrics field re-derived from the raw events matches the
// trailing run summary exactly, (b) the protocol invariants of §III-A.2
// hold — every recomputation has a recorded cause, violation values
// really escape their secondary ranges, DAB changes install only after
// being sent, refreshes only happen past the installed filters — and
// (c) prints per-query cost attribution with recomputations traced to
// their root-cause items. See docs/OBSERVABILITY.md ("Event tracing").
//
// Usage:
//   polydab_tracecheck TRACE.jsonl [--report=METRICS.jsonl]
//                                  [--series=SERIES.jsonl] [--mu=X]
//                                  [--quiet]
//
//   --report=FILE  also diff the replayed totals against a telemetry run
//                  report written by the same run (metrics-out=FILE)
//   --series=FILE  also diff a windowed series file written by the same
//                  run (series-out=FILE) against the alerting-mode
//                  replay: every window, breakdown row, alert and the
//                  totals record must match the re-derivation exactly
//   --mu=X         recomputation cost for the attribution (default: the
//                  trace's mu info key, else 5)
//   --strip-recovery-out=FILE  after the checks pass, write a copy of the
//                  trace with the crash-recovery bookkeeping events
//                  (checkpoint_begin/checkpoint_end/coord_crash/
//                  recovery_replay) removed and the survivors renumbered
//                  (obs::StripRecoveryEvents) — the form a crashed-and-
//                  restarted run's merged trace byte-compares to an
//                  uninterrupted oracle's in (docs/RECOVERY.md)
//   --quiet        print nothing on success
//
// Exit status: 0 when the trace parses and every check passes, 1 when
// any invariant or replay diff fails, 2 on unreadable/malformed input.

#include <cstdio>
#include <cstring>
#include <string>

#include "obs/record.h"
#include "obs/run_report.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "obs/trace_canon.h"
#include "obs/trace_check.h"

using namespace polydab;

int main(int argc, char** argv) {
  std::string trace_path;
  std::string report_path;
  std::string series_path;
  std::string strip_out_path;
  double mu = -1.0;
  bool quiet = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--report=", 9) == 0) {
      report_path = arg + 9;
    } else if (std::strncmp(arg, "--series=", 9) == 0) {
      series_path = arg + 9;
    } else if (std::strncmp(arg, "--strip-recovery-out=", 21) == 0) {
      strip_out_path = arg + 21;
    } else if (std::strncmp(arg, "--mu=", 5) == 0) {
      mu = std::atof(arg + 5);
    } else if (std::strcmp(arg, "--quiet") == 0) {
      quiet = true;
    } else if (arg[0] == '-') {
      std::fprintf(stderr, "unknown option '%s'\n", arg);
      return 2;
    } else if (trace_path.empty()) {
      trace_path = arg;
    } else {
      std::fprintf(stderr, "unexpected extra argument '%s'\n", arg);
      return 2;
    }
  }
  if (trace_path.empty()) {
    std::fprintf(stderr,
                 "usage: polydab_tracecheck TRACE.jsonl "
                 "[--report=METRICS.jsonl] [--series=SERIES.jsonl] "
                 "[--mu=X] [--quiet]\n");
    return 2;
  }

  Result<obs::TraceFile> trace = obs::LoadTraceFile(trace_path);
  if (!trace.ok()) {
    std::fprintf(stderr, "trace: %s\n", trace.status().ToString().c_str());
    return 2;
  }

  obs::TraceCheckOptions options;
  options.mu = mu;
  obs::RunReport report;
  if (!report_path.empty()) {
    Result<std::string> text = obs::ReadFileText(report_path);
    if (!text.ok()) {
      std::fprintf(stderr, "report: %s\n",
                   text.status().ToString().c_str());
      return 2;
    }
    Result<obs::RunReport> parsed = obs::RunReport::ParseJsonLines(*text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "report: %s\n",
                   parsed.status().ToString().c_str());
      return 2;
    }
    report = std::move(parsed).value();
    options.report = &report;
  }
  obs::SeriesFile series;
  if (!series_path.empty()) {
    Result<obs::SeriesFile> loaded = obs::LoadSeriesFile(series_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "series: %s\n",
                   loaded.status().ToString().c_str());
      return 2;
    }
    series = std::move(loaded).value();
    options.series = &series;
  }

  Result<obs::TraceCheckReport> checked = obs::CheckTrace(*trace, options);
  if (!checked.ok()) {
    std::fprintf(stderr, "trace-check: %s\n",
                 checked.status().ToString().c_str());
    return 2;
  }
  if (!quiet || !checked->ok()) {
    const std::string text = checked->ToText(*trace);
    std::fwrite(text.data(), 1, text.size(), stdout);
  }
  if (checked->ok() && !strip_out_path.empty()) {
    Status stripped = obs::StripRecoveryEvents(&*trace);
    if (!stripped.ok()) {
      std::fprintf(stderr, "strip-recovery-out: %s\n",
                   stripped.ToString().c_str());
      return 2;
    }
    Status saved = obs::SaveTraceFile(*trace, strip_out_path);
    if (!saved.ok()) {
      std::fprintf(stderr, "strip-recovery-out: %s\n",
                   saved.ToString().c_str());
      return 2;
    }
  }
  return checked->ok() ? 0 : 1;
}
