#ifndef POLYDAB_OBS_RUN_REPORT_H_
#define POLYDAB_OBS_RUN_REPORT_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "obs/record.h"

/// \file run_report.h
/// Point-in-time snapshot of a MetricRegistry plus free-form run metadata,
/// exportable as JSON-lines (one object per line, machine-parsable — the
/// format `polydab_experiment metrics_out=...` writes) and as aligned
/// human-readable text. ParseJsonLines inverts ToJsonLines exactly, so
/// sweep scripts can aggregate reports without a JSON library.

namespace polydab::obs {

struct RunReport {
  /// Snapshot of one instrument. Histograms are exported as summary
  /// statistics (count/sum/min/max and the standard latency quantiles),
  /// not raw buckets.
  struct Entry {
    std::string name;
    InstrumentKind kind = InstrumentKind::kCounter;
    int64_t counter_value = 0;    ///< kCounter
    double gauge_value = 0.0;     ///< kGauge
    int64_t count = 0;            ///< kHistogram
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;

    /// The record's field list (obs/record.h); the record's type tag is
    /// the kind's name ("counter", "gauge" or "histogram").
    template <class S, class V>
    static void Fields(S& s, V& v) {
      v("name", s.name);
      switch (s.kind) {
        case InstrumentKind::kCounter:
          v("value", s.counter_value);
          break;
        case InstrumentKind::kGauge:
          v("value", s.gauge_value);
          break;
        case InstrumentKind::kHistogram:
          v("count", s.count);
          v("sum", s.sum);
          v("min", s.min);
          v("max", s.max);
          v("p50", s.p50);
          v("p90", s.p90);
          v("p99", s.p99);
          break;
      }
    }
  };

  /// Free-form metadata (config description, trace file, seed...),
  /// exported as one leading `{"type":"info",...}` line per key.
  std::map<std::string, std::string> info;
  std::vector<Entry> entries;  ///< in registry (name) order

  /// Snapshot every instrument of \p registry.
  static RunReport FromRegistry(const MetricRegistry& registry);

  /// One JSON object per line: info lines first, then one line per
  /// instrument, e.g.
  ///   {"type":"info","key":"config","value":"method=dual ..."}
  ///   {"type":"counter","name":"sim.coordinator.refreshes","value":1234}
  ///   {"type":"histogram","name":"gp.solver.solve_seconds","count":...}
  std::string ToJsonLines() const;

  /// Aligned human-readable rendering for terminals / logs.
  std::string ToText() const;

  /// Write ToJsonLines() to \p path (truncating).
  Status WriteJsonLines(const std::string& path) const;

  /// Inverse of ToJsonLines. Strict: malformed lines, unknown record types
  /// or keys, missing keys and non-integral counts are InvalidArgument
  /// naming the line.
  static Result<RunReport> ParseJsonLines(const std::string& text);

  /// Entry lookup by instrument name; nullptr when absent.
  const Entry* Find(const std::string& name) const;
};

}  // namespace polydab::obs

#endif  // POLYDAB_OBS_RUN_REPORT_H_
