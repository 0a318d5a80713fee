#ifndef POLYDAB_WORKLOAD_TRACE_IO_H_
#define POLYDAB_WORKLOAD_TRACE_IO_H_

#include <string>

#include "common/status.h"
#include "workload/trace.h"

/// \file trace_io.h
/// CSV import/export for trace sets, so the synthetic generators can be
/// swapped for real quote data (the paper replayed Yahoo! Finance
/// intraday traces; anyone holding such data can feed it straight into
/// the simulator and benches).
///
/// Format: one row per tick, one column per item, comma-separated, an
/// optional header row of item names (detected automatically on load).
/// All values must be positive finite numbers (the DAB conditions
/// require positive data).

namespace polydab::workload {

/// \brief The format's row rules, one line at a time — the one parser
/// behind both ParseTraceSetCsv and the streaming FileTickSource
/// (tick_source.h). Blank lines and lines starting with '#' carry no row;
/// a non-numeric first content line is a header of item names and fixes
/// the width; every other line must hold exactly that many cells.
class TraceCsvRows {
 public:
  /// Parse line \p line_no (1-based): true with \p row filled for a data
  /// row, false for a line that carries none, an error for a malformed
  /// one.
  Result<bool> Parse(std::string line, int line_no, Vector* row);
  /// Cells per row, fixed by the header or the first data row; 0 before.
  size_t width() const { return width_; }

 private:
  size_t width_ = 0;
  bool seen_content_ = false;
};

/// Parse a CSV string into a TraceSet. Rows of differing width, empty
/// input, or non-positive/non-numeric cells are rejected.
Result<TraceSet> ParseTraceSetCsv(const std::string& csv);

/// Render a TraceSet as CSV (no header row).
std::string TraceSetToCsv(const TraceSet& traces);

/// Load a TraceSet from a CSV file on disk.
Result<TraceSet> LoadTraceSetCsv(const std::string& path);

/// Write a TraceSet to a CSV file on disk.
Status SaveTraceSetCsv(const TraceSet& traces, const std::string& path);

}  // namespace polydab::workload

#endif  // POLYDAB_WORKLOAD_TRACE_IO_H_
