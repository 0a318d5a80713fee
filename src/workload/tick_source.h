#ifndef POLYDAB_WORKLOAD_TICK_SOURCE_H_
#define POLYDAB_WORKLOAD_TICK_SOURCE_H_

#include <fstream>
#include <memory>
#include <string>

#include "common/status.h"
#include "workload/trace.h"
#include "workload/trace_io.h"

/// \file tick_source.h
/// Streaming tick ingest (docs/SERVICE.md). The simulator historically
/// consumed a fully materialized TraceSet; a long-lived service instead
/// pulls one dense tick row at a time from an abstract source, so the
/// same engine can replay a canned set or stream a CSV file of real quote
/// data without holding the whole history in memory.
/// The canned adapter yields exactly the rows TraceSet::ValueAt would,
/// which is what keeps the streaming engine byte-identical to the
/// historical path (tests/churn_diff_test.cc).

namespace polydab::workload {

/// \brief One dense row of item values per call, tick 0 first.
class TickSource {
 public:
  virtual ~TickSource() = default;

  /// Width of every row this source yields.
  virtual size_t num_items() const = 0;

  /// Total number of ticks when known up front; -1 for open-ended
  /// streams. Purely advisory (preallocation) — the engine always runs
  /// until Next() reports end-of-stream.
  virtual int num_ticks_hint() const { return -1; }

  /// Fill \p row (resized to num_items()) with the next tick's values.
  /// Returns false at end of stream, an error on malformed input.
  virtual Result<bool> Next(Vector* row) = 0;

  /// Reposition to tick 0. Replayable sources (canned sets, files)
  /// support this; a one-shot stream would return Unsupported.
  virtual Status Rewind() = 0;
};

/// \brief Adapter over a materialized TraceSet (not owned).
class TraceSetTickSource : public TickSource {
 public:
  explicit TraceSetTickSource(const TraceSet* set) : set_(set) {}

  size_t num_items() const override { return set_->num_items(); }
  int num_ticks_hint() const override { return set_->num_ticks; }
  Result<bool> Next(Vector* row) override;
  Status Rewind() override {
    tick_ = 0;
    return Status::OK();
  }

 private:
  const TraceSet* set_;
  int tick_ = 0;
};

/// \brief Streams a trace CSV (the trace_io.h format: one row per tick,
/// one column per item, optional header) without materializing it. Rows
/// go through trace_io.h's TraceCsvRows, so a file streams exactly as
/// LoadTraceSetCsv would load it, or is rejected by both.
class FileTickSource : public TickSource {
 public:
  /// Open \p path and read its first data row, which fixes the width.
  static Result<std::unique_ptr<FileTickSource>> Open(
      const std::string& path);

  size_t num_items() const override { return num_items_; }
  Result<bool> Next(Vector* row) override;
  Status Rewind() override;

 private:
  FileTickSource(std::ifstream stream, std::string path) noexcept
      : stream_(std::move(stream)), path_(std::move(path)) {}

  /// The next data row of the file; false at its end.
  Result<bool> ReadRow(Vector* row);

  std::ifstream stream_;
  std::string path_;
  TraceCsvRows rows_;
  size_t num_items_ = 0;
  bool pending_first_ = false;  ///< first row read ahead, not yet consumed
  Vector first_row_;
  int line_no_ = 0;  ///< 1-based line of the last read, for diagnostics
};

}  // namespace polydab::workload

#endif  // POLYDAB_WORKLOAD_TICK_SOURCE_H_
