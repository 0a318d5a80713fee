#include "workload/trace_io.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace polydab::workload {

namespace {

/// Split one CSV line on commas, trimming surrounding whitespace.
std::vector<std::string> SplitCsvLine(const std::string& line) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= line.size()) {
    size_t end = line.find(',', start);
    if (end == std::string::npos) end = line.size();
    size_t a = start, b = end;
    while (a < b && std::isspace(static_cast<unsigned char>(line[a]))) ++a;
    while (b > a && std::isspace(static_cast<unsigned char>(line[b - 1]))) {
      --b;
    }
    out.push_back(line.substr(a, b - a));
    if (end == line.size()) break;
    start = end + 1;
  }
  return out;
}

bool ParsePositiveDouble(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size()) return false;
  if (!std::isfinite(v) || v <= 0.0) return false;
  *out = v;
  return true;
}

}  // namespace

Result<bool> TraceCsvRows::Parse(std::string line, int line_no,
                                 Vector* row) {
  if (!line.empty() && line.back() == '\r') line.pop_back();
  const bool blank = std::all_of(line.begin(), line.end(), [](char c) {
    return std::isspace(static_cast<unsigned char>(c)) != 0;
  });
  if (blank || line[0] == '#') return false;

  const std::vector<std::string> cells = SplitCsvLine(line);
  row->resize(cells.size());
  bool numeric = true;
  for (size_t i = 0; i < cells.size() && numeric; ++i) {
    numeric = ParsePositiveDouble(cells[i], &(*row)[i]);
  }
  const bool first = !seen_content_;
  seen_content_ = true;
  if (!numeric) {
    // A non-numeric first content line is a header of item names;
    // anywhere else it is an error.
    if (first) {
      width_ = cells.size();
      return false;
    }
    return Status::InvalidArgument("line " + std::to_string(line_no) +
                                   ": expected positive numeric values");
  }
  if (width_ == 0) {
    width_ = cells.size();
  } else if (cells.size() != width_) {
    return Status::InvalidArgument(
        "line " + std::to_string(line_no) + ": expected " +
        std::to_string(width_) + " columns, got " +
        std::to_string(cells.size()));
  }
  return true;
}

Result<TraceSet> ParseTraceSetCsv(const std::string& csv) {
  std::istringstream in(csv);
  std::string line;
  TraceCsvRows reader;
  std::vector<Vector> rows;  // rows[t][item]
  Vector row;
  for (int line_no = 1; std::getline(in, line); ++line_no) {
    POLYDAB_ASSIGN_OR_RETURN(const bool data,
                             reader.Parse(line, line_no, &row));
    if (data) rows.push_back(row);
  }
  if (rows.empty()) {
    return Status::InvalidArgument("CSV contains no data rows");
  }
  const size_t width = reader.width();

  TraceSet out;
  out.num_ticks = static_cast<int>(rows.size());
  out.traces.assign(width, Trace(rows.size()));
  for (size_t t = 0; t < rows.size(); ++t) {
    for (size_t i = 0; i < width; ++i) {
      out.traces[i][t] = rows[t][i];
    }
  }
  return out;
}

std::string TraceSetToCsv(const TraceSet& traces) {
  std::ostringstream os;
  os.precision(17);
  for (int t = 0; t < traces.num_ticks; ++t) {
    for (size_t i = 0; i < traces.num_items(); ++i) {
      if (i > 0) os << ',';
      os << traces.ValueAt(i, t);
    }
    os << '\n';
  }
  return os.str();
}

Result<TraceSet> LoadTraceSetCsv(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::InvalidArgument("cannot open '" + path + "'");
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return ParseTraceSetCsv(buf.str());
}

Status SaveTraceSetCsv(const TraceSet& traces, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return Status::InvalidArgument("cannot open '" + path + "' for write");
  }
  out << TraceSetToCsv(traces);
  if (!out) {
    return Status::Internal("write to '" + path + "' failed");
  }
  return Status::OK();
}

}  // namespace polydab::workload
