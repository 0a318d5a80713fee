// bench_compare: regression gate for the bench harnesses' machine-
// readable outputs.
//
// The reproduction benches mirror their tables into BENCH_*.json — a
// JSON array of flat one-line objects (bench_churn.cc,
// bench_coord_shards.cc). This tool diffs such a file against a
// committed baseline: string fields and deterministic numeric fields
// (message counts, fidelity percentages — seeded runs reproduce them
// exactly) must match bit for bit, while wall-clock fields (any key
// ending in `_s`, `_us`, `_ms` or `_seconds`) only have to agree within
// a relative tolerance, because they measure the machine, not the
// protocol.
//
// Usage:
//   bench_compare BASELINE.json CURRENT.json [--tol=X] [--quiet]
//
//   --tol=X   relative tolerance for wall-clock fields, >= 0 (0.25)
//   --quiet   print nothing on success
//
// Exit status: 0 when every row matches, 1 on any mismatch, 2 on
// usage/parse errors.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/json_util.h"
#include "obs/record.h"

using namespace polydab;

namespace {

struct BenchRow {
  std::map<std::string, std::string> strings;
  std::map<std::string, double> numbers;
};

/// Parse a BENCH_*.json array-of-flat-objects file: '[' and ']' on their
/// own lines, one object per line in between, optionally ','-terminated.
Result<std::vector<BenchRow>> ParseBenchJson(const std::string& text) {
  std::vector<BenchRow> rows;
  size_t pos = 0;
  int lineno = 0;
  bool saw_open = false, saw_close = false;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++lineno;
    // Trim whitespace and the inter-row comma.
    while (!line.empty() && (line.back() == ' ' || line.back() == '\r' ||
                             line.back() == '\t' || line.back() == ',')) {
      line.pop_back();
    }
    size_t start = 0;
    while (start < line.size() &&
           (line[start] == ' ' || line[start] == '\t')) {
      ++start;
    }
    line = line.substr(start);
    if (line.empty()) continue;
    if (line == "[") {
      if (saw_open) {
        return Status::InvalidArgument("line " + std::to_string(lineno) +
                                       ": duplicate '['");
      }
      saw_open = true;
      continue;
    }
    if (line == "]") {
      saw_close = true;
      continue;
    }
    if (!saw_open || saw_close) {
      return Status::InvalidArgument("line " + std::to_string(lineno) +
                                     ": row outside the [...] array");
    }
    BenchRow row;
    Status parsed =
        obs::ParseFlatJsonLine(line, &row.strings, &row.numbers);
    if (!parsed.ok()) {
      return Status::InvalidArgument("line " + std::to_string(lineno) +
                                     ": " + parsed.message());
    }
    rows.push_back(std::move(row));
  }
  if (!saw_open || !saw_close) {
    return Status::InvalidArgument("not a JSON array of rows");
  }
  return rows;
}

/// Wall-clock fields get tolerance; everything else must be exact.
bool IsWallClockField(const std::string& name) {
  for (const char* suffix : {"_s", "_us", "_ms", "_seconds"}) {
    const size_t n = std::strlen(suffix);
    if (name.size() >= n && name.compare(name.size() - n, n, suffix) == 0) {
      return true;
    }
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path;
  std::string current_path;
  double tol = 0.25;
  bool quiet = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--tol=", 6) == 0) {
      char* end = nullptr;
      tol = std::strtod(arg + 6, &end);
      if (end == arg + 6 || *end != '\0' || !(tol >= 0.0)) {
        std::fprintf(stderr, "bad --tol value '%s'\n", arg + 6);
        return 2;
      }
    } else if (std::strcmp(arg, "--quiet") == 0) {
      quiet = true;
    } else if (arg[0] == '-') {
      std::fprintf(stderr, "unknown option '%s'\n", arg);
      return 2;
    } else if (baseline_path.empty()) {
      baseline_path = arg;
    } else if (current_path.empty()) {
      current_path = arg;
    } else {
      std::fprintf(stderr, "unexpected extra argument '%s'\n", arg);
      return 2;
    }
  }
  if (current_path.empty()) {
    std::fprintf(stderr,
                 "usage: bench_compare BASELINE.json CURRENT.json "
                 "[--tol=X] [--quiet]\n");
    return 2;
  }

  std::vector<BenchRow> files[2];
  const std::string* paths[2] = {&baseline_path, &current_path};
  for (int i = 0; i < 2; ++i) {
    Result<std::string> text = obs::ReadFileText(*paths[i]);
    if (!text.ok()) {
      std::fprintf(stderr, "%s: %s\n", paths[i]->c_str(),
                   text.status().ToString().c_str());
      return 2;
    }
    Result<std::vector<BenchRow>> rows = ParseBenchJson(*text);
    if (!rows.ok()) {
      std::fprintf(stderr, "%s: %s\n", paths[i]->c_str(),
                   rows.status().ToString().c_str());
      return 2;
    }
    files[i] = std::move(rows).value();
  }
  const std::vector<BenchRow>& base = files[0];
  const std::vector<BenchRow>& cur = files[1];

  int64_t mismatches = 0;
  auto complain = [&](const std::string& what) {
    ++mismatches;
    std::fprintf(stderr, "bench_compare: %s\n", what.c_str());
  };

  if (base.size() != cur.size()) {
    complain("baseline has " + std::to_string(base.size()) +
             " rows, current has " + std::to_string(cur.size()));
  }
  const size_t n = std::min(base.size(), cur.size());
  for (size_t i = 0; i < n; ++i) {
    const std::string at = "row " + std::to_string(i);
    for (const auto& [key, value] : base[i].strings) {
      auto it = cur[i].strings.find(key);
      if (it == cur[i].strings.end()) {
        complain(at + ": current is missing \"" + key + "\"");
      } else if (it->second != value) {
        complain(at + " \"" + key + "\": baseline \"" + value +
                 "\" != current \"" + it->second + "\"");
      }
    }
    for (const auto& [key, value] : base[i].numbers) {
      auto it = cur[i].numbers.find(key);
      if (it == cur[i].numbers.end()) {
        complain(at + ": current is missing \"" + key + "\"");
        continue;
      }
      const double got = it->second;
      if (IsWallClockField(key)) {
        const double scale =
            std::max({std::fabs(value), std::fabs(got), 1e-12});
        if (std::fabs(got - value) > tol * scale) {
          complain(at + " \"" + key + "\": baseline " +
                   obs::JsonNumber(value) + " vs current " +
                   obs::JsonNumber(got) + " exceeds tolerance " +
                   obs::JsonNumber(tol));
        }
      } else if (!(got == value)) {
        complain(at + " \"" + key + "\": baseline " +
                 obs::JsonNumber(value) + " != current " +
                 obs::JsonNumber(got));
      }
    }
    for (const auto& [key, value] : cur[i].strings) {
      (void)value;
      if (base[i].strings.count(key) == 0) {
        complain(at + ": current has extra field \"" + key + "\"");
      }
    }
    for (const auto& [key, value] : cur[i].numbers) {
      (void)value;
      if (base[i].numbers.count(key) == 0) {
        complain(at + ": current has extra field \"" + key + "\"");
      }
    }
  }

  if (mismatches == 0) {
    if (!quiet) {
      std::printf("bench_compare: %zu rows match (wall-clock tolerance "
                  "%g)\n",
                  base.size(), tol);
    }
    return 0;
  }
  return 1;
}
