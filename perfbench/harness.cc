#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

namespace polydab::perfbench {

double NearestRank(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  const double rank = std::max(1.0, std::ceil(q * n));
  return values[static_cast<size_t>(std::min(rank, n)) - 1];
}

std::vector<int64_t> TickIntervals(const std::vector<int64_t>& pulls) {
  std::vector<int64_t> out;
  for (size_t k = 1; k + 1 < pulls.size(); ++k) {
    out.push_back(pulls[k + 1] - pulls[k]);
  }
  return out;
}

void MinInto(std::vector<int64_t>* acc, const std::vector<int64_t>& v) {
  const size_t n = std::min(acc->size(), v.size());
  for (size_t i = 0; i < n; ++i) (*acc)[i] = std::min((*acc)[i], v[i]);
}

std::vector<int> FastestCpus(std::vector<std::pair<int, double>> probe_s,
                             int count) {
  std::stable_sort(probe_s.begin(), probe_s.end(),
                   [](const auto& a, const auto& b) {
                     return a.second < b.second ||
                            (a.second == b.second && a.first < b.first);
                   });
  std::vector<int> out;
  for (const auto& [cpu, s] : probe_s) {
    if (static_cast<int>(out.size()) == count) break;
    out.push_back(cpu);
  }
  return out;
}

int SpanRecorder::Add(std::string name, int64_t start_ns, int64_t end_ns,
                      int parent, int run) {
  spans_.push_back(Span{std::move(name), start_ns, end_ns, parent, run});
  return static_cast<int>(spans_.size()) - 1;
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%d,\"run\":%d}\n",
                 i, s.name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent, s.run);
  }
  return std::fclose(f) == 0;
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<size_t>(s.parent)];
    const int64_t lo = std::max(s.start_ns, p.start_ns);
    const int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) kids[static_cast<size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t cur_lo = 0;
    int64_t cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

std::map<std::string, int64_t> SelfTimeByName(const std::vector<Span>& spans) {
  const std::vector<int64_t> self = SelfTimes(spans);
  std::map<std::string, int64_t> out;
  for (size_t i = 0; i < spans.size(); ++i) out[spans[i].name] += self[i];
  return out;
}

}  // namespace polydab::perfbench
