#ifndef POLYDAB_PERFBENCH_HARNESS_H_
#define POLYDAB_PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

/// \file harness.h
/// Measurement helpers of the benchmark driver (driver.cc), kept free of
/// library types so the self-tests (harness_selftest.cc) can check them on
/// hand-made inputs. All times are steady-clock nanoseconds.

namespace polydab::perfbench {

/// Nearest-rank percentile: the value of rank ceil(q * n) (1-based) in the
/// sorted sample, so q = 0 is the minimum and q = 1 the maximum. Returns 0
/// for an empty sample.
double NearestRank(std::vector<double> values, double q);

/// Per-tick wall intervals from the engine's row pulls. \p pulls[0] is the
/// pull of the tick-0 snapshot (during set-up), pulls[k] the pull of tick
/// k, and the last entry the pull that found the end of the stream. Tick
/// k's interval runs from its pull to the next one, so n pulls give n - 2
/// intervals (ticks 1 .. n - 2).
std::vector<int64_t> TickIntervals(const std::vector<int64_t>& pulls);

/// Element-wise minimum of two repeats of the same measurement series:
/// acc[i] = min(acc[i], v[i]). A repeat of another length (a run that did
/// different work) leaves \p acc unchanged past the shorter one's end.
void MinInto(std::vector<int64_t>* acc, const std::vector<int64_t>& v);

/// The \p count CPUs of the shortest probe times, fastest first; ties keep
/// the lower CPU number first. \p probe_s holds (cpu, seconds) pairs.
std::vector<int> FastestCpus(std::vector<std::pair<int, double>> probe_s,
                             int count);

/// One timed region. `parent` indexes the enclosing span in the same
/// recorder (-1: a root); `run` groups the spans of one engine run.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  int run = 0;
};

/// In-memory span store, written out once when the benchmark ends.
class SpanRecorder {
 public:
  /// Append a span and return its index (the id children pass as parent).
  int Add(std::string name, int64_t start_ns, int64_t end_ns, int parent,
          int run);

  const std::vector<Span>& spans() const { return spans_; }

  /// One JSON object per line; false when the file cannot be written.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Self time of every span: its duration minus the part of it covered by
/// the union of its children's intervals (children are clipped to the
/// parent, and overlapping children count once). Indexed like \p spans.
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

/// Self time summed per span name.
std::map<std::string, int64_t> SelfTimeByName(const std::vector<Span>& spans);

/// Check the helpers above on hand-made inputs (harness_selftest.cc);
/// returns the number of failed checks, each reported on stderr.
int RunSelfTests();

}  // namespace polydab::perfbench

#endif  // POLYDAB_PERFBENCH_HARNESS_H_
