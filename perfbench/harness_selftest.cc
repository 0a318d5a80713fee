// Self-tests of the measurement helpers on hand-made inputs. The driver
// runs them at the start of every benchmark run (they take microseconds)
// and counts a failure against correctness, so a broken percentile or
// self-time subtraction can never produce plausible-looking numbers.

#include <cstdio>
#include <string>
#include <vector>

#include "harness.h"

namespace polydab::perfbench {
namespace {

int Expect(bool ok, const std::string& what) {
  if (ok) return 0;
  std::fprintf(stderr, "perfbench selftest FAILED: %s\n", what.c_str());
  return 1;
}

int TestNearestRank() {
  // The textbook nearest-rank example: n = 5, ranks ceil(q * 5).
  const std::vector<double> v = {35, 20, 15, 50, 40};
  int f = 0;
  f += Expect(NearestRank(v, 0.0) == 15, "p0 is the minimum");
  f += Expect(NearestRank(v, 0.05) == 15, "p5 -> rank 1");
  f += Expect(NearestRank(v, 0.30) == 20, "p30 -> rank 2");
  f += Expect(NearestRank(v, 0.40) == 20, "p40 -> rank 2 (exact boundary)");
  f += Expect(NearestRank(v, 0.50) == 35, "p50 -> rank 3");
  f += Expect(NearestRank(v, 1.0) == 50, "p100 is the maximum");
  f += Expect(NearestRank({}, 0.5) == 0, "empty sample reads 0");
  // 1000 samples 1..1000: p99 is the 990th, leaving 10 samples above it.
  std::vector<double> big;
  for (int i = 1000; i >= 1; --i) big.push_back(i);
  f += Expect(NearestRank(big, 0.99) == 990, "p99 of 1..1000 is 990");
  return f;
}

int TestTickIntervals() {
  // Pulls: tick 0 at 0 (set-up), tick 1 at 10, tick 2 at 13, tick 3 at
  // 20, end of stream at 31 -> tick intervals 3, 7, 11.
  const std::vector<int64_t> iv = TickIntervals({0, 10, 13, 20, 31});
  int f = 0;
  f += Expect(iv == std::vector<int64_t>({3, 7, 11}), "interval derivation");
  f += Expect(TickIntervals({0, 10}).empty(), "no tick completed");
  f += Expect(TickIntervals({}).empty(), "no pulls");
  // Two repeats of the same run: each tick keeps its faster interval.
  std::vector<int64_t> best = iv;
  MinInto(&best, TickIntervals({0, 12, 14, 16, 29}));
  f += Expect(best == std::vector<int64_t>({2, 2, 11}), "per-tick minimum");
  MinInto(&best, {1});
  f += Expect(best == std::vector<int64_t>({1, 2, 11}), "shorter repeat");
  return f;
}

int TestFastestCpus() {
  const std::vector<std::pair<int, double>> probes = {
      {0, 3e-4}, {1, 2e-4}, {2, 5e-4}, {3, 2e-4}};
  int f = 0;
  f += Expect(FastestCpus(probes, 1) == std::vector<int>({1}),
              "fastest CPU, lower number on a tie");
  f += Expect(FastestCpus(probes, 3) == std::vector<int>({1, 3, 0}),
              "three fastest CPUs, slowest left out");
  f += Expect(FastestCpus(probes, 9).size() == 4, "count above the CPUs");
  f += Expect(FastestCpus({}, 2).empty(), "no CPUs");
  return f;
}

int TestSelfTimes() {
  // run [0,100] > setup [0,10], loop [10,100]; loop > tick [10,60] and
  // tick [60,100]; the first tick holds svc [20,30] and svc [25,40]
  // (overlapping: their union [20,40] counts once) and a child reaching
  // past its parent, svc [55,70], clipped to [55,60].
  SpanRecorder r;
  const int run = r.Add("run", 0, 100, -1, 0);
  r.Add("setup", 0, 10, run, 0);
  const int loop = r.Add("loop", 10, 100, run, 0);
  const int t1 = r.Add("tick", 10, 60, loop, 0);
  r.Add("tick", 60, 100, loop, 0);
  r.Add("svc", 20, 30, t1, 0);
  r.Add("svc", 25, 40, t1, 0);
  r.Add("svc", 55, 70, t1, 0);
  const std::vector<int64_t> self = SelfTimes(r.spans());
  int f = 0;
  f += Expect(self[0] == 0, "run fully covered by set-up and loop");
  f += Expect(self[2] == 0, "loop fully covered by its ticks");
  f += Expect(self[3] == 50 - 20 - 5, "tick minus merged, clipped children");
  f += Expect(self[4] == 40, "childless tick keeps its duration");
  const auto by_name = SelfTimeByName(r.spans());
  f += Expect(by_name.at("tick") == 65, "per-name sum");
  f += Expect(by_name.at("svc") == 10 + 15 + 15, "svc spans' own durations");
  return f;
}

}  // namespace

int RunSelfTests() {
  return TestNearestRank() + TestTickIntervals() + TestFastestCpus() +
         TestSelfTimes();
}

}  // namespace polydab::perfbench
