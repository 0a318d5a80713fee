#include "workload/rate_estimator.h"

#include <algorithm>
#include <cmath>

namespace polydab::workload {

namespace {

Status CheckSampling(const TraceSet& traces, int interval_ticks) {
  if (interval_ticks <= 0) {
    return Status::InvalidArgument("sampling interval must be positive");
  }
  if (traces.num_ticks <= interval_ticks) {
    return Status::InvalidArgument("trace shorter than sampling interval");
  }
  return Status::OK();
}

/// The per-interval rate samples every estimator consumes: |ΔV| / length
/// over each full window [t - interval, t], followed by one trailing
/// sample over the num_ticks % interval_ticks remainder (normalized by
/// its actual, shorter length) when the trace does not end on a window
/// boundary. All three offline estimators share this sequence, so they
/// agree on what "the samples" are; the remainder is included rather than
/// silently dropped so that movement in the trace's final partial minute
/// still reaches λ.
template <typename Fn>
void ForEachIntervalRate(const TraceSet& traces, size_t item,
                         int interval_ticks, Fn&& fn) {
  int t = interval_ticks;
  for (; t < traces.num_ticks; t += interval_ticks) {
    fn(std::fabs(traces.ValueAt(item, t) -
                 traces.ValueAt(item, t - interval_ticks)) /
       interval_ticks);
  }
  const int last_full_end = t - interval_ticks;
  const int tail_ticks = traces.num_ticks - 1 - last_full_end;
  if (tail_ticks > 0) {
    fn(std::fabs(traces.ValueAt(item, traces.num_ticks - 1) -
                 traces.ValueAt(item, last_full_end)) /
       tail_ticks);
  }
}

}  // namespace

Result<Vector> EstimateRates(const TraceSet& traces, int interval_ticks) {
  POLYDAB_RETURN_NOT_OK(CheckSampling(traces, interval_ticks));
  Vector rates(traces.num_items(), 0.0);
  for (size_t i = 0; i < traces.num_items(); ++i) {
    double sum = 0.0;
    int samples = 0;
    ForEachIntervalRate(traces, i, interval_ticks, [&](double r) {
      sum += r;
      ++samples;
    });
    rates[i] = samples > 0 ? sum / samples : 0.0;
  }
  return rates;
}

Vector UnitRates(size_t num_items) { return Vector(num_items, 1.0); }

Result<Vector> EstimateRatesEwma(const TraceSet& traces, int interval_ticks,
                                 double alpha) {
  POLYDAB_RETURN_NOT_OK(CheckSampling(traces, interval_ticks));
  if (alpha <= 0.0 || alpha > 1.0) {
    return Status::InvalidArgument("alpha must be in (0, 1]");
  }
  Vector rates(traces.num_items(), 0.0);
  for (size_t i = 0; i < traces.num_items(); ++i) {
    double ewma = 0.0;
    bool first = true;
    ForEachIntervalRate(traces, i, interval_ticks, [&](double r) {
      if (first) {
        ewma = r;
        first = false;
      } else {
        ewma = alpha * r + (1.0 - alpha) * ewma;
      }
    });
    rates[i] = ewma;
  }
  return rates;
}

Result<Vector> EstimateRatesQuantile(const TraceSet& traces,
                                     int interval_ticks, double quantile) {
  POLYDAB_RETURN_NOT_OK(CheckSampling(traces, interval_ticks));
  if (quantile < 0.0 || quantile > 1.0) {
    return Status::InvalidArgument("quantile must be in [0, 1]");
  }
  Vector rates(traces.num_items(), 0.0);
  std::vector<double> samples;
  for (size_t i = 0; i < traces.num_items(); ++i) {
    samples.clear();
    ForEachIntervalRate(traces, i, interval_ticks,
                        [&](double r) { samples.push_back(r); });
    if (samples.empty()) continue;
    std::sort(samples.begin(), samples.end());
    // Nearest-rank: the smallest sample with at least a `quantile`
    // fraction of the mass at or below it — rank ceil(q * n), clamped to
    // [1, n]. Unlike flooring q * n, this makes q = 1.0 the maximum by
    // construction and q = 0.5 on an even-sized sample the lower middle
    // (the classical nearest-rank median), and q = 0.0 the minimum.
    const double n = static_cast<double>(samples.size());
    const size_t rank = std::min(
        samples.size(),
        std::max<size_t>(1, static_cast<size_t>(std::ceil(quantile * n))));
    rates[i] = samples[rank - 1];
  }
  return rates;
}

}  // namespace polydab::workload
