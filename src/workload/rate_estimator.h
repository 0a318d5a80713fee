#ifndef POLYDAB_WORKLOAD_RATE_ESTIMATOR_H_
#define POLYDAB_WORKLOAD_RATE_ESTIMATOR_H_

#include "common/status.h"
#include "workload/trace.h"

/// \file rate_estimator.h
/// §V-A "Model of Data Dynamics": the rate of change λ_i of item i is
/// estimated by sampling its trace at fixed intervals (1 minute in the
/// paper) and averaging |ΔV| / interval over the whole trace. The paper's
/// "L1" configuration ignores rates entirely (λ_i = 1 for all items) and
/// is reproduced by UnitRates().
///
/// All three offline estimators share one sample sequence: |ΔV| / length
/// over every full window of \p interval_ticks ticks, plus — when the
/// trace does not end exactly on a window boundary — one trailing sample
/// over the num_ticks % interval_ticks remainder, normalized by its
/// actual (shorter) length. The remainder participates like any other
/// sample (last into the EWMA, a member of the quantile's sample set), so
/// movement in the final partial minute is never silently dropped.

namespace polydab::workload {

/// \brief Average absolute rate of change per item, sampled every
/// \p interval_ticks ticks (default 60 = 1 minute at 1 Hz traces).
Result<Vector> EstimateRates(const TraceSet& traces, int interval_ticks = 60);

/// λ_i = 1 for every item (the paper's rate-agnostic "L1" variant).
Vector UnitRates(size_t num_items);

/// \brief Exponentially weighted rate estimate: the same 1-minute samples
/// as EstimateRates, folded with weight \p alpha so recent movement
/// dominates (one of the alternative λ calculations the paper's companion
/// report explores). alpha in (0, 1]; larger = more reactive.
Result<Vector> EstimateRatesEwma(const TraceSet& traces,
                                 int interval_ticks = 60,
                                 double alpha = 0.1);

/// \brief Conservative rate estimate: the \p quantile (default p95) of the
/// per-interval rates instead of their mean, picked by the nearest-rank
/// rule (rank ceil(quantile * n), so 0.0 is the minimum, 1.0 the maximum,
/// and 0.5 the lower middle of an even-sized sample). Over-estimating λ
/// biases the optimizer toward wider filters on the jumpiest items.
Result<Vector> EstimateRatesQuantile(const TraceSet& traces,
                                     int interval_ticks = 60,
                                     double quantile = 0.95);

}  // namespace polydab::workload

#endif  // POLYDAB_WORKLOAD_RATE_ESTIMATOR_H_
