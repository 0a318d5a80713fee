#ifndef POLYDAB_RECOVERY_RUN_COUNTERS_H_
#define POLYDAB_RECOVERY_RUN_COUNTERS_H_

#include <cstdint>

namespace polydab::recovery {

/// The coordinator's run counters: sim::SimMetrics less the fidelity mean
/// it derives at the end of a run. SimMetrics is this record, so the
/// engine counts into it directly and a checkpoint carries it whole.
struct RunCounters {
  int64_t refreshes = 0;          ///< refresh messages arriving at C
  int64_t recomputations = 0;     ///< per-query DAB recomputation events
  int64_t dab_change_messages = 0;///< C -> source filter updates sent
  int64_t user_notifications = 0; ///< query results pushed to users
  int64_t solver_failures = 0;    ///< plans kept stale due to solve errors

  // Fault-mode counters (all zero when the fault layer is inactive).
  int64_t fault_drops = 0;            ///< injected message losses
  int64_t retransmits = 0;            ///< refresh copies re-sent after timeout
  int64_t duplicates_suppressed = 0;  ///< already-delivered seqs ignored at C
  int64_t lease_expiries = 0;         ///< per-item source leases lapsed
  /// Sum over queries of seconds spent in degraded service (lease expired
  /// on one of the query's items and not yet recovered), accumulated at
  /// fidelity_stride granularity.
  double degraded_query_seconds = 0.0;

  /// Checkpoint record 'met' (recovery/checkpoint.h).
  template <class S, class V>
  static void Fields(S& s, V& v) {
    v("refreshes", s.refreshes);
    v("recomputations", s.recomputations);
    v("dab_changes", s.dab_change_messages);
    v("notifications", s.user_notifications);
    v("solver_failures", s.solver_failures);
    v("drops", s.fault_drops);
    v("retransmits", s.retransmits);
    v("dups", s.duplicates_suppressed);
    v("leases", s.lease_expiries);
    v("degraded_s", s.degraded_query_seconds);
  }
};

}  // namespace polydab::recovery

#endif  // POLYDAB_RECOVERY_RUN_COUNTERS_H_
