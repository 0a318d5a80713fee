#ifndef POLYDAB_NET_RELAY_H_
#define POLYDAB_NET_RELAY_H_

#include <vector>

#include "common/status.h"
#include "core/planner.h"
#include "sim/delay_model.h"
#include "workload/trace.h"

/// \file relay.h
/// The coherency-preserving dissemination overlay of Shah et al. [6]
/// (TKDE 2004), which the paper uses for its Figure 8(c) network
/// experiments (bench_paper fig8c). Coordinators form a tree; the sources
/// feed the root. Every node installs, per data item, a *filter
/// requirement* equal to the minimum primary DAB over (a) the query plans
/// it hosts itself and (b) the requirements of its children. A node
/// forwards a refresh to a child only when the change escapes that child's
/// requirement, so each edge carries exactly the traffic the subtree below
/// it needs — the coherency-preserving property of [6]. Delays are network
/// only: a node's recomputations occupy it for no time, so fidelity loss
/// here comes from hop delays alone.

namespace polydab::net {

struct RelayConfig {
  int num_coordinators = 10;
  int fanout = 3;
  core::PlannerConfig planner;
  sim::DelayConfig delays;  ///< per-hop network delay model
  uint64_t seed = 1;
  /// Optional telemetry sink recording the `net.relay.*` instruments:
  /// counters mirroring RelayMetrics plus per-node arrival and per-edge
  /// forwarding-traffic histograms (one sample per node/edge at run end).
  /// Propagated into the planner/GP solver. Null = off. Not owned.
  obs::MetricRegistry* registry = nullptr;
  /// Optional causal event trace (obs/trace.h). Events are tagged with
  /// overlay node ids (root = 0); a refresh_emitted's `source` is the
  /// forwarding parent (-1 for the data sources feeding the root), its
  /// `node` the receiving coordinator. Requirement changes walking up the
  /// tree appear as one dab_change_sent per hop; the overlay installs
  /// requirements in place, so there are no installed events. Null = off.
  /// Not owned; must outlive the run.
  obs::TraceSink* trace = nullptr;
};

struct RelayMetrics {
  int64_t refreshes = 0;         ///< refresh arrivals summed over all nodes
  int64_t recomputations = 0;    ///< plan-part recomputations over all nodes
  int64_t dab_change_messages = 0;
  int64_t solver_failures = 0;
  double mean_fidelity_loss_pct = 0.0;  ///< over queries, at host nodes

  double TotalCost(double mu = core::kDefaultMu) const {
    return static_cast<double>(refreshes) +
           mu * static_cast<double>(recomputations);
  }
};

/// \brief Run the overlay: queries are placed round-robin on coordinators;
/// sources replay \p traces; refreshes relay down the tree respecting each
/// subtree's filter requirements. InvalidArgument on an empty query set,
/// a non-positive coordinator count or fanout, or delays that
/// DelayConfig::Validate rejects.
Result<RelayMetrics> RunRelayOverlay(
    const std::vector<PolynomialQuery>& queries,
    const workload::TraceSet& traces, const Vector& rates,
    const RelayConfig& config);

}  // namespace polydab::net

#endif  // POLYDAB_NET_RELAY_H_
