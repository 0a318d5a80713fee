#include "net/relay.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <queue>

#include "obs/json_util.h"
#include "obs/trace.h"

namespace polydab::net {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct Arrival {
  double time;
  int node;
  int item;
  double value;
  uint64_t trace_id = 0;  ///< the refresh_emitted id; 0 when tracing is off
  bool operator>(const Arrival& other) const { return time > other.time; }
};

struct HostedQuery {
  int query_index;          // into the caller's vector
  core::QueryPlan plan;
  std::vector<Vector> anchors;  // per part
};

struct Node {
  int parent = -1;
  std::vector<int> children;
  Vector view;
  std::vector<HostedQuery> hosted;
  std::vector<std::vector<int>> item_hosted;  // item -> hosted indices
  /// Filter requirement per item: min over own plans and children's reqs.
  Vector req;
  /// Per child: last value forwarded for each item.
  std::vector<Vector> last_fwd;
  /// Telemetry: refresh arrivals at this node / forwards per child edge.
  int64_t arrivals = 0;
  std::vector<int64_t> edge_forwards;
};

}  // namespace

Result<RelayMetrics> RunRelayOverlay(
    const std::vector<PolynomialQuery>& queries,
    const workload::TraceSet& traces, const Vector& rates,
    const RelayConfig& config) {
  if (queries.empty()) {
    return Status::InvalidArgument("no queries");
  }
  if (config.num_coordinators <= 0 || config.fanout < 1) {
    return Status::InvalidArgument("bad overlay shape");
  }
  POLYDAB_RETURN_NOT_OK(config.delays.Validate());
  const size_t n_items = traces.num_items();
  const int n_nodes = config.num_coordinators;

  Rng master(config.seed);
  sim::DelayModel delays(config.delays, master.Fork());
  RelayMetrics metrics;

  // Telemetry: propagate the registry into per-node planning/replanning.
  core::PlannerConfig planner_cfg = config.planner;
  if (planner_cfg.registry == nullptr) {
    planner_cfg.registry = config.registry;
  }
  obs::TraceSink* const trace = config.trace;
  if (planner_cfg.trace == nullptr) planner_cfg.trace = trace;
  if (trace != nullptr) {
    trace->SetNow(0.0);
    trace->SetInfo("origin", "relay");
    trace->SetInfo("method", core::Name(planner_cfg.method));
    trace->SetInfo("mu", obs::JsonNumber(planner_cfg.dual.mu));
  }

  // Build the complete tree in breadth-first order.
  std::vector<Node> nodes(static_cast<size_t>(n_nodes));
  for (int k = 1; k < n_nodes; ++k) {
    const int parent = (k - 1) / config.fanout;
    nodes[static_cast<size_t>(k)].parent = parent;
    nodes[static_cast<size_t>(parent)].children.push_back(k);
  }
  const Vector initial = traces.Snapshot(0);
  for (Node& node : nodes) {
    node.view = initial;
    node.req.assign(n_items, kInf);
    node.item_hosted.resize(n_items);
    node.last_fwd.assign(node.children.size(), initial);
    node.edge_forwards.assign(node.children.size(), 0);
  }

  // Place queries round-robin and plan them.
  std::vector<double> violated_time(queries.size(), 0.0);
  std::vector<int> host_of(queries.size());
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const int host = static_cast<int>(qi) % n_nodes;
    host_of[qi] = host;
    Node& node = nodes[static_cast<size_t>(host)];
    if (trace != nullptr) {
      planner_cfg.trace_node = host;
      obs::TraceQueryInfo info;
      info.query = queries[qi].id;
      info.node = host;
      info.qab = queries[qi].qab;
      for (VarId v : queries[qi].p.Variables()) {
        info.items.push_back(static_cast<int32_t>(v));
      }
      trace->AddQueryInfo(std::move(info));
    }
    auto plan = core::PlanQueryParts(queries[qi], node.view, rates,
                                     planner_cfg);
    if (!plan.ok()) {
      return Status::Internal("initial planning failed: " +
                              plan.status().ToString());
    }
    HostedQuery hq;
    hq.query_index = static_cast<int>(qi);
    hq.plan = std::move(plan).value();
    hq.anchors.resize(hq.plan.parts.size());
    for (size_t pi = 0; pi < hq.plan.parts.size(); ++pi) {
      const auto& vars = hq.plan.parts[pi].dabs.vars;
      hq.anchors[pi].resize(vars.size());
      for (size_t i = 0; i < vars.size(); ++i) {
        hq.anchors[pi][i] = node.view[static_cast<size_t>(vars[i])];
      }
    }
    const int hosted_index = static_cast<int>(node.hosted.size());
    for (VarId v : queries[qi].p.Variables()) {
      if (static_cast<size_t>(v) >= n_items) {
        return Status::InvalidArgument("query var beyond trace set");
      }
      node.item_hosted[static_cast<size_t>(v)].push_back(hosted_index);
    }
    node.hosted.push_back(std::move(hq));
  }

  // Depth of each node (root = 0); used to split coherency budgets.
  std::vector<int> depth(static_cast<size_t>(n_nodes), 0);
  for (int k = 1; k < n_nodes; ++k) {
    depth[static_cast<size_t>(k)] =
        depth[static_cast<size_t>(nodes[static_cast<size_t>(k)].parent)] + 1;
  }

  // Requirement of node n for an item: min over its own plan parts and its
  // children's requirements. Filter errors accumulate along the
  // source -> root -> ... -> host path (depth(n)+1 hops), so a host's
  // primary DAB is split equally across those hops — the
  // coherency-preserving discipline of [6]. Without the split, a depth-d
  // host could lag the source by d times its bound and silently violate
  // its QAB.
  auto own_min = [&](const Node& node, int item, int node_depth) {
    double m = kInf;
    for (int hi : node.item_hosted[static_cast<size_t>(item)]) {
      for (const core::PlanPart& part :
           node.hosted[static_cast<size_t>(hi)].plan.parts) {
        const int idx = part.dabs.IndexOf(static_cast<VarId>(item));
        if (idx >= 0) {
          m = std::min(m, part.dabs.primary[static_cast<size_t>(idx)] /
                              static_cast<double>(node_depth + 1));
        }
      }
    }
    return m;
  };
  auto refresh_req = [&](int n, int item) {
    Node& node = nodes[static_cast<size_t>(n)];
    double m = own_min(node, item, depth[static_cast<size_t>(n)]);
    for (int c : node.children) {
      m = std::min(m, nodes[static_cast<size_t>(c)].req[
                          static_cast<size_t>(item)]);
    }
    return m;
  };
  // Initialize requirements bottom-up (children have larger indices in
  // breadth-first order, so a reverse sweep sees children first).
  for (int n = n_nodes - 1; n >= 0; --n) {
    Node& node = nodes[static_cast<size_t>(n)];
    for (size_t item = 0; item < n_items; ++item) {
      node.req[item] = refresh_req(n, static_cast<int>(item));
    }
  }

  // Propagate a requirement change for one item from node n toward the
  // root. Each hop whose requirement actually changes costs one
  // DAB-change message (node -> parent, or root -> sources); on the
  // trace, each hop links back to the recompute_end that changed the
  // plan.
  auto propagate_req = [&](int n, int item, double now, uint64_t cause_id) {
    int cur = n;
    while (cur >= 0) {
      Node& node = nodes[static_cast<size_t>(cur)];
      const double fresh = refresh_req(cur, item);
      if (std::fabs(fresh - node.req[static_cast<size_t>(item)]) <=
          1e-9 * std::max(1.0, fresh)) {
        break;
      }
      if (trace != nullptr) {
        obs::TraceEvent e;
        e.time = now;
        e.kind = obs::TraceEventKind::kDabChangeSent;
        e.node = cur;
        e.item = item;
        e.cause = cause_id;
        e.a = fresh;
        e.b = node.req[static_cast<size_t>(item)];
        trace->Emit(e);
      }
      node.req[static_cast<size_t>(item)] = fresh;
      ++metrics.dab_change_messages;
      cur = node.parent;
    }
  };

  std::priority_queue<Arrival, std::vector<Arrival>, std::greater<Arrival>>
      events;
  Vector source_value = initial;
  Vector last_pushed = initial;

  const bool recompute_every_refresh =
      config.planner.method != core::AssignmentMethod::kDualDab;

  auto deliver_until = [&](double now) {
    while (!events.empty() && events.top().time <= now) {
      const Arrival ev = events.top();
      events.pop();
      Node& node = nodes[static_cast<size_t>(ev.node)];
      ++metrics.refreshes;
      ++node.arrivals;
      uint64_t arrival_id = 0;
      if (trace != nullptr) {
        trace->SetNow(ev.time);
        obs::TraceEvent e;
        e.time = ev.time;
        e.kind = obs::TraceEventKind::kRefreshArrived;
        e.node = ev.node;
        e.item = ev.item;
        e.cause = ev.trace_id;
        e.a = ev.value;
        arrival_id = trace->Emit(e);
      }
      node.view[static_cast<size_t>(ev.item)] = ev.value;

      // Local query maintenance, identical rules to sim/simulation.cc.
      for (int hi : node.item_hosted[static_cast<size_t>(ev.item)]) {
        HostedQuery& hq = node.hosted[static_cast<size_t>(hi)];
        const int query_id =
            queries[static_cast<size_t>(hq.query_index)].id;
        for (size_t pi = 0; pi < hq.plan.parts.size(); ++pi) {
          core::PlanPart& part = hq.plan.parts[pi];
          const int idx = part.dabs.IndexOf(static_cast<VarId>(ev.item));
          if (idx < 0) continue;
          // Value-independent assignments (LAQs) never go stale.
          if (part.dabs.never_stale) continue;
          uint64_t recompute_cause = arrival_id;
          if (!recompute_every_refresh) {
            const double anchor = hq.anchors[pi][static_cast<size_t>(idx)];
            const double drift = std::fabs(ev.value - anchor);
            if (drift <= part.dabs.secondary[static_cast<size_t>(idx)] *
                             (1.0 + 1e-9)) {
              continue;
            }
            if (trace != nullptr) {
              obs::TraceEvent e;
              e.time = ev.time;
              e.kind = obs::TraceEventKind::kSecondaryViolation;
              e.node = ev.node;
              e.item = ev.item;
              e.query = query_id;
              e.part = static_cast<int32_t>(pi);
              e.cause = arrival_id;
              e.a = ev.value;
              e.b = anchor;
              e.c = part.dabs.secondary[static_cast<size_t>(idx)];
              recompute_cause = trace->Emit(e);
            }
          }
          ++metrics.recomputations;
          uint64_t start_id = 0;
          if (trace != nullptr) {
            planner_cfg.trace_node = ev.node;
            obs::TraceEvent e;
            e.time = ev.time;
            e.kind = obs::TraceEventKind::kRecomputeStart;
            e.node = ev.node;
            e.item = ev.item;
            e.query = query_id;
            e.part = static_cast<int32_t>(pi);
            e.cause = recompute_cause;
            start_id = trace->Emit(e);
          }
          auto fresh = core::ReplanPart(part, node.view, rates,
                                        planner_cfg);
          uint64_t end_id = 0;
          if (trace != nullptr) {
            obs::TraceEvent e;
            e.time = ev.time;
            e.kind = obs::TraceEventKind::kRecomputeEnd;
            e.node = ev.node;
            e.item = ev.item;
            e.query = query_id;
            e.part = static_cast<int32_t>(pi);
            e.cause = start_id;
            e.flag = fresh.ok() ? 1 : 0;
            end_id = trace->Emit(e);
          }
          if (!fresh.ok()) {
            ++metrics.solver_failures;
            continue;
          }
          part.dabs = std::move(fresh).value();
          hq.anchors[pi].resize(part.dabs.vars.size());
          for (size_t i = 0; i < part.dabs.vars.size(); ++i) {
            hq.anchors[pi][i] =
                node.view[static_cast<size_t>(part.dabs.vars[i])];
          }
          for (VarId v : part.dabs.vars) {
            propagate_req(ev.node, static_cast<int>(v), ev.time, end_id);
          }
        }
      }

      // Coherency-preserving forwarding: each child receives the change
      // only if it escapes the child's subtree requirement.
      for (size_t ci = 0; ci < node.children.size(); ++ci) {
        const int child = node.children[ci];
        const double need = nodes[static_cast<size_t>(child)].req[
                                static_cast<size_t>(ev.item)];
        if (std::isinf(need)) continue;
        if (std::fabs(ev.value - node.last_fwd[ci][
                                     static_cast<size_t>(ev.item)]) > need) {
          uint64_t fwd_id = 0;
          if (trace != nullptr) {
            obs::TraceEvent e;
            e.time = ev.time;
            e.kind = obs::TraceEventKind::kRefreshEmitted;
            e.node = child;       // receiving coordinator
            e.source = ev.node;   // forwarding parent
            e.item = ev.item;
            e.a = ev.value;
            e.b = need;
            e.c = node.last_fwd[ci][static_cast<size_t>(ev.item)];
            fwd_id = trace->Emit(e);
          }
          node.last_fwd[ci][static_cast<size_t>(ev.item)] = ev.value;
          ++node.edge_forwards[ci];
          events.push(Arrival{ev.time + delays.Network(), child, ev.item,
                              ev.value, fwd_id});
        }
      }
    }
  };

  for (int tick = 1; tick < traces.num_ticks; ++tick) {
    const double now = static_cast<double>(tick);
    deliver_until(now);

    // Sources feed the root through its aggregate requirement.
    for (size_t item = 0; item < n_items; ++item) {
      source_value[item] = traces.ValueAt(item, tick);
      const double need = nodes[0].req[item];
      if (std::isinf(need)) continue;
      if (std::fabs(source_value[item] - last_pushed[item]) > need) {
        uint64_t emit_id = 0;
        if (trace != nullptr) {
          trace->SetNow(now);
          obs::TraceEvent e;
          e.time = now;
          e.kind = obs::TraceEventKind::kRefreshEmitted;
          e.node = 0;     // the root receives source pushes
          e.source = -1;  // the data sources themselves
          e.item = static_cast<int32_t>(item);
          e.a = source_value[item];
          e.b = need;
          e.c = last_pushed[item];
          emit_id = trace->Emit(e);
        }
        last_pushed[item] = source_value[item];
        events.push(Arrival{now + delays.Push() + delays.Network(), 0,
                            static_cast<int>(item), source_value[item],
                            emit_id});
      }
    }
    deliver_until(now);  // zero-delay semantics, as in sim/simulation.cc

    for (size_t qi = 0; qi < queries.size(); ++qi) {
      const Node& host = nodes[static_cast<size_t>(host_of[qi])];
      const double at_host = queries[qi].p.Evaluate(host.view);
      const double truth = queries[qi].p.Evaluate(source_value);
      if (std::fabs(truth - at_host) > queries[qi].qab * (1.0 + 1e-9)) {
        violated_time[qi] += 1.0;
        if (trace != nullptr) {
          obs::TraceEvent e;
          e.time = now;
          e.kind = obs::TraceEventKind::kFidelityViolation;
          e.node = host_of[qi];
          e.query = queries[qi].id;
          e.a = truth;
          e.b = at_host;
          e.c = queries[qi].qab;
          trace->Emit(e);
        }
      }
    }
  }

  double loss = 0.0;
  for (double v : violated_time) {
    loss += 100.0 * v / static_cast<double>(traces.num_ticks - 1);
  }
  metrics.mean_fidelity_loss_pct =
      loss / static_cast<double>(queries.size());

  if (trace != nullptr) {
    // One overlay-wide summary (node -1): the replay verifier aggregates
    // every node's events against it. The overlay samples fidelity every
    // tick with the hardcoded 1e-9 relative slack used above.
    obs::TraceRunSummary s;
    s.node = -1;
    s.queries = static_cast<int64_t>(queries.size());
    s.ticks = traces.num_ticks;
    s.fidelity_stride = 1;
    s.violation_tol = 1e-9;
    s.refreshes = metrics.refreshes;
    s.recomputations = metrics.recomputations;
    s.dab_change_messages = metrics.dab_change_messages;
    s.user_notifications = 0;  // the overlay does not model user pushes
    s.solver_failures = metrics.solver_failures;
    s.mean_fidelity_loss_pct = metrics.mean_fidelity_loss_pct;
    POLYDAB_RETURN_NOT_OK(trace->AddRunSummary(s));
  }

  if (config.registry != nullptr) {
    obs::MetricRegistry& reg = *config.registry;
    reg.GetCounter("net.relay.refreshes")->Add(metrics.refreshes);
    reg.GetCounter("net.relay.recomputations")->Add(metrics.recomputations);
    reg.GetCounter("net.relay.dab_change_messages")
        ->Add(metrics.dab_change_messages);
    reg.GetCounter("net.relay.solver_failures")->Add(metrics.solver_failures);
    reg.GetGauge("net.relay.nodes")->Set(static_cast<double>(n_nodes));
    reg.GetGauge("net.relay.fidelity.mean_loss_pct")
        ->Set(metrics.mean_fidelity_loss_pct);
    // Per-node / per-edge traffic distributions: one sample per node
    // (refresh arrivals) and one per tree edge (forwards to that child),
    // so the report shows how evenly the overlay spreads load.
    obs::Histogram* node_hist = reg.GetHistogram("net.relay.node_arrivals");
    obs::Histogram* edge_hist = reg.GetHistogram("net.relay.edge_forwards");
    for (const Node& node : nodes) {
      node_hist->Record(static_cast<double>(node.arrivals));
      for (int64_t fwd : node.edge_forwards) {
        edge_hist->Record(static_cast<double>(fwd));
      }
    }
  }
  return metrics;
}

}  // namespace polydab::net
