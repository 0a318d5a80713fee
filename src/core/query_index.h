#ifndef POLYDAB_CORE_QUERY_INDEX_H_
#define POLYDAB_CORE_QUERY_INDEX_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/query.h"

/// \file query_index.h
/// Coordinator-side evaluation machinery. A coordinator hosting hundreds
/// of polynomial queries re-evaluates, on every refresh, each query that
/// references the refreshed item (to decide user notifications and check
/// QABs). Doing that from scratch costs O(total terms); the structures
/// here make it O(terms containing the item). DynamicQueryIndex keeps the
/// EQI components (§IV) that partition the queries across lanes.

namespace polydab::core {

/// \brief Immutable inverted index: data item -> queries referencing it.
class QueryIndex {
 public:
  QueryIndex(const std::vector<PolynomialQuery>& queries, size_t num_items);

  /// Queries whose polynomial references \p item (indices into the
  /// original vector).
  const std::vector<int>& QueriesWithItem(VarId item) const {
    return item_queries_[static_cast<size_t>(item)];
  }

 private:
  std::vector<std::vector<int>> item_queries_;
};

/// \brief Maintains the value of every query under single-item updates.
///
/// On Update(item, v), only the terms that contain the item are
/// re-evaluated (against the current values of the other items), and the
/// affected query values are adjusted by the difference. Floating-point
/// drift from long delta chains is bounded by calling Rebase()
/// periodically (the evaluator does so automatically every
/// kAutoRebaseUpdates updates).
class IncrementalEvaluator {
 public:
  IncrementalEvaluator(std::vector<PolynomialQuery> queries,
                       Vector initial_values);

  /// Install a new value for \p item and patch affected query values.
  void Update(VarId item, double value);

  /// Append a query registered at runtime (service churn). The new query
  /// is evaluated once against the current item values; existing query
  /// values — and their accumulated delta-chain drift — are untouched, so
  /// a run that registers queries mid-stream stays bit-identical to one
  /// that never churns for all pre-existing queries. Departed queries are
  /// intentionally kept (their values are simply never read again):
  /// erasing them would renumber query indices held by callers.
  void AddQuery(const PolynomialQuery& query);

  /// Current value of query \p qi under all updates so far.
  double QueryValue(size_t qi) const { return query_values_[qi]; }

  /// Current item values as seen by the evaluator.
  const Vector& values() const { return values_; }

  /// Exactly recompute every query value from the current item values.
  void Rebase();

  size_t num_queries() const { return queries_.size(); }

  /// Updates processed between automatic exact recomputations.
  static constexpr int64_t kAutoRebaseUpdates = 1 << 16;

  /// Crash-recovery checkpoint support (src/recovery/): expose / reinstate
  /// the drift-carrying internals bit-exactly. A restored evaluator must
  /// be constructed with the same query vector (including dead slots —
  /// they are never erased) before RestoreState overwrites the values.
  int64_t updates_since_rebase() const { return updates_since_rebase_; }
  void RestoreState(Vector values, Vector query_values,
                    int64_t updates_since_rebase) {
    values_ = std::move(values);
    query_values_ = std::move(query_values);
    updates_since_rebase_ = updates_since_rebase;
  }

 private:
  std::vector<PolynomialQuery> queries_;
  QueryIndex index_;
  Vector values_;
  Vector query_values_;
  int64_t updates_since_rebase_ = 0;
};

/// \brief EQI components and the coordinator's lane partition
/// (docs/SERVICE.md).
///
/// The simulator derives its t = 0 lanes from this index and, under
/// runtime query churn, keeps it across every register and deregister:
/// the EQI component structure drives both the per-item min-DAB merges
/// and the component-hash lane assignment. Slots are append-only stable
/// indices (a departed query's slot stays allocated, marked dead), so
/// callers can keep slot-indexed side tables.
///
/// Construction derives the components of the initial queries from
/// scratch with one union-find. Churn then runs in one of two modes with
/// identical observable state:
///  * kIncremental — registration merges every component reachable
///    through a shared item (a relabel of component mins); departure
///    re-derives connectivity only inside the departed query's component.
///  * kRebuild — the checked fallback: every churn event re-runs the
///    construction's global union-find.
/// Components are labelled by their smallest live query id, a
/// content-determined property, so both modes agree bit-for-bit — the
/// churn differential test and the tracecheck plan_patch invariant both
/// hold them to that.
class DynamicQueryIndex {
 public:
  enum class Maintenance { kIncremental, kRebuild };

  /// Index \p queries (slot i holds queries[i], alive) over \p num_items
  /// items. Every referenced item must be below num_items.
  DynamicQueryIndex(const std::vector<PolynomialQuery>& queries,
                    size_t num_items, Maintenance mode);

  /// Register a query; its slot is the current num_slots().
  void AddQuery(int32_t query_id, const std::vector<VarId>& items);

  /// Deregister the query in \p slot (must be alive).
  void RemoveQuery(int slot);

  size_t num_slots() const { return slot_ids_.size(); }
  size_t num_active() const;
  size_t num_components() const;
  bool alive(int slot) const {
    return alive_[static_cast<size_t>(slot)] != 0;
  }
  int32_t query_id(int slot) const {
    return slot_ids_[static_cast<size_t>(slot)];
  }

  /// Smallest live query id in the slot's component; INT32_MAX for dead
  /// slots.
  int32_t ComponentMin(int slot) const {
    return comp_min_[static_cast<size_t>(slot)];
  }

  /// Per-slot lane in [0, num_shards) by a Mix64 hash (dead slots -1).
  /// \p by_component selects the EQI-aware policy, which hashes the
  /// component min so connected queries share a lane; otherwise the
  /// query id is hashed.
  std::vector<int> ShardAssignment(int num_shards, bool by_component) const;

 private:
  void RecomputeComponents();

  Maintenance mode_;
  std::vector<std::vector<int>> item_slots_;     ///< live slots per item
  std::vector<std::vector<VarId>> slot_items_;   ///< items per slot
  std::vector<int32_t> slot_ids_;                ///< query id per slot
  std::vector<uint8_t> alive_;
  std::vector<int32_t> comp_min_;
};

}  // namespace polydab::core

#endif  // POLYDAB_CORE_QUERY_INDEX_H_
