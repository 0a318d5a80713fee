#ifndef POLYDAB_CORE_QUERY_INDEX_H_
#define POLYDAB_CORE_QUERY_INDEX_H_

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/query.h"

/// \file query_index.h
/// The coordinator's live-query table and the evaluation built on it.
/// DynamicQueryIndex is the one record of which queries are live and
/// which live queries read each item: the engine's refresh walks, its
/// EQI merge (§IV) and lane partition, and the incremental evaluator all
/// read it, and a checkpoint restart rebuilds it from the query records
/// instead of loading a copy. Re-evaluating a query from scratch on every
/// refresh costs O(total terms); IncrementalEvaluator makes it
/// O(terms containing the refreshed item) for the live readers only.

namespace polydab::core {

/// \brief Live query membership, EQI components and the coordinator's
/// lane partition (docs/SERVICE.md).
///
/// Slots are append-only stable indices: a departed query's slot stays
/// allocated, marked dead, so callers keep slot-indexed side tables (the
/// engine's query vector, plans and per-slot state). Each item lists the
/// live slots that read it in ascending slot order, and each live query
/// id maps to its slot.
///
/// Construction derives the components of the initial queries from
/// scratch with one union-find. Churn then runs in one of two modes with
/// identical observable state:
///  * kIncremental — registration merges every component reachable
///    through a shared item (a relabel of component mins); departure
///    re-derives connectivity only inside the departed query's component.
///  * kRebuild — the checked fallback: every churn event re-runs the
///    construction's global union-find.
/// Both modes keep the item lists and the id lookup the same way.
/// Components are labelled by their smallest live query id, a
/// content-determined property, so both modes agree bit-for-bit — the
/// churn differential test and the tracecheck plan_patch invariant both
/// hold them to that.
class DynamicQueryIndex {
 public:
  enum class Maintenance { kIncremental, kRebuild };

  /// Index \p queries (slot i holds queries[i]) over \p num_items items.
  /// \p alive marks each slot live (1) or departed (0); empty means all
  /// live. Every referenced item must be below num_items, and no two live
  /// slots may share an id.
  DynamicQueryIndex(const std::vector<PolynomialQuery>& queries,
                    size_t num_items, Maintenance mode,
                    const std::vector<uint8_t>& alive = {});

  /// Register a query under an id no live slot holds; its slot is the
  /// current num_slots().
  void AddQuery(int32_t query_id, const std::vector<VarId>& items);

  /// Deregister the query in \p slot (must be alive).
  void RemoveQuery(int slot);

  size_t num_slots() const { return slot_ids_.size(); }
  size_t num_items() const { return item_slots_.size(); }
  size_t num_active() const { return live_slot_.size(); }
  size_t num_components() const;
  bool alive(int slot) const {
    return alive_[static_cast<size_t>(slot)] != 0;
  }
  int32_t query_id(int slot) const {
    return slot_ids_[static_cast<size_t>(slot)];
  }

  /// Live slots whose query reads \p item, ascending.
  const std::vector<int>& LiveSlots(VarId item) const {
    return item_slots_[static_cast<size_t>(item)];
  }

  /// The slot of the live query \p query_id, or -1.
  int FindLive(int32_t query_id) const {
    const auto it = live_slot_.find(query_id);
    return it == live_slot_.end() ? -1 : it->second;
  }

  /// Every live query: id -> slot, unordered.
  const std::unordered_map<int32_t, int>& LiveById() const {
    return live_slot_;
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
  std::unordered_map<int32_t, int> live_slot_;   ///< live id -> slot
  std::vector<int32_t> comp_min_;
};

/// \brief Maintains the value of every live query under single-item
/// updates.
///
/// The evaluator owns only values: the item values and one query value
/// per slot. The polynomials are the caller's (slot s of the index holds
/// queries[s]) and membership is the index's; both must outlive the
/// evaluator. On Update(item, v), only the terms that contain the item
/// are re-evaluated (against the current values of the other items), and
/// the values of the item's live readers are adjusted by the difference.
/// A departed query is neither patched nor rebased, so its value stays
/// the one it had when it left. Each live value's delta chain depends
/// only on its own terms and the item stream, never on which other
/// queries are registered. Floating-point drift from long delta chains is
/// bounded by calling Rebase() periodically (the evaluator does so
/// automatically every kAutoRebaseUpdates updates).
class IncrementalEvaluator {
 public:
  IncrementalEvaluator(const std::vector<PolynomialQuery>& queries,
                       const DynamicQueryIndex& live, Vector initial_values);

  /// Install a new value for \p item and patch its live readers.
  void Update(VarId item, double value);

  /// Evaluate the slot the index just appended at runtime (service churn)
  /// once against the current item values. Existing query values — and
  /// their accumulated delta-chain drift — are untouched, so a run that
  /// registers queries mid-stream stays bit-identical to one that never
  /// churns for all pre-existing queries.
  void AddQuery();

  /// Current value of the query in slot \p qi.
  double QueryValue(size_t qi) const { return query_values_[qi]; }

  /// Exactly recompute every live query value from the current item
  /// values.
  void Rebase();

  /// Updates processed between automatic exact recomputations.
  static constexpr int64_t kAutoRebaseUpdates = 1 << 16;

  /// Crash-recovery checkpoint support (src/recovery/): expose / reinstate
  /// the drift-carrying internals bit-exactly, one query value per slot.
  int64_t updates_since_rebase() const { return updates_since_rebase_; }
  void RestoreState(Vector values, Vector query_values,
                    int64_t updates_since_rebase) {
    values_ = std::move(values);
    query_values_ = std::move(query_values);
    updates_since_rebase_ = updates_since_rebase;
  }

 private:
  const std::vector<PolynomialQuery>& queries_;
  const DynamicQueryIndex& live_;
  Vector values_;
  Vector query_values_;
  int64_t updates_since_rebase_ = 0;
};

}  // namespace polydab::core

#endif  // POLYDAB_CORE_QUERY_INDEX_H_
