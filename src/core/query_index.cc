#include "core/query_index.h"

#include <algorithm>

#include "common/hash.h"
#include "common/logging.h"

namespace polydab::core {

IncrementalEvaluator::IncrementalEvaluator(
    const std::vector<PolynomialQuery>& queries, const DynamicQueryIndex& live,
    Vector initial_values)
    : queries_(queries),
      live_(live),
      values_(std::move(initial_values)),
      query_values_(live.num_slots(), 0.0) {
  POLYDAB_CHECK(queries_.size() == live_.num_slots());
  POLYDAB_CHECK(values_.size() == live_.num_items());
  Rebase();
}

void IncrementalEvaluator::Update(VarId item, double value) {
  POLYDAB_CHECK(static_cast<size_t>(item) < values_.size());
  const double old_value = values_[static_cast<size_t>(item)];
  if (old_value == value) return;
  // Patch each live reader by the change in the terms containing the
  // item: evaluate those terms at the new value minus at the old value
  // (all other items unchanged).
  for (int qi : live_.LiveSlots(item)) {
    double delta = 0.0;
    for (const Monomial& t : queries_[static_cast<size_t>(qi)].p.terms()) {
      const int e = t.ExponentOf(item);
      if (e == 0) continue;
      // term(new)/term(old) differ only in the item's power.
      double rest = t.coef();
      for (const auto& [var, exp] : t.powers()) {
        if (var == item) continue;
        double p = 1.0;
        for (int k = 0; k < exp; ++k) p *= values_[static_cast<size_t>(var)];
        rest *= p;
      }
      double old_pow = 1.0, new_pow = 1.0;
      for (int k = 0; k < e; ++k) {
        old_pow *= old_value;
        new_pow *= value;
      }
      delta += rest * (new_pow - old_pow);
    }
    query_values_[static_cast<size_t>(qi)] += delta;
  }
  values_[static_cast<size_t>(item)] = value;
  if (++updates_since_rebase_ >= kAutoRebaseUpdates) Rebase();
}

void IncrementalEvaluator::Rebase() {
  for (size_t qi = 0; qi < query_values_.size(); ++qi) {
    if (!live_.alive(static_cast<int>(qi))) continue;
    query_values_[qi] = queries_[qi].p.Evaluate(values_);
  }
  updates_since_rebase_ = 0;
}

void IncrementalEvaluator::AddQuery() {
  const size_t slot = query_values_.size();
  POLYDAB_CHECK(slot + 1 == live_.num_slots());
  // Only the new query needs evaluating; rebasing here would silently
  // reset the accumulated drift of the existing delta chains, changing
  // every later QueryValue bit pattern relative to a run where the query
  // was present from the start of the chain.
  query_values_.push_back(queries_[slot].p.Evaluate(values_));
}

DynamicQueryIndex::DynamicQueryIndex(
    const std::vector<PolynomialQuery>& queries, size_t num_items,
    Maintenance mode, const std::vector<uint8_t>& alive)
    : mode_(mode),
      item_slots_(num_items),
      alive_(alive.empty() ? std::vector<uint8_t>(queries.size(), 1) : alive),
      comp_min_(queries.size()) {
  POLYDAB_CHECK(alive_.size() == queries.size());
  slot_ids_.reserve(queries.size());
  slot_items_.reserve(queries.size());
  for (const PolynomialQuery& q : queries) {
    const int slot = static_cast<int>(slot_ids_.size());
    slot_ids_.push_back(q.id);
    slot_items_.push_back(q.p.Variables());
    if (!alive_[static_cast<size_t>(slot)]) continue;
    POLYDAB_CHECK(live_slot_.emplace(q.id, slot).second);
    for (VarId v : slot_items_.back()) {
      POLYDAB_CHECK(static_cast<size_t>(v) < num_items);
      item_slots_[static_cast<size_t>(v)].push_back(slot);
    }
  }
  RecomputeComponents();
}

void DynamicQueryIndex::AddQuery(int32_t query_id,
                                 const std::vector<VarId>& items) {
  const int slot = static_cast<int>(slot_ids_.size());
  POLYDAB_CHECK(live_slot_.emplace(query_id, slot).second);
  slot_ids_.push_back(query_id);
  slot_items_.push_back(items);
  alive_.push_back(1);
  comp_min_.push_back(query_id);
  if (mode_ == Maintenance::kRebuild) {
    for (VarId v : items) {
      POLYDAB_CHECK(static_cast<size_t>(v) < item_slots_.size());
      item_slots_[static_cast<size_t>(v)].push_back(slot);
    }
    RecomputeComponents();
    return;
  }
  // Incremental merge: every EQI component touched through a shared item
  // collapses into one, labelled by the smallest live query id. Components
  // are identified by their current min (unique per component), so the
  // merge is a relabel of the affected mins.
  int32_t merged_min = query_id;
  std::vector<int32_t> touched;
  for (VarId v : items) {
    POLYDAB_CHECK(static_cast<size_t>(v) < item_slots_.size());
    for (int other : item_slots_[static_cast<size_t>(v)]) {
      const int32_t m = comp_min_[static_cast<size_t>(other)];
      if (std::find(touched.begin(), touched.end(), m) == touched.end()) {
        touched.push_back(m);
        if (m < merged_min) merged_min = m;
      }
    }
  }
  if (!touched.empty()) {
    for (size_t s = 0; s < comp_min_.size(); ++s) {
      if (!alive_[s]) continue;
      if (std::find(touched.begin(), touched.end(), comp_min_[s]) !=
          touched.end()) {
        comp_min_[s] = merged_min;
      }
    }
  }
  comp_min_[static_cast<size_t>(slot)] = merged_min;
  for (VarId v : items) {
    item_slots_[static_cast<size_t>(v)].push_back(slot);
  }
}

void DynamicQueryIndex::RemoveQuery(int slot) {
  POLYDAB_CHECK(static_cast<size_t>(slot) < slot_ids_.size());
  POLYDAB_CHECK(alive_[static_cast<size_t>(slot)]);
  const int32_t old_min = comp_min_[static_cast<size_t>(slot)];
  alive_[static_cast<size_t>(slot)] = 0;
  live_slot_.erase(slot_ids_[static_cast<size_t>(slot)]);
  comp_min_[static_cast<size_t>(slot)] = INT32_MAX;
  for (VarId v : slot_items_[static_cast<size_t>(slot)]) {
    auto& qs = item_slots_[static_cast<size_t>(v)];
    qs.erase(std::remove(qs.begin(), qs.end(), slot), qs.end());
  }
  if (mode_ == Maintenance::kRebuild) {
    RecomputeComponents();
    return;
  }
  // Incremental split: only the departed query's component can fall
  // apart. Re-derive connectivity among its remaining members (every
  // slot sharing an item with a member is itself a member, so the walk
  // never leaves the old component).
  std::vector<char> visited(slot_ids_.size(), 0);
  std::vector<int> frontier;
  for (size_t s = 0; s < slot_ids_.size(); ++s) {
    if (!alive_[s] || comp_min_[s] != old_min || visited[s]) continue;
    frontier.assign(1, static_cast<int>(s));
    visited[s] = 1;
    int32_t new_min = slot_ids_[s];
    std::vector<int> members;
    while (!frontier.empty()) {
      const int cur = frontier.back();
      frontier.pop_back();
      members.push_back(cur);
      if (slot_ids_[static_cast<size_t>(cur)] < new_min) {
        new_min = slot_ids_[static_cast<size_t>(cur)];
      }
      for (VarId v : slot_items_[static_cast<size_t>(cur)]) {
        for (int other : item_slots_[static_cast<size_t>(v)]) {
          if (visited[static_cast<size_t>(other)]) continue;
          visited[static_cast<size_t>(other)] = 1;
          frontier.push_back(other);
        }
      }
    }
    for (int m : members) comp_min_[static_cast<size_t>(m)] = new_min;
  }
}

void DynamicQueryIndex::RecomputeComponents() {
  // From-scratch union-find over live slots (dead slots are in no item
  // list): the construction's derivation, and kRebuild's exact oracle for
  // incremental maintenance. Each item's slot list is one clique.
  std::vector<int> parent(slot_ids_.size());
  for (size_t s = 0; s < parent.size(); ++s) parent[s] = static_cast<int>(s);
  auto find = [&parent](int x) {
    while (parent[static_cast<size_t>(x)] != x) {
      parent[static_cast<size_t>(x)] =
          parent[static_cast<size_t>(parent[static_cast<size_t>(x)])];
      x = parent[static_cast<size_t>(x)];
    }
    return x;
  };
  for (const auto& qs : item_slots_) {
    for (size_t i = 1; i < qs.size(); ++i) {
      const int a = find(qs[0]);
      const int b = find(qs[i]);
      if (a != b) parent[static_cast<size_t>(b)] = a;
    }
  }
  std::vector<int32_t> min_id(slot_ids_.size(), INT32_MAX);
  for (size_t s = 0; s < slot_ids_.size(); ++s) {
    if (!alive_[s]) continue;
    const size_t root = static_cast<size_t>(find(static_cast<int>(s)));
    if (slot_ids_[s] < min_id[root]) min_id[root] = slot_ids_[s];
  }
  for (size_t s = 0; s < slot_ids_.size(); ++s) {
    comp_min_[s] = alive_[s]
                       ? min_id[static_cast<size_t>(find(static_cast<int>(s)))]
                       : INT32_MAX;
  }
}

size_t DynamicQueryIndex::num_components() const {
  // Each component's min is the id of exactly one live member, so
  // counting self-labelled slots counts components.
  size_t n = 0;
  for (size_t s = 0; s < slot_ids_.size(); ++s) {
    if (alive_[s] && comp_min_[s] == slot_ids_[s]) ++n;
  }
  return n;
}

std::vector<int> DynamicQueryIndex::ShardAssignment(int num_shards,
                                                    bool by_component) const {
  POLYDAB_CHECK(num_shards >= 1);
  std::vector<int> shard(slot_ids_.size(), -1);
  for (size_t s = 0; s < slot_ids_.size(); ++s) {
    if (!alive_[s]) continue;
    const int32_t key = by_component ? comp_min_[s] : slot_ids_[s];
    shard[s] = static_cast<int>(
        Mix64(static_cast<uint64_t>(static_cast<int64_t>(key))) %
        static_cast<uint64_t>(num_shards));
  }
  return shard;
}

}  // namespace polydab::core
