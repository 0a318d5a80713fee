#include <algorithm>
#include <bit>
#include <climits>
#include <memory>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "common/rng.h"
#include "core/query_index.h"

namespace polydab::core {
namespace {

class QueryIndexTest : public ::testing::Test {
 protected:
  VariableRegistry reg_;
  VarId x_ = reg_.Intern("x");
  VarId y_ = reg_.Intern("y");
  VarId z_ = reg_.Intern("z");

  PolynomialQuery Q(int id, const std::string& s, double qab = 1.0) {
    auto r = Polynomial::Parse(s, &reg_);
    EXPECT_TRUE(r.ok());
    return PolynomialQuery{id, *r, qab};
  }
};

/// An evaluator over \p queries, all live, with the index it reads.
struct LiveEval {
  LiveEval(std::vector<PolynomialQuery> qs, Vector values)
      : queries(std::move(qs)),
        index(queries, values.size(),
              DynamicQueryIndex::Maintenance::kIncremental),
        eval(queries, index, std::move(values)) {}
  std::vector<PolynomialQuery> queries;
  DynamicQueryIndex index;
  IncrementalEvaluator eval;
};

TEST_F(QueryIndexTest, EvaluatorTracksSingleUpdate) {
  LiveEval live({Q(0, "2*x*y + y^2")}, {3.0, 4.0, 0.0});
  IncrementalEvaluator& eval = live.eval;
  EXPECT_DOUBLE_EQ(eval.QueryValue(0), 2 * 3 * 4 + 16);
  eval.Update(x_, 5.0);
  EXPECT_DOUBLE_EQ(eval.QueryValue(0), 2 * 5 * 4 + 16);
  eval.Update(y_, 2.0);
  EXPECT_DOUBLE_EQ(eval.QueryValue(0), 2 * 5 * 2 + 4);
}

TEST_F(QueryIndexTest, EvaluatorHandlesHigherPowers) {
  LiveEval live({Q(0, "x^3*y")}, {2.0, 5.0, 0.0});
  IncrementalEvaluator& eval = live.eval;
  EXPECT_DOUBLE_EQ(eval.QueryValue(0), 8 * 5);
  eval.Update(x_, 3.0);
  EXPECT_DOUBLE_EQ(eval.QueryValue(0), 27 * 5);
}

TEST_F(QueryIndexTest, NoOpUpdateLeavesValue) {
  LiveEval live({Q(0, "x*y")}, {3.0, 4.0, 0.0});
  IncrementalEvaluator& eval = live.eval;
  eval.Update(x_, 3.0);
  EXPECT_DOUBLE_EQ(eval.QueryValue(0), 12.0);
}

TEST_F(QueryIndexTest, UpdateOnlyTouchesAffectedQueries) {
  LiveEval live({Q(0, "x*y"), Q(1, "y*z")}, {1.0, 2.0, 3.0});
  IncrementalEvaluator& eval = live.eval;
  eval.Update(x_, 10.0);
  EXPECT_DOUBLE_EQ(eval.QueryValue(0), 20.0);
  EXPECT_DOUBLE_EQ(eval.QueryValue(1), 6.0);  // untouched
}

TEST_F(QueryIndexTest, RebaseRestoresExactness) {
  LiveEval live({Q(0, "x*y + x^2")}, {1.0, 1.0, 0.0});
  IncrementalEvaluator& eval = live.eval;
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    eval.Update(i % 2 == 0 ? x_ : y_, rng.Uniform(0.5, 100.0));
  }
  const double incremental = eval.QueryValue(0);
  eval.Rebase();
  EXPECT_NEAR(eval.QueryValue(0), incremental,
              1e-9 * std::abs(incremental));
}

// Property: a long random update stream gives the same values as full
// evaluation, across random query sets.
class EvaluatorProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EvaluatorProperty, MatchesFullEvaluation) {
  Rng rng(GetParam());
  VariableRegistry reg;
  const int n = 8;
  std::vector<VarId> ids;
  for (int i = 0; i < n; ++i) ids.push_back(reg.Intern("v" + std::to_string(i)));

  std::vector<PolynomialQuery> queries;
  for (int qi = 0; qi < 6; ++qi) {
    std::vector<Monomial> terms;
    const int t = 1 + static_cast<int>(rng.UniformInt(0, 3));
    for (int j = 0; j < t; ++j) {
      std::vector<std::pair<VarId, int>> powers;
      const int f = 1 + static_cast<int>(rng.UniformInt(0, 2));
      for (int k = 0; k < f; ++k) {
        powers.emplace_back(
            ids[static_cast<size_t>(rng.UniformInt(0, n - 1))],
            1 + static_cast<int>(rng.UniformInt(0, 2)));
      }
      terms.emplace_back(rng.Uniform(-10.0, 10.0), std::move(powers));
    }
    Polynomial p(std::move(terms));
    if (p.IsZero()) continue;
    queries.push_back({qi, p, 1.0});
  }
  if (queries.empty()) return;

  Vector values(reg.size());
  for (double& v : values) v = rng.Uniform(1.0, 20.0);
  LiveEval live(queries, values);
  IncrementalEvaluator& eval = live.eval;

  for (int step = 0; step < 300; ++step) {
    const VarId item = ids[static_cast<size_t>(rng.UniformInt(0, n - 1))];
    const double v = rng.Uniform(1.0, 20.0);
    values[static_cast<size_t>(item)] = v;
    eval.Update(item, v);
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      const double exact = queries[qi].p.Evaluate(values);
      EXPECT_NEAR(eval.QueryValue(qi), exact,
                  1e-7 * std::max(1.0, std::abs(exact)));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EvaluatorProperty,
                         ::testing::Range<uint64_t>(1, 9));

// DynamicQueryIndex under seeded register/deregister sequences, held
// after every op to a test-local model: pairwise item sharing merged by a
// union-find, components labelled by their smallest live query id, lanes
// from one Mix64 round of the label (or of the id), each item's live
// readers by a scan of the slots and each live id's slot by a linear
// search.

/// The index reads only a query's item set.
PolynomialQuery ItemQuery(int32_t id, const std::vector<VarId>& items) {
  std::vector<std::pair<VarId, int>> powers;
  for (VarId v : items) powers.emplace_back(v, 1);
  return {id, Polynomial({Monomial(1.0, std::move(powers))}), 1.0};
}

struct RefSlot {
  int32_t id;
  std::vector<VarId> items;
  bool alive;
};

std::vector<int32_t> RefComponentMin(const std::vector<RefSlot>& slots) {
  std::vector<size_t> parent(slots.size());
  for (size_t s = 0; s < slots.size(); ++s) parent[s] = s;
  auto find = [&parent](size_t x) {
    while (parent[x] != x) x = parent[x];
    return x;
  };
  for (size_t a = 0; a < slots.size(); ++a) {
    for (size_t b = a + 1; b < slots.size(); ++b) {
      if (!slots[a].alive || !slots[b].alive) continue;
      const bool share = std::any_of(
          slots[a].items.begin(), slots[a].items.end(), [&](VarId v) {
            return std::find(slots[b].items.begin(), slots[b].items.end(),
                             v) != slots[b].items.end();
          });
      if (share) parent[find(b)] = find(a);
    }
  }
  std::vector<int32_t> root_min(slots.size(), INT32_MAX);
  for (size_t s = 0; s < slots.size(); ++s) {
    if (slots[s].alive) {
      root_min[find(s)] = std::min(root_min[find(s)], slots[s].id);
    }
  }
  std::vector<int32_t> comp_min(slots.size(), INT32_MAX);
  for (size_t s = 0; s < slots.size(); ++s) {
    if (slots[s].alive) comp_min[s] = root_min[find(s)];
  }
  return comp_min;
}

std::vector<int> RefLanes(const std::vector<RefSlot>& slots, int num_shards,
                          bool by_component) {
  const std::vector<int32_t> comp_min = RefComponentMin(slots);
  std::vector<int> lanes(slots.size(), -1);
  for (size_t s = 0; s < slots.size(); ++s) {
    if (!slots[s].alive) continue;
    const int32_t key = by_component ? comp_min[s] : slots[s].id;
    lanes[s] = static_cast<int>(
        Mix64(static_cast<uint64_t>(static_cast<int64_t>(key))) %
        static_cast<uint64_t>(num_shards));
  }
  return lanes;
}

constexpr int32_t kMaxId = 200;  // FreeId draws ids below this

/// Every observable of \p index against the reference model.
void ExpectMatchesReference(const DynamicQueryIndex& index,
                            const std::vector<RefSlot>& slots) {
  ASSERT_EQ(index.num_slots(), slots.size());
  const std::vector<int32_t> comp_min = RefComponentMin(slots);
  size_t active = 0, components = 0;
  for (size_t s = 0; s < slots.size(); ++s) {
    const int slot = static_cast<int>(s);
    EXPECT_EQ(index.alive(slot), slots[s].alive) << "slot " << s;
    EXPECT_EQ(index.query_id(slot), slots[s].id) << "slot " << s;
    EXPECT_EQ(index.ComponentMin(slot), comp_min[s]) << "slot " << s;
    if (slots[s].alive) {
      ++active;
      if (comp_min[s] == slots[s].id) ++components;
    }
  }
  EXPECT_EQ(index.num_active(), active);
  EXPECT_EQ(index.num_components(), components);
  for (size_t v = 0; v < index.num_items(); ++v) {
    std::vector<int> readers;  // from scratch, ascending
    for (size_t s = 0; s < slots.size(); ++s) {
      const std::vector<VarId>& items = slots[s].items;
      if (slots[s].alive &&
          std::find(items.begin(), items.end(), static_cast<VarId>(v)) !=
              items.end()) {
        readers.push_back(static_cast<int>(s));
      }
    }
    EXPECT_EQ(index.LiveSlots(static_cast<VarId>(v)), readers)
        << "item " << v;
  }
  for (int32_t id = 0; id < kMaxId; ++id) {
    int slot = -1;
    for (size_t s = 0; s < slots.size() && slot < 0; ++s) {
      if (slots[s].alive && slots[s].id == id) slot = static_cast<int>(s);
    }
    EXPECT_EQ(index.FindLive(id), slot) << "id " << id;
  }
  for (int shards : {1, 3, 4}) {
    for (bool by_component : {true, false}) {
      EXPECT_EQ(index.ShardAssignment(shards, by_component),
                RefLanes(slots, shards, by_component))
          << shards << " shards, by_component=" << by_component;
    }
  }
}

constexpr size_t kChurnItems = 12;

/// 1-3 items, drawn with replacement from a small universe so queries
/// share items and components merge and split.
std::vector<VarId> RandomItems(Rng& rng) {
  std::vector<VarId> items;
  const int n = 1 + static_cast<int>(rng.UniformInt(0, 2));
  for (int k = 0; k < n; ++k) {
    const VarId v = static_cast<VarId>(
        rng.UniformInt(0, static_cast<int64_t>(kChurnItems) - 1));
    if (std::find(items.begin(), items.end(), v) == items.end()) {
      items.push_back(v);
    }
  }
  std::sort(items.begin(), items.end());
  return items;
}

/// An id that no live slot holds; dead slots' ids may come back, as a
/// deregistered query's id can be registered again.
int32_t FreeId(Rng& rng, const std::vector<RefSlot>& slots) {
  for (;;) {
    const int32_t id = static_cast<int32_t>(rng.UniformInt(0, kMaxId - 1));
    if (std::none_of(slots.begin(), slots.end(), [id](const RefSlot& s) {
          return s.alive && s.id == id;
        })) {
      return id;
    }
  }
}

/// A query whose Variables() are exactly \p items: one term over all of
/// them with powers 1-2, plus, over two or more items, a linear term in
/// the first, with seeded nonzero coefficients.
PolynomialQuery RandomQuery(Rng& rng, int32_t id,
                            const std::vector<VarId>& items) {
  auto coef = [&rng] {
    const double c = rng.Uniform(0.5, 3.0);
    return rng.Uniform(0.0, 1.0) < 0.5 ? -c : c;
  };
  std::vector<std::pair<VarId, int>> powers;
  for (VarId v : items) {
    powers.emplace_back(v, 1 + static_cast<int>(rng.UniformInt(0, 1)));
  }
  std::vector<Monomial> terms;
  terms.emplace_back(coef(), std::move(powers));
  if (items.size() > 1) {
    terms.emplace_back(coef(), std::vector<std::pair<VarId, int>>{
                                   {items.front(), 1}});
  }
  return {id, Polynomial(std::move(terms)), 1.0};
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

TEST(DynamicQueryIndexTest, BothMaintenanceModesMatchTheReferenceUnderChurn) {
  // Each index also drives an evaluator over the same slots. Item updates,
  // QAB modifies and one exact rebase are interleaved with the membership
  // ops (drawn from a second stream, so the op sequence is the index-only
  // one). After every step each live value must be bit-equal to that of
  // an evaluator holding only its query since the query joined — no value
  // depends on another query — and a departed query's value must stay the
  // one it left with.
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    Rng value_rng(seed + 1000);
    std::vector<RefSlot> slots;
    std::vector<PolynomialQuery> queries;  // slot s holds queries[s]
    Vector values(kChurnItems);
    for (double& v : values) v = value_rng.Uniform(0.5, 2.0);
    std::vector<std::unique_ptr<LiveEval>> alone;  // per slot
    std::vector<double> departed;                  // per slot
    auto join = [&] {
      queries.push_back(
          RandomQuery(value_rng, slots.back().id, slots.back().items));
      alone.push_back(std::make_unique<LiveEval>(
          std::vector<PolynomialQuery>{queries.back()}, values));
      departed.push_back(0.0);
    };
    const int n0 = static_cast<int>(rng.UniformInt(0, 6));
    for (int i = 0; i < n0; ++i) {
      slots.push_back({FreeId(rng, slots), RandomItems(rng), true});
      join();
    }
    DynamicQueryIndex inc(queries, kChurnItems,
                          DynamicQueryIndex::Maintenance::kIncremental);
    DynamicQueryIndex reb(queries, kChurnItems,
                          DynamicQueryIndex::Maintenance::kRebuild);
    IncrementalEvaluator inc_eval(queries, inc, values);
    IncrementalEvaluator reb_eval(queries, reb, values);
    auto check = [&] {
      ExpectMatchesReference(inc, slots);
      ExpectMatchesReference(reb, slots);
      for (size_t s = 0; s < slots.size(); ++s) {
        const double want = slots[s].alive ? alone[s]->eval.QueryValue(0)
                                           : departed[s];
        EXPECT_EQ(Bits(inc_eval.QueryValue(s)), Bits(want)) << "slot " << s;
        EXPECT_EQ(Bits(reb_eval.QueryValue(s)), Bits(want)) << "slot " << s;
      }
    };
    check();
    for (int op = 0; op < 60; ++op) {
      SCOPED_TRACE("op " + std::to_string(op));
      const int updates = static_cast<int>(value_rng.UniformInt(0, 3));
      for (int u = 0; u < updates; ++u) {
        const VarId item = static_cast<VarId>(value_rng.UniformInt(
            0, static_cast<int64_t>(kChurnItems) - 1));
        const double v = value_rng.Uniform(0.5, 2.0);
        values[static_cast<size_t>(item)] = v;
        inc_eval.Update(item, v);
        reb_eval.Update(item, v);
        for (size_t s = 0; s < slots.size(); ++s) {
          if (slots[s].alive) alone[s]->eval.Update(item, v);
        }
      }
      if (op == 30) {
        // An exact rebase re-evaluates live queries only.
        inc_eval.Rebase();
        reb_eval.Rebase();
        for (size_t s = 0; s < slots.size(); ++s) {
          if (slots[s].alive) alone[s]->eval.Rebase();
        }
        check();
      }
      std::vector<int> live;
      for (size_t s = 0; s < slots.size(); ++s) {
        if (slots[s].alive) live.push_back(static_cast<int>(s));
      }
      if (!live.empty() && value_rng.Uniform(0.0, 1.0) < 0.2) {
        // A modify changes the QAB only: membership and values stay.
        const size_t s = static_cast<size_t>(live[static_cast<size_t>(
            value_rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1))]);
        queries[s].qab *= 2.0;
        check();
      }
      if (live.empty() || rng.Uniform(0.0, 1.0) < 0.55) {
        slots.push_back({FreeId(rng, slots), RandomItems(rng), true});
        join();
        inc.AddQuery(slots.back().id, slots.back().items);
        reb.AddQuery(slots.back().id, slots.back().items);
        inc_eval.AddQuery();
        reb_eval.AddQuery();
      } else {
        const int slot = live[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1))];
        slots[static_cast<size_t>(slot)].alive = false;
        inc.RemoveQuery(slot);
        reb.RemoveQuery(slot);
        departed[static_cast<size_t>(slot)] = inc_eval.QueryValue(
            static_cast<size_t>(slot));
      }
      for (size_t s = 0; s < slots.size(); ++s) {
        EXPECT_EQ(inc.ComponentMin(static_cast<int>(s)),
                  reb.ComponentMin(static_cast<int>(s)));
      }
      check();
    }
  }
}

TEST(DynamicQueryIndexTest, BulkConstructorMatchesOneByOneAdds) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    for (DynamicQueryIndex::Maintenance mode :
         {DynamicQueryIndex::Maintenance::kIncremental,
          DynamicQueryIndex::Maintenance::kRebuild}) {
      Rng rng(seed);
      std::vector<RefSlot> slots;
      std::vector<PolynomialQuery> queries;
      const int n = static_cast<int>(rng.UniformInt(0, 24));
      for (int i = 0; i < n; ++i) {
        slots.push_back({FreeId(rng, slots), RandomItems(rng), true});
        queries.push_back(ItemQuery(slots.back().id, slots.back().items));
      }
      DynamicQueryIndex bulk(queries, kChurnItems, mode);
      DynamicQueryIndex one_by_one({}, kChurnItems, mode);
      for (const RefSlot& s : slots) one_by_one.AddQuery(s.id, s.items);
      ExpectMatchesReference(bulk, slots);
      ExpectMatchesReference(one_by_one, slots);
      // The two stay equal through later churn: the bulk build leaves no
      // state behind that an incremental op would read differently.
      for (int op = 0; op < 10 && !slots.empty(); ++op) {
        const int slot = static_cast<int>(
            rng.UniformInt(0, static_cast<int64_t>(slots.size()) - 1));
        if (slots[static_cast<size_t>(slot)].alive) {
          slots[static_cast<size_t>(slot)].alive = false;
          bulk.RemoveQuery(slot);
          one_by_one.RemoveQuery(slot);
        } else {
          slots.push_back({FreeId(rng, slots), RandomItems(rng), true});
          bulk.AddQuery(slots.back().id, slots.back().items);
          one_by_one.AddQuery(slots.back().id, slots.back().items);
        }
        ExpectMatchesReference(bulk, slots);
        ExpectMatchesReference(one_by_one, slots);
      }
    }
  }
}

}  // namespace
}  // namespace polydab::core
