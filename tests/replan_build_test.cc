// Guards on how a replan builds its geometric program (docs/SOLVER.md,
// "Program construction"):
//
//  1. The condition builder expands each monomial straight into the flat
//     posynomial. Its output must stay bit-identical — coefficient bits,
//     term order and exponent pairs — to a left-to-right convolution of
//     the factors' expansions, the construction it replaced, kept here as
//     the reference. The seeded sweep covers degrees 1–6, repeated
//     variables and Figure 7's joint AAO program, whose per-query
//     conditions are remapped into the shared variable layout.
//  2. A warm replan allocates nothing per posynomial term: Optimal Refresh
//     and Dual-DAB replans of a 6-term and a 12-term part over the same
//     items make the same number of heap allocations.

#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "alloc_counter.h"
#include "common/rng.h"
#include "core/condition.h"
#include "core/multi_query.h"
#include "core/planner.h"
#include "gp/solve_engine.h"

namespace polydab::core {
namespace {

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

// ---------------------------------------------------------------------------
// Reference condition builder: every factor (V + b)^e or (V + c + b)^e is
// expanded into symbolic terms and the factors are convolved left to right.

using Exps = std::vector<std::pair<int, double>>;

struct RefTerm {
  double coef;
  Exps exps;
  int b_degree;
};

double RefMultinomial(int n, int k1, int k2) {
  auto fact = [](int m) {
    double f = 1.0;
    for (int i = 2; i <= m; ++i) f *= i;
    return f;
  };
  return fact(n) / (fact(k1) * fact(k2) * fact(n - k1 - k2));
}

std::vector<RefTerm> RefExpandFactor(double value, int exp, int b_index,
                                     int c_index) {
  std::vector<RefTerm> out;
  for (int kb = 0; kb <= exp; ++kb) {
    const int kc_max = (c_index >= 0) ? exp - kb : 0;
    for (int kc = 0; kc <= kc_max; ++kc) {
      RefTerm t;
      t.coef = RefMultinomial(exp, kb, kc) * std::pow(value, exp - kb - kc);
      if (kb > 0) t.exps.emplace_back(b_index, static_cast<double>(kb));
      if (kc > 0) t.exps.emplace_back(c_index, static_cast<double>(kc));
      t.b_degree = kb;
      out.push_back(std::move(t));
    }
  }
  return out;
}

std::vector<RefTerm> RefConvolve(const std::vector<RefTerm>& a,
                                 const std::vector<RefTerm>& b) {
  std::vector<RefTerm> out;
  for (const RefTerm& x : a) {
    for (const RefTerm& y : b) {
      RefTerm t{x.coef * y.coef, x.exps, x.b_degree + y.b_degree};
      t.exps.insert(t.exps.end(), y.exps.begin(), y.exps.end());
      out.push_back(std::move(t));
    }
  }
  return out;
}

/// The kept (coefficient, exponents) terms of P(V+[c]+b) − P(V+[c]) / qab.
std::vector<std::pair<double, Exps>> RefCondition(const Polynomial& p,
                                                  const Vector& values,
                                                  double qab,
                                                  const GpVarMap& map,
                                                  bool dual) {
  std::vector<std::pair<double, Exps>> cond;
  for (const Monomial& mono : p.terms()) {
    std::vector<RefTerm> acc = {{1.0, {}, 0}};
    for (const auto& [var, exp] : mono.powers()) {
      size_t i = 0;
      while (map.vars[i] != var) ++i;
      acc = RefConvolve(acc, RefExpandFactor(values[static_cast<size_t>(var)],
                                             exp, map.BIndex(i),
                                             dual ? map.CIndex(i) : -1));
    }
    for (RefTerm& t : acc) {
      if (t.b_degree == 0) continue;
      cond.emplace_back(mono.coef() * t.coef / qab, std::move(t.exps));
    }
  }
  return cond;
}

void ExpectSameTerms(const std::vector<std::pair<double, Exps>>& ref,
                     const gp::Posynomial& got, const std::string& label) {
  ASSERT_EQ(got.num_terms(), ref.size()) << label;
  for (size_t k = 0; k < ref.size(); ++k) {
    EXPECT_TRUE(SameBits(got.coefs()[k], ref[k].first))
        << label << " term " << k << ": " << got.coefs()[k] << " vs "
        << ref[k].first;
    const int begin = k == 0 ? 0 : got.term_end()[k - 1];
    ASSERT_EQ(got.term_end()[k] - begin,
              static_cast<int>(ref[k].second.size()))
        << label << " term " << k;
    for (size_t e = 0; e < ref[k].second.size(); ++e) {
      const size_t at = static_cast<size_t>(begin) + e;
      EXPECT_EQ(got.exp_vars()[at], ref[k].second[e].first)
          << label << " term " << k << " factor " << e;
      EXPECT_TRUE(SameBits(got.exp_vals()[at], ref[k].second[e].second))
          << label << " term " << k << " factor " << e;
    }
  }
}

/// A random positive-coefficient polynomial over \p ids: up to four
/// monomials of total degree 1..\p max_degree, the first of degree
/// \p max_degree, each factor drawn with
/// replacement (so variables repeat and merge into powers), plus now and
/// then a constant term.
Polynomial RandomPolynomial(Rng* rng, const std::vector<VarId>& ids,
                            int max_degree) {
  std::vector<Monomial> terms;
  const int n = static_cast<int>(rng->UniformInt(1, 4));
  for (int t = 0; t < n; ++t) {
    std::vector<std::pair<VarId, int>> powers;
    const int degree =
        t == 0 ? max_degree : static_cast<int>(rng->UniformInt(1, max_degree));
    for (int f = 0; f < degree; ++f) {
      powers.emplace_back(
          ids[static_cast<size_t>(rng->UniformInt(
              0, static_cast<int64_t>(ids.size()) - 1))],
          1);
    }
    terms.emplace_back(rng->Uniform(0.5, 10.0), std::move(powers));
  }
  if (rng->Bernoulli(0.3)) terms.emplace_back(rng->Uniform(1.0, 5.0));
  return Polynomial(std::move(terms));
}

TEST(ConditionBitIdentityTest, SweepMatchesReferenceExpansion) {
  int checked = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    for (int max_degree = 1; max_degree <= 6; ++max_degree) {
      Rng rng(seed * 131 + static_cast<uint64_t>(max_degree));
      std::vector<VarId> ids;
      const int num_ids = static_cast<int>(rng.UniformInt(1, 4));
      for (int i = 0; i < num_ids; ++i) ids.push_back(static_cast<VarId>(i));
      const Polynomial p = RandomPolynomial(&rng, ids, max_degree);
      Vector values(static_cast<size_t>(num_ids));
      for (double& v : values) v = rng.Uniform(0.5, 60.0);
      const double qab = rng.Uniform(0.05, 5.0);
      for (bool dual : {false, true}) {
        GpVarMap map;
        map.vars = p.Variables();
        map.has_secondary = dual;
        const std::string label = "seed " + std::to_string(seed) +
                                  " degree " + std::to_string(max_degree) +
                                  (dual ? " dual" : " single");
        auto got = dual ? DualDabCondition(p, values, qab, map)
                        : SingleDabCondition(p, values, qab, map);
        ASSERT_TRUE(got.ok()) << label << ": " << got.status().ToString();
        ExpectSameTerms(RefCondition(p, values, qab, map, dual), *got, label);
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, 12 * 6 * 2);
}

/// Figure 7's joint AAO program built the way SolveAao builds it, with
/// each query's condition from the reference builder remapped into the
/// shared layout term by term.
gp::GpProblem RefAaoProgram(const std::vector<PolynomialQuery>& queries,
                            const Vector& values, const Vector& rates,
                            const DualDabParams& params,
                            std::vector<int>* r_index) {
  std::set<VarId> var_set;
  for (const PolynomialQuery& q : queries) {
    for (VarId v : q.p.Variables()) var_set.insert(v);
  }
  const std::vector<VarId> vars(var_set.begin(), var_set.end());
  auto shared_index = [&vars](VarId v) {
    size_t i = 0;
    while (vars[i] != v) ++i;
    return static_cast<int>(i);
  };
  const int n = static_cast<int>(vars.size());
  std::vector<int> c_base;
  int next = n;
  for (const PolynomialQuery& q : queries) {
    c_base.push_back(next);
    next += static_cast<int>(q.p.Variables().size());
    r_index->push_back(next++);
  }
  gp::GpProblem gp;
  gp.num_vars = next;
  for (int i = 0; i < n; ++i) {
    AddRateTerm(params.ddm,
                rates[static_cast<size_t>(vars[static_cast<size_t>(i)])], i,
                &gp.objective);
  }
  for (int r : *r_index) gp.objective.AddTerm(params.mu, {{r, 1.0}});
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const std::vector<VarId> qvars = queries[qi].p.Variables();
    for (size_t i = 0; i < qvars.size(); ++i) {
      gp.objective.AddTerm(1e-6 / values[static_cast<size_t>(qvars[i])],
                           {{c_base[qi] + static_cast<int>(i), 1.0}});
    }
  }
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const std::vector<VarId> qvars = queries[qi].p.Variables();
    const int k = static_cast<int>(qvars.size());
    GpVarMap local;
    local.vars = qvars;
    local.has_secondary = true;
    gp::Posynomial cond;
    for (auto& [coef, exps] : RefCondition(queries[qi].p, values,
                                           queries[qi].qab, local, true)) {
      for (auto& [var, exp] : exps) {
        var = var < k ? shared_index(qvars[static_cast<size_t>(var)])
                      : c_base[qi] + (var - k);
      }
      cond.AddTerm(coef, exps);
    }
    gp.constraints.push_back(std::move(cond));
    for (int i = 0; i < k; ++i) {
      const int b_idx = shared_index(qvars[static_cast<size_t>(i)]);
      const int c_idx = c_base[qi] + i;
      gp::Posynomial bc;
      bc.AddTerm(1.0, {{b_idx, 1.0}, {c_idx, -1.0}});
      gp.constraints.push_back(std::move(bc));
      gp::Posynomial rec;
      const VarId item = qvars[static_cast<size_t>(i)];
      AddRecomputeBound(params.ddm, rates[static_cast<size_t>(item)], c_idx,
                        (*r_index)[qi], &rec);
      gp.constraints.push_back(std::move(rec));
    }
  }
  return gp;
}

TEST(ConditionBitIdentityTest, AaoRemapMatchesReferenceProgram) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed * 977);
    const int num_ids = 5;
    std::vector<VarId> ids;
    for (int i = 0; i < num_ids; ++i) ids.push_back(static_cast<VarId>(i));
    std::vector<PolynomialQuery> queries;
    for (int q = 0; q < 3; ++q) {
      // Each query reads a random subset of the items, so its local b/c
      // layout differs from the shared one.
      std::vector<VarId> sub;
      for (VarId v : ids) {
        if (rng.Bernoulli(0.6)) sub.push_back(v);
      }
      if (sub.empty()) sub.push_back(ids[static_cast<size_t>(q)]);
      Polynomial p = RandomPolynomial(&rng, sub, 3);
      queries.push_back({q, std::move(p), rng.Uniform(20.0, 200.0)});
    }
    Vector values(static_cast<size_t>(num_ids));
    for (double& v : values) v = rng.Uniform(5.0, 40.0);
    Vector rates(static_cast<size_t>(num_ids));
    for (double& r : rates) r = rng.Uniform(0.1, 2.0);
    DualDabParams params;

    auto got = SolveAao(queries, values, rates, params);
    ASSERT_TRUE(got.ok()) << "seed " << seed << ": "
                          << got.status().ToString();
    std::vector<int> r_index;
    const gp::GpProblem ref =
        RefAaoProgram(queries, values, rates, params, &r_index);
    auto want = gp::SolveGp(ref, params.solver);
    ASSERT_TRUE(want.ok()) << "seed " << seed;
    for (size_t i = 0; i < got->item_primary.size(); ++i) {
      EXPECT_TRUE(SameBits(got->item_primary[i], want->x[i]))
          << "seed " << seed << " item " << i;
    }
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      EXPECT_TRUE(SameBits(got->per_query[qi].recompute_rate,
                           want->x[static_cast<size_t>(r_index[qi])]))
          << "seed " << seed << " query " << qi;
    }
  }
}

// ---------------------------------------------------------------------------

struct ReplanNews {
  int64_t news = 0;
  gp::SolveStats stats;
};

/// Heap allocations of one warm replan of a part whose subquery is the
/// sum of the first \p num_pairs pair products x_i·x_j (i ≤ j) over five
/// items: the part was planned, replanned once at moved values (which
/// sizes the solve engine's skeleton for its shape), and is counted on a
/// second replan at values moved again — a memo miss on a reused
/// skeleton, as on the refresh service's hot path.
ReplanNews WarmReplanNews(AssignmentMethod method, int num_pairs) {
  constexpr int kItems = 5;
  std::vector<Monomial> terms;
  for (int i = 0; i < kItems && static_cast<int>(terms.size()) < num_pairs;
       ++i) {
    for (int j = i; j < kItems && static_cast<int>(terms.size()) < num_pairs;
         ++j) {
      terms.emplace_back(1.0 + 0.1 * static_cast<double>(terms.size()),
                         std::vector<std::pair<VarId, int>>{{i, 1}, {j, 1}});
    }
  }
  const PolynomialQuery query{0, Polynomial(std::move(terms)), 40.0};
  Vector values = {10.0, 12.0, 8.0, 15.0, 9.0};
  const Vector rates = {1.0, 0.5, 2.0, 1.5, 0.8};

  gp::SolveEngine engine({.cache_entries = 64});
  PlannerConfig config;
  config.method = method;
  config.dual.solver.engine = &engine;
  auto plan = PlanQueryParts(query, values, rates, config);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  if (!plan.ok()) return {};
  PlanPart part = plan->parts[0];
  values[0] *= 1.02;
  auto first = ReplanPart(part, values, rates, config);
  EXPECT_TRUE(first.ok()) << first.status().ToString();
  if (!first.ok()) return {};
  part.dabs = *first;
  values[1] *= 1.02;

  ReplanNews out;
  gp::SolveRecord record;
  const int64_t before = testing_util::ThreadNews();
  auto second = ReplanPart(part, values, rates, config, &record);
  out.news = testing_util::ThreadNews() - before;
  EXPECT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(record.solved);
  out.stats = record.stats;
  return out;
}

TEST(ReplanAllocationTest, WarmReplanAllocatesNothingPerTerm) {
  for (AssignmentMethod method :
       {AssignmentMethod::kOptimalRefresh, AssignmentMethod::kDualDab}) {
    const ReplanNews six = WarmReplanNews(method, 6);
    const ReplanNews twelve = WarmReplanNews(method, 12);
    // The two solves take the same solver path, so any difference in
    // allocations comes from the program's size.
    EXPECT_EQ(six.stats.phase1, twelve.stats.phase1) << Name(method);
    EXPECT_EQ(six.stats.warm_feasible, twelve.stats.warm_feasible)
        << Name(method);
    EXPECT_EQ(six.stats.cold_restart, twelve.stats.cold_restart)
        << Name(method);
    EXPECT_GT(six.news, 0) << Name(method);
    EXPECT_EQ(six.news, twelve.news) << Name(method);
  }
}

}  // namespace
}  // namespace polydab::core
