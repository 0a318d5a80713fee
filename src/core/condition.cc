#include "core/condition.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace polydab::core {

namespace {

double Multinomial(int n, int k1, int k2) {
  // n! / (k1! k2! (n-k1-k2)!) for small n (query degrees are small).
  auto fact = [](int m) {
    double f = 1.0;
    for (int i = 2; i <= m; ++i) f *= i;
    return f;
  };
  return fact(n) / (fact(k1) * fact(k2) * fact(n - k1 - k2));
}

/// One term of the expansion of a factor (V + b)^e or (V + c + b)^e:
/// Multinomial(e, kb, kc) · V^(e−kb−kc) · b^kb · c^kc.
struct FactorTerm {
  double coef;
  int kb;
  int kc;
};

/// One factor of a monomial: its GP variables and its expansion, entries
/// [first, first + count) of the build's term table.
struct Factor {
  int b_index;
  int c_index;  // -1 for single-DAB
  size_t first;
  size_t count;
};

/// Number of terms in the expansion of (V + b)^e, or of (V + c + b)^e
/// when \p dual.
size_t FactorTerms(int e, bool dual) {
  return dual ? static_cast<size_t>((e + 1) * (e + 2) / 2)
              : static_cast<size_t>(e + 1);
}

/// Append the expansion of (V + b)^e or (V + c + b)^e to \p table, in
/// the order kb = 0..e, then kc = 0..e-kb.
void ExpandFactor(double value, int exp, bool dual,
                  std::vector<FactorTerm>* table) {
  for (int kb = 0; kb <= exp; ++kb) {
    const int kc_max = dual ? exp - kb : 0;
    for (int kc = 0; kc <= kc_max; ++kc) {
      const int kv = exp - kb - kc;
      table->push_back({Multinomial(exp, kb, kc) * std::pow(value, kv), kb,
                        kc});
    }
  }
}

/// Expand one monomial into \p cond. The product of its factors'
/// expansions is walked by an odometer over the factors, the last one
/// fastest, and each term's coefficient is multiplied up from 1.0 in
/// factor order: the term order and the multiply order
/// ((1.0·c₁)·c₂)·… of a left-to-right convolution of the factors, so the
/// coefficients are the same bits. The b-free terms are skipped: they are
/// exactly P(V+c) (resp. P(V)) and cancel in the difference.
void ExpandMonomial(double mono_coef, double qab,
                    const std::vector<Factor>& factors,
                    const std::vector<FactorTerm>& table,
                    std::vector<size_t>* digits,
                    std::vector<gp::Posynomial::Exponent>* exps,
                    gp::Posynomial* cond) {
  const size_t nf = factors.size();
  digits->assign(nf, 0);
  while (true) {
    double coef = 1.0;
    int b_degree = 0;
    exps->clear();
    for (size_t f = 0; f < nf; ++f) {
      const Factor& fac = factors[f];
      const FactorTerm& t = table[fac.first + (*digits)[f]];
      coef *= t.coef;
      b_degree += t.kb;
      if (t.kb > 0) exps->emplace_back(fac.b_index, static_cast<double>(t.kb));
      if (t.kc > 0) exps->emplace_back(fac.c_index, static_cast<double>(t.kc));
    }
    if (b_degree > 0) cond->AddTerm(mono_coef * coef / qab, *exps);
    size_t f = nf;
    while (f > 0 && ++(*digits)[f - 1] == factors[f - 1].count) {
      (*digits)[--f] = 0;
    }
    if (f == 0) return;
  }
}

Result<gp::Posynomial> BuildCondition(const Polynomial& p,
                                      const Vector& values, double qab,
                                      const GpVarMap& map, bool dual) {
  POLYDAB_RETURN_NOT_OK(CheckConditionInputs(p, values, qab));
  if (dual) POLYDAB_CHECK(map.has_secondary);

  auto index_of = [&map](VarId v) -> int {
    for (size_t i = 0; i < map.vars.size(); ++i) {
      if (map.vars[i] == v) return static_cast<int>(i);
    }
    return -1;
  };

  // Size everything first, so the expansion below allocates nothing per
  // term: the kept terms of a monomial are all products of its factors'
  // terms minus the b-free ones, and likewise for their exponent entries
  // (an entry per nonzero kb and per nonzero kc of each factor term).
  size_t num_terms = 0;
  size_t num_exps = 0;
  size_t max_factors = 0;
  size_t max_table = 0;
  for (const Monomial& mono : p.terms()) {
    // all: (terms, exponent entries); free: the same over kb = 0 terms.
    size_t all_terms = 1, all_exps = 0, free_terms = 1, free_exps = 0;
    size_t table = 0;
    for (const auto& [var, exp] : mono.powers()) {
      if (index_of(var) < 0) {
        return Status::InvalidArgument(
            "query variable missing from GP variable map");
      }
      // The factor's n terms, n0 of them with kb = 0, carry nz exponent
      // entries, nz0 of them on the kb = 0 terms: a b entry on each of the
      // n - n0 terms with kb > 0 and, under dual, as many c entries by
      // symmetry; the kb = 0 terms are c^0..c^e.
      const size_t n = FactorTerms(exp, dual);
      const size_t e = static_cast<size_t>(exp);
      const size_t n0 = dual ? e + 1 : 1;
      const size_t nz = dual ? 2 * (n - n0) : n - n0;
      const size_t nz0 = dual ? e : 0;
      all_exps = all_exps * n + nz * all_terms;
      all_terms *= n;
      free_exps = free_exps * n0 + nz0 * free_terms;
      free_terms *= n0;
      table += n;
    }
    num_terms += all_terms - free_terms;
    num_exps += all_exps - free_exps;
    max_factors = std::max(max_factors, mono.powers().size());
    max_table = std::max(max_table, table);
  }

  gp::Posynomial cond;
  cond.Reserve(num_terms, num_exps);
  std::vector<FactorTerm> table;
  table.reserve(max_table);
  std::vector<Factor> factors;
  factors.reserve(max_factors);
  std::vector<size_t> digits;
  digits.reserve(max_factors);
  std::vector<gp::Posynomial::Exponent> exps;
  exps.reserve(2 * max_factors);
  for (const Monomial& mono : p.terms()) {
    table.clear();
    factors.clear();
    for (const auto& [var, exp] : mono.powers()) {
      const size_t i = static_cast<size_t>(index_of(var));
      const size_t first = table.size();
      ExpandFactor(values[static_cast<size_t>(var)], exp, dual, &table);
      factors.push_back({map.BIndex(i), dual ? map.CIndex(i) : -1, first,
                         table.size() - first});
    }
    ExpandMonomial(mono.coef(), qab, factors, table, &digits, &exps, &cond);
  }
  POLYDAB_DCHECK(cond.num_terms() == num_terms &&
                 cond.exp_vars().size() == num_exps);
  if (cond.empty()) {
    return Status::InvalidArgument(
        "query polynomial has no variable terms; nothing to bound");
  }
  return cond;
}

}  // namespace

Status CheckConditionInputs(const Polynomial& p, const Vector& values,
                            double qab) {
  if (qab <= 0.0) {
    return Status::InvalidArgument("QAB must be positive");
  }
  if (!p.IsPositiveCoefficient()) {
    return Status::InvalidArgument(
        "condition builders require a positive-coefficient polynomial; "
        "split general queries first (SplitSigns / heuristics)");
  }
  for (VarId v : p.Variables()) {
    if (static_cast<size_t>(v) >= values.size()) {
      return Status::InvalidArgument("values vector too short for query");
    }
    if (!(values[static_cast<size_t>(v)] > 0.0)) {
      return Status::InvalidArgument(
          "data values must be positive for the monotone worst-case "
          "condition to be exact");
    }
  }
  return Status::OK();
}

Result<gp::Posynomial> SingleDabCondition(const Polynomial& p,
                                          const Vector& values, double qab,
                                          const GpVarMap& map) {
  return BuildCondition(p, values, qab, map, /*dual=*/false);
}

Result<gp::Posynomial> DualDabCondition(const Polynomial& p,
                                        const Vector& values, double qab,
                                        const GpVarMap& map) {
  return BuildCondition(p, values, qab, map, /*dual=*/true);
}

}  // namespace polydab::core
