#ifndef POLYDAB_GP_POSYNOMIAL_H_
#define POLYDAB_GP_POSYNOMIAL_H_

#include <cstddef>
#include <initializer_list>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/matrix.h"

/// \file posynomial.h
/// Posynomials over positive optimization variables — the modeling language
/// of geometric programming (Boyd et al., "A tutorial on geometric
/// programming", which the paper cites as [12]). Exponents are arbitrary
/// reals; coefficients must be positive.
///
/// Note: these are *optimization* variables (DABs b, c and the recompute
/// rate R), a different space from the data-item VarIds in src/poly.

namespace polydab::gp {

/// \brief A sum of positive monomial terms f(v) = Σ_k c_k Π_j v_j^{a_kj}.
///
/// Terms are stored flat, in the layout the solver's log-space form uses
/// (docs/SOLVER.md, "Program construction"): term k has coefficient
/// coefs()[k] and owns the exponent entries [term_end()[k-1],
/// term_end()[k]) of exp_vars() / exp_vals(), the first term from entry
/// 0. A posynomial is four arrays however many terms it has, so building,
/// copying and comparing one costs no heap object per term.
class Posynomial {
 public:
  /// One factor v_j^{a_j} of a term: (variable index, real exponent).
  /// Variable indices need not be sorted.
  using Exponent = std::pair<int, double>;

  Posynomial() = default;

  /// Append the term coef · Π v_j^{a_j}. coef must be > 0.
  void AddTerm(double coef, std::initializer_list<Exponent> exponents) {
    AddTerm(coef, std::span<const Exponent>(exponents.begin(),
                                            exponents.size()));
  }
  void AddTerm(double coef, std::span<const Exponent> exponents);

  /// Pre-size the arrays for \p terms more terms with \p exponents more
  /// exponent entries in all.
  void Reserve(size_t terms, size_t exponents);

  /// Add the terms of another posynomial.
  void Add(const Posynomial& other);

  /// Multiply every coefficient by s > 0.
  void Scale(double s);

  /// Replace every exponent variable v by \p map(v).
  template <typename Map>
  void RemapVars(Map map) {
    for (int& v : exp_vars_) v = map(v);
  }

  size_t num_terms() const { return coefs_.size(); }
  bool empty() const { return coefs_.empty(); }
  const std::vector<double>& coefs() const { return coefs_; }
  /// One past the last exponent entry of each term.
  const std::vector<int>& term_end() const { return term_end_; }
  const std::vector<int>& exp_vars() const { return exp_vars_; }
  const std::vector<double>& exp_vals() const { return exp_vals_; }

  /// Evaluate at strictly positive \p v.
  double Evaluate(const Vector& v) const;

  /// Largest variable index referenced, or -1 when constant/empty.
  int MaxVarIndex() const;

 private:
  std::vector<double> coefs_;
  std::vector<int> term_end_;
  std::vector<int> exp_vars_;
  std::vector<double> exp_vals_;
};

/// \brief A geometric program in standard form:
///   minimize    f0(v)
///   subject to  fi(v) <= 1,  i = 1..m
/// over strictly positive variables v in R^num_vars.
struct GpProblem {
  int num_vars = 0;
  Posynomial objective;
  std::vector<Posynomial> constraints;
  /// Optional variable names for diagnostics; empty or size num_vars.
  std::vector<std::string> var_names;
};

}  // namespace polydab::gp

#endif  // POLYDAB_GP_POSYNOMIAL_H_
