#include "gp/posynomial.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace polydab::gp {

void Posynomial::AddTerm(double coef, std::span<const Exponent> exponents) {
  POLYDAB_CHECK(coef > 0.0);
  coefs_.push_back(coef);
  for (const auto& [var, exp] : exponents) {
    exp_vars_.push_back(var);
    exp_vals_.push_back(exp);
  }
  term_end_.push_back(static_cast<int>(exp_vars_.size()));
}

void Posynomial::Reserve(size_t terms, size_t exponents) {
  coefs_.reserve(coefs_.size() + terms);
  term_end_.reserve(term_end_.size() + terms);
  exp_vars_.reserve(exp_vars_.size() + exponents);
  exp_vals_.reserve(exp_vals_.size() + exponents);
}

void Posynomial::Add(const Posynomial& other) {
  const int base = static_cast<int>(exp_vars_.size());
  coefs_.insert(coefs_.end(), other.coefs_.begin(), other.coefs_.end());
  for (int end : other.term_end_) term_end_.push_back(base + end);
  exp_vars_.insert(exp_vars_.end(), other.exp_vars_.begin(),
                   other.exp_vars_.end());
  exp_vals_.insert(exp_vals_.end(), other.exp_vals_.begin(),
                   other.exp_vals_.end());
}

void Posynomial::Scale(double s) {
  POLYDAB_CHECK(s > 0.0);
  for (double& c : coefs_) c *= s;
}

double Posynomial::Evaluate(const Vector& v) const {
  double sum = 0.0;
  size_t idx = 0;
  for (size_t k = 0; k < coefs_.size(); ++k) {
    double prod = coefs_[k];
    const size_t end = static_cast<size_t>(term_end_[k]);
    for (; idx < end; ++idx) {
      const size_t var = static_cast<size_t>(exp_vars_[idx]);
      POLYDAB_DCHECK(var < v.size());
      prod *= std::pow(v[var], exp_vals_[idx]);
    }
    sum += prod;
  }
  return sum;
}

int Posynomial::MaxVarIndex() const {
  int mx = -1;
  for (int var : exp_vars_) mx = std::max(mx, var);
  return mx;
}

}  // namespace polydab::gp
