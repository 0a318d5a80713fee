#include "poly/polynomial.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace polydab {

namespace {
bool PowersLess(const Monomial& a, const Monomial& b) {
  return a.powers() < b.powers();
}
}  // namespace

Polynomial::Polynomial(std::vector<Monomial> terms)
    : terms_(std::move(terms)) {
  Canonicalize();
}

void Polynomial::Canonicalize() {
  std::sort(terms_.begin(), terms_.end(), PowersLess);
  std::vector<Monomial> merged;
  for (const Monomial& t : terms_) {
    if (!merged.empty() && merged.back().SamePowers(t)) {
      merged.back().set_coef(merged.back().coef() + t.coef());
    } else {
      merged.push_back(t);
    }
  }
  terms_.clear();
  for (Monomial& t : merged) {
    if (t.coef() != 0.0) terms_.push_back(std::move(t));
  }
}

int Polynomial::Degree() const {
  int d = 0;
  for (const Monomial& t : terms_) d = std::max(d, t.Degree());
  return d;
}

std::vector<VarId> Polynomial::Variables() const {
  size_t n = 0;
  for (const Monomial& t : terms_) n += t.powers().size();
  std::vector<VarId> vars;
  vars.reserve(n);
  for (const Monomial& t : terms_) {
    for (const auto& [var, exp] : t.powers()) vars.push_back(var);
  }
  std::sort(vars.begin(), vars.end());
  vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
  return vars;
}

bool Polynomial::IsPositiveCoefficient() const {
  for (const Monomial& t : terms_) {
    if (t.coef() <= 0.0) return false;
  }
  return true;
}

bool Polynomial::IsIndependentOf(const Polynomial& other) const {
  const std::vector<VarId> a = Variables();
  const std::vector<VarId> b = other.Variables();
  std::vector<VarId> both;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(both));
  return both.empty();
}

void Polynomial::SplitSigns(Polynomial* positive, Polynomial* negative) const {
  std::vector<Monomial> pos, neg;
  for (const Monomial& t : terms_) {
    if (t.coef() > 0.0) {
      pos.push_back(t);
    } else {
      Monomial flipped = t;
      flipped.set_coef(-t.coef());
      neg.push_back(flipped);
    }
  }
  *positive = Polynomial(std::move(pos));
  *negative = Polynomial(std::move(neg));
}

double Polynomial::Evaluate(const Vector& values) const {
  double s = 0.0;
  for (const Monomial& t : terms_) s += t.Evaluate(values);
  return s;
}

Polynomial Polynomial::PartialDerivative(VarId v) const {
  std::vector<Monomial> out;
  for (const Monomial& t : terms_) {
    const int e = t.ExponentOf(v);
    if (e == 0) continue;
    std::vector<std::pair<VarId, int>> powers;
    for (const auto& [var, exp] : t.powers()) {
      powers.emplace_back(var, var == v ? exp - 1 : exp);
    }
    out.emplace_back(t.coef() * e, std::move(powers));
  }
  return Polynomial(std::move(out));
}

Polynomial Polynomial::operator+(const Polynomial& other) const {
  std::vector<Monomial> terms = terms_;
  terms.insert(terms.end(), other.terms_.begin(), other.terms_.end());
  return Polynomial(std::move(terms));
}

Polynomial Polynomial::operator-(const Polynomial& other) const {
  return *this + other * -1.0;
}

Polynomial Polynomial::operator*(const Polynomial& other) const {
  std::vector<Monomial> terms;
  terms.reserve(terms_.size() * other.terms_.size());
  for (const Monomial& a : terms_) {
    for (const Monomial& b : other.terms_) terms.push_back(a * b);
  }
  return Polynomial(std::move(terms));
}

Polynomial Polynomial::operator*(double scalar) const {
  std::vector<Monomial> terms = terms_;
  for (Monomial& t : terms) t.set_coef(t.coef() * scalar);
  return Polynomial(std::move(terms));
}

bool Polynomial::operator==(const Polynomial& other) const {
  if (terms_.size() != other.terms_.size()) return false;
  for (size_t i = 0; i < terms_.size(); ++i) {
    if (!terms_[i].SamePowers(other.terms_[i])) return false;
    if (terms_[i].coef() != other.terms_[i].coef()) return false;
  }
  return true;
}

std::string Polynomial::ToString(const VariableRegistry& reg) const {
  if (terms_.empty()) return "0";
  std::ostringstream os;
  for (size_t i = 0; i < terms_.size(); ++i) {
    if (i > 0) os << (terms_[i].coef() < 0 ? " - " : " + ");
    Monomial t = terms_[i];
    if (i > 0) t.set_coef(std::fabs(t.coef()));
    os << t.ToString(reg);
  }
  return os.str();
}

}  // namespace polydab
