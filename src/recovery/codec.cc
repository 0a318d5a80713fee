#include "recovery/codec.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <utility>

#include "obs/json_util.h"

namespace polydab::recovery {

namespace {

using obs::DecodeLong;

constexpr long long kIntMin = std::numeric_limits<int>::min();
constexpr long long kIntMax = std::numeric_limits<int>::max();

}  // namespace

std::string EncodeDouble(double v) {
  if (std::isnan(v)) return "nan";
  if (std::isinf(v)) return v > 0 ? "inf" : "-inf";
  return obs::JsonNumber(v);
}

Status DecodeDouble(const std::string& tok, double* out) {
  if (tok == "inf") {
    *out = std::numeric_limits<double>::infinity();
    return Status::OK();
  }
  if (tok == "-inf") {
    *out = -std::numeric_limits<double>::infinity();
    return Status::OK();
  }
  if (tok == "nan") {
    *out = std::numeric_limits<double>::quiet_NaN();
    return Status::OK();
  }
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(tok.c_str(), &end);
  if (end == tok.c_str() || *end != '\0' || errno == ERANGE) {
    return Status::InvalidArgument("bad number token '" + tok + "'");
  }
  *out = v;
  return Status::OK();
}

std::string EncodeVector(const Vector& v) {
  std::string out;
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ' ';
    out += EncodeDouble(v[i]);
  }
  return out;
}

Status DecodeVector(const std::string& s, Vector* out) {
  out->clear();
  if (s.empty()) return Status::OK();
  for (const std::string& tok : obs::SplitTokens(s, ' ')) {
    double v = 0.0;
    POLYDAB_RETURN_NOT_OK(DecodeDouble(tok, &v));
    out->push_back(v);
  }
  return Status::OK();
}

std::string EncodeBuckets(const Buckets& b) {
  std::string out;
  for (size_t i = 0; i < b.size(); ++i) {
    if (i > 0) out += ' ';
    out += std::to_string(b[i].first);
    out += ':';
    out += std::to_string(b[i].second);
  }
  return out;
}

Status DecodeBuckets(const std::string& s, Buckets* out) {
  out->clear();
  if (s.empty()) return Status::OK();
  for (const std::string& tok : obs::SplitTokens(s, ' ')) {
    const size_t colon = tok.find(':');
    if (colon == std::string::npos) {
      return Status::InvalidArgument("bad bucket token '" + tok + "'");
    }
    long long index = 0, count = 0;
    POLYDAB_RETURN_NOT_OK(
        DecodeLong(tok.substr(0, colon), &index, kIntMin, kIntMax));
    POLYDAB_RETURN_NOT_OK(DecodeLong(tok.substr(colon + 1), &count));
    out->emplace_back(static_cast<int>(index), static_cast<int64_t>(count));
  }
  return Status::OK();
}

std::string EncodePolynomial(const Polynomial& p) {
  std::string out;
  for (size_t t = 0; t < p.terms().size(); ++t) {
    const Monomial& m = p.terms()[t];
    if (t > 0) out += '|';
    out += EncodeDouble(m.coef());
    out += '@';
    for (size_t i = 0; i < m.powers().size(); ++i) {
      if (i > 0) out += ',';
      out += std::to_string(m.powers()[i].first);
      out += ':';
      out += std::to_string(m.powers()[i].second);
    }
  }
  return out;
}

Status DecodePolynomial(const std::string& s, Polynomial* out) {
  if (s.empty()) {
    *out = Polynomial();
    return Status::OK();
  }
  std::vector<Monomial> terms;
  for (const std::string& term : obs::SplitTokens(s, '|')) {
    const size_t at = term.find('@');
    if (at == std::string::npos) {
      return Status::InvalidArgument("polynomial term '" + term +
                                     "' has no '@'");
    }
    double coef = 0.0;
    POLYDAB_RETURN_NOT_OK(DecodeDouble(term.substr(0, at), &coef));
    std::vector<std::pair<VarId, int>> powers;
    const std::string rest = term.substr(at + 1);
    if (!rest.empty()) {
      for (const std::string& vp : obs::SplitTokens(rest, ',')) {
        const size_t colon = vp.find(':');
        if (colon == std::string::npos) {
          return Status::InvalidArgument("polynomial power '" + vp +
                                         "' has no ':'");
        }
        long long var = 0, pow = 0;
        POLYDAB_RETURN_NOT_OK(
            DecodeLong(vp.substr(0, colon), &var, kIntMin, kIntMax));
        POLYDAB_RETURN_NOT_OK(
            DecodeLong(vp.substr(colon + 1), &pow, kIntMin, kIntMax));
        powers.emplace_back(static_cast<VarId>(var), static_cast<int>(pow));
      }
    }
    terms.emplace_back(coef, std::move(powers));
  }
  *out = Polynomial(std::move(terms));
  return Status::OK();
}

}  // namespace polydab::recovery
