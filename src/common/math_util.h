#ifndef POLYDAB_COMMON_MATH_UTIL_H_
#define POLYDAB_COMMON_MATH_UTIL_H_

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <vector>

/// \file math_util.h
/// Numerically careful scalar helpers used across the GP solver and the
/// DAB-assignment layer.

namespace polydab {

/// \brief log(sum_i exp(z_i)) computed with the max-shift trick so that
/// large exponents do not overflow. Returns -inf for an empty input.
inline double LogSumExp(std::span<const double> z) {
  if (z.empty()) return -std::numeric_limits<double>::infinity();
  const double m = *std::max_element(z.begin(), z.end());
  if (!std::isfinite(m)) return m;
  double s = 0.0;
  for (double zi : z) s += std::exp(zi - m);
  return m + std::log(s);
}

}  // namespace polydab

#endif  // POLYDAB_COMMON_MATH_UTIL_H_
