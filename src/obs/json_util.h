#ifndef POLYDAB_OBS_JSON_UTIL_H_
#define POLYDAB_OBS_JSON_UTIL_H_

#include <map>
#include <string>
#include <string_view>

#include "common/status.h"

/// \file json_util.h
/// The primitives under the record codec (record.h): escaping,
/// shortest-round-trip number rendering, and a parser for the flat
/// one-line objects the writers emit (string keys mapping to string or
/// number values — no nesting, no arrays). Keeping both directions here
/// is what makes every reader an exact inverse of its writer without a
/// JSON library dependency.

namespace polydab::obs {

/// Append \p s escaped for a JSON string literal (quotes, backslashes,
/// control characters — instrument names and info values never need more)
/// to \p out.
void AppendJsonEscaped(std::string_view s, std::string* out);

/// Shortest decimal representation that round-trips the double exactly
/// (so reports and traces re-parse bit-identically).
std::string JsonNumber(double v);

/// Parse one flat JSON object line into its string-valued and
/// number-valued fields. Rejects nesting, arrays, and malformed syntax
/// with InvalidArgument naming the offset.
Status ParseFlatJsonLine(const std::string& line,
                         std::map<std::string, std::string>* strings,
                         std::map<std::string, double>* numbers);

}  // namespace polydab::obs

#endif  // POLYDAB_OBS_JSON_UTIL_H_
