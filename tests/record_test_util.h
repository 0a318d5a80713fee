#ifndef POLYDAB_TESTS_RECORD_TEST_UTIL_H_
#define POLYDAB_TESTS_RECORD_TEST_UTIL_H_

// Reader-strictness tables shared by the obs format tests (trace, series,
// run report): every integer field of every record kind is fed values its
// member cannot hold, and every record kind an unknown key, and each case
// must be a line-numbered error naming the key.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/status.h"

namespace polydab::testing_util {

/// One integer field of one record kind.
struct IntField {
  const char* tag;  ///< the record's "type"
  const char* key;
  bool int32;  ///< also reject 3000000000
};

/// \p text with the value under \p key on the first line of type \p tag
/// that carries the key replaced by \p value ("" when there is none).
inline std::string ReplaceValue(const std::string& text,
                                const std::string& tag,
                                const std::string& key,
                                const std::string& value) {
  const std::string head = "{\"type\":\"" + tag + "\"";
  for (size_t line = text.find(head); line != std::string::npos;
       line = text.find(head, line + 1)) {
    const size_t eol = text.find('\n', line);
    const size_t at = text.find("\"" + key + "\":", line);
    if (at == std::string::npos || at > eol) continue;
    const size_t begin = at + key.size() + 3;
    const size_t end = text.find_first_of(",}", begin);
    std::string out = text;
    out.replace(begin, end - begin, value);
    return out;
  }
  return "";
}

/// \p text with an unknown key added to the first line of type \p tag.
inline std::string AddUnknownKey(const std::string& text,
                                 const std::string& tag) {
  const std::string head = "{\"type\":\"" + tag + "\"";
  const size_t line = text.find(head);
  if (line == std::string::npos) return "";
  std::string out = text;
  out.insert(line + head.size(), ",\"zzz\":1");
  return out;
}

/// Parse each corruption of \p text with \p parse (text -> Status) and
/// expect a named error: every field of \p fields holding 120.5, 1e300,
/// -1e300 (and 3000000000 for int32 fields), and an unknown key on one
/// line of each of \p tags.
template <class Parse>
void ExpectStrictRecords(const std::string& text,
                         const std::vector<IntField>& fields,
                         const std::vector<std::string>& tags,
                         Parse&& parse) {
  ASSERT_TRUE(parse(text).ok());
  for (const IntField& f : fields) {
    std::vector<std::string> bad = {"120.5", "1e300", "-1e300"};
    if (f.int32) bad.push_back("3000000000");
    for (const std::string& v : bad) {
      const std::string corrupt = ReplaceValue(text, f.tag, f.key, v);
      ASSERT_FALSE(corrupt.empty()) << f.tag << " has no key " << f.key;
      const Status st = parse(corrupt);
      EXPECT_FALSE(st.ok()) << f.tag << "." << f.key << "=" << v;
      EXPECT_NE(st.message().find("key '" + std::string(f.key) + "' holds"),
                std::string::npos)
          << f.tag << "." << f.key << "=" << v << ": " << st.ToString();
      EXPECT_EQ(st.message().rfind("line ", 0), 0u) << st.ToString();
    }
  }
  for (const std::string& tag : tags) {
    const std::string corrupt = AddUnknownKey(text, tag);
    ASSERT_FALSE(corrupt.empty()) << "no " << tag << " line";
    const Status st = parse(corrupt);
    EXPECT_FALSE(st.ok()) << tag;
    EXPECT_NE(st.message().find("unknown key 'zzz'"), std::string::npos)
        << tag << ": " << st.ToString();
  }
}

}  // namespace polydab::testing_util

#endif  // POLYDAB_TESTS_RECORD_TEST_UTIL_H_
