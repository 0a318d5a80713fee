#ifndef POLYDAB_RECOVERY_RECORD_H_
#define POLYDAB_RECOVERY_RECORD_H_

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/matrix.h"
#include "common/status.h"
#include "obs/json_util.h"
#include "recovery/codec.h"

/// \file record.h
/// The field-list codec shared by the checkpoint and WAL formats
/// (docs/RECOVERY.md). Every record struct names its flat fields once, as
/// (wire key, member) pairs in wire order:
///
///   template <class S, class V> static void Fields(S& s, V& v) {
///     v("tick", s.tick);
///     v("vals", s.values);
///   }
///
/// `S` is the record type, const or not, so the one list serves reading
/// and writing. Three visitors derive from it: LineWriter renders the
/// record as one flat JSON line, ReadFields decodes it strictly (unknown
/// keys, missing keys, malformed tokens and integers their member cannot
/// hold are line-numbered InvalidArgument), and RenderFields yields each
/// field's wire bytes, which is what a snapshot diff compares. The
/// member's type picks its wire form: bools (0/1) and integers are JSON
/// integers, doubles JSON numbers, strings JSON strings, and Vector,
/// std::vector<int>, Buckets and Polynomial are packed into one JSON
/// string by the codec.h token codecs.

namespace polydab::recovery {

/// A double carried as one EncodeDouble token inside a JSON string, for
/// values that may be infinite (histogram extrema while empty).
template <class T>
struct Token {
  T& value;
};
template <class T>
Token(T&) -> Token<T>;

/// A header field holding the number of records of one kind in the
/// block: written as the container's size, checked against it on load.
template <class C>
struct Count {
  C& records;
};
template <class C>
Count(C&) -> Count<C>;

/// One parsed flat-JSON record line.
struct Record {
  const char* format = "";   ///< "ckpt" or "wal", for diagnostics
  const char* tag_key = "";  ///< "t" or "w"
  int64_t line_number = 0;
  std::string raw;  ///< the line's bytes (checkpoint digests chain them)
  std::string tag;  ///< the value under tag_key
  std::map<std::string, std::string> strings;
  std::map<std::string, double> numbers;
};

Status LineError(int64_t line_number, const std::string& msg);

/// Read \p path and parse every non-blank line into a Record. A final line
/// without its newline is a torn write and an error; so is a line that is
/// not a flat JSON object or has no string under \p tag_key.
Status ReadRecords(const std::string& path, const char* format,
                   const char* tag_key, std::vector<Record>* out);

/// Reject any key of \p rec that is not its tag key, \p codec_key (the
/// one key the codec writes beside the field list, or nullptr) or one of
/// \p keys.
Status CheckKeys(const Record& rec, const char* codec_key,
                 const std::vector<const char*>& keys);

/// The one integer decode of both formats: \p v must be integral and
/// within T's range (a bool holds 0 or 1).
template <class T>
bool ToInteger(double v, T* out) {
  if constexpr (std::is_same_v<T, bool>) {
    if (v != 0.0 && v != 1.0) return false;
  } else {
    // Both bounds are exact powers of two (or zero) as doubles.
    constexpr double lo = static_cast<double>(std::numeric_limits<T>::min());
    constexpr double hi =
        2.0 * static_cast<double>(std::numeric_limits<T>::max() / 2 + 1);
    if (!(v >= lo && v < hi) || std::trunc(v) != v) return false;
  }
  *out = static_cast<T>(v);
  return true;
}

/// Render one field value in its wire form, appending to \p out.
void AppendString(const std::string& s, std::string* out);
template <class T>
void AppendValue(const T& v, std::string* out) {
  if constexpr (std::is_same_v<T, bool>) {
    *out += v ? '1' : '0';
  } else if constexpr (std::is_integral_v<T>) {
    *out += std::to_string(v);
  } else if constexpr (std::is_same_v<T, double>) {
    *out += obs::JsonNumber(v);
  } else if constexpr (std::is_same_v<T, std::string>) {
    AppendString(v, out);
  } else if constexpr (std::is_same_v<T, Vector>) {
    AppendString(EncodeVector(v), out);
  } else if constexpr (std::is_same_v<T, std::vector<int>>) {
    AppendString(EncodeInts(v), out);
  } else if constexpr (std::is_same_v<T, Buckets>) {
    AppendString(EncodeBuckets(v), out);
  } else if constexpr (std::is_same_v<T, Polynomial>) {
    AppendString(EncodePolynomial(v), out);
  } else {
    static_assert(sizeof(T) == 0, "no wire form for this field type");
  }
}
template <class T>
void AppendValue(const Token<T>& t, std::string* out) {
  AppendString(EncodeDouble(t.value), out);
}
template <class C>
void AppendValue(const Count<C>& c, std::string* out) {
  AppendValue(c.records.size(), out);
}

/// The value under \p key in \p fields (rec.strings or rec.numbers);
/// a missing key is a line-numbered error.
template <class Map>
Status Lookup(const Record& rec, const Map& fields, const std::string& key,
              typename Map::mapped_type* out) {
  auto it = fields.find(key);
  if (it == fields.end()) {
    return LineError(rec.line_number, std::string(rec.format) + " '" +
                                          rec.tag + "' record missing key '" +
                                          key + "'");
  }
  *out = it->second;
  return Status::OK();
}

/// Decode one field of \p rec into \p out, typed by the member.
template <class T>
Status ReadValue(const Record& rec, const std::string& key, T* out) {
  if constexpr (std::is_arithmetic_v<T>) {
    double v = 0.0;
    POLYDAB_RETURN_NOT_OK(Lookup(rec, rec.numbers, key, &v));
    if constexpr (std::is_same_v<T, double>) {
      *out = v;
    } else if (!ToInteger(v, out)) {
      return LineError(rec.line_number,
                       std::string(rec.format) + " '" + rec.tag + "' key '" +
                           key + "' holds " + obs::JsonNumber(v) +
                           ", not an integer its field can hold");
    }
    return Status::OK();
  } else {
    std::string s;
    POLYDAB_RETURN_NOT_OK(Lookup(rec, rec.strings, key, &s));
    Status decoded;
    if constexpr (std::is_same_v<T, std::string>) {
      *out = std::move(s);
    } else if constexpr (std::is_same_v<T, Vector>) {
      decoded = DecodeVector(s, out);
    } else if constexpr (std::is_same_v<T, std::vector<int>>) {
      decoded = DecodeInts(s, out);
    } else if constexpr (std::is_same_v<T, Buckets>) {
      decoded = DecodeBuckets(s, out);
    } else {
      static_assert(std::is_same_v<T, Polynomial>, "no wire form");
      decoded = DecodePolynomial(s, out);
    }
    if (!decoded.ok()) return LineError(rec.line_number, decoded.message());
    return Status::OK();
  }
}
template <class T>
Status ReadValue(const Record& rec, const std::string& key, Token<T>* t) {
  std::string tok;
  POLYDAB_RETURN_NOT_OK(Lookup(rec, rec.strings, key, &tok));
  Status decoded = DecodeDouble(tok, &t->value);
  if (!decoded.ok()) return LineError(rec.line_number, decoded.message());
  return Status::OK();
}

/// Renders a record as one flat JSON line: the tag first, then each key
/// in call order.
class LineWriter {
 public:
  LineWriter(const char* tag_key, const char* tag) {
    Key(tag_key);
    AppendString(tag, &line_);
  }
  template <class T>
  void operator()(const char* key, const T& value) {
    Key(key);
    AppendValue(value, &line_);
  }
  std::string Finish() {
    line_ += '}';
    return std::move(line_);
  }

 private:
  void Key(const char* key) {
    line_ += line_.empty() ? '{' : ',';
    line_ += '"';
    line_ += key;
    line_ += "\":";
  }
  std::string line_;
};

namespace record_internal {

/// Decodes each listed field, keeping its key for the unknown-key check.
struct FieldReader {
  const Record& rec;
  Status status;
  std::vector<const char*> keys;
  template <class T>
  void operator()(const char* key, T&& field) {
    keys.push_back(key);
    if (status.ok()) status = ReadValue(rec, key, &field);
  }
  // Counts are checked once the whole block is read.
  template <class C>
  void operator()(const char* key, Count<C>) {
    keys.push_back(key);
  }
};

struct Renderer {
  std::vector<std::pair<const char*, std::string>> fields;
  template <class T>
  void operator()(const char* key, const T& value) {
    fields.emplace_back(key, std::string());
    AppendValue(value, &fields.back().second);
  }
};

}  // namespace record_internal

/// Decode \p rec through the field list \p fields (a callable taking a
/// visitor): every field in list order, then the unknown-key check.
template <class F>
Status ReadFields(const Record& rec, const char* codec_key, F&& fields) {
  record_internal::FieldReader reader{rec, Status::OK(), {}};
  fields(reader);
  POLYDAB_RETURN_NOT_OK(reader.status);
  return CheckKeys(rec, codec_key, reader.keys);
}

/// Each field's (key, wire bytes), in list order.
template <class F>
std::vector<std::pair<const char*, std::string>> RenderFields(F&& fields) {
  record_internal::Renderer renderer;
  fields(renderer);
  return std::move(renderer.fields);
}

}  // namespace polydab::recovery

#endif  // POLYDAB_RECOVERY_RECORD_H_
