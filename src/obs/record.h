#ifndef POLYDAB_OBS_RECORD_H_
#define POLYDAB_OBS_RECORD_H_

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/json_util.h"

/// \file record.h
/// The field-list codec behind every flat JSON-lines record polydab reads
/// and writes: the trace (trace.h), series (timeseries.h) and run-report
/// (run_report.h) formats here, and the checkpoint and WAL formats of
/// src/recovery/ (docs/OBSERVABILITY.md "Record formats"). Every record
/// struct names its fields once, as (wire key, member) pairs in wire
/// order:
///
///   template <class S, class V> static void Fields(S& s, V& v) {
///     v("tick", s.tick);
///     v("node", Omit{s.node, -1});
///   }
///
/// `S` is the record type, const or not, so the one list serves reading
/// and writing. Three visitors derive from it: LineWriter renders the
/// record as one flat JSON line, ReadFields decodes it strictly (unknown
/// keys, missing keys, malformed values and integers their member cannot
/// hold are line-numbered InvalidArgument naming the key), and
/// RenderFields yields each field's wire bytes, which is what a snapshot
/// diff compares.
///
/// The member's type picks its wire form (FieldCodec): bools (0/1) and
/// integers are JSON integers, doubles JSON numbers, strings JSON strings,
/// and std::vector<int> one JSON string of space-separated integers. Two
/// wrappers add forms: Omit{member, default} leaves the key out while the
/// member holds its default (and restores the default when the key is
/// absent), and Named{member, names} writes an enum by name. Other layers
/// add packed-string forms by specializing FieldCodec (recovery/record.h).

namespace polydab::obs {

/// One parsed flat-JSON record line.
struct Record {
  const char* format = "";   ///< "trace", "series", "ckpt", ... (diagnostics)
  const char* tag_key = "";  ///< the key naming the record's type
  int64_t line_number = 0;
  std::string raw;  ///< the line's bytes (checkpoint digests chain them)
  std::string tag;  ///< the value under tag_key
  std::map<std::string, std::string> strings;
  std::map<std::string, double> numbers;
};

Status LineError(int64_t line_number, const std::string& msg);

/// The whole contents of \p path.
Result<std::string> ReadFileText(const std::string& path);
/// Write \p text to \p path, truncating it.
Status WriteFileText(const std::string& path, const std::string& text);

/// Parse every non-blank line of \p text into a Record and hand it to
/// \p each, stopping at the first error. A final line without its newline
/// is a torn write and an error (every writer terminates its lines); so
/// is a line that is not a flat JSON object or has no string under
/// \p tag_key.
Status ForEachRecord(const std::string& text, const char* format,
                     const char* tag_key,
                     const std::function<Status(Record&)>& each);

/// ReadFileText + ForEachRecord, collecting every record.
Status ReadRecords(const std::string& path, const char* format,
                   const char* tag_key, std::vector<Record>* out);

/// "unknown <format> record type '<tag>'".
Status UnknownRecordType(const Record& rec);

/// Reject any key of \p rec that is not its tag key, \p codec_key (the
/// one key the codec writes beside the field list, or nullptr) or one of
/// \p keys.
Status CheckKeys(const Record& rec, const char* codec_key,
                 const std::vector<const char*>& keys);

/// The one integer decode of every format: \p v must be integral and
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

/// \p s as a quoted, escaped JSON string, appended to \p out.
void AppendString(std::string_view s, std::string* out);

/// Split \p s on \p sep, empty pieces included (the encoders never emit
/// doubled separators, so an empty piece is a format error flagged by the
/// per-token decoders).
std::vector<std::string> SplitTokens(const std::string& s, char sep);
/// Decimal integer token in [lo, hi].
Status DecodeLong(const std::string& tok, long long* out,
                  long long lo = std::numeric_limits<long long>::min(),
                  long long hi = std::numeric_limits<long long>::max());

/// Space-separated decimal integers ("" for an empty vector).
std::string EncodeInts(const std::vector<int>& v);
Status DecodeInts(const std::string& s, std::vector<int>* out);

/// The number / string under \p key; a missing key is a line-numbered
/// error.
Status ReadNumber(const Record& rec, const std::string& key, double* out);
Status ReadString(const Record& rec, const std::string& key,
                  std::string* out);

/// Decode the string under \p key with \p decode (string -> Status); a
/// decode failure is a line-numbered error naming the key.
template <class F>
Status ReadPacked(const Record& rec, const std::string& key, F&& decode) {
  std::string s;
  POLYDAB_RETURN_NOT_OK(ReadString(rec, key, &s));
  Status decoded = decode(s);
  if (decoded.ok()) return decoded;
  return LineError(rec.line_number, std::string(rec.format) + " '" +
                                        rec.tag + "' key '" + key +
                                        "': " + decoded.message());
}

/// The wire form of a member type: Append renders a value, Read decodes
/// the field under a key. Built in for bools, integers, doubles and
/// strings; specialize it to add a form.
template <class T>
struct FieldCodec {
  static void Append(const T& v, std::string* out) {
    if constexpr (std::is_same_v<T, bool>) {
      *out += v ? '1' : '0';
    } else if constexpr (std::is_integral_v<T>) {
      *out += std::to_string(v);
    } else if constexpr (std::is_same_v<T, double>) {
      *out += JsonNumber(v);
    } else if constexpr (std::is_same_v<T, std::string>) {
      AppendString(v, out);
    } else {
      static_assert(sizeof(T) == 0, "no wire form for this field type");
    }
  }
  static Status Read(const Record& rec, const std::string& key, T* out) {
    if constexpr (std::is_same_v<T, std::string>) {
      return ReadString(rec, key, out);
    } else {
      double v = 0.0;
      POLYDAB_RETURN_NOT_OK(ReadNumber(rec, key, &v));
      if constexpr (std::is_same_v<T, double>) {
        *out = v;
      } else if (!ToInteger(v, out)) {
        return LineError(rec.line_number,
                         std::string(rec.format) + " '" + rec.tag +
                             "' key '" + key + "' holds " + JsonNumber(v) +
                             ", not an integer its field can hold");
      }
      return Status::OK();
    }
  }
};

/// A form packed into one JSON string by an Encode / Decode pair.
template <class T, std::string (*Encode)(const T&),
          Status (*Decode)(const std::string&, T*)>
struct PackedCodec {
  static void Append(const T& v, std::string* out) {
    AppendString(Encode(v), out);
  }
  static Status Read(const Record& rec, const std::string& key, T* out) {
    return ReadPacked(rec, key,
                      [out](const std::string& s) { return Decode(s, out); });
  }
};

template <>
struct FieldCodec<std::vector<int>>
    : PackedCodec<std::vector<int>, EncodeInts, DecodeInts> {};

/// A field left off the line while its member holds \p fallback; reading
/// a line without the key restores it.
template <class T>
struct Omit {
  T& value;
  std::remove_const_t<T> fallback;
};
template <class T>
Omit(T&, std::type_identity_t<T>) -> Omit<T>;

/// One (enumerator, wire name) pair of a Named field's table.
template <class E>
struct NameOf {
  E value;
  const char* name;
};

/// The wire name of \p v in \p names ("?" when unlisted).
template <class E>
const char* NameFor(std::span<const NameOf<E>> names, E v) {
  for (const NameOf<E>& n : names) {
    if (n.value == v) return n.name;
  }
  return "?";
}
/// Inverse of NameFor; false when \p name is unlisted.
template <class E>
bool ValueFor(std::span<const NameOf<E>> names, std::string_view name,
              E* out) {
  for (const NameOf<E>& n : names) {
    if (name == n.name) {
      *out = n.value;
      return true;
    }
  }
  return false;
}

/// An enum (or bool) field written as its name from \p names; reading an
/// unlisted name is an error naming the key.
template <class E>
struct Named {
  E& value;
  std::span<const NameOf<std::remove_const_t<E>>> names;
};
template <class E, class N>
Named(E&, const N&) -> Named<E>;

template <class E>
struct FieldCodec<Named<E>> {
  static void Append(const Named<E>& f, std::string* out) {
    AppendString(NameFor<std::remove_const_t<E>>(f.names, f.value), out);
  }
  static Status Read(const Record& rec, const std::string& key,
                     Named<E>* f) {
    return ReadPacked(rec, key, [f](const std::string& s) {
      return ValueFor(f->names, s, &f->value)
                 ? Status::OK()
                 : Status::InvalidArgument("unknown name '" + s + "'");
    });
  }
};

/// Decode one field of \p rec into \p out, typed by the member.
template <class T>
Status ReadValue(const Record& rec, const std::string& key, T* out) {
  return FieldCodec<T>::Read(rec, key, out);
}

/// The member a field-list entry refers to, with Omit unwrapped.
template <class T>
T& Member(T& field) {
  return field;
}
template <class T>
T& Member(const Omit<T>& field) {
  return field.value;
}

/// Renders a record as one flat JSON line: the tag first, then each key
/// in call order. Either owns the line (Finish returns it) or appends it
/// to a caller's buffer (Finish closes it there).
class LineWriter {
 public:
  LineWriter(const char* tag_key, const char* tag)
      : LineWriter(&line_, tag_key, tag) {}
  LineWriter(std::string* out, const char* tag_key, const char* tag)
      : out_(out) {
    Key(tag_key);
    AppendString(tag, out_);
  }
  LineWriter(const LineWriter&) = delete;
  LineWriter& operator=(const LineWriter&) = delete;

  template <class T>
  void operator()(const char* key, const T& value) {
    Key(key);
    FieldCodec<T>::Append(value, out_);
  }
  template <class T>
  void operator()(const char* key, const Omit<T>& field) {
    if (field.value != field.fallback) (*this)(key, field.value);
  }
  std::string Finish() {
    *out_ += '}';
    return std::move(line_);
  }

 private:
  void Key(const char* key) {
    *out_ += first_ ? '{' : ',';
    first_ = false;
    *out_ += '"';
    *out_ += key;
    *out_ += "\":";
  }
  std::string line_;
  std::string* out_;
  bool first_ = true;
};

/// Append one line, newline included, to \p out: the tag, then whatever
/// \p fields (a callable taking the LineWriter) writes.
template <class F>
void AppendLine(const char* tag_key, const char* tag, F&& fields,
                std::string* out) {
  LineWriter w(out, tag_key, tag);
  fields(w);
  w.Finish();
  *out += '\n';
}

/// Append \p rec's line, through R::Fields, to \p out.
template <class R>
void AppendRecordLine(const char* tag_key, const char* tag, const R& rec,
                      std::string* out) {
  AppendLine(tag_key, tag, [&rec](LineWriter& w) { R::Fields(rec, w); },
             out);
}

namespace record_internal {

/// Decodes each listed field, counting down the keys on the line that no
/// field has read yet.
struct FieldReader {
  const Record& rec;
  Status status;
  size_t unread;
  template <class T>
  void operator()(const char* key, T&& field) {
    if (!status.ok()) return;
    status = ReadValue(rec, key, &field);
    --unread;
  }
  template <class T>
  void operator()(const char* key, Omit<T> field) {
    if (!status.ok()) return;
    const std::string k(key);
    if (unread == 0 ||
        (rec.numbers.count(k) == 0 && rec.strings.count(k) == 0)) {
      field.value = field.fallback;
      return;
    }
    status = ReadValue(rec, k, &field.value);
    --unread;
  }
};

struct KeyCollector {
  std::vector<const char*> keys;
  template <class T>
  void operator()(const char* key, T&&) {
    keys.push_back(key);
  }
};

struct Renderer {
  std::vector<std::pair<const char*, std::string>> fields;
  template <class T>
  void operator()(const char* key, const T& value) {
    fields.emplace_back(key, std::string());
    FieldCodec<T>::Append(value, &fields.back().second);
  }
  template <class T>
  void operator()(const char* key, const Omit<T>& field) {
    (*this)(key, field.value);
  }
};

}  // namespace record_internal

/// Decode \p rec through the field list \p fields (a callable taking a
/// visitor): every field in list order, then the unknown-key check.
template <class F>
Status ReadFields(const Record& rec, const char* codec_key, F&& fields) {
  // Every key but the tag and the codec key is the list's to read; only
  // when some key is left over is the stranger named.
  const bool codec = codec_key != nullptr &&
                     (rec.numbers.count(codec_key) != 0 ||
                      rec.strings.count(codec_key) != 0);
  record_internal::FieldReader reader{
      rec, Status::OK(),
      rec.numbers.size() + rec.strings.size() - 1 - (codec ? 1 : 0)};
  fields(reader);
  POLYDAB_RETURN_NOT_OK(reader.status);
  if (reader.unread == 0) return Status::OK();
  record_internal::KeyCollector collector;
  fields(collector);
  return CheckKeys(rec, codec_key, collector.keys);
}

/// Decode \p rec through R::Fields into a new element of \p out. With an
/// \p index_key, the record's positional index must be out->size().
template <class R>
Status ReadListRecord(const Record& rec, const char* index_key,
                      std::vector<R>* out) {
  R r;
  POLYDAB_RETURN_NOT_OK(
      ReadFields(rec, index_key, [&](auto& v) { R::Fields(r, v); }));
  if (index_key != nullptr) {
    size_t i = 0;
    POLYDAB_RETURN_NOT_OK(ReadValue(rec, index_key, &i));
    if (i != out->size()) {
      return LineError(rec.line_number, std::string(rec.format) + " '" +
                                            rec.tag +
                                            "' records out of order");
    }
  }
  out->push_back(std::move(r));
  return Status::OK();
}

/// Each field's (key, wire bytes), in list order.
template <class F>
std::vector<std::pair<const char*, std::string>> RenderFields(F&& fields) {
  record_internal::Renderer renderer;
  fields(renderer);
  return std::move(renderer.fields);
}

/// The `info` record the trace, series and run-report formats share: one
/// metadata key/value pair, tagged "info" under "type".
struct InfoRecord {
  std::string key;
  std::string value;

  template <class S, class V>
  static void Fields(S& s, V& v) {
    v("key", s.key);
    v("value", s.value);
  }
};

/// One info line per entry of \p info, in key order.
void AppendInfoLines(const std::map<std::string, std::string>& info,
                     std::string* out);
/// Decode an info record into \p info (a repeated key: last one wins).
Status ReadInfo(const Record& rec, std::map<std::string, std::string>* info);

}  // namespace polydab::obs

#endif  // POLYDAB_OBS_RECORD_H_
