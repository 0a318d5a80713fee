#ifndef POLYDAB_RECOVERY_RECORD_H_
#define POLYDAB_RECOVERY_RECORD_H_

#include <string>

#include "common/matrix.h"
#include "common/status.h"
#include "obs/record.h"
#include "recovery/codec.h"

/// \file record.h
/// The checkpoint and WAL formats (docs/RECOVERY.md) are field lists over
/// the shared record codec (obs/record.h). This header adds the wire
/// forms only they use, as obs::FieldCodec specializations: Vector,
/// Buckets and Polynomial packed into one JSON string by the codec.h
/// token codecs, Token (a double that may be infinite) and Count (a
/// header's record count).

namespace polydab::recovery {

using obs::CheckKeys;
using obs::LineError;
using obs::LineWriter;
using obs::ReadFields;
using obs::ReadListRecord;
using obs::ReadRecords;
using obs::ReadValue;
using obs::Record;
using obs::RenderFields;

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

}  // namespace polydab::recovery

namespace polydab::obs {

template <>
struct FieldCodec<Vector>
    : PackedCodec<Vector, recovery::EncodeVector, recovery::DecodeVector> {};
template <>
struct FieldCodec<recovery::Buckets>
    : PackedCodec<recovery::Buckets, recovery::EncodeBuckets,
                  recovery::DecodeBuckets> {};
template <>
struct FieldCodec<Polynomial>
    : PackedCodec<Polynomial, recovery::EncodePolynomial,
                  recovery::DecodePolynomial> {};

template <class T>
struct FieldCodec<recovery::Token<T>> {
  static void Append(const recovery::Token<T>& t, std::string* out) {
    AppendString(recovery::EncodeDouble(t.value), out);
  }
  static Status Read(const Record& rec, const std::string& key,
                     recovery::Token<T>* t) {
    return ReadPacked(rec, key, [t](const std::string& s) {
      return recovery::DecodeDouble(s, &t->value);
    });
  }
};

template <class C>
struct FieldCodec<recovery::Count<C>> {
  static void Append(const recovery::Count<C>& c, std::string* out) {
    FieldCodec<size_t>::Append(c.records.size(), out);
  }
  // Only the key's presence: counts are checked once the whole block
  // is read.
  static Status Read(const Record& rec, const std::string& key,
                     recovery::Count<C>*) {
    double n = 0.0;
    return ReadNumber(rec, key, &n);
  }
};

}  // namespace polydab::obs

#endif  // POLYDAB_RECOVERY_RECORD_H_
