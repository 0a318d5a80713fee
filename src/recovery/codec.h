#ifndef POLYDAB_RECOVERY_CODEC_H_
#define POLYDAB_RECOVERY_CODEC_H_

#include <string>

#include "common/matrix.h"
#include "common/status.h"
#include "obs/record.h"
#include "poly/polynomial.h"

/// \file codec.h
/// Token codecs of the checkpoint and WAL formats. The on-disk
/// records are the flat one-line JSON objects json_util.h already reads
/// and writes; anything vector- or polynomial-shaped is packed into a
/// single JSON *string* field as space/punctuation-separated tokens, so
/// the line format stays flat. Every codec is an exact inverse of its
/// encoder: doubles go through shortest-round-trip rendering (JsonNumber)
/// plus explicit "inf"/"-inf"/"nan" tokens (installed DABs and EQI merge
/// targets are +inf for unplanned items), so a decode → encode round trip
/// is byte-identical and a restore is bit-identical.

namespace polydab::recovery {

/// Shortest-round-trip rendering of one double, extended with "inf",
/// "-inf" and "nan" tokens that JsonNumber cannot produce.
std::string EncodeDouble(double v);
/// Inverse of EncodeDouble. InvalidArgument on anything else.
Status DecodeDouble(const std::string& tok, double* out);

/// Space-separated EncodeDouble tokens ("" for an empty vector).
std::string EncodeVector(const Vector& v);
Status DecodeVector(const std::string& s, Vector* out);

/// The int-list codec is the shared record codec's (obs/record.h).
using obs::DecodeInts;
using obs::EncodeInts;

/// Canonical polynomial encoding, term-exact: terms joined by '|', each
/// term "<coef>@<var>:<pow>[,<var>:<pow>...]" ("<coef>@" for the constant
/// term). A polynomial is already canonical (sorted, merged) in memory,
/// so encode(decode(s)) == s and decode(encode(p)) reproduces p's exact
/// coefficient bits. The zero polynomial encodes as "".
std::string EncodePolynomial(const Polynomial& p);
Status DecodePolynomial(const std::string& s, Polynomial* out);

}  // namespace polydab::recovery

#endif  // POLYDAB_RECOVERY_CODEC_H_
