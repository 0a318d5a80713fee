#include "obs/json_util.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace polydab::obs {

void AppendJsonEscaped(std::string_view s, std::string* out) {
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      case '\r': *out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

std::string JsonNumber(double v) {
  char buf[40];
  // Fast path: integral values in the exactly-representable range (tick
  // times, counts, zero-valued payloads — most of a trace file) print
  // directly, no parse-back needed.
  if (v >= -9007199254740992.0 && v <= 9007199254740992.0) {
    const long long i = static_cast<long long>(v);
    if (static_cast<double>(i) == v) {
      return std::string(buf, std::to_chars(buf, buf + sizeof(buf), i).ptr);
    }
  }
  // Shortest round-trip form: general format with a precision is %.*g, so
  // it trims trailing zeros and 15 significant digits already yields
  // "0.1"-style short output; only values that genuinely need 16 or 17
  // digits retry.
  char* end = buf;
  for (int prec = 15; prec <= 17; ++prec) {
    end = std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general,
                        prec)
              .ptr;
    double back = 0.0;
    std::from_chars(buf, end, back);
    if (back == v) break;
  }
  return std::string(buf, end);  // non-finite: "inf"/"nan", as %g prints
}

namespace {

/// Minimal parser for flat one-line JSON objects: string keys mapping to
/// string or number values. No nesting, no arrays.
class LineParser {
 public:
  explicit LineParser(const std::string& line) : s_(line) {}

  Status Parse(std::map<std::string, std::string>* strings,
               std::map<std::string, double>* numbers) {
    SkipWs();
    if (!Consume('{')) return Err("expected '{'");
    SkipWs();
    if (Consume('}')) return Status::OK();
    while (true) {
      std::string key;
      POLYDAB_RETURN_NOT_OK(ParseString(&key));
      SkipWs();
      if (!Consume(':')) return Err("expected ':'");
      SkipWs();
      if (Peek() == '"') {
        std::string val;
        POLYDAB_RETURN_NOT_OK(ParseString(&val));
        (*strings)[key] = std::move(val);
      } else {
        double val = 0.0;
        POLYDAB_RETURN_NOT_OK(ParseNumber(&val));
        (*numbers)[key] = val;
      }
      SkipWs();
      if (Consume(',')) {
        SkipWs();
        continue;
      }
      if (Consume('}')) return Status::OK();
      return Err("expected ',' or '}'");
    }
  }

 private:
  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  bool Consume(char c) {
    if (Peek() != c) return false;
    ++pos_;
    return true;
  }
  void SkipWs() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t')) ++pos_;
  }
  Status Err(const std::string& what) const {
    return Status::InvalidArgument("bad json line (" + what + " at offset " +
                                   std::to_string(pos_) + "): " + s_);
  }

  Status ParseString(std::string* out) {
    if (!Consume('"')) return Err("expected '\"'");
    out->clear();
    while (pos_ < s_.size()) {
      char c = s_[pos_++];
      if (c == '"') return Status::OK();
      if (c == '\\') {
        if (pos_ >= s_.size()) break;
        char e = s_[pos_++];
        switch (e) {
          case 'n': out->push_back('\n'); break;
          case 't': out->push_back('\t'); break;
          case 'r': out->push_back('\r'); break;
          case 'u': {
            if (pos_ + 4 > s_.size()) return Err("truncated \\u escape");
            out->push_back(static_cast<char>(
                std::strtol(s_.substr(pos_, 4).c_str(), nullptr, 16)));
            pos_ += 4;
            break;
          }
          default: out->push_back(e);
        }
      } else {
        out->push_back(c);
      }
    }
    return Err("unterminated string");
  }

  Status ParseNumber(double* out) {
    const size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::strchr("+-.eE", s_[pos_]) != nullptr ||
            (s_[pos_] >= '0' && s_[pos_] <= '9') ||
            (s_[pos_] >= 'a' && s_[pos_] <= 'z'))) {
      ++pos_;  // letters admit "inf"/"nan", validated by strtod below
    }
    if (pos_ == start) return Err("expected number");
    char* end = nullptr;
    *out = std::strtod(s_.c_str() + start, &end);
    if (end != s_.c_str() + pos_) return Err("malformed number");
    return Status::OK();
  }

  const std::string& s_;
  size_t pos_ = 0;
};

}  // namespace

Status ParseFlatJsonLine(const std::string& line,
                         std::map<std::string, std::string>* strings,
                         std::map<std::string, double>* numbers) {
  return LineParser(line).Parse(strings, numbers);
}

}  // namespace polydab::obs
