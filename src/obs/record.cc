#include "obs/record.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace polydab::obs {

Status LineError(int64_t line_number, const std::string& msg) {
  return Status::InvalidArgument("line " + std::to_string(line_number) +
                                 ": " + msg);
}

Result<std::string> ReadFileText(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    return Status::InvalidArgument("cannot open '" + path + "'");
  }
  std::string text;
  char buf[1 << 16];
  size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, got);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) return Status::Internal("read error on '" + path + "'");
  return text;
}

Status WriteFileText(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::InvalidArgument("cannot open '" + path + "' for writing");
  }
  const size_t written = std::fwrite(text.data(), 1, text.size(), f);
  const bool ok = written == text.size() && std::fclose(f) == 0;
  if (!ok) return Status::Internal("short write to '" + path + "'");
  return Status::OK();
}

Status ForEachRecord(const std::string& text, const char* format,
                     const char* tag_key,
                     const std::function<Status(Record&)>& each) {
  size_t start = 0;
  int64_t line_number = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    const bool terminated = end != std::string::npos;
    if (!terminated) end = text.size();
    std::string line = text.substr(start, end - start);
    start = end + 1;
    ++line_number;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    if (!terminated) {
      return LineError(line_number,
                       "truncated record at end of file (no trailing "
                       "newline; partial write?)");
    }
    Record rec;
    rec.format = format;
    rec.tag_key = tag_key;
    rec.line_number = line_number;
    Status parsed = ParseFlatJsonLine(line, &rec.strings, &rec.numbers);
    if (!parsed.ok()) return LineError(line_number, parsed.message());
    auto tit = rec.strings.find(tag_key);
    if (tit == rec.strings.end()) {
      return LineError(line_number, std::string(format) +
                                        " record has no '" + tag_key +
                                        "' tag");
    }
    rec.tag = tit->second;
    rec.raw = std::move(line);
    POLYDAB_RETURN_NOT_OK(each(rec));
  }
  return Status::OK();
}

Status ReadRecords(const std::string& path, const char* format,
                   const char* tag_key, std::vector<Record>* out) {
  out->clear();
  POLYDAB_ASSIGN_OR_RETURN(const std::string text, ReadFileText(path));
  return ForEachRecord(text, format, tag_key, [out](Record& rec) {
    out->push_back(std::move(rec));
    return Status::OK();
  });
}

Status UnknownRecordType(const Record& rec) {
  return LineError(rec.line_number, std::string("unknown ") + rec.format +
                                        " record type '" + rec.tag + "'");
}

Status CheckKeys(const Record& rec, const char* codec_key,
                 const std::vector<const char*>& keys) {
  auto allowed = [&](const std::string& k) {
    if (k == rec.tag_key) return true;
    if (codec_key != nullptr && k == codec_key) return true;
    for (const char* key : keys) {
      if (k == key) return true;
    }
    return false;
  };
  auto check = [&](const auto& fields) {
    for (const auto& [k, v] : fields) {
      if (!allowed(k)) {
        return LineError(rec.line_number, "unknown key '" + k + "' in " +
                                              rec.format + " '" + rec.tag +
                                              "' record");
      }
    }
    return Status::OK();
  };
  POLYDAB_RETURN_NOT_OK(check(rec.strings));
  return check(rec.numbers);
}

void AppendString(std::string_view s, std::string* out) {
  *out += '"';
  AppendJsonEscaped(s, out);
  *out += '"';
}

std::vector<std::string> SplitTokens(const std::string& s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= s.size()) {
    size_t end = s.find(sep, start);
    if (end == std::string::npos) end = s.size();
    out.push_back(s.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

Status DecodeLong(const std::string& tok, long long* out, long long lo,
                  long long hi) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(tok.c_str(), &end, 10);
  if (errno != 0 || end == tok.c_str() || *end != '\0' || v < lo || v > hi) {
    return Status::InvalidArgument("bad integer token '" + tok + "'");
  }
  *out = v;
  return Status::OK();
}

std::string EncodeInts(const std::vector<int>& v) {
  std::string out;
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ' ';
    out += std::to_string(v[i]);
  }
  return out;
}

Status DecodeInts(const std::string& s, std::vector<int>* out) {
  out->clear();
  if (s.empty()) return Status::OK();
  for (const std::string& tok : SplitTokens(s, ' ')) {
    long long v = 0;
    POLYDAB_RETURN_NOT_OK(DecodeLong(tok, &v, std::numeric_limits<int>::min(),
                                     std::numeric_limits<int>::max()));
    out->push_back(static_cast<int>(v));
  }
  return Status::OK();
}

namespace {

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

}  // namespace

Status ReadNumber(const Record& rec, const std::string& key, double* out) {
  return Lookup(rec, rec.numbers, key, out);
}

Status ReadString(const Record& rec, const std::string& key,
                  std::string* out) {
  return Lookup(rec, rec.strings, key, out);
}

void AppendInfoLines(const std::map<std::string, std::string>& info,
                     std::string* out) {
  for (const auto& [key, value] : info) {
    AppendRecordLine("type", "info", InfoRecord{key, value}, out);
  }
}

Status ReadInfo(const Record& rec, std::map<std::string, std::string>* info) {
  InfoRecord r;
  POLYDAB_RETURN_NOT_OK(
      ReadFields(rec, nullptr, [&](auto& v) { InfoRecord::Fields(r, v); }));
  (*info)[r.key] = std::move(r.value);
  return Status::OK();
}

}  // namespace polydab::obs
