#include "recovery/record.h"

#include <cstdio>

namespace polydab::recovery {

Status LineError(int64_t line_number, const std::string& msg) {
  return Status::InvalidArgument("line " + std::to_string(line_number) +
                                 ": " + msg);
}

Status ReadRecords(const std::string& path, const char* format,
                   const char* tag_key, std::vector<Record>* out) {
  out->clear();
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
    Status parsed = obs::ParseFlatJsonLine(line, &rec.strings, &rec.numbers);
    if (!parsed.ok()) return LineError(line_number, parsed.message());
    auto tit = rec.strings.find(tag_key);
    if (tit == rec.strings.end()) {
      return LineError(line_number, std::string(format) +
                                        " record has no '" + tag_key +
                                        "' tag");
    }
    rec.tag = tit->second;
    rec.raw = std::move(line);
    out->push_back(std::move(rec));
  }
  return Status::OK();
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

void AppendString(const std::string& s, std::string* out) {
  *out += '"';
  *out += obs::JsonEscape(s);
  *out += '"';
}

}  // namespace polydab::recovery
