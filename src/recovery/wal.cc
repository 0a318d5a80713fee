#include "recovery/wal.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "recovery/record.h"

namespace polydab::recovery {

namespace {

constexpr char kWalVersion[] = "polydab.wal.v1";

/// Wire tag of each WalRecord::Kind, in enum order.
constexpr const char* kKindTags[] = {"hdr", "row", "ack", "churn", "crash"};

Status DecodeWalRecord(const Record& rec, WalRecord* out) {
  const auto* tag = std::find(std::begin(kKindTags), std::end(kKindTags),
                              rec.tag);
  if (tag == std::end(kKindTags)) {
    return LineError(rec.line_number,
                     "unknown wal record kind '" + rec.tag + "'");
  }
  out->kind = static_cast<WalRecord::Kind>(tag - std::begin(kKindTags));
  const char* codec_key = nullptr;
  if (out->kind == WalRecord::Kind::kHeader) {
    codec_key = "v";
    std::string version;
    POLYDAB_RETURN_NOT_OK(ReadValue(rec, "v", &version));
    if (version != kWalVersion) {
      return LineError(rec.line_number, "wal version skew: file says '" +
                                            version + "', this build reads '" +
                                            kWalVersion + "'");
    }
  }
  return ReadFields(rec, codec_key,
                    [&](auto& v) { WalRecord::Fields(*out, v); });
}

}  // namespace

void AppendWal(std::FILE* f, const WalRecord& r) {
  LineWriter w("w", kKindTags[static_cast<int>(r.kind)]);
  if (r.kind == WalRecord::Kind::kHeader) w("v", std::string(kWalVersion));
  WalRecord::Fields(r, w);
  std::string line = w.Finish();
  line += '\n';
  std::fwrite(line.data(), 1, line.size(), f);
}

Status LoadWal(const std::string& path, std::vector<WalRecord>* out) {
  out->clear();
  std::vector<Record> recs;
  POLYDAB_RETURN_NOT_OK(ReadRecords(path, "wal", "w", &recs));
  bool saw_header = false;
  for (const Record& rec : recs) {
    WalRecord r;
    POLYDAB_RETURN_NOT_OK(DecodeWalRecord(rec, &r));
    if (r.kind == WalRecord::Kind::kHeader) {
      saw_header = true;
      continue;  // headers carry no state; one per engine invocation
    }
    if (!saw_header) {
      return LineError(rec.line_number, "wal record before any 'hdr' record");
    }
    out->push_back(std::move(r));
  }
  if (!saw_header) {
    return Status::InvalidArgument("'" + path +
                                   "': not a polydab WAL (no 'hdr' record)");
  }
  return Status::OK();
}

const WalRecord* LastCrashMarker(const std::vector<WalRecord>& records) {
  for (size_t i = records.size(); i > 0; --i) {
    if (records[i - 1].kind == WalRecord::Kind::kCrash) return &records[i - 1];
  }
  return nullptr;
}

}  // namespace polydab::recovery
