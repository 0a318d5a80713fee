#include "recovery/checkpoint.h"

#include <cstdio>

#include "common/hash.h"
#include "recovery/codec.h"
#include "recovery/record.h"

namespace polydab::recovery {

namespace {

constexpr char kCkptVersion[] = "polydab.ckpt.v3";

/// The block's digest footer.
struct BlockFooter {
  uint32_t digest = 0;  ///< FNV-1a over the block's lines, newlines included
  int64_t n = 0;        ///< the block's line count, footer excluded

  template <class S, class V>
  static void Fields(S& s, V& v) {
    v("digest", s.digest);
    v("n", s.n);
  }
};

/// Append one line per element of \p recs. The codec writes the
/// positional index under \p index_key (nullptr: none) before the fields.
template <class R>
void WriteList(const char* tag, const char* index_key,
               const std::vector<R>& recs, std::vector<std::string>* lines) {
  for (size_t i = 0; i < recs.size(); ++i) {
    LineWriter w("t", tag);
    if (index_key != nullptr) w(index_key, i);
    R::Fields(recs[i], w);
    lines->push_back(w.Finish());
  }
}

/// Serialize one snapshot into its block lines (footer excluded).
std::vector<std::string> BuildBlockLines(const CheckpointState& st) {
  std::vector<std::string> lines;
  lines.reserve(8 + st.queries.size() + st.parts.size() + st.events.size());
  {
    LineWriter w("t", "hdr");
    w("v", std::string(kCkptVersion));
    CheckpointState::HeaderFields(st, w);
    lines.push_back(w.Finish());
  }
  {
    LineWriter w("t", "met");
    RunCounters::Fields(st.metrics, w);
    lines.push_back(w.Finish());
  }
  WriteList("q", "slot", st.queries, &lines);
  WriteList("part", nullptr, st.parts, &lines);
  {
    LineWriter w("t", "items");
    CheckpointItems::Fields(st.items, w);
    lines.push_back(w.Finish());
  }
  WriteList("ev", nullptr, st.events, &lines);
  WriteList("src", "i", st.sources, &lines);
  WriteList("if", "i", st.item_fault, &lines);
  return lines;
}

/// A wire value cut to 40 characters for human-oriented output.
std::string Clip(const std::string& s) {
  return s.size() > 40 ? s.substr(0, 40) + "..." : s;
}

uint32_t BlockDigest(const std::vector<std::string>& lines) {
  uint32_t h = kFnv1a32Seed;
  for (const std::string& line : lines) {
    h = Fnv1a32(line.data(), line.size(), h);
    h = Fnv1a32("\n", 1, h);
  }
  return h;
}

/// Header record counts against the records the block actually holds.
struct CountCheck {
  const Record& hdr;
  Status status;
  template <class T>
  void operator()(const char*, const T&) {}
  template <class C>
  void operator()(const char* key, Count<C> c) {
    if (!status.ok()) return;
    size_t want = 0;
    status = ReadValue(hdr, key, &want);
    if (status.ok() && want != c.records.size()) {
      status = Status::InvalidArgument(
          "checkpoint block is internally inconsistent: header '" +
          std::string(key) + "' says " + std::to_string(want) +
          " records, block has " + std::to_string(c.records.size()));
    }
  }
};

/// Decode a digest-verified block. Block segmentation starts every block
/// at its one header, so the header is read before any other record.
Status DecodeBlock(const std::vector<const Record*>& recs,
                   CheckpointState* st) {
  *st = CheckpointState();
  for (const Record* rp : recs) {
    const Record& rec = *rp;
    if (rec.tag == "hdr") {
      std::string version;
      POLYDAB_RETURN_NOT_OK(ReadValue(rec, "v", &version));
      if (version != kCkptVersion) {
        return LineError(rec.line_number,
                         "checkpoint version skew: file says '" + version +
                             "', this build reads '" + kCkptVersion + "'");
      }
      POLYDAB_RETURN_NOT_OK(ReadFields(
          rec, "v", [&](auto& v) { CheckpointState::HeaderFields(*st, v); }));
      if (st->num_items < 0) {
        return LineError(rec.line_number, "ckpt 'hdr' item count is negative");
      }
    } else if (rec.tag == "met") {
      POLYDAB_RETURN_NOT_OK(ReadFields(
          rec, nullptr,
          [&](auto& v) { RunCounters::Fields(st->metrics, v); }));
    } else if (rec.tag == "q") {
      POLYDAB_RETURN_NOT_OK(ReadListRecord(rec, "slot", &st->queries));
    } else if (rec.tag == "part") {
      POLYDAB_RETURN_NOT_OK(ReadListRecord(rec, nullptr, &st->parts));
    } else if (rec.tag == "items") {
      POLYDAB_RETURN_NOT_OK(ReadFields(
          rec, nullptr,
          [&](auto& v) { CheckpointItems::Fields(st->items, v); }));
    } else if (rec.tag == "ev") {
      POLYDAB_RETURN_NOT_OK(ReadListRecord(rec, nullptr, &st->events));
    } else if (rec.tag == "src") {
      POLYDAB_RETURN_NOT_OK(ReadListRecord(rec, "i", &st->sources));
    } else if (rec.tag == "if") {
      POLYDAB_RETURN_NOT_OK(ReadListRecord(rec, "i", &st->item_fault));
    } else {
      return obs::UnknownRecordType(rec);
    }
  }
  CountCheck counts{*recs.front(), Status::OK()};
  CheckpointState::HeaderFields(*st, counts);
  return counts.status;
}

}  // namespace

Status WriteCheckpoint(const CheckpointState& state, const std::string& path) {
  std::vector<std::string> lines = BuildBlockLines(state);
  BlockFooter footer;
  footer.digest = BlockDigest(lines);
  footer.n = static_cast<int64_t>(lines.size());
  LineWriter w("t", "end");
  BlockFooter::Fields(footer, w);
  lines.push_back(w.Finish());
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) {
    return Status::InvalidArgument("cannot open '" + path +
                                   "' for appending");
  }
  bool ok = true;
  for (const std::string& line : lines) {
    ok = ok && std::fwrite(line.data(), 1, line.size(), f) == line.size();
    ok = ok && std::fputc('\n', f) != EOF;
  }
  ok = ok && std::fflush(f) == 0;
  const bool closed = std::fclose(f) == 0;
  if (!ok || !closed) {
    return Status::Internal("short write to '" + path + "'");
  }
  return Status::OK();
}

Status LoadLatestCheckpoint(const std::string& path, CheckpointState* out) {
  // Pass 1: split and syntax-parse every line, keeping raw bytes.
  std::vector<Record> recs;
  POLYDAB_RETURN_NOT_OK(ReadRecords(path, "ckpt", "t", &recs));
  if (recs.empty()) {
    return Status::InvalidArgument("'" + path + "' is empty");
  }

  // Pass 2: segment into blocks. Every block is hdr .. end; only the last
  // block may be footer-less (a torn write we fall back across).
  struct Block {
    size_t begin = 0;  // hdr index in recs
    size_t footer = 0; // end index, valid when complete
    bool complete = false;
  };
  std::vector<Block> blocks;
  for (size_t i = 0; i < recs.size(); ++i) {
    if (recs[i].tag == "hdr") {
      blocks.push_back(Block{i, 0, false});
    } else if (recs[i].tag == "end") {
      if (blocks.empty() || blocks.back().complete) {
        return LineError(recs[i].line_number,
                         "ckpt digest footer without a block header");
      }
      blocks.back().footer = i;
      blocks.back().complete = true;
    } else if (blocks.empty() || blocks.back().complete) {
      return LineError(recs[i].line_number,
                       "ckpt record outside any block");
    }
  }
  const Block* chosen = nullptr;
  for (size_t b = blocks.size(); b > 0; --b) {
    if (blocks[b - 1].complete) {
      chosen = &blocks[b - 1];
      break;
    }
    if (b != blocks.size()) {
      return LineError(recs[blocks[b - 1].begin].line_number,
                       "ckpt block has no digest footer but is not the "
                       "last block in the file");
    }
  }
  if (chosen == nullptr) {
    return Status::InvalidArgument(
        "'" + path + "' has no complete checkpoint block (torn write with "
        "no earlier snapshot to fall back to)");
  }

  // Pass 3: verify the chosen block's digest footer.
  const Record& footer_rec = recs[chosen->footer];
  BlockFooter footer;
  POLYDAB_RETURN_NOT_OK(ReadFields(
      footer_rec, nullptr, [&](auto& v) { BlockFooter::Fields(footer, v); }));
  std::vector<std::string> raw_lines;
  std::vector<const Record*> block_recs;
  for (size_t i = chosen->begin; i < chosen->footer; ++i) {
    raw_lines.push_back(recs[i].raw);
    block_recs.push_back(&recs[i]);
  }
  if (footer.n != static_cast<int64_t>(raw_lines.size())) {
    return LineError(footer_rec.line_number,
                     "ckpt footer line count mismatch: footer says " +
                         std::to_string(footer.n) + ", block has " +
                         std::to_string(raw_lines.size()));
  }
  const uint32_t have_digest = BlockDigest(raw_lines);
  if (footer.digest != have_digest) {
    return LineError(footer_rec.line_number,
                     "ckpt digest mismatch: footer says " +
                         std::to_string(footer.digest) +
                         ", block hashes to " + std::to_string(have_digest) +
                         " (corrupted snapshot)");
  }

  // Pass 4: strict field decode of the verified block.
  return DecodeBlock(block_recs, out);
}

std::string SummarizeCheckpoint(const CheckpointState& st) {
  std::string out = std::string("format ") + kCkptVersion + "\n";
  auto print = [&](const char* tag, auto&& fields) {
    for (const auto& [key, value] : RenderFields(fields)) {
      out += std::string(tag) + "." + key + " " + Clip(value) + "\n";
    }
  };
  print("hdr", [&](auto& v) { CheckpointState::HeaderFields(st, v); });
  print("met", [&](auto& v) { RunCounters::Fields(st.metrics, v); });
  size_t live = 0;
  for (const CheckpointQuery& q : st.queries) {
    if (q.alive) ++live;
  }
  out += "queries " + std::to_string(live) + " live / " +
         std::to_string(st.queries.size()) + " slots\n";
  return out;
}

namespace {

/// Diff helper: count every difference, print the first max_lines of them.
struct DiffSink {
  int count = 0;
  int max_lines = 0;
  std::string* out = nullptr;

  void Report(const std::string& path, const std::string& a,
              const std::string& b) {
    if (a == b) return;
    ++count;
    if (count <= max_lines) {
      *out += "  " + path + ": " + Clip(a) + " vs " + Clip(b) + "\n";
    }
  }

  /// Compare two records through their field list \p fields, a callable
  /// (record, visitor), by each field's wire bytes. Both records list the
  /// same fields.
  template <class R, class F>
  void Compare(const std::string& path, const R& a, const R& b, F&& fields) {
    const auto fa = RenderFields([&](auto& v) { fields(a, v); });
    const auto fb = RenderFields([&](auto& v) { fields(b, v); });
    for (size_t i = 0; i < fa.size(); ++i) {
      Report(path + "." + fa[i].first, fa[i].second, fb[i].second);
    }
  }

  /// Compare two record lists element by element.
  template <class R>
  void List(const std::string& tag, const std::vector<R>& a,
            const std::vector<R>& b) {
    Report(tag + ".size", std::to_string(a.size()), std::to_string(b.size()));
    for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
      Compare(tag + "[" + std::to_string(i) + "]", a[i], b[i],
             [](const R& r, auto& v) { R::Fields(r, v); });
    }
  }
};

}  // namespace

int DiffCheckpoints(const CheckpointState& a, const CheckpointState& b,
                    int max_lines, std::string* out) {
  DiffSink d;
  d.max_lines = max_lines;
  d.out = out;
  using State = CheckpointState;
  d.Compare("hdr", a, b,
           [](const State& s, auto& v) { State::HeaderFields(s, v); });
  d.Compare("met", a.metrics, b.metrics,
            [](const RunCounters& s, auto& v) { RunCounters::Fields(s, v); });
  d.List("q", a.queries, b.queries);
  d.List("part", a.parts, b.parts);
  d.Compare("items", a.items, b.items, [](const CheckpointItems& s, auto& v) {
    CheckpointItems::Fields(s, v);
  });
  d.List("ev", a.events, b.events);
  d.List("src", a.sources, b.sources);
  d.List("if", a.item_fault, b.item_fault);
  if (d.count > d.max_lines) {
    *out += "  ... " + std::to_string(d.count - d.max_lines) +
            " more difference(s)\n";
  }
  return d.count;
}

}  // namespace polydab::recovery
