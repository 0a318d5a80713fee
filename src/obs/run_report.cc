#include "obs/run_report.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace polydab::obs {

namespace {

constexpr NameOf<InstrumentKind> kKindNames[] = {
    {InstrumentKind::kCounter, "counter"},
    {InstrumentKind::kGauge, "gauge"},
    {InstrumentKind::kHistogram, "histogram"}};

}  // namespace

RunReport RunReport::FromRegistry(const MetricRegistry& registry) {
  RunReport report;
  for (const MetricRegistry::Entry& src : registry.Entries()) {
    Entry e;
    e.name = src.name;
    e.kind = src.kind;
    switch (src.kind) {
      case InstrumentKind::kCounter:
        e.counter_value = src.counter->value();
        break;
      case InstrumentKind::kGauge:
        e.gauge_value = src.gauge->value();
        break;
      case InstrumentKind::kHistogram:
        e.count = src.histogram->count();
        e.sum = src.histogram->sum();
        e.min = src.histogram->min();
        e.max = src.histogram->max();
        e.p50 = src.histogram->Quantile(0.50);
        e.p90 = src.histogram->Quantile(0.90);
        e.p99 = src.histogram->Quantile(0.99);
        break;
    }
    report.entries.push_back(std::move(e));
  }
  return report;
}

std::string RunReport::ToJsonLines() const {
  std::string out;
  AppendInfoLines(info, &out);
  for (const Entry& e : entries) {
    AppendRecordLine("type", NameFor<InstrumentKind>(kKindNames, e.kind), e,
                     &out);
  }
  return out;
}

std::string RunReport::ToText() const {
  size_t width = 4;
  for (const Entry& e : entries) width = std::max(width, e.name.size());
  std::string out;
  char buf[256];
  for (const auto& [key, value] : info) {
    out += "# " + key + ": " + value + "\n";
  }
  for (const Entry& e : entries) {
    switch (e.kind) {
      case InstrumentKind::kCounter:
        std::snprintf(buf, sizeof(buf), "%-*s  counter    %" PRId64 "\n",
                      static_cast<int>(width), e.name.c_str(),
                      e.counter_value);
        break;
      case InstrumentKind::kGauge:
        std::snprintf(buf, sizeof(buf), "%-*s  gauge      %g\n",
                      static_cast<int>(width), e.name.c_str(), e.gauge_value);
        break;
      case InstrumentKind::kHistogram:
        std::snprintf(buf, sizeof(buf),
                      "%-*s  histogram  count=%" PRId64
                      " mean=%.3g p50=%.3g p90=%.3g p99=%.3g max=%.3g\n",
                      static_cast<int>(width), e.name.c_str(), e.count,
                      e.count == 0 ? 0.0
                                   : e.sum / static_cast<double>(e.count),
                      e.p50, e.p90, e.p99, e.max);
        break;
    }
    out += buf;
  }
  return out;
}

Status RunReport::WriteJsonLines(const std::string& path) const {
  return WriteFileText(path, ToJsonLines());
}

Result<RunReport> RunReport::ParseJsonLines(const std::string& text) {
  RunReport report;
  POLYDAB_RETURN_NOT_OK(
      ForEachRecord(text, "report", "type", [&](const Record& rec) {
        if (rec.tag == "info") return ReadInfo(rec, &report.info);
        Entry e;
        if (!ValueFor<InstrumentKind>(kKindNames, rec.tag, &e.kind)) {
          return UnknownRecordType(rec);
        }
        POLYDAB_RETURN_NOT_OK(
            ReadFields(rec, nullptr, [&](auto& v) { Entry::Fields(e, v); }));
        report.entries.push_back(std::move(e));
        return Status::OK();
      }));
  return report;
}

const RunReport::Entry* RunReport::Find(const std::string& name) const {
  for (const Entry& e : entries) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

}  // namespace polydab::obs
