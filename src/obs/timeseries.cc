#include "obs/timeseries.h"

#include <algorithm>
#include <cstdlib>

#include "common/logging.h"
#include "obs/trace_fold.h"

namespace polydab::obs {

namespace {

bool IsAlertEvent(TraceEventKind kind) {
  return kind == TraceEventKind::kAlertFire ||
         kind == TraceEventKind::kAlertResolve;
}

}  // namespace

const std::vector<std::string>& SeriesMetricNames() {
  static const std::vector<std::string>* names = [] {
    auto* v = new std::vector<std::string>;
    auto collect = [v](const char* key, double) { v->push_back(key); };
    const SeriesWindow w;
    SeriesWindow::MetricFields(w, collect);
    return v;
  }();
  return *names;
}

double SeriesMetricValue(const SeriesWindow& w, const std::string& name) {
  double value = 0.0;
  auto find = [&](const char* key, auto m) {
    if (name == key) value = static_cast<double>(m);
  };
  SeriesWindow::MetricFields(w, find);
  return value;
}

// ---------------------------------------------------------------------------
// Serialization

std::string SeriesToJsonLines(const SeriesFile& series) {
  std::string out;
  AppendInfoLines(series.info, &out);
  for (size_t i = 0; i < series.rules.size(); ++i) {
    AppendLine("type", "slo_rule", [&](LineWriter& w) {
      w("index", i);
      SloRule::Fields(series.rules[i], w);
    }, &out);
  }
  // Windows with their breakdown / sample / alert rows grouped behind
  // them. The row vectors are index-ordered (that is how the recorder
  // appends them), so simple cursors interleave them back.
  auto rows = [&out](const char* tag, const auto& list, auto window_of,
                     size_t* i, int64_t window) {
    for (; *i < list.size() && list[*i].*window_of == window; ++*i) {
      AppendRecordLine("type", tag, list[*i], &out);
    }
  };
  size_t dim_i = 0, sample_i = 0, alert_i = 0;
  for (const SeriesWindow& w : series.windows) {
    AppendRecordLine("type", "window", w, &out);
    rows("window_dim", series.dims, &SeriesDimRow::index, &dim_i, w.index);
    rows("sample", series.samples, &SeriesSample::index, &sample_i, w.index);
    rows("alert", series.alerts, &SloAlert::window, &alert_i, w.index);
  }
  if (series.has_totals) {
    AppendRecordLine("type", "series_summary", series.totals, &out);
  }
  return out;
}

Result<SeriesFile> ParseSeriesJsonLines(const std::string& text) {
  SeriesFile series;
  // A string field outside its closed set of values.
  auto one_of = [](const Record& rec, const char* key, const std::string& v,
                   std::initializer_list<const char*> allowed) {
    for (const char* a : allowed) {
      if (v == a) return Status::OK();
    }
    return LineError(rec.line_number, "series '" + rec.tag + "' key '" +
                                          key + "' holds unknown value \"" +
                                          v + "\"");
  };
  POLYDAB_RETURN_NOT_OK(ForEachRecord(
      text, "series", "type", [&](const Record& rec) -> Status {
        if (rec.tag == "info") return ReadInfo(rec, &series.info);
        if (rec.tag == "slo_rule") {
          POLYDAB_RETURN_NOT_OK(ReadListRecord(rec, "index", &series.rules));
          if (series.rules.back().windows >= 1) return Status::OK();
          return LineError(rec.line_number, "slo_rule windows < 1");
        }
        if (rec.tag == "window") {
          return ReadListRecord(rec, nullptr, &series.windows);
        }
        if (rec.tag == "window_dim") {
          POLYDAB_RETURN_NOT_OK(ReadListRecord(rec, nullptr, &series.dims));
          return one_of(rec, "dim", series.dims.back().dim,
                        {"lane", "query", "source"});
        }
        if (rec.tag == "sample") {
          POLYDAB_RETURN_NOT_OK(
              ReadListRecord(rec, nullptr, &series.samples));
          return one_of(rec, "kind", series.samples.back().kind,
                        {"counter", "gauge", "histogram"});
        }
        if (rec.tag == "alert") {
          return ReadListRecord(rec, nullptr, &series.alerts);
        }
        if (rec.tag == "series_summary") {
          if (series.has_totals) {
            return LineError(rec.line_number,
                             "duplicate series_summary record");
          }
          series.has_totals = true;
          return ReadFields(rec, nullptr, [&](auto& v) {
            SeriesTotals::Fields(series.totals, v);
          });
        }
        return UnknownRecordType(rec);
      }));
  return series;
}

Status SaveSeriesFile(const SeriesFile& series, const std::string& path) {
  return WriteFileText(path, SeriesToJsonLines(series));
}

Result<SeriesFile> LoadSeriesFile(const std::string& path) {
  POLYDAB_ASSIGN_OR_RETURN(const std::string text, ReadFileText(path));
  return ParseSeriesJsonLines(text);
}

// ---------------------------------------------------------------------------
// SeriesRecorder

/// The per-window message-count accumulator, behind a box so timeseries.h
/// need not include trace_fold.h.
struct SeriesRecorder::DerivedBox {
  TraceDerivedStats stats;
};

SeriesRecorder::SeriesRecorder(SeriesConfig config)
    : config_(std::move(config)),
      engine_(config_.rules),
      derived_(std::make_unique<DerivedBox>()),
      queue_wait_(std::make_unique<Histogram>()) {
  POLYDAB_CHECK(config_.window_ticks >= 1);
  POLYDAB_CHECK(config_.fidelity_stride >= 1);
  file_.rules = config_.rules;
  if (config_.derive_samples) {
    next_sample_ = static_cast<double>(config_.fidelity_stride);
  }
}

SeriesRecorder::~SeriesRecorder() = default;

void SeriesRecorder::SetInitialQueries(int64_t n) { live_ = n; }

void SeriesRecorder::OnEvent(const TraceEvent& e) {
  if (IsAlertEvent(e.kind) || finalized_) return;
  if (config_.derive_samples) AdvanceReplayTo(e.time);
  ApplyEvent(e);
  last_event_id_ = e.id;
}

void SeriesRecorder::ApplyEvent(const TraceEvent& e) {
  AccumulateDerivedStats(e, &derived_->stats);
  switch (e.kind) {
    case TraceEventKind::kRefreshArrived:
      queue_wait_->Record(e.b);
      break;
    case TraceEventKind::kFidelityViolation:
      ++cur_violations_;
      break;
    case TraceEventKind::kQueryRegister:
      ++cur_registrations_;
      ++live_;
      break;
    case TraceEventKind::kQueryDeregister:
      ++cur_deregistrations_;
      --live_;
      break;
    case TraceEventKind::kQueryModify:
      ++cur_modifications_;
      break;
    case TraceEventKind::kAdmissionReject:
      ++cur_rejections_;
      break;
    default:
      break;
  }
  if (!config_.breakdown) return;
  switch (e.kind) {
    case TraceEventKind::kRefreshArrived:
      if (e.shard >= 0) ++cur_dims_[{0, e.shard}].refreshes;
      if (e.source >= 0) ++cur_dims_[{2, e.source}].refreshes;
      break;
    case TraceEventKind::kRecomputeStart:
      if (e.shard >= 0) ++cur_dims_[{0, e.shard}].recomputations;
      if (e.query >= 0) ++cur_dims_[{1, e.query}].recomputations;
      break;
    case TraceEventKind::kUserNotification:
      if (e.shard >= 0) ++cur_dims_[{0, e.shard}].notifications;
      if (e.query >= 0) ++cur_dims_[{1, e.query}].notifications;
      break;
    default:
      break;
  }
}

void SeriesRecorder::AddFidelitySamples(int64_t live) {
  POLYDAB_CHECK(!config_.derive_samples);
  cur_samples_ += live;
}

void SeriesRecorder::TakeSample() {
  cur_samples_ += live_;
  next_sample_ += static_cast<double>(config_.fidelity_stride);
}

void SeriesRecorder::AdvanceReplayTo(double t) {
  const double width = static_cast<double>(config_.window_ticks);
  while (true) {
    const double boundary = window_start_ + width;
    // A grid point on the boundary belongs to the closing window; a grid
    // point equal to the incoming event's time is taken *after* that
    // event (the simulator applies same-tick churn before it samples).
    if (next_sample_ < t && next_sample_ <= boundary) {
      TakeSample();
      continue;
    }
    if (boundary < t) {
      CloseWindow(boundary);
      continue;
    }
    break;
  }
}

void SeriesRecorder::OnTickEnd(double now) {
  POLYDAB_CHECK(!config_.derive_samples);
  const double width = static_cast<double>(config_.window_ticks);
  while (!finalized_ && now >= window_start_ + width) {
    CloseWindow(window_start_ + width);
  }
}

void SeriesRecorder::Finalize(double end_time) {
  if (finalized_) return;
  const double width = static_cast<double>(config_.window_ticks);
  if (config_.derive_samples) {
    while (true) {
      const double boundary = window_start_ + width;
      if (next_sample_ <= end_time && next_sample_ <= boundary) {
        TakeSample();
        continue;
      }
      if (boundary <= end_time) {
        CloseWindow(boundary);
        continue;
      }
      break;
    }
  } else {
    while (end_time >= window_start_ + width) {
      CloseWindow(window_start_ + width);
    }
  }
  if (end_time > window_start_) CloseWindow(end_time);  // trailing partial
  file_.has_totals = true;
  finalized_ = true;
}

void SeriesRecorder::CloseWindow(double end) {
  SeriesWindow w;
  w.index = next_index_;
  w.start = window_start_;
  w.end = end;
  const TraceDerivedStats& d = derived_->stats;
  w.refreshes = d.refreshes;
  w.recomputations = d.recomputations;
  w.dab_changes = d.dab_change_messages;
  w.notifications = d.user_notifications;
  w.solver_failures = d.solver_failures;
  w.fault_drops = d.fault_drops;
  w.retransmits = d.retransmits;
  w.dups_suppressed = d.duplicates_suppressed;
  w.lease_expiries = d.lease_expiries;
  w.violations = cur_violations_;
  w.samples = cur_samples_;
  w.violation_rate = static_cast<double>(w.violations) /
                     static_cast<double>(std::max<int64_t>(1, w.samples));
  w.live_queries = live_;
  w.registrations = cur_registrations_;
  w.deregistrations = cur_deregistrations_;
  w.modifications = cur_modifications_;
  w.rejections = cur_rejections_;
  w.queue_wait_count = queue_wait_->count();
  if (w.queue_wait_count > 0) {
    w.queue_wait_p50 = queue_wait_->Quantile(0.5);
    w.queue_wait_p90 = queue_wait_->Quantile(0.9);
    w.queue_wait_p99 = queue_wait_->Quantile(0.99);
  }
  file_.windows.push_back(w);

  static const char* const kDimNames[] = {"lane", "query", "source"};
  for (const auto& [key, counts] : cur_dims_) {
    SeriesDimRow row;
    row.index = w.index;
    row.dim = kDimNames[key.first];
    row.id = key.second;
    row.refreshes = counts.refreshes;
    row.recomputations = counts.recomputations;
    row.notifications = counts.notifications;
    file_.dims.push_back(std::move(row));
  }

  if (config_.registry != nullptr) {
    for (const MetricRegistry::Entry& entry : config_.registry->Entries()) {
      SeriesSample s;
      s.index = w.index;
      s.name = entry.name;
      switch (entry.kind) {
        case InstrumentKind::kCounter: {
          const int64_t value = entry.counter->value();
          const int64_t delta = value - prev_counter_[entry.name];
          prev_counter_[entry.name] = value;
          if (delta == 0) continue;
          s.kind = "counter";
          s.value = static_cast<double>(delta);
          break;
        }
        case InstrumentKind::kGauge: {
          const double value = entry.gauge->value();
          auto it = prev_gauge_.find(entry.name);
          const double prev = it == prev_gauge_.end() ? 0.0 : it->second;
          if (value == prev) continue;
          prev_gauge_[entry.name] = value;
          s.kind = "gauge";
          s.value = value;
          break;
        }
        case InstrumentKind::kHistogram: {
          // Count delta only: histogram sums are wall-clock measurements
          // and would make the series file nondeterministic.
          const int64_t count = entry.histogram->count();
          const int64_t delta = count - prev_hist_count_[entry.name];
          prev_hist_count_[entry.name] = count;
          if (delta == 0) continue;
          s.kind = "histogram";
          s.value = static_cast<double>(delta);
          break;
        }
      }
      file_.samples.push_back(std::move(s));
    }
  }

  SeriesTotals& t = file_.totals;
  ++t.windows;
  std::vector<int64_t> counts;
  auto collect = [&counts](const char*, int64_t n) { counts.push_back(n); };
  SeriesTotals::WindowSums(w, collect);
  auto add = [&counts, k = size_t{0}](const char*, int64_t& sum) mutable {
    sum += counts[k++];
  };
  SeriesTotals::WindowSums(t, add);

  if (!engine_.rules().empty()) {
    std::vector<double> values;
    values.reserve(engine_.rules().size());
    for (const SloRule& rule : engine_.rules()) {
      values.push_back(SeriesMetricValue(w, rule.metric));
    }
    std::vector<SloAlert> alerts;
    engine_.OnWindowClose(w.index, end, values, last_event_id_, &alerts);
    for (const SloAlert& alert : alerts) {
      file_.alerts.push_back(alert);
      if (alert.fire) ++t.alerts_fired;
      else ++t.alerts_resolved;
      if (alert_sink_ != nullptr) {
        TraceEvent e;
        e.time = end;
        e.kind = alert.fire ? TraceEventKind::kAlertFire
                            : TraceEventKind::kAlertResolve;
        e.flag = alert.rule;
        e.a = alert.value;
        e.b = alert.threshold;
        e.c = static_cast<double>(alert.consecutive);
        e.cause = alert.cause;
        alert_sink_->Emit(e);
      }
    }
  }

  derived_->stats = TraceDerivedStats{};
  cur_violations_ = 0;
  cur_samples_ = 0;
  cur_registrations_ = 0;
  cur_deregistrations_ = 0;
  cur_modifications_ = 0;
  cur_rejections_ = 0;
  queue_wait_ = std::make_unique<Histogram>();
  cur_dims_.clear();
  window_start_ = end;
  ++next_index_;
}

Result<SeriesFile> FoldTraceSeries(const TraceFile& trace) {
  const auto wit = trace.info.find("series_window_s");
  if (wit == trace.info.end()) {
    return Status::InvalidArgument(
        "trace carries no series_window_s info key (not recorded with "
        "series-out)");
  }
  char* end = nullptr;
  const long window = std::strtol(wit->second.c_str(), &end, 10);
  if (end == wit->second.c_str() || *end != '\0' || window < 1) {
    return Status::InvalidArgument("series_window_s info \"" + wit->second +
                                   "\" is not a positive integer");
  }
  if (!trace.summary) {
    return Status::InvalidArgument("series trace carries no run summary");
  }
  const TraceRunSummary& s = *trace.summary;

  SeriesConfig cfg;
  cfg.window_ticks = window;
  cfg.breakdown = trace.info.find("series_breakdown") != trace.info.end();
  cfg.derive_samples = true;
  cfg.fidelity_stride = s.fidelity_stride >= 1 ? s.fidelity_stride : 1;
  const auto rit = trace.info.find("slo_rules");
  if (rit != trace.info.end()) {
    Result<std::vector<SloRule>> parsed =
        ParseSloRules(rit->second, SeriesMetricNames());
    if (!parsed.ok()) {
      return Status::InvalidArgument("slo_rules info key is malformed: " +
                                     parsed.status().message());
    }
    cfg.rules = std::move(parsed).value();
  }
  SeriesRecorder replay(cfg);
  // Live queries at t=0: every query_info record that was not registered
  // by a churn event.
  int64_t initial = static_cast<int64_t>(trace.queries.size());
  for (const TraceEvent& e : trace.events) {
    if (e.kind == TraceEventKind::kQueryRegister) --initial;
  }
  replay.SetInitialQueries(initial);
  for (const TraceEvent& e : trace.events) replay.OnEvent(e);
  replay.Finalize(static_cast<double>(s.ticks - 1));
  return replay.file();
}

}  // namespace polydab::obs
