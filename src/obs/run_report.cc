#include "obs/run_report.h"

#include <cstdio>

#include "obs/json.h"

namespace p2p::obs {

void RunReport::AddConfig(const std::string& key, const std::string& value) {
  config_.emplace_back(key, value);
}

void RunReport::AddConfig(const std::string& key, const char* value) {
  config_.emplace_back(key, std::string(value));
}

void RunReport::AddConfig(const std::string& key, double value) {
  config_.emplace_back(key, JsonWriter::FormatNumber(value));
}

void RunReport::AddConfig(const std::string& key, std::int64_t value) {
  config_.emplace_back(key, std::to_string(value));
}

void RunReport::AddConfig(const std::string& key, bool value) {
  config_.emplace_back(key, value ? "true" : "false");
}

void RunReport::AddResult(const std::string& key, double value) {
  results_.emplace_back(key, value);
}

void RunReport::AddTimeseries(const std::string& name, const std::string& path,
                              std::size_t rows, std::size_t total_rows) {
  timeseries_.push_back(TimeseriesRef{name, path, rows, total_rows});
}

void RunReport::AddAlerts(const std::string& name, const AlertEngine& engine) {
  AlertsRef ref;
  ref.name = name;
  ref.fires = engine.fires();
  ref.clears = engine.clears();
  ref.dropped = engine.dropped_events();
  ref.evaluations = engine.evaluations();
  ref.events.reserve(engine.events().size());
  for (const AlertEvent& ev : engine.events()) {
    ref.events.push_back(AlertEventRef{ev.time_ms,
                                       engine.rules()[ev.rule].name,
                                       ev.kind == AlertEvent::kFire,
                                       ev.value});
  }
  alerts_.push_back(std::move(ref));
}

std::string RunReport::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("schema").String(kRunReportSchema);
  w.Key("experiment").String(experiment_);
  w.Key("seed").Uint(seed_);
  w.Key("config").BeginObject();
  for (const auto& [k, v] : config_) w.Key(k).String(v);
  w.EndObject();
  w.Key("results").BeginObject();
  for (const auto& [k, v] : results_) w.Key(k).Number(v);
  w.EndObject();
  w.Key("metrics");
  if (!metrics_json_.empty()) {
    w.Raw(metrics_json_);
  } else {
    w.Null();
  }
  if (!alerts_.empty()) {
    w.Key("alerts").BeginObject();
    for (const AlertsRef& a : alerts_) {
      w.Key(a.name).BeginObject();
      w.Key("fires").Uint(a.fires);
      w.Key("clears").Uint(a.clears);
      w.Key("dropped").Uint(a.dropped);
      w.Key("evaluations").Uint(a.evaluations);
      w.Key("events").BeginArray();
      for (const AlertEventRef& ev : a.events) {
        w.BeginObject();
        w.Key("t_ms").Number(ev.time_ms);
        w.Key("rule").String(ev.rule);
        w.Key("kind").String(ev.fire ? "fire" : "clear");
        w.Key("value").Number(ev.value);
        w.EndObject();
      }
      w.EndArray();
      w.EndObject();
    }
    w.EndObject();
  }
  w.Key("timeseries").BeginArray();
  for (const auto& ts : timeseries_) {
    w.BeginObject();
    w.Key("name").String(ts.name);
    w.Key("path").String(ts.path);
    w.Key("rows").Uint(ts.rows);
    w.Key("total_rows").Uint(ts.total_rows);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.Take();
}

bool RunReport::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = ToJson();
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size() &&
                  std::fputc('\n', f) != EOF;
  return std::fclose(f) == 0 && ok;
}

}  // namespace p2p::obs
