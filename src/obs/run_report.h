// Structured run reports: every CLI experiment ends by emitting one
// `run_report.json` — the experiment name, its effective configuration,
// its headline result numbers, a metrics-registry snapshot, and pointers
// to any timeseries CSVs it wrote. Reports follow the "p2preport/v1"
// schema (tools/report_schema.json; validated by tools/validate_report.py
// via `tools/run_tests.sh --report`), so runs can be diffed and regressed
// across PRs instead of comparing eyeballed stdout tables.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/alert.h"
#include "obs/metrics.h"

namespace p2p::obs {

inline constexpr const char* kRunReportSchema = "p2preport/v1";

class RunReport {
 public:
  explicit RunReport(std::string experiment) : experiment_(std::move(experiment)) {}

  void set_seed(std::uint64_t seed) { seed_ = seed; }

  // Effective configuration, insertion-ordered. All values stringified —
  // the schema keeps config opaque; results carry the numbers.
  void AddConfig(const std::string& key, const std::string& value);
  void AddConfig(const std::string& key, const char* value);
  void AddConfig(const std::string& key, double value);
  void AddConfig(const std::string& key, std::int64_t value);
  void AddConfig(const std::string& key, bool value);

  // Headline scalar results (the numbers the stdout table prints).
  void AddResult(const std::string& key, double value);

  // Embed a snapshot of `registry` taken now (a later call replaces it);
  // the registry need not outlive the report. include_profile adds the
  // wall-clock section.
  void AttachMetrics(const MetricsRegistry* registry,
                     bool include_profile = true) {
    metrics_json_ = registry->SnapshotJson(include_profile);
  }

  // Reference a timeseries CSV written alongside the report.
  void AddTimeseries(const std::string& name, const std::string& path,
                     std::size_t rows, std::size_t total_rows);

  // Snapshot an alert engine's bounded event log into the report's
  // "alerts" section under `name` (one entry per engine — experiments with
  // several scenario runs snapshot each). Copies at call time, so the
  // engine need not outlive the report.
  void AddAlerts(const std::string& name, const AlertEngine& engine);

  std::string ToJson() const;
  // Write ToJson() to `path` (plus a trailing newline); false on I/O error.
  bool Write(const std::string& path) const;

 private:
  std::string experiment_;
  std::uint64_t seed_ = 0;
  std::vector<std::pair<std::string, std::string>> config_;
  std::vector<std::pair<std::string, double>> results_;
  struct TimeseriesRef {
    std::string name;
    std::string path;
    std::size_t rows = 0;
    std::size_t total_rows = 0;
  };
  std::vector<TimeseriesRef> timeseries_;
  struct AlertEventRef {
    double time_ms = 0.0;
    std::string rule;
    bool fire = true;
    double value = 0.0;
  };
  struct AlertsRef {
    std::string name;
    std::size_t fires = 0;
    std::size_t clears = 0;
    std::size_t dropped = 0;
    std::size_t evaluations = 0;
    std::vector<AlertEventRef> events;
  };
  std::vector<AlertsRef> alerts_;
  std::string metrics_json_;  // empty: no registry attached
};

}  // namespace p2p::obs
