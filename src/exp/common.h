// What the experiment files (experiments.cc, figures.cc) share: progress
// and note formatting, tables whose numbers double as report results, and
// the session every pool-based planning experiment samples.
#pragma once

#include <algorithm>
#include <cctype>
#include <cstdarg>
#include <cstdio>
#include <string>
#include <variant>
#include <vector>

#include "alm/planner.h"
#include "obs/run_report.h"
#include "pool/resource_pool.h"
#include "util/csv.h"
#include "util/rng.h"

namespace p2p::exp {

// printf to `out`, unless it is null.
__attribute__((format(printf, 2, 3)))
inline void Progress(std::FILE* out, const char* fmt, ...) {
  if (out == nullptr) return;
  va_list args;
  va_start(args, fmt);
  std::vfprintf(out, fmt, args);
  va_end(args);
}

// printf into a string (the note lines under an experiment's table).
__attribute__((format(printf, 1, 2)))
inline std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  char buf[512];
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

// A metric/value table whose numeric rows double as report results, so an
// experiment names each headline number once.
class Headlines {
 public:
  explicit Headlines(obs::RunReport& report) : report_(report) {}
  // A table row that is no result.
  void Text(const std::string& label, util::Table::Cell value) {
    table_.AddRow({label, std::move(value)});
  }
  // The result `key`, also a table row unless `show` is false.
  void Add(const std::string& label, const std::string& key, double value,
           bool show = true) {
    if (show) Text(label, value);
    report_.AddResult(key, value);
  }
  void Count(const std::string& label, const std::string& key,
             std::size_t n, bool show = true) {
    if (show) Text(label, static_cast<long long>(n));
    report_.AddResult(key, static_cast<double>(n));
  }
  std::string ToText(int precision) const { return table_.ToText(precision); }

 private:
  obs::RunReport& report_;
  util::Table table_{{"metric", "value"}};
};

// An aligned table whose every numeric cell is also the report result
// `<name>.<row>.<column>`, the row named by its `key_column` cell, so an
// experiment names each plotted number once. A name keeps [A-Za-z0-9+-]
// and turns each other run of characters into one '_' ("0.05" -> "0_05",
// "minimax (cond 1-3)" -> "minimax_cond_1-3").
class ResultTable {
 public:
  ResultTable(obs::RunReport& report, std::string name,
              std::vector<std::string> header, std::size_t key_column = 0)
      : report_(report), name_(std::move(name)), key_column_(key_column),
        table_(std::move(header)) {}

  void AddRow(std::vector<util::Table::Cell> row) {
    table_.AddRow(row);
    const std::string prefix = name_ + "." + Key(row[key_column_]) + ".";
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i == key_column_) continue;
      const std::string key = prefix + Key(table_.header()[i]);
      if (const auto* d = std::get_if<double>(&row[i]))
        report_.AddResult(key, *d);
      if (const auto* n = std::get_if<long long>(&row[i]))
        report_.AddResult(key, static_cast<double>(*n));
    }
  }
  std::string ToText(int precision) const { return table_.ToText(precision); }

 private:
  static std::string Key(const util::Table::Cell& cell) {
    std::string text;
    if (const auto* s = std::get_if<std::string>(&cell)) text = *s;
    if (const auto* d = std::get_if<double>(&cell)) text = StrFormat("%g", *d);
    if (const auto* n = std::get_if<long long>(&cell))
      text = std::to_string(*n);
    std::string key;
    for (const char ch : text) {
      if (std::isalnum(static_cast<unsigned char>(ch)) || ch == '+' ||
          ch == '-') {
        key += ch;
      } else if (!key.empty() && key.back() != '_') {
        key += '_';
      }
    }
    if (!key.empty() && key.back() == '_') key.pop_back();
    return key;
  }

  obs::RunReport& report_;
  std::string name_;
  std::size_t key_column_;
  util::Table table_;
};

// The height every improvement is measured against (§5.2): the plain
// AMCast tree over the members, with no helpers and no adjustment.
inline double AmcastBaseline(const alm::PlanInput& in) {
  return alm::TreePlanner(alm::OptionsForStrategy(alm::Strategy::kAmcast))
      .Plan(in)
      .height_true;
}

// A `group`-host session drawn by `rng` on `rp`, root first, with the
// pool's true and estimated latencies and degree bounds. With
// `stream_kbps` > 0 each bound is capped at the streams the host's uplink
// carries, plus one for a non-root host's own parent edge. Every other
// host whose bound is at least 4 is a helper candidate.
inline alm::PlanInput SamplePoolSession(const pool::ResourcePool& rp,
                                        util::Rng& rng, std::size_t group,
                                        double stream_kbps = 0.0) {
  const auto idx = rng.SampleIndices(rp.size(), group);
  alm::PlanInput in;
  in.degree_bounds = rp.degree_bounds();
  if (stream_kbps > 0.0) {
    for (std::size_t v = 0; v < rp.size(); ++v) {
      const double up = rp.bandwidths().host(v).up_kbps;
      const int cap =
          static_cast<int>(up / stream_kbps) + (v == idx[0] ? 0 : 1);
      in.degree_bounds[v] = std::min(in.degree_bounds[v], cap);
    }
  }
  in.root = idx[0];
  in.members.assign(idx.begin() + 1, idx.end());
  std::vector<char> is_member(rp.size(), 0);
  for (const auto v : idx) is_member[v] = 1;
  for (std::size_t v = 0; v < rp.size(); ++v) {
    if (!is_member[v] && in.degree_bounds[v] >= 4)
      in.helper_candidates.push_back(v);
  }
  in.true_latency = rp.TrueLatencyFn();
  in.estimated_latency = rp.EstimatedLatencyFn();
  return in;
}

}  // namespace p2p::exp
