// Shared machinery of the end-to-end benchmark: input parsing, spans,
// result assembly and the trace-only layer probes.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <map>

#include "alm/critical.h"
#include "e2e.h"
#include "net/latency_oracle.h"
#include "obs/json.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/stats.h"

namespace p2p::e2e {

namespace {

// The per-layer metrics every workload reports under --trace, in output
// order. BENCHMARK.json's per_layer list names exactly these; run.py
// refuses a result whose names differ. Shares (%) are self time as a share
// of the workload's root span, except sim.*_pct below the sim share, which
// split the wall time of the simulation's RunUntil calls.
struct LayerSpec {
  const char* name;
  const char* unit;
};
constexpr LayerSpec kLayerMetrics[] = {
    {"net.topology_s", "s"},
    {"net.oracle_s", "s"},
    {"net.query_ns", "ns"},
    {"net.oracle_mib", "MiB"},
    {"net.self_pct", "%"},
    {"dht.self_pct", "%"},
    {"dht.ring_mib", "MiB"},
    {"dht.hb_sent", "count"},
    {"dht.hb_delivered", "count"},
    {"dht.failures_detected", "count"},
    {"dht.undetected", "count"},
    {"dht.false_suspicions", "count"},
    {"dht.leafset_repairs", "count"},
    {"sim.self_pct", "%"},
    {"sim.events", "count"},
    {"sim.events_per_s", "1/s"},
    {"sim.windows", "count"},
    {"sim.cross_msgs", "count"},
    {"sim.critical_path_pct", "%"},
    {"sim.wait_pct", "%"},
    {"sim.exchange_pct", "%"},
    {"sim.drain_pct", "%"},
    {"sim.sort_pct", "%"},
    {"sim.window_pct", "%"},
    {"sim.slab_hwm", "count"},
    {"sim.transport.sent", "count"},
    {"sim.transport.delivered", "count"},
    {"sim.transport.dropped_loss", "count"},
    {"sim.transport.dropped_partition", "count"},
    {"sim.transport.bytes", "B"},
    {"somo.self_pct", "%"},
    {"somo.gathers", "count"},
    {"somo.messages", "count"},
    {"somo.bytes", "B"},
    {"somo.mib", "MiB"},
    {"alm.self_pct", "%"},
    {"alm.plans", "count"},
    {"alm.amcast_ms", "ms"},
    {"alm.helpers_used", "count"},
    {"alm.height_ms", "ms"},
    {"pool.build_pct", "%"},
    {"pool.admit_pct", "%"},
    {"pool.remove_pct", "%"},
    {"pool.sweep_pct", "%"},
    {"pool.reschedules", "count"},
    {"pool.preemptions", "count"},
    {"pool.useful_ratio", "ratio"},
    {"pool.utilisation", "ratio"},
    {"bench.self_pct", "%"},
    {"obs.spans", "count"},
    {"obs.span_coverage_pct", "%"},
};

// FNV-1a, 64 bit.
std::uint64_t Fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string LayerOf(const char* name) {
  const std::string s(name);
  const std::string layer = s.substr(0, s.find('.'));
  return layer == "e2e" ? "bench" : layer;
}

double PeakRssMib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double ProcessCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

// ---------------------------------------------------------------------------
// Inputs

Inputs ReadInputs(const std::string& path) {
  std::ifstream f(path);
  P2P_CHECK_MSG(f.good(), "cannot open input file " << path);
  std::string magic;
  int version = 0;
  f >> magic >> version;
  P2P_CHECK_MSG(magic == "p2pe2e-input" && version == 1,
                "not a p2pe2e-input v1 file: " << path);
  Inputs in;
  auto count = [&f](const std::string& key) {
    long long n = -1;
    f >> n;
    P2P_CHECK_MSG(f && n >= 0 && n <= 100'000'000, "bad count for " << key);
    return static_cast<std::size_t>(n);
  };
  auto host = [&f, &in](const std::string& key) {
    long long h = -1;
    f >> h;
    P2P_CHECK_MSG(f && h >= 0 && static_cast<std::size_t>(h) < in.hosts,
                  "bad host id for " << key << " (hosts " << in.hosts << ")");
    return static_cast<std::size_t>(h);
  };
  auto hosts = [&](const std::string& key) {
    std::vector<std::size_t> v(count(key));
    for (auto& h : v) h = host(key);
    return v;
  };
  std::string key;
  while (f >> key) {
    if (key == "end") return in;
    if (key == "name") {
      f >> in.name;
    } else if (key == "kind") {
      f >> in.kind;
      P2P_CHECK_MSG(in.kind == "steady" || in.kind == "faults" ||
                        in.kind == "plan" || in.kind == "market",
                    "unknown workload kind '" << in.kind << "'");
    } else if (key == "preset") {
      f >> in.preset;
    } else if (key == "hosts") {
      in.hosts = count(key);
    } else if (key == "seed") {
      f >> in.seed;
    } else if (key == "sim_seed") {
      f >> in.sim_seed;
    } else if (key == "shards") {
      in.shards = count(key);
    } else if (key == "horizon_ms") {
      f >> in.horizon_ms;
    } else if (key == "slice_ms") {
      f >> in.slice_ms;
    } else if (key == "loss") {
      f >> in.loss;
    } else if (key == "crash_ms") {
      f >> in.crash_ms;
    } else if (key == "partition_ms") {
      f >> in.partition_start_ms >> in.partition_end_ms;
    } else if (key == "crash") {
      in.crash = hosts("crash");
    } else if (key == "partition") {
      in.partition = hosts("partition");
    } else if (key == "degree_bounds") {
      in.degree_bounds.resize(count(key));
      for (int& d : in.degree_bounds) {
        f >> d;
        P2P_CHECK_MSG(f && d >= 1 && d <= 64, "bad degree bound");
      }
    } else if (key == "request" || key == "probe") {
      Group g;
      if (key == "request") {
        f >> g.priority;
        P2P_CHECK_MSG(f && g.priority >= 1 && g.priority <= 3,
                      "bad request priority");
      }
      g.root = host(key);
      g.members = hosts(key);
      if (key == "request") g.helpers = hosts(key);
      (key == "request" ? in.requests : in.probes).push_back(std::move(g));
    } else if (key == "warmup") {
      in.warmup = count(key);
    } else if (key == "active_cap") {
      in.active_cap = count(key);
    } else if (key == "sweep_every") {
      in.sweep_every = count(key);
    } else if (key == "probe_seed") {
      f >> in.probe_seed;
    } else if (key == "sweep_seed") {
      f >> in.sweep_seed;
    } else {
      P2P_CHECK_MSG(false, "unknown input key '" << key << "'");
    }
    P2P_CHECK_MSG(f, "malformed value for '" << key << "'");
  }
  P2P_CHECK_MSG(false, "input file ends without 'end': " << path);
  return in;
}

// ---------------------------------------------------------------------------
// Tracer

int Tracer::Open(const char* name, std::int64_t request) {
  if (!enabled_) return -1;
  const int id = static_cast<int>(spans_.size());
  const std::int64_t now =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           origin_)
          .count();
  spans_.push_back(
      Record{name, now, now, stack_.empty() ? -1 : stack_.back(), request});
  stack_.push_back(id);
  return id;
}

void Tracer::Close(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           origin_)
          .count();
  P2P_CHECK(!stack_.empty() && stack_.back() == id);
  stack_.pop_back();
}

bool Tracer::WriteJson(const std::string& path) const {
  obs::JsonWriter w;
  w.BeginObject().Key("spans").BeginArray();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    w.BeginObject()
        .Key("id").Uint(i)
        .Key("name").String(r.name)
        .Key("start_us").Number(static_cast<double>(r.start_ns) / 1e3)
        .Key("end_us").Number(static_cast<double>(r.end_ns) / 1e3)
        .Key("parent").Int(r.parent)
        .Key("request").Int(r.request)
        .EndObject();
  }
  w.EndArray().EndObject();
  std::ofstream f(path);
  f << w.str() << "\n";
  return static_cast<bool>(f.flush());
}

// ---------------------------------------------------------------------------
// Result

void Result::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failures_.size() < 20) failures_.push_back(what);
}

void Result::Digest(const std::string& key, double value) {
  pass_digest_ += key + "=" + obs::JsonWriter::FormatNumber(value) + "\n";
}

void Result::EndPass(const std::vector<OpTime>& ops) {
  P2P_CHECK(!ops.empty());
  if (passes_ == 0) {
    digest_text_ = pass_digest_;
    best_ = ops;
  } else {
    Check(pass_digest_ == digest_text_,
          "pass " + std::to_string(passes_ + 1) + " differs from pass 1");
    P2P_CHECK_MSG(ops.size() == best_.size(),
                  "pass " << passes_ + 1 << " timed " << ops.size()
                          << " ops, pass 1 timed " << best_.size());
    for (std::size_t i = 0; i < ops.size(); ++i) {
      best_[i].wall_ms = std::min(best_[i].wall_ms, ops[i].wall_ms);
      best_[i].cpu_ms = std::min(best_[i].cpu_ms, ops[i].cpu_ms);
    }
  }
  pass_digest_.clear();
  ++passes_;
}

void Result::SetSetups(const std::vector<double>& setup_s) {
  P2P_CHECK(!setup_s.empty());
  setup_s_ = util::Median(setup_s);
  Extra("setup_first_s", setup_s.front(), "s");
  Extra("setups", static_cast<double>(setup_s.size()), "count");
}

void Result::SetQuality(double ms) { quality_ms_ = ms; }

void Result::Extra(const std::string& name, double value,
                   const std::string& unit) {
  extra_.push_back({name, value, unit});
}

void Result::Layer(const std::string& name, double value) {
  if (layer_.empty()) {
    for (const LayerSpec& s : kLayerMetrics)
      layer_.push_back({s.name, 0.0, s.unit});
  }
  for (Metric& m : layer_) {
    if (m.name == name) {
      m.value = value;
      return;
    }
  }
  P2P_CHECK_MSG(false, "unknown per-layer metric " << name);
}

void Result::LayerSharesFromSpans(const Tracer& tracer) {
  const auto& spans = tracer.spans();
  P2P_CHECK_MSG(!spans.empty() && spans[0].parent == -1,
                "the workload's root span must come first");
  // Spans under the root (later top-level spans are the layer probes).
  std::vector<char> in_root(spans.size(), 0);
  std::vector<double> self_ns(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const int p = spans[i].parent;
    in_root[i] = i == 0 || (p >= 0 && in_root[static_cast<std::size_t>(p)]);
    self_ns[i] = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
  }
  double covered_ns = 0.0;
  for (std::size_t i = 1; i < spans.size(); ++i) {
    const int p = spans[i].parent;
    if (p < 0) continue;
    const double dur = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    self_ns[static_cast<std::size_t>(p)] -= dur;
    if (p == 0) covered_ns += dur;
  }
  const double root_ns =
      static_cast<double>(spans[0].end_ns - spans[0].start_ns);
  std::map<std::string, double> by_layer;
  std::map<std::string, double> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (!in_root[i]) continue;
    by_layer[LayerOf(spans[i].name)] += self_ns[i];
    by_name[spans[i].name] += self_ns[i];
  }
  const auto pct = [root_ns](double ns) { return 100.0 * ns / root_ns; };
  for (const char* layer : {"net", "dht", "sim", "somo", "alm", "bench"})
    Layer(std::string(layer) + ".self_pct", pct(by_layer[layer]));
  for (const char* call : {"build", "admit", "remove", "sweep"})
    Layer(std::string("pool.") + call + "_pct",
          pct(by_name[std::string("pool.") + call]));
  Layer("obs.spans", static_cast<double>(spans.size()));
  Layer("obs.span_coverage_pct", pct(covered_ns));
}

std::string Result::ToJson(const std::string& workload,
                           const RunOptions& opt, bool traced) const {
  const auto metrics = [](obs::JsonWriter& w, const std::vector<Metric>& ms) {
    w.BeginObject();
    for (const Metric& m : ms)
      w.Key(m.name).BeginObject().Key("value").Number(m.value).Key("unit")
          .String(m.unit).EndObject();
    w.EndObject();
  };
  P2P_CHECK_MSG(!best_.empty(), "the workload timed no ops");
  std::vector<double> cpu_ms, wall_ms;
  for (const OpTime& op : best_) {
    cpu_ms.push_back(op.cpu_ms);
    wall_ms.push_back(op.wall_ms);
  }
  // The mean and the tail follow the host's speed swings more than the
  // median does; they are printed but carry no bound.
  std::vector<Metric> extra = {
      {"op_wall_p50_ms", util::Median(wall_ms), "ms"},
      {"op_cpu_mean_ms", util::Mean(cpu_ms), "ms"},
      {"op_cpu_p99_ms", util::Percentile(cpu_ms, 99.0), "ms"},
      {"ops", static_cast<double>(best_.size()), "count"},
      {"passes", static_cast<double>(passes_), "count"}};
  extra.insert(extra.end(), extra_.begin(), extra_.end());
  char digest[32];
  std::snprintf(digest, sizeof digest, "%016" PRIx64, Fnv1a(digest_text_));
  obs::JsonWriter w;
  w.BeginObject()
      .Key("workload").String(workload)
      .Key("threads").Uint(opt.threads)
      .Key("shard_threads").Uint(opt.shard_threads)
      .Key("traced").Bool(traced)
      .Key("attempted").Uint(attempted_)
      .Key("failed").Uint(failed_)
      .Key("failures").BeginArray();
  for (const std::string& f : failures_) w.String(f);
  w.EndArray().Key("digest").String(digest).Key("e2e");
  metrics(w, {{"setup_s", setup_s_, "s"},
              {"op_cpu_p50_ms", util::Median(cpu_ms), "ms"},
              {"peak_rss_mib", PeakRssMib(), "MiB"},
              {"quality_ms", quality_ms_, "ms"}});
  w.Key("extra");
  metrics(w, extra);
  if (traced) {
    w.Key("per_layer");
    metrics(w, layer_);
  }
  w.EndObject();
  return w.Take();
}

// ---------------------------------------------------------------------------
// Layer probes

void RunLayerProbes(const net::LatencyOracle& oracle,
                    const std::vector<int>& degree_bounds, const Inputs& in,
                    Tracer& tracer, Result& result) {
  constexpr std::size_t kQueries = 1'000'000;
  util::Rng rng(in.probe_seed);
  std::vector<std::uint32_t> pairs(2 * kQueries);
  for (auto& h : pairs)
    h = static_cast<std::uint32_t>(rng.NextBounded(oracle.host_count()));
  double sum = 0.0;
  const double query_ms = TimedMs(tracer, "net.query_probe", -1, [&] {
    for (std::size_t i = 0; i < kQueries; ++i)
      sum += oracle.Latency(pairs[2 * i], pairs[2 * i + 1]);
  });
  result.Layer("net.query_ns", query_ms * 1e6 / static_cast<double>(kQueries));
  result.Extra("net.query_sum_ms", sum, "ms");  // keeps the loop observable

  alm::PlanInput pin;
  pin.degree_bounds = degree_bounds;
  pin.oracle = &oracle;
  std::vector<double> amcast_ms;
  for (std::size_t i = 0; i < in.probes.size(); ++i) {
    pin.root = in.probes[i].root;
    pin.members = in.probes[i].members;
    amcast_ms.push_back(TimedMs(tracer, "alm.amcast_probe",
                                static_cast<std::int64_t>(i), [&] {
                                  alm::PlanSession(pin, alm::Strategy::kAmcast);
                                }));
  }
  if (!amcast_ms.empty())
    result.Layer("alm.amcast_ms", util::Median(amcast_ms));
}

}  // namespace p2p::e2e
