// The CLI's experiments as library calls: ten configurable ones and, in
// figures.cc, the paper's figures and ablations. A config holds what its
// subcommand's flags set, with the same defaults; `stack` describes the
// stack the experiment runs on (exp/stack.h). A run checks its whole
// config before any work (util::UsageError names the bad value) and
// returns its p2preport/v1 run report with the text the CLI prints.
// `progress`, when set, receives the phase lines ("building pool ...").
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "alm/mesh.h"
#include "exp/stack.h"
#include "obs/run_report.h"

namespace p2p::exp {

struct Outcome {
  Outcome(std::string experiment, std::uint64_t seed)
      : report(std::move(experiment)) {
    report.set_seed(seed);
  }
  obs::RunReport report;
  std::string text;  // the aligned table, then any note lines
};

// plan: one ALM session planned on a paper-sized pool (§5.2).
struct PlanConfig {
  std::size_t group = 20;  // session size incl. root
  std::uint64_t seed = 1;
  std::string strategy = "leafset+adj";
  std::string planner = "tree";  // an alm::PlannerNames() entry
  alm::MeshOptions mesh;
  double radius_ms = 100.0;  // helper radius R
  double stream_kbps = 0.0;  // per-link stream rate (0 = off)
};
Outcome RunPlan(const PlanConfig& c, std::FILE* progress = nullptr);

// multi: the market-driven multi-session experiment (§5.3, Figure 10).
struct MultiConfig {
  std::size_t sessions = 30;
  std::size_t members = 20;
  std::size_t sweeps = 2;
  std::uint64_t seed = 42;
  bool bounds = true;    // per-session lower/upper bounds
  std::size_t jobs = 0;  // pool build and bound threads (0 = hardware)
};
Outcome RunMulti(const MultiConfig& c, std::FILE* progress = nullptr);

// somo: the SOMO gather protocol's latency and overhead (§3.2). The
// kernel's seed is the ring size.
struct SomoRunConfig {
  StackConfig stack{.hosts = 256, .leafset = 16, .ring_metrics = false,
                    .somo = somo::SomoConfig{}};
  double horizon_ms = 120000.0;
  std::string trace;  // p2ptrace v2 dump of all bus traffic
  std::size_t trace_cap = 1 << 16;
  std::string timeseries;  // per-cycle staleness/traffic CSV
};
Outcome RunSomo(const SomoRunConfig& c, std::FILE* progress = nullptr);

// somo-loss: root staleness per bus loss rate; `fail` internal owners
// crash at horizon/3 with no detection or rebuild.
struct SomoLossConfig {
  StackConfig stack{
      .hosts = 128, .leafset = 16, .ring_metrics = false,
      .somo = somo::SomoConfig{.fanout = 4, .report_interval_ms = 500.0}};
  std::size_t fail = 0;
  double horizon_ms = 60000.0;  // per loss level
  std::vector<double> losses = {0, 0.05, 0.1, 0.2, 0.3};
};
Outcome RunSomoLoss(const SomoLossConfig& c, std::FILE* progress = nullptr);

// hb-jitter: the heartbeat detector's false-positive rate per bus jitter
// bound (suspect_alive mode; nobody dies).
struct HbJitterConfig {
  StackConfig stack{.hosts = 64, .leafset = 8, .ring_metrics = false,
                    .heartbeat = dht::HeartbeatConfig{
                        .period_ms = 1000.0, .timeout_ms = 2500.0,
                        .suspect_alive = true}};
  double loss = 0.0;             // on top of the jitter
  double horizon_ms = 120000.0;  // per jitter level
  std::vector<double> jitters_ms = {0, 500, 1000, 2000, 4000};
};
Outcome RunHbJitter(const HbJitterConfig& c, std::FILE* progress = nullptr);

// topo: a transit-stub topology and its oracle's statistics.
struct TopoConfig {
  StackConfig stack{.seed = 7, .hosts = 1200};
};
Outcome RunTopo(const TopoConfig& c, std::FILE* progress = nullptr);

// fullstack: the whole stack at preset scale — every host joins the DHT,
// heartbeats and SOMO run to the horizon, then one session is planned
// with oracle-direct latency fills (no coordinates at 10k+ hosts, so only
// oracle strategies are valid).
struct FullstackConfig {
  StackConfig stack{.preset = "10k", .heartbeat = dht::HeartbeatConfig{},
                    .somo = somo::SomoConfig{}};
  std::size_t group = 50;
  std::size_t helpers = 200;  // helper candidates sampled for the session
  std::string strategy = "critical+adj";
  std::string planner = "tree";
  alm::MeshOptions mesh;
  double horizon_ms = 20000.0;
};
Outcome RunFullstack(const FullstackConfig& c, std::FILE* progress = nullptr);

// compare: planners side by side on one session, planned and then
// repaired under the loss and partition fault sets.
struct CompareConfig {
  StackConfig stack{.preset = "1200", .oracle = "hier"};
  std::size_t group = 50;
  std::size_t helpers = 200;
  std::string planners = "tree,mesh";
  std::string strategy = "critical+adj";
  alm::MeshOptions mesh;
  double fail_frac = 0.125;  // members failed per fault scenario
};
Outcome RunCompare(const CompareConfig& c, std::FILE* progress = nullptr);

// observe: SOMO self-monitoring vs ground truth under fault scenarios
// (none|loss|partition). The SOMO view is disseminated so every node's
// copy can be scored.
struct ObserveConfig {
  StackConfig stack{
      .hosts = 64, .leafset = 16,
      .heartbeat = dht::HeartbeatConfig{.suspect_alive = true},
      .somo = somo::SomoConfig{.fanout = 4, .report_interval_ms = 1000.0,
                               .disseminate = true},
      .telemetry = true};
  double loss = 0.2;            // the loss scenario's probability
  double horizon_ms = 60000.0;  // per scenario
  std::string scenarios = "none,loss,partition";
  std::string timeseries_dir;  // observe_<scenario>.csv
};
Outcome RunObserve(const ObserveConfig& c, std::FILE* progress = nullptr);

// alert: membership repair driven by the in-band disseminated view vs by
// ground truth, per fault scenario.
struct AlertConfig {
  StackConfig stack{
      .preset = "1200",
      .heartbeat = dht::HeartbeatConfig{.suspect_alive = true},
      .somo = somo::SomoConfig{.report_interval_ms = 1000.0,
                               .disseminate = true},
      .telemetry = true};
  double horizon_ms = 60000.0;  // per run
  double loss = 0.05;           // the loss scenario's probability
  std::string scenarios = "none,loss,partition";
  std::string timeseries_dir;  // alert_<scenario>_<arm>.csv event logs
};
Outcome RunAlert(const AlertConfig& c, std::FILE* progress = nullptr);

// The paper's figures and §3.2 claims (DESIGN.md §2) and the ablations
// built from its machinery (DESIGN.md §7), at the sizes and seeds their
// reports' config records; no value of either is settable. The text is
// the figure's title block, tables and notes; the report holds each tabled
// number as the result `<table>.<row>.<column>` (exp/common.h).
Outcome RunFig4(std::FILE* progress = nullptr);   // E1 coordinate CDFs
Outcome RunFig5(std::FILE* progress = nullptr);   // E2 bandwidth error
Outcome RunFig8(std::FILE* progress = nullptr);   // E3 single session
Outcome RunFig10(std::FILE* progress = nullptr);  // E4/E5 the market
Outcome RunSomoLatency(std::FILE* progress = nullptr);  // E6 gather bounds
Outcome RunSomoRepair(std::FILE* progress = nullptr);   // E8 self-healing
Outcome RunAblationHelper(std::FILE* progress = nullptr);
Outcome RunAblationAdjust(std::FILE* progress = nullptr);
Outcome RunAblationStaleness(std::FILE* progress = nullptr);
Outcome RunAblationBandwidth(std::FILE* progress = nullptr);
Outcome RunQosMetrics(std::FILE* progress = nullptr);

}  // namespace p2p::exp
