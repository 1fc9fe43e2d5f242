// p2ppool_cli — drive the library's experiments from the command line.
//
//   p2ppool_cli plan  --group 20 --strategy leafset+adj --seed 1
//   p2ppool_cli multi --sessions 30 --members 20 --sweeps 2
//   p2ppool_cli somo  --nodes 256 --fanout 8 --interval-ms 5000 --sync
//   p2ppool_cli somo-loss --loss 0,0.1,0.3 --fail 1 --redundant
//   p2ppool_cli hb-jitter --jitter 0,500,2000,4000
//   p2ppool_cli observe --nodes 64 --loss 0.2 --timeseries-dir /tmp
//   p2ppool_cli alert --preset 1200 --oracle hier --scenarios none,loss
//   p2ppool_cli topo  --hosts 1200 --seed 7
//   p2ppool_cli topo  --preset 10k --oracle hier
//   p2ppool_cli fullstack --preset 10k --oracle hier --group 50
//
// Every command prints an aligned table, and every command accepts
// --report FILE to additionally emit a structured "p2preport/v1" JSON run
// report (tools/report_schema.json) with the effective configuration, the
// headline numbers, and a metrics-registry snapshot.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "net/latency_oracle.h"

#include "alm/bounds.h"
#include "alm/critical.h"
#include "alm/mesh.h"
#include "dht/heartbeat.h"
#include "net/shard_plan.h"
#include "obs/alert.h"
#include "obs/run_report.h"
#include "obs/timeseries.h"
#include "pool/multi_session_sim.h"
#include "pool/resource_pool.h"
#include "sim/sharded.h"
#include "sim/simulation.h"
#include "sim/trace.h"
#include "sim/transport.h"
#include "somo/somo.h"
#include "util/csv.h"
#include "util/flags.h"

namespace {

using namespace p2p;

int Usage() {
  std::printf(
      "usage: p2ppool_cli <command> [flags]\n"
      "commands:\n"
      "  plan       plan one ALM session on a paper-sized pool\n"
      "  multi      run the market-driven multi-session experiment\n"
      "  somo       run the SOMO gather protocol and report latency/overhead\n"
      "  somo-loss  sweep bus loss rates: SOMO root staleness vs loss\n"
      "  hb-jitter  sweep bus jitter: heartbeat false-positive rate\n"
      "  observe    SOMO self-monitoring vs ground truth under faults\n"
      "  alert      in-band alerts: disseminated-view-triggered vs "
      "ground-truth repair\n"
      "  topo       generate a transit-stub topology and print its stats\n"
      "  fullstack  DHT + SOMO + ALM planning on a preset-scale topology\n"
      "  compare    planners side by side (tree vs mesh) under fault "
      "scenarios\n"
      "common flags:\n"
      "  --report FILE   write a p2preport/v1 run_report.json\n");
  return 2;
}

// Registers the shared --report flag; every command calls this first so the
// flag appears in --help output, then FinishReport at the end.
std::string ReportPath(util::FlagParser& flags) {
  return flags.GetString("report", "", "write a p2preport/v1 JSON report");
}

// Writes `report` to `path` unless it is empty. Returns 0, or 1 on I/O
// error (commands return this directly).
int FinishReport(const obs::RunReport& report, const std::string& path) {
  if (path.empty()) return 0;
  if (!report.Write(path)) {
    std::printf("error: cannot write report to %s\n", path.c_str());
    return 1;
  }
  std::printf("report -> %s\n", path.c_str());
  return 0;
}

// "0,0.05,0.1" → {0.0, 0.05, 0.1}.
std::vector<double> ParseDoubleList(const std::string& s) {
  std::vector<double> out;
  std::size_t pos = 0;
  while (pos < s.size()) {
    const std::size_t comma = s.find(',', pos);
    const std::string item =
        s.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (!item.empty()) out.push_back(std::stod(item));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (out.empty()) throw util::CheckError("empty list '" + s + "'");
  return out;
}

// Shared --scenarios parsing (observe, alert): a comma-separated subset of
// none|loss|partition, with the loss scenario taking the command's --loss
// probability.
struct FaultScenario {
  std::string name;
  double loss = 0.0;
  bool partition = false;
};

std::vector<FaultScenario> ParseScenarios(const std::string& flag,
                                          double loss) {
  std::vector<FaultScenario> scenarios;
  std::size_t pos = 0;
  while (pos <= flag.size()) {
    const std::size_t comma = flag.find(',', pos);
    const std::string name =
        flag.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (name == "none") {
      scenarios.push_back({name, 0.0, false});
    } else if (name == "loss") {
      scenarios.push_back({name, loss, false});
    } else if (name == "partition") {
      scenarios.push_back({name, 0.0, true});
    } else if (!name.empty()) {
      throw util::CheckError("unknown scenario '" + name +
                             "' (none|loss|partition)");
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (scenarios.empty()) throw util::CheckError("no scenarios selected");
  return scenarios;
}

// Build the planner a command asked for: "tree" honors the --strategy
// flag (the six paper spellings name TreePlanner option-cube corners);
// every other name goes through the registry. "mesh" additionally takes
// the tuning knobs.
std::unique_ptr<alm::Planner> MakePlanner(const std::string& planner_name,
                                          alm::Strategy strategy,
                                          const alm::MeshOptions& mesh_opts) {
  if (planner_name == "tree")
    return std::make_unique<alm::TreePlanner>(
        alm::OptionsForStrategy(strategy));
  if (planner_name == "mesh")
    return std::make_unique<alm::MeshPlanner>(mesh_opts);
  return alm::CreatePlanner(planner_name);
}

// Shared --mesh-degree/--mesh-rounds knobs (plan, fullstack, compare).
alm::MeshOptions MeshFlagOptions(util::FlagParser& flags) {
  alm::MeshOptions opts;
  opts.target_degree = static_cast<std::size_t>(flags.GetInt(
      "mesh-degree", 4, "mesh planner: target neighbors per node"));
  opts.refine_rounds = static_cast<std::size_t>(flags.GetInt(
      "mesh-rounds", 12, "mesh planner: local refinement rounds"));
  return opts;
}

net::OracleKind ParseOracleKind(const std::string& s) {
  if (s == "flat") return net::OracleKind::kFlat;
  if (s == "hier" || s == "hierarchical") return net::OracleKind::kHierarchical;
  throw util::CheckError("unknown oracle '" + s + "' (flat|hier)");
}

// Shared --oracle/--f32 flags (topo, fullstack). The caller adds the
// thread pool and metrics registry.
net::OracleOptions OracleFlagOptions(util::FlagParser& flags) {
  net::OracleOptions opts;
  opts.kind = ParseOracleKind(
      flags.GetString("oracle", "flat", "latency oracle (flat|hier)"));
  opts.precision =
      flags.GetBool("f32", false, "float32 oracle distance storage")
          ? net::OraclePrecision::kF32
          : net::OraclePrecision::kF64;
  return opts;
}

int CmdPlan(util::FlagParser& flags) {
  const auto group = static_cast<std::size_t>(
      flags.GetInt("group", 20, "session size incl. root"));
  const auto seed = static_cast<std::uint64_t>(
      flags.GetInt("seed", 1, "pool + sampling seed"));
  const std::string strategy_name =
      flags.GetString("strategy", "leafset+adj", "planning strategy");
  const std::string planner_name = flags.GetString(
      "planner", "tree", "planner (tree|mesh; tree honors --strategy)");
  const alm::MeshOptions mesh_opts = MeshFlagOptions(flags);
  const double radius =
      flags.GetDouble("radius", 100.0, "helper radius R (ms)");
  const double stream =
      flags.GetDouble("stream-kbps", 0.0, "per-link stream rate (0=off)");
  const std::string report_path = ReportPath(flags);

  std::printf("building pool (seed %llu) ...\n",
              static_cast<unsigned long long>(seed));
  pool::PoolConfig cfg;
  cfg.seed = seed;
  pool::ResourcePool rp(cfg);

  util::Rng rng(seed ^ 0xfeed);
  const auto idx = rng.SampleIndices(rp.size(), group);
  alm::PlanInput in;
  in.degree_bounds = rp.degree_bounds();
  if (stream > 0.0) {
    for (std::size_t v = 0; v < rp.size(); ++v) {
      const double up = rp.bandwidths().host(v).up_kbps;
      const int cap = static_cast<int>(up / stream) + (v == idx[0] ? 0 : 1);
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
  in.amcast.helper_radius = radius;
  obs::MetricsRegistry registry;
  in.metrics = &registry;

  const alm::Strategy strategy = alm::ParseStrategy(strategy_name);
  const double base = PlanSession(in, alm::Strategy::kAmcast).height_true;
  // Legacy tree runs keep their pre-interface metric namespace (and so
  // their report bytes); other planners opt into alm.planner.*.
  in.planner_metrics = planner_name != "tree";
  std::unique_ptr<alm::Planner> planner =
      MakePlanner(planner_name, strategy, mesh_opts);
  const auto r = planner->Plan(in);
  const double ideal =
      alm::IdealHeight(in.root, in.members, in.true_latency);

  util::Table t({"metric", "value"});
  t.AddRow({std::string("planner"), planner_name});
  t.AddRow({std::string("strategy"), strategy_name});
  t.AddRow({std::string("group size"), static_cast<long long>(group)});
  t.AddRow({std::string("AMCast baseline height (ms)"), base});
  t.AddRow({std::string("planned height (ms)"), r.height_true});
  t.AddRow({std::string("improvement"), alm::Improvement(base, r.height_true)});
  t.AddRow({std::string("bound (ideal star)"), alm::Improvement(base, ideal)});
  t.AddRow({std::string("helpers used"),
            static_cast<long long>(r.helpers_used)});
  if (r.maintenance_messages > 0)
    t.AddRow({std::string("maintenance msgs"),
              static_cast<long long>(r.maintenance_messages)});
  std::printf("%s", t.ToText(3).c_str());

  obs::RunReport report("plan");
  report.set_seed(seed);
  report.AddConfig("group", static_cast<std::int64_t>(group));
  report.AddConfig("planner", planner_name);
  report.AddConfig("strategy", strategy_name);
  report.AddConfig("radius", radius);
  report.AddConfig("stream_kbps", stream);
  report.AddResult("base_height_ms", base);
  report.AddResult("planned_height_ms", r.height_true);
  report.AddResult("improvement", alm::Improvement(base, r.height_true));
  report.AddResult("ideal_bound", alm::Improvement(base, ideal));
  report.AddResult("helpers_used", static_cast<double>(r.helpers_used));
  report.AddResult("maintenance_msgs",
                   static_cast<double>(r.maintenance_messages));
  report.AttachMetrics(&registry);
  return FinishReport(report, report_path);
}

int CmdMulti(util::FlagParser& flags) {
  pool::MultiSessionParams params;
  params.session_count = static_cast<std::size_t>(
      flags.GetInt("sessions", 30, "concurrent sessions"));
  params.members_per_session = static_cast<std::size_t>(
      flags.GetInt("members", 20, "members per session"));
  params.rescheduling_sweeps = static_cast<std::size_t>(
      flags.GetInt("sweeps", 2, "market rescheduling sweeps"));
  params.seed = static_cast<std::uint64_t>(
      flags.GetInt("seed", 42, "experiment seed"));
  params.compute_upper_bound =
      flags.GetBool("bounds", true, "compute per-session bounds");
  const int jobs = flags.GetInt(
      "jobs", 0,
      "threads for the pool build and per-session bounds "
      "(0 = hardware concurrency)");
  const std::string report_path = ReportPath(flags);

  util::ThreadPool workers(jobs < 0 ? 1 : static_cast<std::size_t>(jobs));
  std::printf("building pool ...\n");
  pool::PoolConfig cfg;
  cfg.seed = params.seed;
  pool::ResourcePool rp(cfg, &workers);
  params.workers = &workers;
  obs::MetricsRegistry registry;
  params.metrics = &registry;
  const auto result = RunMultiSessionExperiment(rp, params);

  util::Table t({"priority", "sessions", "improvement", "helpers"});
  for (int p = 1; p <= 3; ++p) {
    const auto& cls = result.by_priority[static_cast<std::size_t>(p)];
    t.AddRow({static_cast<long long>(p),
              static_cast<long long>(cls.sessions),
              cls.improvement.mean(), cls.helpers_used.mean()});
  }
  std::printf("%s", t.ToText(3).c_str());
  if (params.compute_upper_bound) {
    std::printf("bounds: lower %.3f (AMCast+adj) / upper %.3f "
                "(Leafset+adj solo)\n",
                result.lower_bound_improvement.mean(),
                result.upper_bound_improvement.mean());
  }
  std::printf("pool utilisation %.2f, %zu reschedules, %zu preemptions\n",
              result.pool_utilisation, result.reschedules,
              result.preemptions);

  obs::RunReport report("multi");
  report.set_seed(params.seed);
  report.AddConfig("sessions", static_cast<std::int64_t>(params.session_count));
  report.AddConfig("members",
                   static_cast<std::int64_t>(params.members_per_session));
  report.AddConfig("sweeps",
                   static_cast<std::int64_t>(params.rescheduling_sweeps));
  report.AddConfig("bounds", params.compute_upper_bound);
  for (int p = 1; p <= 3; ++p) {
    const auto& cls = result.by_priority[static_cast<std::size_t>(p)];
    const std::string prefix = "priority" + std::to_string(p) + ".";
    report.AddResult(prefix + "sessions", static_cast<double>(cls.sessions));
    report.AddResult(prefix + "improvement", cls.improvement.mean());
    report.AddResult(prefix + "helpers", cls.helpers_used.mean());
  }
  if (params.compute_upper_bound) {
    report.AddResult("lower_bound", result.lower_bound_improvement.mean());
    report.AddResult("upper_bound", result.upper_bound_improvement.mean());
  }
  report.AddResult("pool_utilisation", result.pool_utilisation);
  report.AddResult("reschedules", static_cast<double>(result.reschedules));
  report.AddResult("preemptions", static_cast<double>(result.preemptions));
  report.AttachMetrics(&registry);
  return FinishReport(report, report_path);
}

int CmdSomo(util::FlagParser& flags) {
  const auto nodes =
      static_cast<std::size_t>(flags.GetInt("nodes", 256, "ring size"));
  const auto fanout =
      static_cast<std::size_t>(flags.GetInt("fanout", 8, "SOMO fanout k"));
  const double interval =
      flags.GetDouble("interval-ms", 5000.0, "reporting cycle T");
  const bool sync = flags.GetBool("sync", false, "synchronised gather");
  const bool disseminate =
      flags.GetBool("disseminate", false, "broadcast the view back down");
  const bool redundant =
      flags.GetBool("redundant", false, "parent-sibling detour links");
  const double horizon =
      flags.GetDouble("horizon-ms", 120000.0, "simulated time");
  const std::string trace_path = flags.GetString(
      "trace", "", "write a p2ptrace v2 dump of all bus traffic to FILE");
  const auto trace_cap = static_cast<std::size_t>(flags.GetInt(
      "trace-cap", 1 << 16, "trace ring capacity (oldest overwritten)"));
  const std::string ts_path = flags.GetString(
      "timeseries", "", "write a per-cycle staleness/traffic CSV to FILE");
  const std::string report_path = ReportPath(flags);

  sim::Simulation sim(nodes);
  sim.EnableMetrics();
  dht::Ring ring(16);
  sim::TraceSink trace(trace_cap);
  if (!trace_path.empty()) {
    trace.set_clock([&sim] { return sim.now(); });
    sim.transport().set_trace(&trace);
    ring.set_trace_sink(&trace);  // per-hop records for overlay lookups
  }
  for (std::size_t i = 0; i < nodes; ++i) ring.JoinHashed(i);
  ring.StabilizeAll();
  somo::SomoConfig cfg;
  cfg.fanout = fanout;
  cfg.report_interval_ms = interval;
  cfg.synchronized_gather = sync;
  cfg.disseminate = disseminate;
  cfg.redundant_links = redundant;
  somo::SomoProtocol somo(sim, ring, cfg, [&](dht::NodeIndex n) {
    somo::NodeReport r;
    r.node = n;
    r.host = ring.node(n).host();
    r.generated_at = sim.now();
    return r;
  });
  somo.Start();
  obs::TimeseriesSampler sampler;
  if (!ts_path.empty()) {
    sampler.AddProbe("root_staleness_ms", [&] {
      const double v = somo.RootStalenessMs();
      return std::isfinite(v) ? v : -1.0;
    });
    sampler.AddProbe("root_members",
                     [&] { return sim.metrics().Value("somo.root.members"); });
    sampler.AddProbe("somo_messages",
                     [&] { return sim.metrics().Value("somo.messages"); });
    sampler.AddProbe("inflight_messages", [&] {
      return static_cast<double>(sim.transport().inflight_messages());
    });
    sim.Every(interval, interval, [&] { sampler.Sample(sim.now()); });
  }
  sim.RunUntil(horizon);

  util::Table t({"metric", "value"});
  t.AddRow({std::string("nodes"), static_cast<long long>(nodes)});
  t.AddRow({std::string("fanout"), static_cast<long long>(fanout)});
  t.AddRow({std::string("tree depth"),
            static_cast<long long>(somo.tree().depth())});
  t.AddRow({std::string("logical nodes"),
            static_cast<long long>(somo.tree().size())});
  t.AddRow({std::string("gathers completed"),
            static_cast<long long>(somo.gathers_completed())});
  t.AddRow({std::string("root staleness (ms)"), somo.RootStalenessMs()});
  t.AddRow({std::string("messages"),
            static_cast<long long>(somo.messages_sent())});
  t.AddRow({std::string("bytes/node/cycle"),
            static_cast<double>(somo.bytes_sent()) /
                static_cast<double>(nodes) /
                (horizon / interval)});
  if (disseminate) {
    t.AddRow({std::string("nodes with newscast"),
              static_cast<long long>(somo.nodes_with_view())});
  }
  std::printf("%s", t.ToText(1).c_str());
  if (!trace_path.empty()) {
    // One overlay query at the horizon interleaves routing-hop records
    // with the protocol traffic the trace already holds.
    (void)somo.QueryFromNode(0);
    std::FILE* f = std::fopen(trace_path.c_str(), "w");
    if (f == nullptr || !trace.WriteText(f)) {
      std::printf("error: cannot write trace to %s\n", trace_path.c_str());
      if (f != nullptr) std::fclose(f);
      return 1;
    }
    std::fclose(f);
    std::printf("trace: %zu records held (%zu total) -> %s\n", trace.size(),
                trace.total_records(), trace_path.c_str());
  }

  obs::RunReport report("somo");
  report.set_seed(nodes);  // the sim seed above is the ring size
  report.AddConfig("nodes", static_cast<std::int64_t>(nodes));
  report.AddConfig("fanout", static_cast<std::int64_t>(fanout));
  report.AddConfig("interval_ms", interval);
  report.AddConfig("sync", sync);
  report.AddConfig("disseminate", disseminate);
  report.AddConfig("redundant", redundant);
  report.AddConfig("horizon_ms", horizon);
  report.AddResult("tree_depth", static_cast<double>(somo.tree().depth()));
  report.AddResult("logical_nodes", static_cast<double>(somo.tree().size()));
  report.AddResult("gathers_completed",
                   static_cast<double>(somo.gathers_completed()));
  report.AddResult("root_staleness_ms", somo.RootStalenessMs());
  report.AddResult("messages", static_cast<double>(somo.messages_sent()));
  report.AddResult("bytes_per_node_cycle",
                   static_cast<double>(somo.bytes_sent()) /
                       static_cast<double>(nodes) / (horizon / interval));
  report.AttachMetrics(&sim.metrics());
  if (!ts_path.empty()) {
    if (!sampler.WriteCsv(ts_path)) {
      std::printf("error: cannot write timeseries to %s\n", ts_path.c_str());
      return 1;
    }
    std::printf("timeseries: %zu rows -> %s\n", sampler.rows(),
                ts_path.c_str());
    report.AddTimeseries("somo_cycle", ts_path, sampler.rows(),
                         sampler.total_rows());
  }
  return FinishReport(report, report_path);
}

// Deterministic fault experiment (§3.2 robustness): sweep the bus loss
// rate and report how stale the SOMO root view gets. With --fail > 0 that
// many internal logical-node owners crash a third of the way in, WITHOUT
// failure detection or tree rebuild — pair with --redundant to watch the
// parent-sibling detour links hold freshness together.
int CmdSomoLoss(util::FlagParser& flags) {
  const auto nodes =
      static_cast<std::size_t>(flags.GetInt("nodes", 128, "ring size"));
  const auto fanout =
      static_cast<std::size_t>(flags.GetInt("fanout", 4, "SOMO fanout k"));
  const double interval =
      flags.GetDouble("interval-ms", 500.0, "reporting cycle T");
  const bool redundant =
      flags.GetBool("redundant", false, "parent-sibling detour links");
  const auto fail = static_cast<std::size_t>(flags.GetInt(
      "fail", 0, "internal owners crashed at horizon/3 (no rebuild)"));
  const double horizon =
      flags.GetDouble("horizon-ms", 60000.0, "simulated time per loss level");
  const auto seed =
      static_cast<std::uint64_t>(flags.GetInt("seed", 1, "simulation seed"));
  const auto losses = ParseDoubleList(flags.GetString(
      "loss", "0,0.05,0.1,0.2,0.3", "comma-separated loss probabilities"));
  const std::string report_path = ReportPath(flags);

  obs::RunReport report("somo-loss");
  report.set_seed(seed);
  report.AddConfig("nodes", static_cast<std::int64_t>(nodes));
  report.AddConfig("fanout", static_cast<std::int64_t>(fanout));
  report.AddConfig("interval_ms", interval);
  report.AddConfig("redundant", redundant);
  report.AddConfig("fail", static_cast<std::int64_t>(fail));
  report.AddConfig("horizon_ms", horizon);
  // Sims outlive the loop so the final level's registry can back the
  // report's metrics snapshot.
  std::vector<std::unique_ptr<sim::Simulation>> sims;

  // alive_stale_ms ignores crashed machines' lingering final reports (they
  // persist in cached aggregates until a rebuild), so it isolates how well
  // gathering tracks the surviving membership.
  util::Table t({"loss", "alive_stale_ms", "complete", "somo_drop%",
                 "redundant_pushes"});
  for (const double loss : losses) {
    sims.push_back(std::make_unique<sim::Simulation>(seed));
    sim::Simulation& sim = *sims.back();
    sim.EnableMetrics();
    dht::Ring ring(16);
    for (std::size_t i = 0; i < nodes; ++i) ring.JoinHashed(i);
    ring.StabilizeAll();
    sim.transport().faults().loss_probability = loss;
    somo::SomoConfig cfg;
    cfg.fanout = fanout;
    cfg.report_interval_ms = interval;
    cfg.redundant_links = redundant;
    somo::SomoProtocol somo(sim, ring, cfg, [&](dht::NodeIndex n) {
      somo::NodeReport r;
      r.node = n;
      r.host = ring.node(n).host();
      r.generated_at = sim.now();
      return r;
    });
    somo.Start();
    sim.RunUntil(horizon / 3.0);
    std::size_t failed = 0;
    const auto& tree = somo.tree();
    for (somo::LogicalIndex l = 0; l < tree.size() && failed < fail; ++l) {
      const auto& ln = tree.node(l);
      if (ln.is_leaf() || ln.is_root()) continue;
      if (ln.owner == tree.node(tree.root()).owner) continue;
      if (!ring.node(ln.owner).alive()) continue;
      ring.Fail(ln.owner);
      ++failed;
    }
    sim.RunUntil(horizon);
    const auto st = sim.transport().stats().protocol(sim::Protocol::kSomo);
    const double drop_pct =
        st.sent == 0 ? 0.0
                     : 100.0 * static_cast<double>(st.dropped) /
                           static_cast<double>(st.sent);
    t.AddRow({loss, somo.RootAliveStalenessMs(),
              std::string(somo.RootViewComplete() ? "yes" : "no"), drop_pct,
              static_cast<long long>(somo.redundant_pushes())});
    const std::string prefix = "loss" + std::to_string(loss) + ".";
    report.AddResult(prefix + "alive_stale_ms", somo.RootAliveStalenessMs());
    report.AddResult(prefix + "complete",
                     somo.RootViewComplete() ? 1.0 : 0.0);
    report.AddResult(prefix + "drop_pct", drop_pct);
    report.AddResult(prefix + "redundant_pushes",
                     static_cast<double>(somo.redundant_pushes()));
  }
  std::printf("%s", t.ToText(3).c_str());
  if (!sims.empty()) report.AttachMetrics(&sims.back()->metrics());
  return FinishReport(report, report_path);
}

// Deterministic fault experiment (§3.1/§4): sweep the bus delay jitter and
// report the heartbeat failure detector's false-positive rate in
// suspect_alive mode. Nobody actually dies; every suspicion is the
// detector being starved by jitter (and --loss adds message loss on top).
int CmdHbJitter(util::FlagParser& flags) {
  const auto nodes =
      static_cast<std::size_t>(flags.GetInt("nodes", 64, "ring size"));
  const double period =
      flags.GetDouble("period-ms", 1000.0, "heartbeat period");
  const double timeout =
      flags.GetDouble("timeout-ms", 2500.0, "suspicion timeout");
  const double loss =
      flags.GetDouble("loss", 0.0, "bus loss probability on top of jitter");
  const double horizon =
      flags.GetDouble("horizon-ms", 120000.0, "simulated time per level");
  const auto seed =
      static_cast<std::uint64_t>(flags.GetInt("seed", 1, "simulation seed"));
  const auto jitters = ParseDoubleList(flags.GetString(
      "jitter", "0,500,1000,2000,4000", "comma-separated jitter bounds (ms)"));
  const std::string report_path = ReportPath(flags);

  obs::RunReport report("hb-jitter");
  report.set_seed(seed);
  report.AddConfig("nodes", static_cast<std::int64_t>(nodes));
  report.AddConfig("period_ms", period);
  report.AddConfig("timeout_ms", timeout);
  report.AddConfig("loss", loss);
  report.AddConfig("horizon_ms", horizon);
  std::vector<std::unique_ptr<sim::Simulation>> sims;

  util::Table t({"jitter_ms", "delivered", "false_pos", "fp/node/min"});
  for (const double jitter : jitters) {
    sims.push_back(std::make_unique<sim::Simulation>(seed));
    sim::Simulation& sim = *sims.back();
    sim.EnableMetrics();
    dht::Ring ring(8);
    for (std::size_t i = 0; i < nodes; ++i) ring.JoinHashed(i);
    ring.StabilizeAll();
    sim.transport().faults().jitter_ms = jitter;
    sim.transport().faults().loss_probability = loss;
    dht::HeartbeatConfig cfg;
    cfg.period_ms = period;
    cfg.timeout_ms = timeout;
    cfg.suspect_alive = true;
    dht::HeartbeatProtocol hb(sim, ring, cfg);
    hb.Start();
    sim.RunUntil(horizon);
    const double node_minutes =
        static_cast<double>(nodes) * horizon / 60000.0;
    t.AddRow({jitter, static_cast<long long>(hb.heartbeats_delivered()),
              static_cast<long long>(hb.false_suspicions()),
              static_cast<double>(hb.false_suspicions()) / node_minutes});
    const std::string prefix = "jitter" + std::to_string(jitter) + ".";
    report.AddResult(prefix + "delivered",
                     static_cast<double>(hb.heartbeats_delivered()));
    report.AddResult(prefix + "false_pos",
                     static_cast<double>(hb.false_suspicions()));
    report.AddResult(prefix + "fp_per_node_min",
                     static_cast<double>(hb.false_suspicions()) /
                         node_minutes);
  }
  std::printf("%s", t.ToText(3).c_str());
  if (!sims.empty()) report.AttachMetrics(&sims.back()->metrics());
  return FinishReport(report, report_path);
}

int CmdTopo(util::FlagParser& flags) {
  net::TransitStubParams params;
  const std::string preset_name = flags.GetString(
      "preset", "",
      "topology preset 1200|10k|50k|100k|250k (overrides --hosts)");
  params.end_hosts = static_cast<std::size_t>(
      flags.GetInt("hosts", 1200, "end systems (ignored with --preset)"));
  const auto seed =
      static_cast<std::uint64_t>(flags.GetInt("seed", 7, "topology seed"));
  net::OracleOptions oracle_opts = OracleFlagOptions(flags);
  const int jobs = flags.GetInt(
      "jobs", 0, "oracle build threads (0 = hardware concurrency)");
  const std::string report_path = ReportPath(flags);
  if (!preset_name.empty())
    params = net::PresetParams(net::ParseTopologyPreset(preset_name));
  util::Rng rng(seed);
  const auto topo = net::GenerateTransitStub(params, rng);

  util::ThreadPool workers(jobs < 0 ? 1 : static_cast<std::size_t>(jobs));
  oracle_opts.pool = &workers;
  const auto b0 = std::chrono::steady_clock::now();
  const net::LatencyOracle oracle(topo, oracle_opts);
  const double build_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - b0)
          .count();

  util::Rng prng(seed ^ 0x777);
  std::vector<double> lat;
  for (int i = 0; i < 5000; ++i) {
    const auto a = prng.NextBounded(topo.host_count());
    const auto b = prng.NextBounded(topo.host_count());
    if (a != b) lat.push_back(oracle.Latency(a, b));
  }
  util::Table t({"metric", "value"});
  t.AddRow({std::string("routers"),
            static_cast<long long>(topo.router_count())});
  t.AddRow({std::string("transit routers"),
            static_cast<long long>(params.total_transit_routers())});
  t.AddRow({std::string("end hosts"),
            static_cast<long long>(topo.host_count())});
  t.AddRow({std::string("router edges"),
            static_cast<long long>(topo.routers.edge_count())});
  t.AddRow({std::string("stub domains"),
            static_cast<long long>(params.total_stub_domains())});
  t.AddRow({std::string("oracle"),
            std::string(oracle.kind() == net::OracleKind::kFlat ? "flat"
                                                                : "hier")});
  t.AddRow({std::string("oracle build (ms)"), build_ms});
  t.AddRow({std::string("oracle memory (MiB)"),
            static_cast<double>(oracle.MemoryBytes()) / (1024.0 * 1024.0)});
  if (oracle.kind() == net::OracleKind::kHierarchical) {
    t.AddRow({std::string("core nodes"),
              static_cast<long long>(oracle.core_node_count())});
    t.AddRow({std::string("gateways"),
              static_cast<long long>(oracle.gateway_count())});
  }
  t.AddRow({std::string("latency p10 (ms)"), util::Percentile(lat, 10)});
  t.AddRow({std::string("latency p50 (ms)"), util::Percentile(lat, 50)});
  t.AddRow({std::string("latency p90 (ms)"), util::Percentile(lat, 90)});
  std::printf("%s", t.ToText(1).c_str());

  obs::RunReport report("topo");
  report.set_seed(seed);
  report.AddConfig("hosts", static_cast<std::int64_t>(params.end_hosts));
  report.AddConfig("preset", preset_name.empty() ? "custom" : preset_name);
  report.AddConfig("oracle",
                   oracle.kind() == net::OracleKind::kFlat ? "flat" : "hier");
  report.AddConfig("f32", oracle.uses_float_storage());
  report.AddResult("routers", static_cast<double>(topo.router_count()));
  report.AddResult("end_hosts", static_cast<double>(topo.host_count()));
  report.AddResult("router_edges",
                   static_cast<double>(topo.routers.edge_count()));
  report.AddResult("oracle_bytes", static_cast<double>(oracle.MemoryBytes()));
  report.AddResult("oracle_core_nodes",
                   static_cast<double>(oracle.core_node_count()));
  report.AddResult("oracle_gateways",
                   static_cast<double>(oracle.gateway_count()));
  report.AddResult("latency_p10_ms", util::Percentile(lat, 10));
  report.AddResult("latency_p50_ms", util::Percentile(lat, 50));
  report.AddResult("latency_p90_ms", util::Percentile(lat, 90));
  return FinishReport(report, report_path);
}

// The full protocol stack at preset scale (the network-substrate PR's
// headline): preset topology -> hierarchical oracle -> every host joins
// the DHT -> leafset heartbeats + SOMO gathering run to the horizon ->
// one ALM session planned with oracle-direct latency fills. At 10k+ hosts
// there are no network coordinates (kPaper1200 pools build them; here the
// point is the substrate scales), so only oracle strategies are valid.
int CmdFullstack(util::FlagParser& flags) {
  const std::string preset_name = flags.GetString(
      "preset", "10k", "topology preset (1200|10k|50k|100k|250k)");
  net::OracleOptions oracle_opts = OracleFlagOptions(flags);
  const auto seed =
      static_cast<std::uint64_t>(flags.GetInt("seed", 1, "experiment seed"));
  const auto group = static_cast<std::size_t>(
      flags.GetInt("group", 50, "ALM session size incl. root"));
  const auto helpers = static_cast<std::size_t>(flags.GetInt(
      "helpers", 200, "helper candidates sampled for the session"));
  const std::string strategy_name = flags.GetString(
      "strategy", "critical+adj", "planning strategy (oracle-based only)");
  const std::string planner_name = flags.GetString(
      "planner", "tree", "planner (tree|mesh; tree honors --strategy)");
  const alm::MeshOptions mesh_opts = MeshFlagOptions(flags);
  const double interval =
      flags.GetDouble("somo-interval-ms", 5000.0, "SOMO reporting cycle T");
  const double horizon =
      flags.GetDouble("horizon-ms", 20000.0, "simulated protocol time");
  const int jobs = flags.GetInt(
      "jobs", 0, "oracle build threads (0 = hardware concurrency)");
  const auto shards = static_cast<std::size_t>(flags.GetInt(
      "shards", 1, "simulation shards (1 = the serial kernel)"));
  const auto shard_threads = static_cast<std::size_t>(flags.GetInt(
      "threads", 0, "shard worker threads (0 = min(shards, hardware))"));
  const std::string join_mode = flags.GetString(
      "join", "batch", "DHT bootstrap (batch|per-host; same end state)");
  const std::string report_path = ReportPath(flags);
  P2P_CHECK_MSG(join_mode == "batch" || join_mode == "per-host",
                "unknown --join mode '" << join_mode << "'");

  const alm::Strategy strategy = alm::ParseStrategy(strategy_name);
  std::unique_ptr<alm::Planner> planner =
      MakePlanner(planner_name, strategy, mesh_opts);
  if (planner->NeedsEstimates())
    throw util::CheckError(
        "fullstack has no coordinate estimates; pick an oracle strategy "
        "(amcast|amcast+adj|critical|critical+adj)");

  const net::TransitStubParams params =
      net::PresetParams(net::ParseTopologyPreset(preset_name));
  std::printf("generating %s topology (seed %llu) ...\n",
              preset_name.c_str(), static_cast<unsigned long long>(seed));
  util::ThreadPool workers(jobs < 0 ? 1 : static_cast<std::size_t>(jobs));
  util::Rng topo_rng(seed);
  const auto t0 = std::chrono::steady_clock::now();
  const auto topo = net::GenerateTransitStub(params, topo_rng, &workers);
  const double topo_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count();

  // Host -> shard placement along whole stub domains plus the structural
  // lookahead bound; trivial at 1 shard, where the sharded kernel IS the
  // serial kernel (same seed, same event stream).
  net::ShardPlan plan = net::PlanShards(topo, shards);

  std::printf("building %s oracle over %zu routers ...\n",
              oracle_opts.kind == net::OracleKind::kFlat ? "flat" : "hier",
              topo.router_count());
  // The oracle must exist before the sharded kernel now that the measured
  // lookahead matrix feeds ShardedOptions, so its build timers land in a
  // setup registry merged into shard 0 once the shards exist.
  obs::MetricsRegistry setup_metrics;
  oracle_opts.pool = &workers;
  oracle_opts.metrics = &setup_metrics;
  const auto b0 = std::chrono::steady_clock::now();
  const net::LatencyOracle oracle(topo, oracle_opts);
  const double build_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - b0)
          .count();

  // Sharpen the structural constant into the measured per-pair matrix.
  // Extraction is exact and deterministic — same seed, same matrix — so
  // same-seed reports still diff clean.
  double extract_ms = 0.0;
  if (shards > 1) {
    const auto e0 = std::chrono::steady_clock::now();
    net::ExtractLookahead(topo, oracle, plan);
    extract_ms = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - e0)
                     .count();
  }
  sim::ShardedOptions sharded_opts;
  sharded_opts.shards = shards;
  sharded_opts.lookahead_ms = plan.lookahead_ms;
  sharded_opts.lookahead_matrix = plan.lookahead_matrix;
  sharded_opts.seed = seed;
  sharded_opts.threads = shard_threads;
  sim::ShardedSimulation ssim(sharded_opts);
  for (std::size_t s = 0; s < shards; ++s) ssim.shard(s).EnableMetrics();
  sim::Simulation& sim0 = ssim.shard(0);
  sim0.metrics().MergeFrom(setup_metrics);

  std::printf("joining %zu hosts into the DHT (%s) ...\n", topo.host_count(),
              join_mode.c_str());
  dht::Ring ring(32, &oracle);
  ring.set_thread_pool(&workers);
  const auto j0 = std::chrono::steady_clock::now();
  if (join_mode == "batch") {
    const dht::NodeIndex first = ring.JoinBatchHashed(0, topo.host_count());
    P2P_CHECK(first == 0 && ring.size() == topo.host_count());
  } else {
    for (net::HostIdx h = 0; h < topo.host_count(); ++h) {
      const dht::NodeIndex n = ring.JoinHashed(h);
      P2P_CHECK(n == h);
    }
    ring.StabilizeAll();
  }
  const double join_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - j0)
                             .count();
  ring.set_metrics(&sim0.metrics());
  sim0.metrics().profile("fullstack.setup.join_ms").Add(join_ms);
  ssim.SetHostShards(plan.shard_of_host);

  std::printf("running heartbeats + SOMO to %.0f ms (%zu shard%s) ...\n",
              horizon, shards, shards == 1 ? "" : "s");
  // One protocol instance per shard over the shared (frozen) ring. At one
  // shard the instances stay unbound — the exact serial code path.
  std::vector<std::unique_ptr<dht::HeartbeatProtocol>> hbs;
  std::vector<std::unique_ptr<somo::SomoProtocol>> somos;
  somo::SomoConfig somo_cfg;
  somo_cfg.report_interval_ms = interval;
  for (std::size_t s = 0; s < shards; ++s) {
    sim::Simulation& ssh = ssim.shard(s);
    hbs.push_back(std::make_unique<dht::HeartbeatProtocol>(ssh, ring));
    somos.push_back(std::make_unique<somo::SomoProtocol>(
        ssh, ring, somo_cfg, [&ring, &ssh](dht::NodeIndex n) {
          somo::NodeReport r;
          r.node = n;
          r.host = ring.node(n).host();
          r.generated_at = ssh.now();
          return r;
        }));
  }
  if (shards > 1) {
    std::vector<dht::HeartbeatProtocol*> hb_peers;
    std::vector<somo::SomoProtocol*> somo_peers;
    for (std::size_t s = 0; s < shards; ++s) {
      hb_peers.push_back(hbs[s].get());
      somo_peers.push_back(somos[s].get());
    }
    for (std::size_t s = 0; s < shards; ++s) {
      hbs[s]->BindShard(static_cast<std::uint32_t>(s), &ssim.host_shards(),
                        hb_peers);
      somos[s]->BindShard(static_cast<std::uint32_t>(s), &ssim.host_shards(),
                          somo_peers);
    }
  }
  // The root view lives on the instance owning the SOMO root point's host
  // (all shards build the identical tree).
  const somo::LogicalTree& tree0 = somos[0]->tree();
  const dht::NodeIndex somo_root_owner = tree0.node(tree0.root()).owner;
  const std::size_t root_shard =
      ssim.ShardOfHost(ring.node(somo_root_owner).host());
  somo::SomoProtocol& root_somo = *somos[root_shard];

  // Root-staleness sentinel, evaluated on the root owner's shard so the
  // probe only reads shard-local state (race-free under --shards, where
  // dissemination is unavailable and the root view is the freshest copy).
  // The threshold is the unsync gather bound plus slack; a healthy run
  // logs zero fires, and the (empty) event log still lands in the report's
  // alerts section for the determinism gate to diff.
  obs::AlertEngine alert_engine;
  obs::AlertRule root_stale;
  root_stale.name = "somo.root.stale";
  root_stale.threshold = (static_cast<double>(tree0.depth()) + 2.0) * interval;
  root_stale.debounce_ms = interval;
  root_stale.clear_ms = interval;
  root_stale.probe = [&root_somo] {
    const double v = root_somo.RootStalenessMs();
    return std::isfinite(v) ? v : 0.0;  // no complete view yet
  };
  const std::size_t root_stale_rule =
      alert_engine.AddRule(std::move(root_stale));
  sim::Simulation& root_sim = ssim.shard(root_shard);
  root_sim.Every(interval / 2.0, interval / 2.0,
                 [&alert_engine, &root_sim] {
                   alert_engine.Evaluate(root_sim.now());
                 });

  for (auto& hb : hbs) hb->Start();
  for (auto& so : somos) so->Start();
  const std::size_t protocol_events = ssim.RunUntil(horizon);

  // Aggregated protocol stats: deliveries sum across instances.
  std::size_t hb_delivered = 0;
  for (const auto& hb : hbs) hb_delivered += hb->heartbeats_delivered();

  // mem.bytes_per_host: resident protocol-state bytes per host across the
  // SoA layouts (ring tables + per-shard SOMO, heartbeat and transport
  // state) — the gauge the memory-regression test and BENCH_kernel rows
  // track. Derived from element counts/capacities, not allocator state, so
  // same-seed runs agree.
  std::size_t proto_bytes = ring.MemoryBytes();
  for (std::size_t s = 0; s < shards; ++s) {
    proto_bytes += hbs[s]->MemoryBytes();
    proto_bytes += somos[s]->MemoryBytes();
    proto_bytes += ssim.shard(s).transport().MemoryBytes();
  }
  const double mem_per_host = static_cast<double>(proto_bytes) /
                              static_cast<double>(topo.host_count());
  sim0.metrics().gauge("mem.bytes_per_host").Set(mem_per_host);

  std::printf("planning one %zu-member session (%s) ...\n", group,
              planner_name == "tree" ? strategy_name.c_str()
                                     : planner_name.c_str());
  // Paper degree distribution over all hosts, then the session sample and
  // a bounded helper-candidate sample (helper selection scans candidates
  // per recruited helper; the full 10k pool would be planning noise, the
  // paper's sessions draw on a vicinity anyway).
  util::Rng rng(seed ^ 0xfeed);
  alm::PlanInput in;
  in.degree_bounds.reserve(topo.host_count());
  for (std::size_t v = 0; v < topo.host_count(); ++v)
    in.degree_bounds.push_back(pool::SamplePaperDegreeBound(rng));
  const auto idx = rng.SampleIndices(topo.host_count(), group);
  in.root = idx[0];
  in.members.assign(idx.begin() + 1, idx.end());
  std::vector<char> is_member(topo.host_count(), 0);
  for (const auto v : idx) is_member[v] = 1;
  const auto candidate_pool = rng.SampleIndices(
      topo.host_count(), std::min(topo.host_count(), 4 * helpers + group));
  for (const auto v : candidate_pool) {
    if (in.helper_candidates.size() >= helpers) break;
    if (!is_member[v] && in.degree_bounds[v] >= 4)
      in.helper_candidates.push_back(v);
  }
  in.oracle = &oracle;
  in.metrics = &sim0.metrics();
  const double base = PlanSession(in, alm::Strategy::kAmcast).height_true;
  in.planner_metrics = planner_name != "tree";
  const auto r = planner->Plan(in);

  util::Table t({"metric", "value"});
  t.AddRow({std::string("preset"), preset_name});
  t.AddRow({std::string("planner"), planner_name});
  t.AddRow({std::string("routers"),
            static_cast<long long>(topo.router_count())});
  t.AddRow({std::string("hosts"), static_cast<long long>(topo.host_count())});
  t.AddRow({std::string("oracle"),
            std::string(oracle.kind() == net::OracleKind::kFlat ? "flat"
                                                                : "hier")});
  t.AddRow({std::string("topology gen (ms)"), topo_ms});
  t.AddRow({std::string("oracle build (ms)"), build_ms});
  t.AddRow({std::string("oracle memory (MiB)"),
            static_cast<double>(oracle.MemoryBytes()) / (1024.0 * 1024.0)});
  t.AddRow({std::string("DHT join (ms)"), join_ms});
  t.AddRow({std::string("protocol mem (bytes/host)"), mem_per_host});
  t.AddRow({std::string("shards"), static_cast<long long>(shards)});
  if (shards > 1) {
    t.AddRow({std::string("lookahead (ms)"), plan.lookahead_ms});
    if (!plan.lookahead_matrix.empty()) {
      t.AddRow({std::string("extracted lookahead (ms)"),
                plan.extracted_lookahead_ms});
    }
    t.AddRow({std::string("lockstep windows"),
              static_cast<long long>(ssim.windows())});
    t.AddRow({std::string("cross-shard messages"),
              static_cast<long long>(ssim.cross_shard_messages())});
    t.AddRow({std::string("critical path (ms)"),
              ssim.critical_path_ns() / 1e6});
  }
  t.AddRow({std::string("protocol events"),
            static_cast<long long>(protocol_events)});
  t.AddRow({std::string("heartbeats delivered"),
            static_cast<long long>(hb_delivered)});
  t.AddRow({std::string("SOMO gathers"),
            static_cast<long long>(root_somo.gathers_completed())});
  t.AddRow({std::string("SOMO root staleness (ms)"),
            root_somo.RootStalenessMs()});
  t.AddRow({std::string("alert fires"),
            static_cast<long long>(alert_engine.fires())});
  t.AddRow({std::string("AMCast baseline height (ms)"), base});
  t.AddRow({std::string("planned height (ms)"), r.height_true});
  t.AddRow({std::string("improvement"),
            alm::Improvement(base, r.height_true)});
  t.AddRow({std::string("helpers used"),
            static_cast<long long>(r.helpers_used)});
  if (r.maintenance_messages > 0)
    t.AddRow({std::string("maintenance msgs"),
              static_cast<long long>(r.maintenance_messages)});
  std::printf("%s", t.ToText(3).c_str());

  obs::RunReport report("fullstack");
  report.set_seed(seed);
  report.AddConfig("preset", preset_name);
  report.AddConfig("planner", planner_name);
  report.AddConfig("oracle",
                   oracle.kind() == net::OracleKind::kFlat ? "flat" : "hier");
  report.AddConfig("f32", oracle.uses_float_storage());
  report.AddConfig("group", static_cast<std::int64_t>(group));
  report.AddConfig("helpers", static_cast<std::int64_t>(helpers));
  report.AddConfig("strategy", strategy_name);
  report.AddConfig("somo_interval_ms", interval);
  report.AddConfig("horizon_ms", horizon);
  report.AddConfig("shards", static_cast<std::int64_t>(shards));
  report.AddConfig("join", join_mode);
  // Wall-clock build time stays out of the results (same-seed reports must
  // diff clean); it lives in the metrics profile section like every timer.
  // Keys ending in _ms are likewise skipped by tools/compare_reports.py, so
  // the join and critical-path wall times may sit in the results.
  report.AddResult("routers", static_cast<double>(topo.router_count()));
  report.AddResult("hosts", static_cast<double>(topo.host_count()));
  report.AddResult("oracle_bytes", static_cast<double>(oracle.MemoryBytes()));
  report.AddResult("oracle_core_nodes",
                   static_cast<double>(oracle.core_node_count()));
  report.AddResult("oracle_gateways",
                   static_cast<double>(oracle.gateway_count()));
  report.AddResult("setup_topo_ms", topo_ms);
  report.AddResult("setup_oracle_ms", build_ms);
  report.AddResult("setup_join_ms", join_ms);
  report.AddResult("setup_extract_ms", extract_ms);
  report.AddResult("mem_bytes_per_host", mem_per_host);
  report.AddResult("protocol_events", static_cast<double>(protocol_events));
  // Deterministic lookahead facts (the extraction depends only on seed):
  // the structural window bound, the measured matrix min (0 at 1 shard),
  // and the window count they produce.
  report.AddResult("lookahead_structural_ms", plan.lookahead_ms);
  report.AddResult("lookahead_extracted_ms", plan.extracted_lookahead_ms);
  report.AddResult("lockstep_windows", static_cast<double>(ssim.windows()));
  report.AddResult("cross_shard_messages",
                   static_cast<double>(ssim.cross_shard_messages()));
  report.AddResult("critical_path_ms", ssim.critical_path_ns() / 1e6);
  report.AddResult("heartbeats_delivered", static_cast<double>(hb_delivered));
  report.AddResult("somo_gathers",
                   static_cast<double>(root_somo.gathers_completed()));
  report.AddResult("somo_root_staleness_ms", root_somo.RootStalenessMs());
  report.AddResult("alert_fires", static_cast<double>(alert_engine.fires()));
  report.AddResult("alert_evaluations",
                   static_cast<double>(alert_engine.evaluations()));
  report.AddResult(
      "alert_root_stale_first_ms",
      alert_engine.first_fired_at(root_stale_rule));
  report.AddAlerts("fullstack", alert_engine);
  report.AddResult("base_height_ms", base);
  report.AddResult("planned_height_ms", r.height_true);
  report.AddResult("improvement", alm::Improvement(base, r.height_true));
  report.AddResult("helpers_used", static_cast<double>(r.helpers_used));
  report.AddResult("maintenance_msgs",
                   static_cast<double>(r.maintenance_messages));
  // One registry per shard; merge in shard order (MergeFrom's fixed spec
  // order keeps float sums reproducible). The 1-shard report attaches the
  // single registry directly, exactly as the serial binary did.
  obs::MetricsRegistry merged;
  if (shards > 1) {
    ssim.MergeMetrics(merged);
    // Barrier machinery wall times (exchange swap, inbox drain, outbox
    // pre-sort, window advance) join the non-deterministic profile section
    // next to the other ScopeTimer histograms.
    merged.MergeFrom(ssim.kernel_profile());
    report.AttachMetrics(&merged);
  } else {
    report.AttachMetrics(&sim0.metrics());
  }
  return FinishReport(report, report_path);
}

// Judge registered planners against each other on one session under
// identical seeds: the same preset topology, oracle, degree bounds, member
// sample, and — per fault scenario — the same failure set for every
// planner. Three scenarios:
//   none       plan only (construction cost and tree quality);
//   loss       a seeded random sample of members fails (uncorrelated);
//   partition  the lowest-host-id block of members fails together (host
//              ids are assigned stub domain by stub domain, so the block
//              approximates one side of a stub split).
// Each planner answers the faults through its own Repair() story — global
// re-plan for the tree planners, local component re-probing for the mesh —
// and the report carries per-planner height/stress/overhead/repair rows
// keyed "<planner>.<scenario>.<metric>".
int CmdCompare(util::FlagParser& flags) {
  const std::string preset_name =
      flags.GetString("preset", "1200",
                      "topology preset (1200|10k|50k|100k|250k)");
  const std::string oracle_name = flags.GetString(
      "oracle", "hier", "latency oracle (flat|hier)");
  const auto seed =
      static_cast<std::uint64_t>(flags.GetInt("seed", 1, "experiment seed"));
  const auto group = static_cast<std::size_t>(
      flags.GetInt("group", 50, "ALM session size incl. root"));
  const auto helpers = static_cast<std::size_t>(flags.GetInt(
      "helpers", 200, "helper candidates sampled for the session"));
  const std::string planners_arg = flags.GetString(
      "planner", "tree,mesh", "comma-separated planner names to compare");
  const std::string strategy_name = flags.GetString(
      "strategy", "critical+adj",
      "tree-planner strategy (oracle-based only)");
  const alm::MeshOptions mesh_opts = MeshFlagOptions(flags);
  const double fail_frac = flags.GetDouble(
      "fail-frac", 0.125, "fraction of members failed per fault scenario");
  const int jobs = flags.GetInt(
      "jobs", 0, "oracle build threads (0 = hardware concurrency)");
  const std::string report_path = ReportPath(flags);

  std::vector<std::string> planner_names;
  {
    std::size_t pos = 0;
    while (pos <= planners_arg.size()) {
      const std::size_t comma = planners_arg.find(',', pos);
      const std::string item = planners_arg.substr(
          pos, comma == std::string::npos ? comma : comma - pos);
      if (!item.empty()) planner_names.push_back(item);
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
    P2P_CHECK_MSG(!planner_names.empty(), "empty --planner list");
  }
  const alm::Strategy strategy = alm::ParseStrategy(strategy_name);

  const net::TransitStubParams params =
      net::PresetParams(net::ParseTopologyPreset(preset_name));
  std::printf("generating %s topology (seed %llu) ...\n",
              preset_name.c_str(), static_cast<unsigned long long>(seed));
  util::Rng topo_rng(seed);
  const auto topo = net::GenerateTransitStub(params, topo_rng);

  net::OracleOptions oracle_opts;
  oracle_opts.kind = ParseOracleKind(oracle_name);
  util::ThreadPool workers(jobs < 0 ? 1 : static_cast<std::size_t>(jobs));
  oracle_opts.pool = &workers;
  std::printf("building %s oracle over %zu routers ...\n",
              oracle_opts.kind == net::OracleKind::kFlat ? "flat" : "hier",
              topo.router_count());
  const net::LatencyOracle oracle(topo, oracle_opts);

  // Same session sample as fullstack: paper degree bounds over all hosts,
  // then the group and a bounded helper-candidate sample.
  util::Rng rng(seed ^ 0xfeed);
  obs::MetricsRegistry registry;
  alm::PlanInput in;
  in.degree_bounds.reserve(topo.host_count());
  for (std::size_t v = 0; v < topo.host_count(); ++v)
    in.degree_bounds.push_back(pool::SamplePaperDegreeBound(rng));
  const auto idx = rng.SampleIndices(topo.host_count(), group);
  in.root = idx[0];
  in.members.assign(idx.begin() + 1, idx.end());
  std::vector<char> is_member(topo.host_count(), 0);
  for (const auto v : idx) is_member[v] = 1;
  const auto candidate_pool = rng.SampleIndices(
      topo.host_count(), std::min(topo.host_count(), 4 * helpers + group));
  for (const auto v : candidate_pool) {
    if (in.helper_candidates.size() >= helpers) break;
    if (!is_member[v] && in.degree_bounds[v] >= 4)
      in.helper_candidates.push_back(v);
  }
  in.oracle = &oracle;
  in.metrics = &registry;
  in.planner_metrics = true;

  // Shared failure sets so every planner faces the identical fault.
  const std::size_t fail_count = std::max<std::size_t>(
      1, static_cast<std::size_t>(fail_frac *
                                  static_cast<double>(in.members.size())));
  P2P_CHECK_MSG(fail_count < in.members.size(),
                "--fail-frac leaves no surviving member");
  std::vector<alm::ParticipantId> loss_set;
  {
    util::Rng fail_rng(seed ^ 0xfa11);
    for (const std::size_t i :
         fail_rng.SampleIndices(in.members.size(), fail_count))
      loss_set.push_back(in.members[i]);
  }
  std::vector<alm::ParticipantId> partition_set = in.members;
  std::sort(partition_set.begin(), partition_set.end());
  partition_set.resize(fail_count);

  struct Row {
    std::string planner;
    std::string scenario;
    double height_ms = 0.0;
    std::size_t stress = 0;
    std::size_t maintenance = 0;
    std::size_t helpers_used = 0;
    std::size_t disrupted = 0;
    std::size_t repair_msgs = 0;
    double repair_ms = 0.0;
  };
  std::vector<Row> rows;
  for (const std::string& name : planner_names) {
    std::unique_ptr<alm::Planner> planner =
        MakePlanner(name, strategy, mesh_opts);
    P2P_CHECK_MSG(!planner->NeedsEstimates(),
                  "compare has no coordinate estimates; planner '"
                      << name << "' needs them");
    std::printf("planning %zu-member session with '%s' ...\n", group,
                name.c_str());
    const alm::PlanResult plan = planner->Plan(in);
    rows.push_back({name, "none", plan.height_true, alm::MaxFanout(plan.tree),
                    plan.maintenance_messages, plan.helpers_used, 0, 0, 0.0});
    const struct {
      const char* scenario;
      const std::vector<alm::ParticipantId>* failed;
    } faults[] = {{"loss", &loss_set}, {"partition", &partition_set}};
    for (const auto& f : faults) {
      const alm::RepairOutcome rep = planner->Repair(in, *f.failed);
      rows.push_back({name, f.scenario, rep.plan.height_true,
                      alm::MaxFanout(rep.plan.tree),
                      rep.plan.maintenance_messages, rep.plan.helpers_used,
                      rep.disrupted, rep.repair_messages,
                      rep.repair_latency_ms});
    }
  }

  util::Table t({"planner", "scenario", "height_ms", "stress", "maint_msgs",
                 "helpers", "disrupted", "repair_msgs", "repair_ms"});
  for (const Row& row : rows) {
    t.AddRow({row.planner, row.scenario, row.height_ms,
              static_cast<long long>(row.stress),
              static_cast<long long>(row.maintenance),
              static_cast<long long>(row.helpers_used),
              static_cast<long long>(row.disrupted),
              static_cast<long long>(row.repair_msgs), row.repair_ms});
  }
  std::printf("%s", t.ToText(3).c_str());
  for (const auto& [name, value] :
       registry.ValuesWithPrefix("alm.planner."))
    std::printf("  %s = %.0f\n", name.c_str(), value);

  obs::RunReport report("compare");
  report.set_seed(seed);
  report.AddConfig("preset", preset_name);
  report.AddConfig("oracle", oracle_name);
  report.AddConfig("planners", planners_arg);
  report.AddConfig("strategy", strategy_name);
  report.AddConfig("group", static_cast<std::int64_t>(group));
  report.AddConfig("helpers", static_cast<std::int64_t>(helpers));
  report.AddConfig("fail_frac", fail_frac);
  report.AddResult("hosts", static_cast<double>(topo.host_count()));
  report.AddResult("members", static_cast<double>(in.members.size()));
  report.AddResult("failed_per_scenario", static_cast<double>(fail_count));
  for (const Row& row : rows) {
    const std::string prefix = row.planner + "." + row.scenario + ".";
    report.AddResult(prefix + "height_ms", row.height_ms);
    report.AddResult(prefix + "stress", static_cast<double>(row.stress));
    report.AddResult(prefix + "maintenance_msgs",
                     static_cast<double>(row.maintenance));
    report.AddResult(prefix + "helpers_used",
                     static_cast<double>(row.helpers_used));
    report.AddResult(prefix + "disrupted",
                     static_cast<double>(row.disrupted));
    report.AddResult(prefix + "repair_msgs",
                     static_cast<double>(row.repair_msgs));
    report.AddResult(prefix + "repair_latency_ms", row.repair_ms);
  }
  report.AttachMetrics(&registry);
  return FinishReport(report, report_path);
}

// The self-monitoring experiment (tentpole of the observability PR): every
// host folds a snapshot of its own transport counters into the NodeReport
// it hands SOMO, so the system's telemetry travels in-band up the gather
// tree. The root's aggregate then claims to describe per-host traffic —
// and because this is a simulation we also hold the exact ground truth
// (Transport::EnablePerHostStats). This command quantifies the divergence
// between the two under fault injection:
//   count error  — mean relative error of the root view's per-host
//                  sent-message counters vs the live transport counters;
//   age error    — mean age of the telemetry samples in the root view
//                  (how old the in-band "now" is);
//   coverage     — alive hosts represented with valid telemetry.
// Scenarios: none (baseline), loss (Bernoulli drop on every send), and
// partition (a host block isolated for the middle third of the run).
int CmdObserve(util::FlagParser& flags) {
  const auto nodes =
      static_cast<std::size_t>(flags.GetInt("nodes", 64, "ring size"));
  const auto fanout =
      static_cast<std::size_t>(flags.GetInt("fanout", 4, "SOMO fanout k"));
  const double interval =
      flags.GetDouble("interval-ms", 1000.0, "SOMO reporting cycle T");
  const double loss = flags.GetDouble(
      "loss", 0.2, "loss probability for the 'loss' scenario");
  const double horizon =
      flags.GetDouble("horizon-ms", 60000.0, "simulated time per scenario");
  const auto seed =
      static_cast<std::uint64_t>(flags.GetInt("seed", 1, "simulation seed"));
  const std::string scenarios_flag = flags.GetString(
      "scenarios", "none,loss,partition", "comma-separated scenario names");
  const std::string ts_dir = flags.GetString(
      "timeseries-dir", "", "write observe_<scenario>.csv files to DIR");
  const std::string report_path = ReportPath(flags);

  const std::vector<FaultScenario> scenarios =
      ParseScenarios(scenarios_flag, loss);
  if (!ts_dir.empty() && !util::EnsureDir(ts_dir)) {
    std::printf("error: cannot create --timeseries-dir %s\n", ts_dir.c_str());
    return 1;
  }

  obs::RunReport report("observe");
  report.set_seed(seed);
  report.AddConfig("nodes", static_cast<std::int64_t>(nodes));
  report.AddConfig("fanout", static_cast<std::int64_t>(fanout));
  report.AddConfig("interval_ms", interval);
  report.AddConfig("loss", loss);
  report.AddConfig("horizon_ms", horizon);
  report.AddConfig("scenarios", scenarios_flag);
  std::vector<std::unique_ptr<sim::Simulation>> sims;

  util::Table t({"scenario", "coverage", "count_err%", "age_err_ms",
                 "peak_age_ms", "root_stale_ms", "view_cov", "drop%"});
  for (const FaultScenario& sc : scenarios) {
    sims.push_back(std::make_unique<sim::Simulation>(seed));
    sim::Simulation& sim = *sims.back();
    sim.EnableMetrics();
    sim.transport().EnablePerHostStats(nodes);
    sim.transport().faults().loss_probability = sc.loss;

    dht::Ring ring(16);
    for (std::size_t i = 0; i < nodes; ++i) ring.JoinHashed(i);
    ring.StabilizeAll();
    ring.set_metrics(&sim.metrics());

    // Background workload whose telemetry the SOMO reports carry: the
    // leafset heartbeat protocol (suspicion mode doubles as the churn
    // signal under loss).
    dht::HeartbeatConfig hb_cfg;
    hb_cfg.suspect_alive = true;
    dht::HeartbeatProtocol hb(sim, ring, hb_cfg);
    hb.Start();

    somo::SomoConfig cfg;
    cfg.fanout = fanout;
    cfg.report_interval_ms = interval;
    // Disseminate the root view back down, so every node holds a copy of
    // the newscast whose error vs ground truth can be scored below.
    cfg.disseminate = true;
    somo::SomoProtocol somo(sim, ring, cfg, [&](dht::NodeIndex n) {
      somo::NodeReport r;
      r.node = n;
      r.host = ring.node(n).host();
      r.generated_at = sim.now();
      // In-band self-monitoring: snapshot this host's transport counters
      // into the report (rides the measured 40-byte record budget).
      const sim::HostStats& hs = sim.transport().host_stats(r.host);
      r.telemetry.msgs_sent = hs.sent;
      r.telemetry.msgs_delivered = hs.delivered;
      r.telemetry.msgs_dropped = hs.dropped;
      r.telemetry.bytes_sent = hs.bytes;
      r.telemetry.suspects = hb.suspected_count(n);
      r.telemetry.sampled_at = sim.now();
      return r;
    });
    somo.Start();

    // Decimating fill: were a scenario ever to outlive the buffer, the CSV
    // would keep its full span at halved resolution instead of losing the
    // start-up transient. The standard 60-cycle runs never fill it, so
    // their bytes are unchanged.
    obs::TimeseriesSampler sampler(4096, obs::FillPolicy::kDecimate);
    const std::string ts_path =
        ts_dir.empty() ? "" : ts_dir + "/observe_" + sc.name + ".csv";
    if (!ts_path.empty()) {
      sampler.AddProbe("root_staleness_ms", [&] {
        const double v = somo.RootStalenessMs();
        return std::isfinite(v) ? v : -1.0;
      });
      sampler.AddProbe("root_members", [&] {
        return sim.metrics().Value("somo.root.members");
      });
      sampler.AddProbe("hb_sent", [&] {
        return sim.metrics().Value("dht.heartbeat.sent");
      });
      sampler.AddProbe("inflight_messages", [&] {
        return static_cast<double>(sim.transport().inflight_messages());
      });
      sampler.AddProbe("nodes_with_view", [&] {
        return static_cast<double>(somo.nodes_with_view());
      });
      sim.Every(interval, interval, [&] { sampler.Sample(sim.now()); });
    }

    // Divergence: the in-band root view vs the live transport counters.
    struct Divergence {
      double coverage = 0.0;
      double count_err_pct = 0.0;
      double age_ms = 0.0;
    };
    const auto measure = [&] {
      Divergence d;
      std::size_t with_telemetry = 0;
      const somo::AggregateReport& root = somo.RootReport();
      for (std::size_t i = 0; i < root.size(); ++i) {
        const somo::HostTelemetry* tel = root.telemetry(i);
        if (tel == nullptr) continue;
        ++with_telemetry;
        const sim::HostStats& truth = sim.transport().host_stats(root.host(i));
        const double truth_sent = static_cast<double>(truth.sent);
        d.count_err_pct += std::abs(static_cast<double>(tel->msgs_sent) -
                                    truth_sent) /
                           std::max(1.0, truth_sent);
        d.age_ms += sim.now() - tel->sampled_at;
      }
      const double denom =
          with_telemetry > 0 ? static_cast<double>(with_telemetry) : 1.0;
      d.coverage = static_cast<double>(with_telemetry) /
                   static_cast<double>(ring.alive_count());
      d.count_err_pct = 100.0 * d.count_err_pct / denom;
      d.age_ms /= denom;
      return d;
    };

    if (sc.partition) {
      // Isolate the first eighth of the hosts for the middle third of the
      // run; their telemetry in the root view freezes until the heal.
      std::vector<std::size_t> block;
      for (std::size_t h = 0; h < nodes / 8; ++h) block.push_back(h);
      sim.At(horizon / 3.0, [&sim, block] { sim.transport().Partition(block); });
      sim.At(2.0 * horizon / 3.0, [&sim] { sim.transport().HealPartitions(); });
    }
    // Peak divergence: sampled just before the partition heals (the worst
    // moment for that scenario; for the others just a mid-run reading).
    Divergence peak;
    sim.At(2.0 * horizon / 3.0 - 1.0, [&] { peak = measure(); });

    sim.RunUntil(horizon);

    const Divergence final = measure();
    const auto total = sim.transport().stats().Total();
    const double drop_pct =
        total.sent == 0 ? 0.0
                        : 100.0 * static_cast<double>(total.dropped) /
                              static_cast<double>(total.sent);
    const double root_stale = somo.RootStalenessMs();

    // Dissemination scoring: every node's copy of the newscast, not just
    // the root's. Per node with a view: staleness of the copy and the mean
    // relative error of its telemetry counts vs live ground truth. The
    // whole distribution lands in the metrics histograms; headline
    // percentiles in the results.
    std::vector<double> view_age, view_err;
    obs::Histogram& h_age = sim.metrics().histogram("observe.view.age_ms");
    obs::Histogram& h_err =
        sim.metrics().histogram("observe.view.count_err_pct");
    for (dht::NodeIndex n = 0; n < nodes; ++n) {
      if (!ring.node(n).alive()) continue;
      const somo::SomoProtocol::NodeView& v = somo.ViewAt(n);
      if (!v.valid() || v.view->empty()) continue;
      const double age = sim.now() - v.view->oldest;
      double err = 0.0;
      std::size_t cnt = 0;
      for (std::size_t i = 0; i < v.view->size(); ++i) {
        const somo::HostTelemetry* tel = v.view->telemetry(i);
        if (tel == nullptr) continue;
        ++cnt;
        const sim::HostStats& truth =
            sim.transport().host_stats(v.view->host(i));
        const double truth_sent = static_cast<double>(truth.sent);
        err += std::abs(static_cast<double>(tel->msgs_sent) - truth_sent) /
               std::max(1.0, truth_sent);
      }
      err = cnt > 0 ? 100.0 * err / static_cast<double>(cnt) : 0.0;
      view_age.push_back(age);
      view_err.push_back(err);
      h_age.Add(age);
      h_err.Add(err);
    }
    const double view_cov = static_cast<double>(view_age.size()) /
                            static_cast<double>(ring.alive_count());
    sim.metrics().gauge("observe.view.coverage").Set(view_cov);

    t.AddRow({sc.name, final.coverage, final.count_err_pct, final.age_ms,
              peak.age_ms, root_stale, view_cov, drop_pct});
    const std::string prefix = sc.name + ".";
    report.AddResult(prefix + "coverage", final.coverage);
    report.AddResult(prefix + "count_error_pct", final.count_err_pct);
    report.AddResult(prefix + "age_error_ms", final.age_ms);
    report.AddResult(prefix + "peak_count_error_pct", peak.count_err_pct);
    report.AddResult(prefix + "peak_age_error_ms", peak.age_ms);
    report.AddResult(prefix + "root_staleness_ms", root_stale);
    report.AddResult(prefix + "drop_pct", drop_pct);
    report.AddResult(prefix + "view_coverage", view_cov);
    report.AddResult(
        prefix + "view_age_p50_ms",
        view_age.empty() ? -1.0 : util::Percentile(view_age, 50));
    report.AddResult(
        prefix + "view_age_p90_ms",
        view_age.empty() ? -1.0 : util::Percentile(view_age, 90));
    report.AddResult(
        prefix + "view_count_err_p90_pct",
        view_err.empty() ? -1.0 : util::Percentile(view_err, 90));

    if (!ts_path.empty()) {
      if (!sampler.WriteCsv(ts_path)) {
        std::printf("error: cannot write timeseries to %s\n",
                    ts_path.c_str());
        return 1;
      }
      report.AddTimeseries(sc.name, ts_path, sampler.rows(),
                           sampler.total_rows());
    }
    somo.Stop();
    hb.Stop();
  }
  std::printf("%s", t.ToText(3).c_str());
  if (!ts_dir.empty())
    std::printf("timeseries CSVs -> %s/observe_<scenario>.csv\n",
                ts_dir.c_str());
  if (!sims.empty()) report.AttachMetrics(&sims.back()->metrics());
  return FinishReport(report, report_path);
}

// The closed monitor→react loop: can the *in-band* disseminated SOMO view,
// not the simulator's ground truth, drive membership healing — and how far
// behind ground truth does it run?
//
// Per fault scenario, two arms over identical seeds:
//   truth   heartbeats auto-repair (Ring::DetectFailure on timeout) and a
//           failure observer rebuilds the SOMO tree — the conventional
//           out-of-band reactor.
//   inband  heartbeats run as pure sensors (auto_repair off): timeouts only
//           feed the per-node suspect sets riding the telemetry. Repair is
//           triggered solely by alert rules over one observer node's copy
//           of the disseminated newscast; on a stale-view fire the reactor
//           direct-probes the stale members ("contacting the nodes reveals
//           the truth"), evicts the ones that do not answer, and rebuilds
//           the tree. Probes answered by live members count as
//           false_detects.
//
// The injected failure is the owner of one SOMO leaf: its death silences a
// whole gather subtree, so the victims' reports pin the view's staleness —
// exactly the signal the "view.stale" rule watches. Detection latency is
// measured within-run (heartbeat observers fire in sensor mode too), and
// the stale threshold is derived from the tree: one dissemination period
// (depth+2 reporting cycles) past the heartbeat timeout.
int CmdAlert(util::FlagParser& flags) {
  const std::string preset_name =
      flags.GetString("preset", "1200",
                      "topology preset (1200|10k|50k|100k|250k)");
  net::OracleOptions oracle_opts = OracleFlagOptions(flags);
  const auto seed =
      static_cast<std::uint64_t>(flags.GetInt("seed", 1, "experiment seed"));
  const auto fanout =
      static_cast<std::size_t>(flags.GetInt("fanout", 8, "SOMO fanout k"));
  const double interval =
      flags.GetDouble("interval-ms", 1000.0, "SOMO reporting cycle T");
  const double horizon =
      flags.GetDouble("horizon-ms", 60000.0, "simulated time per run");
  const double loss = flags.GetDouble(
      "loss", 0.05, "loss probability for the 'loss' scenario");
  const double hb_timeout =
      flags.GetDouble("hb-timeout-ms", 3500.0, "heartbeat failure timeout");
  const std::string scenarios_flag = flags.GetString(
      "scenarios", "none,loss,partition", "comma-separated scenario names");
  const std::string ts_dir = flags.GetString(
      "timeseries-dir", "", "write alert_<scenario>_<arm>.csv event logs");
  const int jobs = flags.GetInt(
      "jobs", 0, "oracle build threads (0 = hardware concurrency)");
  const std::string report_path = ReportPath(flags);

  const std::vector<FaultScenario> scenarios =
      ParseScenarios(scenarios_flag, loss);
  if (!ts_dir.empty() && !util::EnsureDir(ts_dir)) {
    std::printf("error: cannot create --timeseries-dir %s\n", ts_dir.c_str());
    return 1;
  }

  const net::TransitStubParams params =
      net::PresetParams(net::ParseTopologyPreset(preset_name));
  std::printf("generating %s topology (seed %llu) ...\n", preset_name.c_str(),
              static_cast<unsigned long long>(seed));
  util::Rng topo_rng(seed);
  const auto topo = net::GenerateTransitStub(params, topo_rng);
  const std::size_t hosts = topo.host_count();
  util::ThreadPool workers(jobs < 0 ? 1 : static_cast<std::size_t>(jobs));
  oracle_opts.pool = &workers;
  const net::LatencyOracle oracle(topo, oracle_opts);

  obs::RunReport report("alert");
  report.set_seed(seed);
  report.AddConfig("preset", preset_name);
  report.AddConfig("oracle",
                   oracle.kind() == net::OracleKind::kFlat ? "flat" : "hier");
  report.AddConfig("fanout", static_cast<std::int64_t>(fanout));
  report.AddConfig("interval_ms", interval);
  report.AddConfig("horizon_ms", horizon);
  report.AddConfig("loss", loss);
  report.AddConfig("hb_timeout_ms", hb_timeout);
  report.AddConfig("scenarios", scenarios_flag);

  struct ArmResult {
    double hb_detect = -1.0;     // heartbeat first times out the victim
    double alert_detect = -1.0;  // "view.stale" first fires
    double suspect_detect = -1.0;
    std::size_t stale_fires = 0;
    std::size_t suspect_fires = 0;
    std::size_t false_detects = 0;  // stale members probed alive
    std::size_t repaired = 0;       // stale members evicted (dead)
    std::size_t rebuilds = 0;
    double leafset_repairs = 0.0;
    double end_alive_stale = -1.0;  // RootAliveStalenessMs at the horizon
    std::size_t somo_msgs = 0;
    std::size_t somo_bytes = 0;
    std::size_t hb_false_susp = 0;
    std::size_t tree_depth = 0;
  };

  std::vector<std::unique_ptr<sim::Simulation>> sims;
  util::Table t({"scenario", "arm", "hb_detect", "alert_detect", "delta",
                 "fires", "false_det", "repaired", "end_stale_ms"});
  bool wrote_period = false;

  for (const FaultScenario& sc : scenarios) {
    for (const bool inband : {false, true}) {
      const std::string arm = inband ? "inband" : "truth";
      // Both arms run the same seed: identical timer phases and fault
      // schedule, so the only divergence is who drives the repair.
      sims.push_back(std::make_unique<sim::Simulation>(seed));
      sim::Simulation& sim = *sims.back();
      sim.EnableMetrics();
      sim.transport().EnablePerHostStats(hosts);
      sim.transport().faults().loss_probability = sc.loss;

      dht::Ring ring(32, &oracle);
      const dht::NodeIndex first = ring.JoinBatchHashed(0, hosts);
      P2P_CHECK(first == 0 && ring.size() == hosts);
      ring.set_metrics(&sim.metrics());

      dht::HeartbeatConfig hb_cfg;
      hb_cfg.suspect_alive = true;
      hb_cfg.timeout_ms = hb_timeout;
      hb_cfg.auto_repair = !inband;
      dht::HeartbeatProtocol hb(sim, ring, hb_cfg);

      somo::SomoConfig cfg;
      cfg.fanout = fanout;
      cfg.report_interval_ms = interval;
      cfg.disseminate = true;
      somo::SomoProtocol somo(sim, ring, cfg, [&](dht::NodeIndex n) {
        somo::NodeReport r;
        r.node = n;
        r.host = ring.node(n).host();
        r.generated_at = sim.now();
        const sim::HostStats& hs = sim.transport().host_stats(r.host);
        r.telemetry.msgs_sent = hs.sent;
        r.telemetry.msgs_delivered = hs.delivered;
        r.telemetry.msgs_dropped = hs.dropped;
        r.telemetry.bytes_sent = hs.bytes;
        r.telemetry.suspects = hb.suspected_count(n);
        r.telemetry.sampled_at = sim.now();
        return r;
      });

      // Cast: root owner; an observer holding a disseminated copy; a
      // victim owning the smallest SOMO leaf. Observer and victim sit
      // outside the partition block [0, hosts/8) so the partition scenario
      // degrades their *view*, not their connectivity.
      const somo::LogicalTree& tree = somo.tree();
      const dht::NodeIndex root_owner = tree.node(tree.root()).owner;
      const std::size_t block_hi = hosts / 8;
      dht::NodeIndex observer = dht::kNoNode;
      for (dht::NodeIndex n = 0; n < ring.size(); ++n) {
        if (ring.node(n).host() < block_hi || n == root_owner) continue;
        observer = n;
        break;
      }
      dht::NodeIndex victim = dht::kNoNode;
      std::size_t victim_leaf_size = static_cast<std::size_t>(-1);
      for (const somo::LogicalIndex l : tree.leaves()) {
        const somo::LogicalNode& ln = tree.node(l);
        if (ln.owner == root_owner || ln.owner == observer) continue;
        if (ring.node(ln.owner).host() < block_hi) continue;
        if (ln.reported.empty() || ln.reported.size() >= victim_leaf_size)
          continue;
        victim_leaf_size = ln.reported.size();
        victim = ln.owner;
      }
      P2P_CHECK(observer != dht::kNoNode && victim != dht::kNoNode);

      // Rules over the observer's in-band copy of the newscast.
      obs::AlertEngine engine;
      const double diss_period = (static_cast<double>(tree.depth()) + 2.0) *
                                 interval;
      const double stale_threshold = hb_timeout + diss_period;
      obs::AlertRule stale;
      stale.name = "view.stale";
      stale.threshold = stale_threshold;
      // Half a cycle of debounce: one confirming evaluation. A full cycle
      // would push in-band detection beyond the dissemination-period bound
      // the experiment is out to demonstrate.
      stale.debounce_ms = interval / 2.0;
      stale.clear_ms = interval;
      stale.probe = [&somo, observer] {
        const double v = somo.ViewStalenessMs(observer);
        return std::isfinite(v) ? v : 0.0;  // no view yet: nothing to alert
      };
      const std::size_t stale_rule = engine.AddRule(std::move(stale));
      obs::AlertRule susp;
      susp.name = "suspect.rate";
      susp.threshold = 1.0;  // mean suspects per reported member
      susp.debounce_ms = interval;
      susp.clear_ms = interval;
      susp.probe = [&somo, observer] {
        const somo::SomoProtocol::NodeView& v = somo.ViewAt(observer);
        if (!v.valid() || v.view->empty()) return 0.0;
        double total = 0.0;
        for (std::size_t i = 0; i < v.view->size(); ++i) {
          if (const auto* tel = v.view->telemetry(i))
            total += static_cast<double>(tel->suspects);
        }
        return total / static_cast<double>(v.view->size());
      };
      const std::size_t susp_rule = engine.AddRule(std::move(susp));

      ArmResult res;
      res.tree_depth = tree.depth();
      hb.AddFailureObserver([&res, &somo, victim, inband](
                                dht::NodeIndex, dht::NodeIndex dead,
                                sim::Time when) {
        if (dead == victim && res.hb_detect < 0.0) res.hb_detect = when;
        if (!inband) {
          // Truth arm reactor: membership already healed by auto-repair;
          // re-derive the gather tree (fires once per dead node).
          somo.Rebuild();
          ++res.rebuilds;
        }
      });
      std::vector<char> evicted(ring.size(), 0);
      std::vector<char> seen(ring.size(), 0);  // ever in the observer's view
      if (inband) {
        // Shared reactor: suspects are members whose report aged past the
        // threshold, plus members the view has *lost* (a rebuilt tree
        // drops a dead machine's cached report entirely, so absence —
        // against the membership the newscast itself taught the observer —
        // is the other staleness signal). Each suspect gets one direct
        // probe ("contacting the nodes reveals the truth"): unanswered ⇒
        // evict + leafset repair, answered ⇒ false detect. Either way the
        // gather tree is re-derived.
        const auto probe_and_repair = [&] {
          const somo::SomoProtocol::NodeView& v = somo.ViewAt(observer);
          if (!v.valid()) return;
          std::vector<char> current(ring.size(), 0);
          std::vector<dht::NodeIndex> suspects;
          for (std::size_t i = 0; i < v.view->size(); ++i) {
            const dht::NodeIndex n = v.view->node(i);
            if (n >= ring.size()) continue;
            current[n] = 1;
            seen[n] = 1;
            if (sim.now() - v.view->generated_at(i) > stale_threshold)
              suspects.push_back(n);
          }
          for (dht::NodeIndex n = 0; n < ring.size(); ++n) {
            if (seen[n] && !current[n]) suspects.push_back(n);
          }
          for (const dht::NodeIndex n : suspects) {
            if (evicted[n]) continue;
            if (!ring.node(n).alive()) {
              evicted[n] = 1;
              ring.DetectFailure(n);
              ++res.repaired;
              sim.metrics().counter("alert.repairs").Inc();
            } else {
              ++res.false_detects;
              sim.metrics().counter("alert.false_detects").Inc();
            }
          }
          somo.Rebuild();
          ++res.rebuilds;
          sim.metrics().counter("alert.rebuilds").Inc();
        };
        engine.OnFire(stale_rule,
                      [probe_and_repair](const obs::AlertEvent&) {
                        probe_and_repair();
                      });
        engine.OnFire(susp_rule,
                      [probe_and_repair](const obs::AlertEvent&) {
                        probe_and_repair();
                      });
      }

      hb.Start();
      somo.Start();
      sim.Every(interval / 2.0, interval / 2.0,
                [&engine, &sim] { engine.Evaluate(sim.now()); });

      const double t_crash = horizon / 3.0;
      sim.At(t_crash, [&ring, victim] { ring.Fail(victim); });
      if (sc.partition) {
        std::vector<std::size_t> block;
        for (std::size_t h = 0; h < block_hi; ++h) {
          if (h == ring.node(root_owner).host()) continue;
          block.push_back(h);
        }
        sim.At(t_crash,
               [&sim, block] { sim.transport().Partition(block); });
        sim.At(2.0 * horizon / 3.0,
               [&sim] { sim.transport().HealPartitions(); });
      }

      sim.RunUntil(horizon);

      res.alert_detect = engine.first_fired_at(stale_rule);
      res.suspect_detect = engine.first_fired_at(susp_rule);
      res.stale_fires = engine.fire_count(stale_rule);
      res.suspect_fires = engine.fire_count(susp_rule);
      res.leafset_repairs = sim.metrics().Value("dht.leafset.repairs");
      const double alive_stale = somo.RootAliveStalenessMs();
      res.end_alive_stale = std::isfinite(alive_stale) ? alive_stale : -1.0;
      res.somo_msgs = somo.messages_sent();
      res.somo_bytes = somo.bytes_sent();
      res.hb_false_susp = hb.false_suspicions();
      // Missed repair: the injected failure was never acted on — the truth
      // arm's heartbeat never timed the victim out, or the in-band arm's
      // reactor never evicted it.
      const bool missed =
          inband ? evicted[victim] == 0 : res.hb_detect < 0.0;
      somo.Stop();
      hb.Stop();

      const double delta =
          res.hb_detect >= 0.0 && res.alert_detect >= 0.0
              ? res.alert_detect - res.hb_detect
              : -1.0;
      t.AddRow({sc.name, arm, res.hb_detect, res.alert_detect, delta,
                static_cast<long long>(res.stale_fires + res.suspect_fires),
                static_cast<long long>(res.false_detects),
                static_cast<long long>(res.repaired), res.end_alive_stale});

      if (!wrote_period) {
        // Identical across scenarios and arms (same membership, same tree).
        report.AddResult("tree_depth", static_cast<double>(res.tree_depth));
        report.AddResult("dissemination_period_ms", diss_period);
        report.AddResult("stale_threshold_ms", stale_threshold);
        wrote_period = true;
      }
      const std::string prefix = sc.name + "." + arm + ".";
      report.AddResult(prefix + "hb_detect_ms", res.hb_detect);
      report.AddResult(prefix + "alert_detect_ms", res.alert_detect);
      report.AddResult(prefix + "detect_delta_ms", delta);
      report.AddResult(prefix + "suspect_detect_ms", res.suspect_detect);
      report.AddResult(prefix + "stale_fires",
                       static_cast<double>(res.stale_fires));
      report.AddResult(prefix + "suspect_fires",
                       static_cast<double>(res.suspect_fires));
      report.AddResult(prefix + "false_detects",
                       static_cast<double>(res.false_detects));
      report.AddResult(prefix + "missed_repairs", missed ? 1.0 : 0.0);
      report.AddResult(prefix + "repaired",
                       static_cast<double>(res.repaired));
      report.AddResult(prefix + "rebuilds",
                       static_cast<double>(res.rebuilds));
      report.AddResult(prefix + "leafset_repairs", res.leafset_repairs);
      report.AddResult(prefix + "end_alive_staleness_ms",
                       res.end_alive_stale);
      report.AddResult(prefix + "somo_messages",
                       static_cast<double>(res.somo_msgs));
      report.AddResult(prefix + "somo_bytes",
                       static_cast<double>(res.somo_bytes));
      report.AddResult(prefix + "hb_false_suspicions",
                       static_cast<double>(res.hb_false_susp));
      report.AddAlerts(sc.name + "." + arm, engine);

      if (!ts_dir.empty()) {
        const std::string csv_path =
            ts_dir + "/alert_" + sc.name + "_" + arm + ".csv";
        if (!engine.WriteCsv(csv_path)) {
          std::printf("error: cannot write alert log to %s\n",
                      csv_path.c_str());
          return 1;
        }
        report.AddTimeseries(sc.name + "." + arm + ".alerts", csv_path,
                             engine.events().size(),
                             engine.events().size() + engine.dropped_events());
      }
    }
  }
  std::printf("%s", t.ToText(1).c_str());
  if (!ts_dir.empty())
    std::printf("alert event CSVs -> %s/alert_<scenario>_<arm>.csv\n",
                ts_dir.c_str());
  if (!sims.empty()) report.AttachMetrics(&sims.back()->metrics());
  return FinishReport(report, report_path);
}

}  // namespace

int main(int argc, char** argv) {
  util::FlagParser flags(argc, argv);
  if (flags.positional().empty()) return Usage();
  const std::string cmd = flags.positional()[0];
  try {
    int rc;
    if (cmd == "plan") {
      rc = CmdPlan(flags);
    } else if (cmd == "multi") {
      rc = CmdMulti(flags);
    } else if (cmd == "somo") {
      rc = CmdSomo(flags);
    } else if (cmd == "somo-loss") {
      rc = CmdSomoLoss(flags);
    } else if (cmd == "hb-jitter") {
      rc = CmdHbJitter(flags);
    } else if (cmd == "topo") {
      rc = CmdTopo(flags);
    } else if (cmd == "fullstack") {
      rc = CmdFullstack(flags);
    } else if (cmd == "compare") {
      rc = CmdCompare(flags);
    } else if (cmd == "observe") {
      rc = CmdObserve(flags);
    } else if (cmd == "alert") {
      rc = CmdAlert(flags);
    } else {
      std::printf("unknown command '%s'\n", cmd.c_str());
      return Usage();
    }
    for (const auto& f : flags.UnknownFlags())
      std::printf("warning: unknown flag --%s ignored\n%s", f.c_str(),
                  flags.Help().c_str());
    return rc;
  } catch (const util::CheckError& e) {
    std::printf("error: %s\n%s", e.what(), flags.Help().c_str());
    return 1;
  }
}
