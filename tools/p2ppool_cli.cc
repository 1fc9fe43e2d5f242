// p2ppool_cli — drive the library's experiments (src/exp) from the
// command line.
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
//   p2ppool_cli compare --preset 1200 --planner tree,mesh
//   p2ppool_cli fig8 --report fig8.json
//
// Each command declares its flags before it parses any: an unknown flag, a
// malformed number or a value outside its set exits 2, printing the
// command's flags, before any work; --help prints them and exits 0; a run
// that fails exits 1. Every command prints an aligned table, and --report
// FILE also writes a p2preport/v1 JSON run report (tools/report_schema.json)
// with the effective configuration, the headline numbers, and a
// metrics-registry snapshot. The figure and ablation commands (fig4 ...
// qos-metrics) run at fixed sizes and take --report only; their progress
// lines go to stderr, so stdout holds exactly the figure.
#include <cstdio>
#include <string>

#include "exp/experiments.h"
#include "util/flags.h"

namespace {

using namespace p2p;

// Declares --report, parses the command line, runs the experiment, prints
// its table and writes its report.
template <class Run>
int Finish(util::FlagParser& flags, Run run) {
  std::string report_path;
  flags.Add("report", &report_path, "write a p2preport/v1 JSON report");
  if (!flags.Parse()) {
    std::printf("%s", flags.Help().c_str());
    return 0;
  }
  if (flags.positional().size() > 1)
    throw util::UsageError("unexpected argument '" + flags.positional()[1] +
                           "'");
  const exp::Outcome out = run();
  std::printf("%s", out.text.c_str());
  if (report_path.empty()) return 0;
  if (!out.report.Write(report_path)) {
    std::printf("error: cannot write report to %s\n", report_path.c_str());
    return 1;
  }
  std::printf("report -> %s\n", report_path.c_str());
  return 0;
}

void AddMeshFlags(util::FlagParser& flags, alm::MeshOptions& mesh) {
  flags.Add("mesh-degree", &mesh.target_degree,
            "mesh planner: target neighbors per node");
  flags.Add("mesh-rounds", &mesh.refine_rounds,
            "mesh planner: local refinement rounds");
}

constexpr const char* kPresetHelp = "topology preset (1200|10k|50k|100k|250k)";
constexpr const char* kJobsHelp =
    "oracle build threads (0 = hardware concurrency)";

// The network build flags of topo, fullstack and alert.
void AddOracleFlags(util::FlagParser& flags, exp::StackConfig& stack) {
  flags.Add("oracle", &stack.oracle, "latency oracle (flat|hier)");
  flags.Add("f32", &stack.f32, "float32 oracle distance storage");
  flags.Add("jobs", &stack.jobs, kJobsHelp);
}

int Plan(util::FlagParser& flags) {
  exp::PlanConfig c;
  flags.Add("group", &c.group, "session size incl. root");
  flags.Add("seed", &c.seed, "pool + sampling seed");
  flags.Add("strategy", &c.strategy, "planning strategy");
  flags.Add("planner", &c.planner,
            "planner (tree|mesh; tree honors --strategy)");
  AddMeshFlags(flags, c.mesh);
  flags.Add("radius", &c.radius_ms, "helper radius R (ms)");
  flags.Add("stream-kbps", &c.stream_kbps, "per-link stream rate (0=off)");
  return Finish(flags, [&] { return exp::RunPlan(c, stdout); });
}

int Multi(util::FlagParser& flags) {
  exp::MultiConfig c;
  flags.Add("sessions", &c.sessions, "concurrent sessions");
  flags.Add("members", &c.members, "members per session");
  flags.Add("sweeps", &c.sweeps, "market rescheduling sweeps");
  flags.Add("seed", &c.seed, "experiment seed");
  flags.Add("bounds", &c.bounds, "compute per-session bounds");
  flags.Add("jobs", &c.jobs,
            "threads for the pool build and per-session bounds "
            "(0 = hardware concurrency)");
  return Finish(flags, [&] { return exp::RunMulti(c, stdout); });
}

int Somo(util::FlagParser& flags) {
  exp::SomoRunConfig c;
  somo::SomoConfig& somo = *c.stack.somo;
  flags.Add("nodes", &c.stack.hosts, "ring size");
  flags.Add("fanout", &somo.fanout, "SOMO fanout k");
  flags.Add("interval-ms", &somo.report_interval_ms, "reporting cycle T");
  flags.Add("sync", &somo.synchronized_gather, "synchronised gather");
  flags.Add("disseminate", &somo.disseminate, "broadcast the view back down");
  flags.Add("redundant", &somo.redundant_links, "parent-sibling detour links");
  flags.Add("horizon-ms", &c.horizon_ms, "simulated time");
  flags.Add("trace", &c.trace,
            "write a p2ptrace v2 dump of all bus traffic to FILE");
  flags.Add("trace-cap", &c.trace_cap,
            "trace ring capacity (oldest overwritten)");
  flags.Add("timeseries", &c.timeseries,
            "write a per-cycle staleness/traffic CSV to FILE");
  return Finish(flags, [&] { return exp::RunSomo(c, stdout); });
}

int SomoLoss(util::FlagParser& flags) {
  exp::SomoLossConfig c;
  somo::SomoConfig& somo = *c.stack.somo;
  flags.Add("nodes", &c.stack.hosts, "ring size");
  flags.Add("fanout", &somo.fanout, "SOMO fanout k");
  flags.Add("interval-ms", &somo.report_interval_ms, "reporting cycle T");
  flags.Add("redundant", &somo.redundant_links, "parent-sibling detour links");
  flags.Add("fail", &c.fail,
            "internal owners crashed at horizon/3 (no rebuild)");
  flags.Add("horizon-ms", &c.horizon_ms, "simulated time per loss level");
  flags.Add("seed", &c.stack.seed, "simulation seed");
  flags.Add("loss", &c.losses, "comma-separated loss probabilities");
  return Finish(flags, [&] { return exp::RunSomoLoss(c, stdout); });
}

int HbJitter(util::FlagParser& flags) {
  exp::HbJitterConfig c;
  flags.Add("nodes", &c.stack.hosts, "ring size");
  flags.Add("period-ms", &c.stack.heartbeat->period_ms, "heartbeat period");
  flags.Add("timeout-ms", &c.stack.heartbeat->timeout_ms, "suspicion timeout");
  flags.Add("loss", &c.loss, "bus loss probability on top of jitter");
  flags.Add("horizon-ms", &c.horizon_ms, "simulated time per level");
  flags.Add("seed", &c.stack.seed, "simulation seed");
  flags.Add("jitter", &c.jitters_ms, "comma-separated jitter bounds (ms)");
  return Finish(flags, [&] { return exp::RunHbJitter(c, stdout); });
}

int Topo(util::FlagParser& flags) {
  exp::TopoConfig c;
  flags.Add("preset", &c.stack.preset,
            "topology preset 1200|10k|50k|100k|250k (overrides --hosts)");
  flags.Add("hosts", &c.stack.hosts, "end systems (ignored with --preset)");
  flags.Add("seed", &c.stack.seed, "topology seed");
  AddOracleFlags(flags, c.stack);
  return Finish(flags, [&] { return exp::RunTopo(c, stdout); });
}

int Fullstack(util::FlagParser& flags) {
  exp::FullstackConfig c;
  flags.Add("preset", &c.stack.preset, kPresetHelp);
  AddOracleFlags(flags, c.stack);
  flags.Add("seed", &c.stack.seed, "experiment seed");
  flags.Add("group", &c.group, "ALM session size incl. root");
  flags.Add("helpers", &c.helpers, "helper candidates sampled for the session");
  flags.Add("strategy", &c.strategy, "planning strategy (oracle-based only)");
  flags.Add("planner", &c.planner,
            "planner (tree|mesh; tree honors --strategy)");
  AddMeshFlags(flags, c.mesh);
  flags.Add("somo-interval-ms", &c.stack.somo->report_interval_ms,
            "SOMO reporting cycle T");
  flags.Add("horizon-ms", &c.horizon_ms, "simulated protocol time");
  flags.Add("shards", &c.stack.shards,
            "simulation shards (1 = the serial kernel)");
  flags.Add("threads", &c.stack.threads,
            "shard worker threads (0 = min(shards, hardware))");
  return Finish(flags, [&] { return exp::RunFullstack(c, stdout); });
}

int Compare(util::FlagParser& flags) {
  exp::CompareConfig c;
  flags.Add("preset", &c.stack.preset, kPresetHelp);
  flags.Add("oracle", &c.stack.oracle, "latency oracle (flat|hier)");
  flags.Add("seed", &c.stack.seed, "experiment seed");
  flags.Add("group", &c.group, "ALM session size incl. root");
  flags.Add("helpers", &c.helpers, "helper candidates sampled for the session");
  flags.Add("planner", &c.planners, "comma-separated planner names to compare");
  flags.Add("strategy", &c.strategy,
            "tree-planner strategy (oracle-based only)");
  AddMeshFlags(flags, c.mesh);
  flags.Add("fail-frac", &c.fail_frac,
            "fraction of members failed per fault scenario");
  flags.Add("jobs", &c.stack.jobs, kJobsHelp);
  return Finish(flags, [&] { return exp::RunCompare(c, stdout); });
}

int Observe(util::FlagParser& flags) {
  exp::ObserveConfig c;
  flags.Add("nodes", &c.stack.hosts, "ring size");
  flags.Add("fanout", &c.stack.somo->fanout, "SOMO fanout k");
  flags.Add("interval-ms", &c.stack.somo->report_interval_ms,
            "SOMO reporting cycle T");
  flags.Add("loss", &c.loss, "loss probability for the 'loss' scenario");
  flags.Add("horizon-ms", &c.horizon_ms, "simulated time per scenario");
  flags.Add("seed", &c.stack.seed, "simulation seed");
  flags.Add("scenarios", &c.scenarios,
            "comma-separated scenario names (none|loss|partition)");
  flags.Add("timeseries-dir", &c.timeseries_dir,
            "write observe_<scenario>.csv files to DIR");
  return Finish(flags, [&] { return exp::RunObserve(c, stdout); });
}

int Alert(util::FlagParser& flags) {
  exp::AlertConfig c;
  flags.Add("preset", &c.stack.preset, kPresetHelp);
  AddOracleFlags(flags, c.stack);
  flags.Add("seed", &c.stack.seed, "experiment seed");
  flags.Add("fanout", &c.stack.somo->fanout, "SOMO fanout k");
  flags.Add("interval-ms", &c.stack.somo->report_interval_ms,
            "SOMO reporting cycle T");
  flags.Add("horizon-ms", &c.horizon_ms, "simulated time per run");
  flags.Add("loss", &c.loss, "loss probability for the 'loss' scenario");
  flags.Add("hb-timeout-ms", &c.stack.heartbeat->timeout_ms,
            "heartbeat failure timeout");
  flags.Add("scenarios", &c.scenarios,
            "comma-separated scenario names (none|loss|partition)");
  flags.Add("timeseries-dir", &c.timeseries_dir,
            "write alert_<scenario>_<arm>.csv event logs");
  return Finish(flags, [&] { return exp::RunAlert(c, stdout); });
}

// A paper figure or ablation: fixed sizes and seeds, no flag but --report.
template <exp::Outcome (*Run)(std::FILE*)>
int Figure(util::FlagParser& flags) {
  return Finish(flags, [] { return Run(stderr); });
}

struct Command {
  const char* name;
  const char* summary;
  int (*run)(util::FlagParser&);
};

constexpr Command kCommands[] = {
    {"plan", "plan one ALM session on a paper-sized pool", Plan},
    {"multi", "run the market-driven multi-session experiment", Multi},
    {"somo", "run the SOMO gather protocol and report latency/overhead",
     Somo},
    {"somo-loss", "sweep bus loss rates: SOMO root staleness vs loss",
     SomoLoss},
    {"hb-jitter", "sweep bus jitter: heartbeat false-positive rate",
     HbJitter},
    {"observe", "SOMO self-monitoring vs ground truth under faults", Observe},
    {"alert",
     "in-band alerts: disseminated-view-triggered vs ground-truth repair",
     Alert},
    {"topo", "generate a transit-stub topology and print its stats", Topo},
    {"fullstack", "DHT + SOMO + ALM planning on a preset-scale topology",
     Fullstack},
    {"compare", "planners side by side (tree vs mesh) under fault scenarios",
     Compare},
    {"fig4", "Fig. 4: coordinate-accuracy CDFs, GNP vs leafset",
     Figure<exp::RunFig4>},
    {"fig5", "Fig. 5: bandwidth-estimation error vs leafset size",
     Figure<exp::RunFig5>},
    {"fig8", "Fig. 8: single-session improvement vs group size",
     Figure<exp::RunFig8>},
    {"fig10", "Fig. 10(a)/(b): market-driven concurrent sessions",
     Figure<exp::RunFig10>},
    {"somo-latency", "§3.2: SOMO gather-latency bounds and fanout sweep",
     Figure<exp::RunSomoLatency>},
    {"somo-repair", "§3.2: LiquidEye self-healing time",
     Figure<exp::RunSomoRepair>},
    {"ablation-helper", "§5.2: helper selection rule and radius R sweep",
     Figure<exp::RunAblationHelper>},
    {"ablation-adjust", "§5.2 fn. 2: adjustment move classes (a)/(b)/(c)",
     Figure<exp::RunAblationAdjust>},
    {"ablation-staleness", "§5.3's live loop: plan quality vs SOMO interval",
     Figure<exp::RunAblationStaleness>},
    {"ablation-bandwidth", "stream-rate-capped scheduling",
     Figure<exp::RunAblationBandwidth>},
    {"qos-metrics", "§5.1's alternative QoS criteria per strategy",
     Figure<exp::RunQosMetrics>},
};

int Usage(int rc) {
  std::printf("usage: p2ppool_cli <command> [flags]\ncommands:\n");
  for (const Command& cmd : kCommands)
    std::printf("  %-18s %s\n", cmd.name, cmd.summary);
  std::printf(
      "common flags:\n"
      "  --report FILE   write a p2preport/v1 run_report.json\n"
      "  --help          print the command's flags and exit\n"
      "exit status: 0 ok, 1 run failure, 2 usage error\n");
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  util::FlagParser flags(argc, argv);
  if (flags.positional().empty())
    return Usage(argc == 2 && std::string(argv[1]) == "--help" ? 0 : 2);
  const std::string name = flags.positional()[0];
  for (const Command& cmd : kCommands) {
    if (name != cmd.name) continue;
    try {
      return cmd.run(flags);
    } catch (const util::UsageError& e) {
      std::printf("error: %s\n%s", e.what(), flags.Help().c_str());
      return 2;
    } catch (const util::CheckError& e) {
      std::printf("error: %s\n", e.what());
      return 1;
    }
  }
  std::printf("unknown command '%s'\n", name.c_str());
  return Usage(2);
}
