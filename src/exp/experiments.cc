// The CLI's ten experiments (exp/experiments.h): planning (plan, multi,
// compare), the network-scale stack (topo, fullstack), SOMO gathering and
// its robustness (somo, somo-loss), the heartbeat detector under jitter
// (hb-jitter), and the self-monitoring loop (observe, alert).
#include "exp/experiments.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <memory>

#include <sys/resource.h>

#include "alm/bounds.h"
#include "alm/planner.h"
#include "obs/alert.h"
#include "obs/timeseries.h"
#include "pool/multi_session_sim.h"
#include "pool/resource_pool.h"
#include "sim/trace.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/stats.h"

namespace p2p::exp {
namespace {

// printf to `out`, unless it is null.
__attribute__((format(printf, 2, 3)))
void Progress(std::FILE* out, const char* fmt, ...) {
  if (out == nullptr) return;
  va_list args;
  va_start(args, fmt);
  std::vfprintf(out, fmt, args);
  va_end(args);
}

// printf into a string (the note lines under an experiment's table).
__attribute__((format(printf, 1, 2)))
std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  char buf[512];
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

double FiniteOr(double v, double fallback) {
  return std::isfinite(v) ? v : fallback;
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

void CheckGroup(std::size_t group) {
  if (group < 2)
    throw util::UsageError("--group must be at least 2 (a root and a member)");
}

double AmcastBaseline(const alm::PlanInput& in) {
  return alm::TreePlanner(alm::OptionsForStrategy(alm::Strategy::kAmcast))
      .Plan(in)
      .height_true;
}

// The fullstack and compare session over an oracle: paper degree bounds
// for every host, then the group (root first) and up to `helpers`
// candidates of bound >= 4 from a sample of 4 * helpers + group hosts
// (helper selection scans candidates per recruited helper, so the whole
// pool would be planning noise; the paper's sessions draw on a vicinity).
alm::PlanInput SampleSession(const net::LatencyOracle& oracle,
                             std::size_t group, std::size_t helpers,
                             std::uint64_t seed) {
  const std::size_t hosts = oracle.host_count();
  util::Rng rng(seed ^ 0xfeed);
  alm::PlanInput in;
  in.degree_bounds.reserve(hosts);
  for (std::size_t v = 0; v < hosts; ++v)
    in.degree_bounds.push_back(pool::SamplePaperDegreeBound(rng));
  const auto idx = rng.SampleIndices(hosts, group);
  in.root = idx[0];
  in.members.assign(idx.begin() + 1, idx.end());
  std::vector<char> is_member(hosts, 0);
  for (const auto v : idx) is_member[v] = 1;
  for (const auto v :
       rng.SampleIndices(hosts, std::min(hosts, 4 * helpers + group))) {
    if (in.helper_candidates.size() >= helpers) break;
    if (!is_member[v] && in.degree_bounds[v] >= 4)
      in.helper_candidates.push_back(v);
  }
  in.oracle = &oracle;
  return in;
}

// Sum of a wall-clock profile timer (one sample for setup phases).
double ProfileMs(const obs::MetricsRegistry& m, const std::string& name) {
  return m.profiles().at(name).sum();
}

// The process's maximum resident set so far, in MiB (getrusage).
double PeakRssMib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct FaultScenario {
  std::string name;
  double loss = 0.0;
  bool partition = false;
};

// A comma-separated subset of none|loss|partition, the loss scenario
// taking `loss` as its probability.
std::vector<FaultScenario> ParseScenarios(const std::string& list,
                                          double loss) {
  std::vector<FaultScenario> scenarios;
  for (const std::string& name : util::SplitList(list)) {
    if (name != "none" && name != "loss" && name != "partition")
      throw util::UsageError("unknown scenario '" + name +
                             "' (none|loss|partition)");
    scenarios.push_back({name, name == "loss" ? loss : 0.0,
                         name == "partition"});
  }
  return scenarios;
}

void EnsureTimeseriesDir(const std::string& dir) {
  if (!dir.empty() && !util::EnsureDir(dir))
    throw util::CheckError("cannot create --timeseries-dir " + dir);
}

// A view's telemetry against the live transport counters: mean relative
// error of the per-host sent-message counts (%) and mean sample age.
struct ViewError {
  std::size_t entries = 0;  // records carrying telemetry
  double count_err_pct = 0.0;
  double age_ms = 0.0;
};

ViewError ScoreView(const somo::AggregateReport& view,
                    const sim::Simulation& sim) {
  ViewError e;
  for (std::size_t i = 0; i < view.size(); ++i) {
    const somo::HostTelemetry* tel = view.telemetry(i);
    if (tel == nullptr) continue;
    ++e.entries;
    const double truth_sent =
        static_cast<double>(sim.transport().host_stats(view.host(i)).sent);
    e.count_err_pct += std::abs(static_cast<double>(tel->msgs_sent) -
                                truth_sent) /
                       std::max(1.0, truth_sent);
    e.age_ms += sim.now() - tel->sampled_at;
  }
  const double denom = e.entries > 0 ? static_cast<double>(e.entries) : 1.0;
  e.count_err_pct = 100.0 * e.count_err_pct / denom;
  e.age_ms /= denom;
  return e;
}

// Isolates hosts [0, hosts/8), all but `spare`, for the middle third of
// the run.
void PartitionFirstEighth(sim::Simulation& sim, std::size_t hosts,
                          double horizon_ms, std::size_t spare) {
  std::vector<std::size_t> block;
  for (std::size_t h = 0; h < hosts / 8; ++h) {
    if (h != spare) block.push_back(h);
  }
  sim.At(horizon_ms / 3.0,
         [&sim, block] { sim.transport().Partition(block); });
  sim.At(2.0 * horizon_ms / 3.0, [&sim] { sim.transport().HealPartitions(); });
}

}  // namespace

Outcome RunPlan(const PlanConfig& c, std::FILE* progress) {
  CheckGroup(c.group);
  const auto planner =
      alm::CreatePlanner(c.planner, alm::ParseStrategy(c.strategy), c.mesh);

  Progress(progress, "building pool (seed %llu) ...\n",
           static_cast<unsigned long long>(c.seed));
  pool::PoolConfig cfg;
  cfg.seed = c.seed;
  pool::ResourcePool rp(cfg);

  util::Rng rng(c.seed ^ 0xfeed);
  const auto idx = rng.SampleIndices(rp.size(), c.group);
  alm::PlanInput in;
  in.degree_bounds = rp.degree_bounds();
  if (c.stream_kbps > 0.0) {
    for (std::size_t v = 0; v < rp.size(); ++v) {
      const double up = rp.bandwidths().host(v).up_kbps;
      const int cap =
          static_cast<int>(up / c.stream_kbps) + (v == idx[0] ? 0 : 1);
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
  in.amcast.helper_radius = c.radius_ms;
  obs::MetricsRegistry registry;
  in.metrics = &registry;

  const double base = AmcastBaseline(in);
  // Legacy tree runs keep their pre-interface metric namespace (and so
  // their report bytes); other planners opt into alm.planner.*.
  in.planner_metrics = c.planner != "tree";
  const auto r = planner->Plan(in);
  const double ideal =
      alm::IdealHeight(in.root, in.members, in.true_latency);

  Outcome out("plan", c.seed);
  obs::RunReport& report = out.report;
  Headlines h(report);
  h.Text("planner", c.planner);
  h.Text("strategy", c.strategy);
  h.Text("group size", static_cast<long long>(c.group));
  h.Add("AMCast baseline height (ms)", "base_height_ms", base);
  h.Add("planned height (ms)", "planned_height_ms", r.height_true);
  h.Add("improvement", "improvement", alm::Improvement(base, r.height_true));
  h.Add("bound (ideal star)", "ideal_bound", alm::Improvement(base, ideal));
  h.Count("helpers used", "helpers_used", r.helpers_used);
  h.Count("maintenance msgs", "maintenance_msgs", r.maintenance_messages,
          r.maintenance_messages > 0);
  out.text = h.ToText(3);
  report.AddConfig("group", static_cast<std::int64_t>(c.group));
  report.AddConfig("planner", c.planner);
  report.AddConfig("strategy", c.strategy);
  report.AddConfig("radius", c.radius_ms);
  report.AddConfig("stream_kbps", c.stream_kbps);
  report.AttachMetrics(&registry);
  return out;
}

Outcome RunMulti(const MultiConfig& c, std::FILE* progress) {
  util::ThreadPool workers(c.jobs);
  Progress(progress, "building pool ...\n");
  pool::PoolConfig cfg;
  cfg.seed = c.seed;
  pool::ResourcePool rp(cfg, &workers);
  obs::MetricsRegistry registry;
  pool::MultiSessionParams params;
  params.session_count = c.sessions;
  params.members_per_session = c.members;
  params.rescheduling_sweeps = c.sweeps;
  params.seed = c.seed;
  params.compute_upper_bound = c.bounds;
  params.workers = &workers;
  params.metrics = &registry;
  const auto result = RunMultiSessionExperiment(rp, params);

  Outcome out("multi", c.seed);
  obs::RunReport& report = out.report;
  util::Table t({"priority", "sessions", "improvement", "helpers"});
  for (int p = 1; p <= 3; ++p) {
    const auto& cls = result.by_priority[static_cast<std::size_t>(p)];
    t.AddRow({static_cast<long long>(p),
              static_cast<long long>(cls.sessions),
              cls.improvement.mean(), cls.helpers_used.mean()});
    const std::string prefix = "priority" + std::to_string(p) + ".";
    report.AddResult(prefix + "sessions", static_cast<double>(cls.sessions));
    report.AddResult(prefix + "improvement", cls.improvement.mean());
    report.AddResult(prefix + "helpers", cls.helpers_used.mean());
  }
  out.text = t.ToText(3);
  if (c.bounds) {
    out.text += StrFormat(
        "bounds: lower %.3f (AMCast+adj) / upper %.3f (Leafset+adj solo)\n",
        result.lower_bound_improvement.mean(),
        result.upper_bound_improvement.mean());
    report.AddResult("lower_bound", result.lower_bound_improvement.mean());
    report.AddResult("upper_bound", result.upper_bound_improvement.mean());
  }
  out.text += StrFormat(
      "pool utilisation %.2f, %zu reschedules, %zu preemptions\n",
      result.pool_utilisation, result.reschedules, result.preemptions);
  report.AddConfig("sessions", static_cast<std::int64_t>(c.sessions));
  report.AddConfig("members", static_cast<std::int64_t>(c.members));
  report.AddConfig("sweeps", static_cast<std::int64_t>(c.sweeps));
  report.AddConfig("bounds", c.bounds);
  report.AddResult("pool_utilisation", result.pool_utilisation);
  report.AddResult("reschedules", static_cast<double>(result.reschedules));
  report.AddResult("preemptions", static_cast<double>(result.preemptions));
  report.AttachMetrics(&registry);
  return out;
}

Outcome RunTopo(const TopoConfig& c, std::FILE* progress) {
  CheckStack(c.stack);
  const Network net(c.stack, progress);
  const net::LatencyOracle& oracle = net.oracle;

  util::Rng prng(c.stack.seed ^ 0x777);
  std::vector<double> lat;
  for (int i = 0; i < 5000; ++i) {
    const auto a = prng.NextBounded(net.topo.host_count());
    const auto b = prng.NextBounded(net.topo.host_count());
    if (a != b) lat.push_back(oracle.Latency(a, b));
  }
  Outcome out("topo", c.stack.seed);
  obs::RunReport& report = out.report;
  Headlines h(report);
  h.Count("routers", "routers", net.topo.router_count());
  h.Text("transit routers",
         static_cast<long long>(net.params.total_transit_routers()));
  h.Count("end hosts", "end_hosts", net.topo.host_count());
  h.Count("router edges", "router_edges", net.topo.routers.edge_count());
  h.Text("stub domains",
         static_cast<long long>(net.params.total_stub_domains()));
  h.Text("oracle", std::string(OracleName(oracle.kind())));
  h.Text("oracle build (ms)", ProfileMs(net.setup, "net.oracle.build_ms"));
  h.Text("oracle memory (MiB)",
         static_cast<double>(oracle.MemoryBytes()) / (1024.0 * 1024.0));
  const bool hier = oracle.kind() == net::OracleKind::kHierarchical;
  h.Count("core nodes", "oracle_core_nodes", oracle.core_node_count(), hier);
  h.Count("gateways", "oracle_gateways", oracle.gateway_count(), hier);
  h.Add("latency p10 (ms)", "latency_p10_ms", util::Percentile(lat, 10));
  h.Add("latency p50 (ms)", "latency_p50_ms", util::Percentile(lat, 50));
  h.Add("latency p90 (ms)", "latency_p90_ms", util::Percentile(lat, 90));
  out.text = h.ToText(1);
  report.AddConfig("hosts", static_cast<std::int64_t>(net.params.end_hosts));
  report.AddConfig("preset",
                   c.stack.preset.empty() ? "custom" : c.stack.preset);
  report.AddConfig("oracle", OracleName(oracle.kind()));
  report.AddConfig("f32", oracle.uses_float_storage());
  report.AddResult("oracle_bytes", static_cast<double>(oracle.MemoryBytes()));
  return out;
}

Outcome RunFullstack(const FullstackConfig& c, std::FILE* progress) {
  CheckStack(c.stack);
  CheckGroup(c.group);
  const auto planner =
      alm::CreatePlanner(c.planner, alm::ParseStrategy(c.strategy), c.mesh);
  if (planner->NeedsEstimates())
    throw util::UsageError(
        "fullstack has no coordinate estimates; pick an oracle strategy "
        "(amcast|amcast+adj|critical|critical+adj)");

  Stack stack(c.stack, nullptr, progress);
  const Network& net = *stack.network();
  const net::LatencyOracle& oracle = net.oracle;
  const net::ShardPlan& plan = stack.shard_plan();
  sim::ShardedSimulation& kernel = stack.kernel();
  obs::MetricsRegistry& metrics0 = stack.sim().metrics();
  const std::size_t shards = c.stack.shards;
  Progress(progress, "running heartbeats + SOMO to %.0f ms (%zu shard%s) ...\n",
           c.horizon_ms, shards, shards == 1 ? "" : "s");

  // Root-staleness sentinel, evaluated on the root owner's shard so the
  // probe only reads shard-local state (race-free under sharding, where
  // dissemination is unavailable and the root view is the freshest copy).
  // The threshold is the unsync gather bound plus slack; a healthy run
  // logs zero fires, and the (empty) event log still lands in the report's
  // alerts section for the determinism gate to diff.
  const double interval = c.stack.somo->report_interval_ms;
  somo::SomoProtocol& root_somo = stack.somo(stack.root_shard());
  obs::AlertEngine alert_engine;
  obs::AlertRule root_stale;
  root_stale.name = "somo.root.stale";
  root_stale.threshold =
      (static_cast<double>(root_somo.tree().depth()) + 2.0) * interval;
  root_stale.debounce_ms = interval;
  root_stale.clear_ms = interval;
  root_stale.probe = [&root_somo] {  // 0 until the first complete view
    return FiniteOr(root_somo.RootStalenessMs(), 0.0);
  };
  const std::size_t root_stale_rule =
      alert_engine.AddRule(std::move(root_stale));
  sim::Simulation& root_sim = stack.sim(stack.root_shard());
  root_sim.Every(interval / 2.0, interval / 2.0,
                 [&alert_engine, &root_sim] {
                   alert_engine.Evaluate(root_sim.now());
                 });

  stack.Start();
  const std::size_t protocol_events = kernel.RunUntil(c.horizon_ms);
  metrics0.profile("fullstack.critical_path_ms")
      .Add(kernel.critical_path_ns() / 1e6);
  std::size_t hb_delivered = 0;
  for (std::size_t s = 0; s < shards; ++s)
    hb_delivered += stack.heartbeat(s).heartbeats_delivered();
  // The gauges the memory-regression checks track.
  stack.RecordMemory();

  Progress(progress, "planning one %zu-member session (%s) ...\n", c.group,
           c.planner == "tree" ? c.strategy.c_str() : c.planner.c_str());
  alm::PlanInput in = SampleSession(oracle, c.group, c.helpers, c.stack.seed);
  in.metrics = &metrics0;
  const double base = AmcastBaseline(in);
  in.planner_metrics = c.planner != "tree";
  const auto r = planner->Plan(in);
  // Whole-run peak, planning included. Wall-clock-like (allocator and
  // kernel state), so it joins the profile section, not the results.
  const double peak_rss_mib = PeakRssMib();
  metrics0.profile("fullstack.peak_rss_mib").Add(peak_rss_mib);

  Outcome out("fullstack", c.stack.seed);
  obs::RunReport& report = out.report;
  Headlines h(report);
  h.Text("preset", c.stack.preset);
  h.Text("planner", c.planner);
  h.Count("routers", "routers", net.topo.router_count());
  h.Count("hosts", "hosts", net.topo.host_count());
  h.Text("oracle", std::string(OracleName(oracle.kind())));
  h.Text("topology gen (ms)", ProfileMs(metrics0, "fullstack.setup.topo_ms"));
  h.Text("oracle build (ms)", ProfileMs(metrics0, "net.oracle.build_ms"));
  h.Text("oracle memory (MiB)",
         static_cast<double>(oracle.MemoryBytes()) / (1024.0 * 1024.0));
  h.Text("DHT join (ms)", ProfileMs(metrics0, "fullstack.setup.join_ms"));
  h.Add("protocol mem (bytes/host)", "mem_bytes_per_host",
        metrics0.Value("mem.bytes_per_host"));
  h.Text("ring mem (bytes/host)", metrics0.Value("mem.ring_bytes_per_host"));
  h.Text("heartbeat mem (bytes/host)",
         metrics0.Value("mem.heartbeat_bytes_per_host"));
  h.Text("SOMO mem (bytes/host)", metrics0.Value("mem.somo_bytes_per_host"));
  h.Text("transport mem (bytes/host)",
         metrics0.Value("mem.transport_bytes_per_host"));
  h.Text("peak RSS (MiB)", peak_rss_mib);
  h.Text("shards", static_cast<long long>(shards));
  // Deterministic lookahead facts (the extraction depends only on seed):
  // the structural window bound, the measured matrix min (0 at 1 shard),
  // and the window count they produce. The table shows them when sharded.
  const bool sharded = shards > 1;
  h.Add("lookahead (ms)", "lookahead_structural_ms", plan.lookahead_ms,
        sharded);
  h.Add("extracted lookahead (ms)", "lookahead_extracted_ms",
        plan.extracted_lookahead_ms, sharded);
  h.Count("lockstep windows", "lockstep_windows", kernel.windows(), sharded);
  h.Count("cross-shard messages", "cross_shard_messages",
          kernel.cross_shard_messages(), sharded);
  if (sharded)
    h.Text("critical path (ms)",
           ProfileMs(metrics0, "fullstack.critical_path_ms"));
  h.Count("protocol events", "protocol_events", protocol_events);
  h.Count("heartbeats delivered", "heartbeats_delivered", hb_delivered);
  h.Count("SOMO gathers", "somo_gathers", root_somo.gathers_completed());
  h.Add("SOMO root staleness (ms)", "somo_root_staleness_ms",
        root_somo.RootStalenessMs());
  h.Count("alert fires", "alert_fires", alert_engine.fires());
  h.Add("AMCast baseline height (ms)", "base_height_ms", base);
  h.Add("planned height (ms)", "planned_height_ms", r.height_true);
  h.Add("improvement", "improvement", alm::Improvement(base, r.height_true));
  h.Count("helpers used", "helpers_used", r.helpers_used);
  h.Count("maintenance msgs", "maintenance_msgs", r.maintenance_messages,
          r.maintenance_messages > 0);
  out.text = h.ToText(3);

  report.AddConfig("preset", c.stack.preset);
  report.AddConfig("planner", c.planner);
  report.AddConfig("oracle", OracleName(oracle.kind()));
  report.AddConfig("f32", oracle.uses_float_storage());
  report.AddConfig("group", static_cast<std::int64_t>(c.group));
  report.AddConfig("helpers", static_cast<std::int64_t>(c.helpers));
  report.AddConfig("strategy", c.strategy);
  report.AddConfig("somo_interval_ms", interval);
  report.AddConfig("horizon_ms", c.horizon_ms);
  report.AddConfig("shards", static_cast<std::int64_t>(shards));
  // Wall-clock setup and run times stay out of the results (same-seed
  // reports must diff clean): they are profile timers, read back above.
  report.AddResult("oracle_bytes", static_cast<double>(oracle.MemoryBytes()));
  report.AddResult("oracle_core_nodes",
                   static_cast<double>(oracle.core_node_count()));
  report.AddResult("oracle_gateways",
                   static_cast<double>(oracle.gateway_count()));
  report.AddResult("alert_evaluations",
                   static_cast<double>(alert_engine.evaluations()));
  report.AddResult("alert_root_stale_first_ms",
                   alert_engine.first_fired_at(root_stale_rule));
  report.AddAlerts("fullstack", alert_engine);
  stack.AttachMetrics(report);
  return out;
}

// Registered planners judged against each other on one session under
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
Outcome RunCompare(const CompareConfig& c, std::FILE* progress) {
  CheckStack(c.stack);
  CheckGroup(c.group);
  std::vector<std::pair<std::string, std::unique_ptr<alm::Planner>>> planners;
  for (const std::string& name : util::SplitList(c.planners)) {
    planners.emplace_back(
        name,
        alm::CreatePlanner(name, alm::ParseStrategy(c.strategy), c.mesh));
    if (planners.back().second->NeedsEstimates())
      throw util::UsageError("compare has no coordinate estimates; planner '" +
                             name + "' needs them");
  }
  const std::size_t members = c.group - 1;
  const std::size_t fail_count = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::max(0.0, c.fail_frac) *
                                  static_cast<double>(members)));
  if (fail_count >= members)
    throw util::UsageError("--fail-frac leaves no surviving member");

  const std::uint64_t seed = c.stack.seed;
  const Network net(c.stack, progress);
  obs::MetricsRegistry registry;
  alm::PlanInput in = SampleSession(net.oracle, c.group, c.helpers, seed);
  in.metrics = &registry;
  in.planner_metrics = true;

  // Shared failure sets so every planner faces the identical fault.
  std::vector<alm::ParticipantId> loss_set;
  util::Rng fail_rng(seed ^ 0xfa11);
  for (const std::size_t i : fail_rng.SampleIndices(members, fail_count))
    loss_set.push_back(in.members[i]);
  std::vector<alm::ParticipantId> partition_set = in.members;
  std::sort(partition_set.begin(), partition_set.end());
  partition_set.resize(fail_count);

  Outcome out("compare", seed);
  obs::RunReport& report = out.report;
  report.AddConfig("preset", c.stack.preset);
  report.AddConfig("oracle", OracleName(net.oracle.kind()));
  report.AddConfig("planners", c.planners);
  report.AddConfig("strategy", c.strategy);
  report.AddConfig("group", static_cast<std::int64_t>(c.group));
  report.AddConfig("helpers", static_cast<std::int64_t>(c.helpers));
  report.AddConfig("fail_frac", c.fail_frac);
  report.AddResult("hosts", static_cast<double>(net.topo.host_count()));
  report.AddResult("members", static_cast<double>(members));
  report.AddResult("failed_per_scenario", static_cast<double>(fail_count));

  util::Table t({"planner", "scenario", "height_ms", "stress", "maint_msgs",
                 "helpers", "disrupted", "repair_msgs", "repair_ms"});
  const auto row = [&](const std::string& planner, const char* scenario,
                       const alm::PlanResult& plan, std::size_t disrupted,
                       std::size_t repair_msgs, double repair_ms) {
    const std::size_t stress = alm::MaxFanout(plan.tree);
    t.AddRow({planner, std::string(scenario), plan.height_true,
              static_cast<long long>(stress),
              static_cast<long long>(plan.maintenance_messages),
              static_cast<long long>(plan.helpers_used),
              static_cast<long long>(disrupted),
              static_cast<long long>(repair_msgs), repair_ms});
    const std::string prefix = planner + "." + scenario + ".";
    report.AddResult(prefix + "height_ms", plan.height_true);
    report.AddResult(prefix + "stress", static_cast<double>(stress));
    report.AddResult(prefix + "maintenance_msgs",
                     static_cast<double>(plan.maintenance_messages));
    report.AddResult(prefix + "helpers_used",
                     static_cast<double>(plan.helpers_used));
    report.AddResult(prefix + "disrupted", static_cast<double>(disrupted));
    report.AddResult(prefix + "repair_msgs", static_cast<double>(repair_msgs));
    report.AddResult(prefix + "repair_latency_ms", repair_ms);
  };
  for (const auto& [name, planner] : planners) {
    Progress(progress, "planning %zu-member session with '%s' ...\n", c.group,
             name.c_str());
    row(name, "none", planner->Plan(in), 0, 0, 0.0);
    for (const auto& [scenario, failed] :
         {std::pair{"loss", &loss_set},
          std::pair{"partition", &partition_set}}) {
      const alm::RepairOutcome rep = planner->Repair(in, *failed);
      row(name, scenario, rep.plan, rep.disrupted, rep.repair_messages,
          rep.repair_latency_ms);
    }
  }
  out.text = t.ToText(3);
  for (const auto& [name, value] : registry.ValuesWithPrefix("alm.planner."))
    out.text += StrFormat("  %s = %.0f\n", name.c_str(), value);
  report.AttachMetrics(&registry);
  return out;
}

Outcome RunSomo(const SomoRunConfig& c, std::FILE*) {
  StackConfig sc = c.stack;
  sc.seed = sc.hosts;  // the kernel seed is the ring size
  const std::size_t nodes = sc.hosts;
  const somo::SomoConfig& cfg = *sc.somo;
  Stack stack(sc);
  sim::Simulation& sim = stack.sim();
  somo::SomoProtocol& somo = stack.somo();
  sim::TraceSink trace(c.trace_cap);
  if (!c.trace.empty()) {
    trace.set_clock([&sim] { return sim.now(); });
    sim.transport().set_trace(&trace);
    stack.ring().set_trace_sink(&trace);  // per-hop records for lookups
  }
  stack.Start();
  obs::TimeseriesSampler sampler;
  if (!c.timeseries.empty()) {
    sampler.AddProbe("root_staleness_ms",
                     [&] { return FiniteOr(somo.RootStalenessMs(), -1.0); });
    sampler.AddProbe("root_members",
                     [&] { return sim.metrics().Value("somo.root.members"); });
    sampler.AddProbe("somo_messages",
                     [&] { return sim.metrics().Value("somo.messages"); });
    sampler.AddProbe("inflight_messages", [&] {
      return static_cast<double>(sim.transport().inflight_messages());
    });
    sim.Every(cfg.report_interval_ms, cfg.report_interval_ms,
              [&] { sampler.Sample(sim.now()); });
  }
  sim.RunUntil(c.horizon_ms);

  Outcome out("somo", sc.seed);
  obs::RunReport& report = out.report;
  Headlines h(report);
  h.Text("nodes", static_cast<long long>(nodes));
  h.Text("fanout", static_cast<long long>(cfg.fanout));
  h.Count("tree depth", "tree_depth", somo.tree().depth());
  h.Count("logical nodes", "logical_nodes", somo.tree().size());
  h.Count("gathers completed", "gathers_completed", somo.gathers_completed());
  h.Add("root staleness (ms)", "root_staleness_ms", somo.RootStalenessMs());
  h.Count("messages", "messages", somo.messages_sent());
  h.Add("bytes/node/cycle", "bytes_per_node_cycle",
        static_cast<double>(somo.bytes_sent()) / static_cast<double>(nodes) /
            (c.horizon_ms / cfg.report_interval_ms));
  if (cfg.disseminate)
    h.Text("nodes with newscast",
           static_cast<long long>(somo.nodes_with_view()));
  out.text = h.ToText(1);
  if (!c.trace.empty()) {
    // One overlay query at the horizon interleaves routing-hop records
    // with the protocol traffic the trace already holds.
    (void)somo.QueryFromNode(0);
    std::FILE* f = std::fopen(c.trace.c_str(), "w");
    const bool ok = f != nullptr && trace.WriteText(f);
    if (f != nullptr) std::fclose(f);
    if (!ok) throw util::CheckError("cannot write trace to " + c.trace);
    out.text += StrFormat("trace: %zu records held (%zu total) -> %s\n",
                          trace.size(), trace.total_records(),
                          c.trace.c_str());
  }

  report.AddConfig("nodes", static_cast<std::int64_t>(nodes));
  report.AddConfig("fanout", static_cast<std::int64_t>(cfg.fanout));
  report.AddConfig("interval_ms", cfg.report_interval_ms);
  report.AddConfig("sync", cfg.synchronized_gather);
  report.AddConfig("disseminate", cfg.disseminate);
  report.AddConfig("redundant", cfg.redundant_links);
  report.AddConfig("horizon_ms", c.horizon_ms);
  stack.AttachMetrics(report);
  if (!c.timeseries.empty()) {
    if (!sampler.WriteCsv(c.timeseries))
      throw util::CheckError("cannot write timeseries to " + c.timeseries);
    out.text += StrFormat("timeseries: %zu rows -> %s\n", sampler.rows(),
                          c.timeseries.c_str());
    report.AddTimeseries("somo_cycle", c.timeseries, sampler.rows(),
                         sampler.total_rows());
  }
  return out;
}

// Deterministic fault experiment (§3.2 robustness): sweep the bus loss
// rate and report how stale the SOMO root view gets. With `fail` > 0 that
// many internal logical-node owners crash a third of the way in, WITHOUT
// failure detection or tree rebuild — pair with `redundant` to watch the
// parent-sibling detour links hold freshness together.
Outcome RunSomoLoss(const SomoLossConfig& c, std::FILE*) {
  const somo::SomoConfig& cfg = *c.stack.somo;
  Outcome out("somo-loss", c.stack.seed);
  obs::RunReport& report = out.report;
  report.AddConfig("nodes", static_cast<std::int64_t>(c.stack.hosts));
  report.AddConfig("fanout", static_cast<std::int64_t>(cfg.fanout));
  report.AddConfig("interval_ms", cfg.report_interval_ms);
  report.AddConfig("redundant", cfg.redundant_links);
  report.AddConfig("fail", static_cast<std::int64_t>(c.fail));
  report.AddConfig("horizon_ms", c.horizon_ms);

  // alive_stale_ms ignores crashed machines' lingering final reports (they
  // persist in cached aggregates until a rebuild), so it isolates how well
  // gathering tracks the surviving membership.
  util::Table t({"loss", "alive_stale_ms", "complete", "somo_drop%",
                 "redundant_pushes"});
  for (const double loss : c.losses) {
    Stack stack(c.stack);
    sim::Simulation& sim = stack.sim();
    dht::Ring& ring = stack.ring();
    somo::SomoProtocol& somo = stack.somo();
    sim.transport().faults().loss_probability = loss;
    stack.Start();
    sim.RunUntil(c.horizon_ms / 3.0);
    std::size_t failed = 0;
    const auto& tree = somo.tree();
    for (somo::LogicalIndex l = 0; l < tree.size() && failed < c.fail; ++l) {
      const auto& ln = tree.node(l);
      if (ln.is_leaf() || ln.is_root()) continue;
      if (ln.owner == tree.node(tree.root()).owner) continue;
      if (!ring.node(ln.owner).alive()) continue;
      ring.Fail(ln.owner);
      ++failed;
    }
    sim.RunUntil(c.horizon_ms);
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
    stack.AttachMetrics(report);  // the last level's registry stays
  }
  out.text = t.ToText(3);
  return out;
}

// Deterministic fault experiment (§3.1/§4): sweep the bus delay jitter and
// report the heartbeat failure detector's false-positive rate in
// suspect_alive mode. Nobody actually dies; every suspicion is the
// detector being starved by jitter (and `loss` adds message loss on top).
Outcome RunHbJitter(const HbJitterConfig& c, std::FILE*) {
  const std::size_t nodes = c.stack.hosts;
  Outcome out("hb-jitter", c.stack.seed);
  obs::RunReport& report = out.report;
  report.AddConfig("nodes", static_cast<std::int64_t>(nodes));
  report.AddConfig("period_ms", c.stack.heartbeat->period_ms);
  report.AddConfig("timeout_ms", c.stack.heartbeat->timeout_ms);
  report.AddConfig("loss", c.loss);
  report.AddConfig("horizon_ms", c.horizon_ms);

  util::Table t({"jitter_ms", "delivered", "false_pos", "fp/node/min"});
  for (const double jitter : c.jitters_ms) {
    Stack stack(c.stack);
    sim::Simulation& sim = stack.sim();
    dht::HeartbeatProtocol& hb = stack.heartbeat();
    sim.transport().faults().jitter_ms = jitter;
    sim.transport().faults().loss_probability = c.loss;
    stack.Start();
    sim.RunUntil(c.horizon_ms);
    const double node_minutes =
        static_cast<double>(nodes) * c.horizon_ms / 60000.0;
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
    stack.AttachMetrics(report);  // the last level's registry stays
  }
  out.text = t.ToText(3);
  return out;
}

// The self-monitoring experiment: every host folds a snapshot of its own
// transport counters into the NodeReport it hands SOMO, so the system's
// telemetry travels in-band up the gather tree. The root's aggregate then
// claims to describe per-host traffic — and because this is a simulation
// we also hold the exact ground truth (Transport::EnablePerHostStats).
// This quantifies the divergence between the two under fault injection:
//   count error  — mean relative error of the root view's per-host
//                  sent-message counters vs the live transport counters;
//   age error    — mean age of the telemetry samples in the root view
//                  (how old the in-band "now" is);
//   coverage     — alive hosts represented with valid telemetry.
// Scenarios: none (baseline), loss (Bernoulli drop on every send), and
// partition (a host block isolated for the middle third of the run).
Outcome RunObserve(const ObserveConfig& c, std::FILE*) {
  const std::vector<FaultScenario> scenarios =
      ParseScenarios(c.scenarios, c.loss);
  EnsureTimeseriesDir(c.timeseries_dir);
  const std::size_t nodes = c.stack.hosts;
  const double interval = c.stack.somo->report_interval_ms;

  Outcome out("observe", c.stack.seed);
  obs::RunReport& report = out.report;
  report.AddConfig("nodes", static_cast<std::int64_t>(nodes));
  report.AddConfig("fanout", static_cast<std::int64_t>(c.stack.somo->fanout));
  report.AddConfig("interval_ms", interval);
  report.AddConfig("loss", c.loss);
  report.AddConfig("horizon_ms", c.horizon_ms);
  report.AddConfig("scenarios", c.scenarios);

  util::Table t({"scenario", "coverage", "count_err%", "age_err_ms",
                 "peak_age_ms", "root_stale_ms", "view_cov", "drop%"});
  for (const FaultScenario& scenario : scenarios) {
    Stack stack(c.stack);
    sim::Simulation& sim = stack.sim();
    dht::Ring& ring = stack.ring();
    somo::SomoProtocol& somo = stack.somo();
    sim.transport().faults().loss_probability = scenario.loss;
    stack.Start();

    // Decimating fill: were a scenario ever to outlive the buffer, the CSV
    // would keep its full span at halved resolution instead of losing the
    // start-up transient. The standard 60-cycle runs never fill it, so
    // their bytes are unchanged.
    obs::TimeseriesSampler sampler(4096, obs::FillPolicy::kDecimate);
    const std::string ts_path =
        c.timeseries_dir.empty()
            ? ""
            : c.timeseries_dir + "/observe_" + scenario.name + ".csv";
    if (!ts_path.empty()) {
      sampler.AddProbe("root_staleness_ms",
                       [&] { return FiniteOr(somo.RootStalenessMs(), -1.0); });
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

    // The partitioned block's telemetry in the root view freezes until the
    // heal.
    if (scenario.partition)
      PartitionFirstEighth(sim, nodes, c.horizon_ms, nodes);
    // Peak divergence: sampled just before the partition heals (the worst
    // moment for that scenario; for the others just a mid-run reading).
    ViewError peak;
    sim.At(2.0 * c.horizon_ms / 3.0 - 1.0,
           [&] { peak = ScoreView(somo.RootReport(), sim); });

    sim.RunUntil(c.horizon_ms);

    const ViewError final = ScoreView(somo.RootReport(), sim);
    const double coverage = static_cast<double>(final.entries) /
                            static_cast<double>(ring.alive_count());
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
      const double err = ScoreView(*v.view, sim).count_err_pct;
      view_age.push_back(age);
      view_err.push_back(err);
      h_age.Add(age);
      h_err.Add(err);
    }
    const double view_cov = static_cast<double>(view_age.size()) /
                            static_cast<double>(ring.alive_count());
    sim.metrics().gauge("observe.view.coverage").Set(view_cov);

    t.AddRow({scenario.name, coverage, final.count_err_pct, final.age_ms,
              peak.age_ms, root_stale, view_cov, drop_pct});
    const std::string prefix = scenario.name + ".";
    report.AddResult(prefix + "coverage", coverage);
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
      if (!sampler.WriteCsv(ts_path))
        throw util::CheckError("cannot write timeseries to " + ts_path);
      report.AddTimeseries(scenario.name, ts_path, sampler.rows(),
                           sampler.total_rows());
    }
    somo.Stop();
    stack.heartbeat().Stop();
    stack.AttachMetrics(report);  // the last scenario's registry stays
  }
  out.text = t.ToText(3);
  if (!c.timeseries_dir.empty())
    out.text += StrFormat("timeseries CSVs -> %s/observe_<scenario>.csv\n",
                          c.timeseries_dir.c_str());
  return out;
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
Outcome RunAlert(const AlertConfig& c, std::FILE* progress) {
  CheckStack(c.stack);
  const std::vector<FaultScenario> scenarios =
      ParseScenarios(c.scenarios, c.loss);
  EnsureTimeseriesDir(c.timeseries_dir);
  const double interval = c.stack.somo->report_interval_ms;
  const double hb_timeout = c.stack.heartbeat->timeout_ms;

  Network net(c.stack, progress);
  const std::size_t hosts = net.topo.host_count();

  Outcome out("alert", c.stack.seed);
  obs::RunReport& report = out.report;
  report.AddConfig("preset", c.stack.preset);
  report.AddConfig("oracle", OracleName(net.oracle.kind()));
  report.AddConfig("fanout", static_cast<std::int64_t>(c.stack.somo->fanout));
  report.AddConfig("interval_ms", interval);
  report.AddConfig("horizon_ms", c.horizon_ms);
  report.AddConfig("loss", c.loss);
  report.AddConfig("hb_timeout_ms", hb_timeout);
  report.AddConfig("scenarios", c.scenarios);

  struct ArmResult {
    double hb_detect = -1.0;  // heartbeat first times out the victim
    std::size_t false_detects = 0;  // stale members probed alive
    std::size_t repaired = 0;       // stale members evicted (dead)
    std::size_t rebuilds = 0;
  };

  util::Table t({"scenario", "arm", "hb_detect", "alert_detect", "delta",
                 "fires", "false_det", "repaired", "end_stale_ms"});
  bool wrote_period = false;

  for (const FaultScenario& scenario : scenarios) {
    for (const bool inband : {false, true}) {
      const std::string arm = inband ? "inband" : "truth";
      // Both arms run the same seed: identical timer phases and fault
      // schedule, so the only divergence is who drives the repair.
      StackConfig arm_sc = c.stack;
      arm_sc.heartbeat->auto_repair = !inband;
      Stack stack(arm_sc, &net);
      sim::Simulation& sim = stack.sim();
      dht::Ring& ring = stack.ring();
      dht::HeartbeatProtocol& hb = stack.heartbeat();
      somo::SomoProtocol& somo = stack.somo();
      sim.transport().faults().loss_probability = scenario.loss;

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
      const std::size_t tree_depth = tree.depth();  // Rebuild replaces it
      const double diss_period =
          (static_cast<double>(tree_depth) + 2.0) * interval;
      const double stale_threshold = hb_timeout + diss_period;
      obs::AlertRule stale;
      stale.name = "view.stale";
      stale.threshold = stale_threshold;
      // Half a cycle of debounce: one confirming evaluation. A full cycle
      // would push in-band detection beyond the dissemination-period bound
      // the experiment is out to demonstrate.
      stale.debounce_ms = interval / 2.0;
      stale.clear_ms = interval;
      stale.probe = [&somo, observer] {  // no view yet: nothing to alert
        return FiniteOr(somo.ViewStalenessMs(observer), 0.0);
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
        const auto probe_and_repair = [&](const obs::AlertEvent&) {
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
        engine.OnFire(stale_rule, probe_and_repair);
        engine.OnFire(susp_rule, probe_and_repair);
      }

      stack.Start();
      sim.Every(interval / 2.0, interval / 2.0,
                [&engine, &sim] { engine.Evaluate(sim.now()); });

      const double t_crash = c.horizon_ms / 3.0;
      sim.At(t_crash, [&ring, victim] { ring.Fail(victim); });
      if (scenario.partition)
        PartitionFirstEighth(sim, hosts, c.horizon_ms,
                             ring.node(root_owner).host());

      sim.RunUntil(c.horizon_ms);

      const double alert_detect = engine.first_fired_at(stale_rule);
      const double end_alive_stale =
          FiniteOr(somo.RootAliveStalenessMs(), -1.0);
      // Missed repair: the injected failure was never acted on — the truth
      // arm's heartbeat never timed the victim out, or the in-band arm's
      // reactor never evicted it.
      const bool missed = inband ? evicted[victim] == 0 : res.hb_detect < 0.0;

      const double delta = res.hb_detect >= 0.0 && alert_detect >= 0.0
                               ? alert_detect - res.hb_detect
                               : -1.0;
      t.AddRow({scenario.name, arm, res.hb_detect, alert_detect, delta,
                static_cast<long long>(engine.fire_count(stale_rule) +
                                       engine.fire_count(susp_rule)),
                static_cast<long long>(res.false_detects),
                static_cast<long long>(res.repaired), end_alive_stale});

      if (!wrote_period) {
        // Identical across scenarios and arms (same membership, same tree).
        report.AddResult("tree_depth", static_cast<double>(tree_depth));
        report.AddResult("dissemination_period_ms", diss_period);
        report.AddResult("stale_threshold_ms", stale_threshold);
        wrote_period = true;
      }
      const std::string prefix = scenario.name + "." + arm + ".";
      report.AddResult(prefix + "hb_detect_ms", res.hb_detect);
      report.AddResult(prefix + "alert_detect_ms", alert_detect);
      report.AddResult(prefix + "detect_delta_ms", delta);
      report.AddResult(prefix + "suspect_detect_ms",
                       engine.first_fired_at(susp_rule));
      report.AddResult(prefix + "stale_fires",
                       static_cast<double>(engine.fire_count(stale_rule)));
      report.AddResult(prefix + "suspect_fires",
                       static_cast<double>(engine.fire_count(susp_rule)));
      report.AddResult(prefix + "false_detects",
                       static_cast<double>(res.false_detects));
      report.AddResult(prefix + "missed_repairs", missed ? 1.0 : 0.0);
      report.AddResult(prefix + "repaired", static_cast<double>(res.repaired));
      report.AddResult(prefix + "rebuilds", static_cast<double>(res.rebuilds));
      report.AddResult(prefix + "leafset_repairs",
                       sim.metrics().Value("dht.leafset.repairs"));
      report.AddResult(prefix + "end_alive_staleness_ms", end_alive_stale);
      report.AddResult(prefix + "somo_messages",
                       static_cast<double>(somo.messages_sent()));
      report.AddResult(prefix + "somo_bytes",
                       static_cast<double>(somo.bytes_sent()));
      report.AddResult(prefix + "hb_false_suspicions",
                       static_cast<double>(hb.false_suspicions()));
      report.AddAlerts(scenario.name + "." + arm, engine);

      if (!c.timeseries_dir.empty()) {
        const std::string csv_path = c.timeseries_dir + "/alert_" +
                                     scenario.name + "_" + arm + ".csv";
        if (!engine.WriteCsv(csv_path))
          throw util::CheckError("cannot write alert log to " + csv_path);
        report.AddTimeseries(scenario.name + "." + arm + ".alerts", csv_path,
                             engine.events().size(),
                             engine.events().size() + engine.dropped_events());
      }
      somo.Stop();
      hb.Stop();
      stack.AttachMetrics(report);  // the last run's registry stays
    }
  }
  out.text = t.ToText(1);
  if (!c.timeseries_dir.empty())
    out.text += StrFormat("alert event CSVs -> %s/alert_<scenario>_<arm>.csv\n",
                          c.timeseries_dir.c_str());
  return out;
}

}  // namespace p2p::exp
