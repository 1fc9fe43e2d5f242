// The paper's figures and §3.2 claims (DESIGN.md §2), and the ablations
// built from its machinery (DESIGN.md §7), as fixed-size experiments
// (exp/experiments.h). Each text opens with the figure's title block, and
// its report holds every tabled number as `<table>.<row>.<column>`.
#include <cmath>
#include <map>

#include "alm/adjust.h"
#include "alm/bounds.h"
#include "alm/metrics.h"
#include "bwest/estimator.h"
#include "coord/gnp.h"
#include "coord/leafset_coords.h"
#include "dht/heartbeat.h"
#include "dht/ring.h"
#include "exp/common.h"
#include "exp/experiments.h"
#include "exp/stack.h"
#include "net/bandwidth_model.h"
#include "net/latency_oracle.h"
#include "pool/live_pool.h"
#include "pool/multi_session_sim.h"
#include "pool/task_manager.h"
#include "sim/simulation.h"
#include "somo/somo.h"
#include "util/ascii_chart.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace p2p::exp {
namespace {

// The title block a figure's text opens with.
std::string Header(const char* title, const char* paper_ref) {
  return StrFormat("\n=== %s ===\n(reproduces %s)\n\n", title, paper_ref);
}

// The paper's pool: 1200 hosts on a 600-router transit-stub topology,
// leafset 32, degree bounds distributed 2^-i.
pool::PoolConfig PaperPool(std::uint64_t seed) {
  pool::PoolConfig cfg;
  cfg.seed = seed;
  return cfg;
}

// ------------------------------------------------------------ Figure 4 --

constexpr std::size_t kPairSamples = 8000;

std::vector<double> GnpErrors(const net::LatencyOracle& oracle,
                              std::size_t landmarks, std::uint64_t seed) {
  std::vector<net::HostIdx> hosts(oracle.host_count());
  for (std::size_t i = 0; i < hosts.size(); ++i) hosts[i] = i;
  util::Rng rng(seed);
  coord::GnpOptions opt;
  opt.landmark_count = landmarks;
  coord::GnpSystem gnp(oracle, hosts, opt, rng);
  gnp.Solve();
  util::Rng prng(seed ^ 0x1234);
  std::vector<double> errs;
  errs.reserve(kPairSamples);
  while (errs.size() < kPairSamples) {
    const auto a = prng.NextBounded(hosts.size());
    const auto b = prng.NextBounded(hosts.size());
    if (a == b) continue;
    errs.push_back(
        coord::RelativeError(gnp.Predict(a, b), gnp.Measured(a, b)));
  }
  return errs;
}

std::vector<double> LeafsetErrors(const net::LatencyOracle& oracle,
                                  std::size_t leafset_size,
                                  std::uint64_t seed) {
  dht::Ring ring(leafset_size, &oracle);
  for (net::HostIdx h = 0; h < oracle.host_count(); ++h) ring.JoinHashed(h);
  ring.StabilizeAll();
  coord::LeafsetCoordOptions opt;
  opt.nm.max_iterations = 120;
  util::Rng rng(seed);
  coord::LeafsetCoordSystem cs(ring, opt, rng);
  cs.RunRounds(8);
  util::Rng prng(seed ^ 0x5678);
  std::vector<double> errs;
  errs.reserve(kPairSamples);
  while (errs.size() < kPairSamples) {
    const auto a = prng.NextBounded(oracle.host_count());
    const auto b = prng.NextBounded(oracle.host_count());
    if (a == b) continue;
    errs.push_back(coord::RelativeError(cs.Predict(a, b),
                                        oracle.Latency(a, b)));
  }
  return errs;
}

// ------------------------------------------------------------ Figure 5 --

struct BandwidthRow {
  double up_err;
  double down_err;
  double ranking;
};

BandwidthRow EstimateBandwidth(const net::LatencyOracle& oracle,
                               const net::BandwidthModel& model,
                               std::size_t leafset_size, std::uint64_t seed) {
  dht::Ring ring(leafset_size, &oracle);
  for (net::HostIdx h = 0; h < oracle.host_count(); ++h)
    ring.JoinHashed(h, /*salt=*/seed & 0xff);
  ring.StabilizeAll();
  util::Rng rng(seed);
  bwest::BandwidthEstimator est(ring, model, bwest::PacketPairOptions{},
                                rng);
  est.EstimateAll();
  util::Accumulator up, down;
  for (std::size_t n = 0; n < ring.size(); ++n) {
    up.Add(est.UpRelativeError(n));
    down.Add(est.DownRelativeError(n));
  }
  return {up.mean(), down.mean(), est.UpRankingAccuracy()};
}

// ---------------------------------------------------------- SOMO (§3.2) --

constexpr double kHopMs = 200.0;         // the paper's typical DHT hop
constexpr double kIntervalMs = 5000.0;   // the paper's 5 s reporting cycle

struct GatherSample {
  std::size_t depth = 0;
  double unsync_staleness_ms = 0.0;
  double sync_staleness_ms = 0.0;
  double bytes_per_node_cycle = 0.0;  // gather overhead (unsync mode)
};

// Root staleness of an n-node ring's gather, unsynchronised then
// synchronised, sampled four times a cycle after a warm-up.
GatherSample MeasureGather(std::size_t n, std::size_t fanout) {
  GatherSample s;
  for (const bool synchronized : {false, true}) {
    Stack stack({.seed = n * 131 + fanout, .hosts = n, .leafset = 16,
                 .ring_metrics = false,
                 .somo = somo::SomoConfig{.fanout = fanout,
                                          .report_interval_ms = kIntervalMs,
                                          .synchronized_gather = synchronized,
                                          .default_hop_delay_ms = kHopMs}});
    sim::Simulation& sim = stack.sim();
    somo::SomoProtocol& somo = stack.somo();
    s.depth = somo.tree().depth();
    stack.Start();
    sim.RunUntil((static_cast<double>(s.depth) + 3.0) * kIntervalMs);
    util::Accumulator staleness;
    for (int i = 0; i < 40; ++i) {
      sim.RunUntil(sim.now() + kIntervalMs / 4.0);
      if (somo.RootViewComplete()) staleness.Add(somo.RootStalenessMs());
    }
    if (synchronized) {
      s.sync_staleness_ms = staleness.mean();
    } else {
      s.unsync_staleness_ms = staleness.mean();
      const double cycles = sim.now() / kIntervalMs;
      s.bytes_per_node_cycle = static_cast<double>(somo.bytes_sent()) /
                               static_cast<double>(n) / cycles;
    }
  }
  return s;
}

struct RepairResult {
  double detect_ms = -1.0;   // first failure detection after the burst
  double recover_ms = -1.0;  // root view complete again
};

constexpr std::size_t kRepairNodes = 128;

// Heartbeats + SOMO on kRepairNodes hosts; after a minute `burst` random
// nodes crash at once ("unplug cables"), and the run measures how long
// until the root's view covers every survivor and no dead node again.
RepairResult RunBurst(std::size_t burst, std::uint64_t seed,
                      bool synchronized_gather) {
  const StackConfig c{
      .seed = seed, .hosts = kRepairNodes, .leafset = 16,
      .ring_metrics = false,
      .heartbeat = dht::HeartbeatConfig{.period_ms = 1000.0,
                                        .timeout_ms = 3500.0},
      .somo = somo::SomoConfig{.fanout = 8,
                               .report_interval_ms = kIntervalMs,
                               .synchronized_gather = synchronized_gather}};
  Network net(c);
  Stack stack(c, &net);
  sim::Simulation& sim = stack.sim();
  dht::Ring& ring = stack.ring();
  somo::SomoProtocol& somo = stack.somo();
  double first_detection = -1.0;
  stack.heartbeat().AddFailureObserver(
      [&](dht::NodeIndex, dht::NodeIndex, sim::Time t) {
        if (first_detection < 0) first_detection = t;
        somo.Rebuild();
      });

  stack.Start();
  sim.RunUntil(60000.0);
  if (!somo.RootViewComplete()) return {};

  const double t0 = sim.now();
  util::Rng pick(seed ^ 0xbeef);
  for (std::size_t i = 0; i < burst; ++i) {
    const auto alive = ring.SortedAlive();
    ring.Fail(alive[pick.NextBounded(alive.size())]);
  }
  // A merely stale view still lists the dead machines, so regeneration
  // needs every survivor present and the dead purged.
  double recovered = -1.0;
  while (sim.now() < t0 + 120000.0) {
    sim.RunUntil(sim.now() + 250.0);
    if (somo.RootViewComplete() &&
        somo.RootReport().size() == ring.alive_count()) {
      recovered = sim.now();
      break;
    }
  }
  RepairResult result;
  if (first_detection >= t0) result.detect_ms = first_detection - t0;
  if (recovered >= 0) result.recover_ms = recovered - t0;
  return result;
}

// --------------------------------------------------- stream-rate ablation --

// A 20-host session rooted at its best-uplinked member: a modem host
// cannot source a stream to anyone, so no rational organiser roots there.
alm::SessionSpec BestUplinkSession(const pool::ResourcePool& rp,
                                   std::uint64_t seed) {
  util::Rng rng(seed);
  auto idx = rng.SampleIndices(rp.size(), 20);
  std::size_t best = 0;
  for (std::size_t i = 1; i < idx.size(); ++i) {
    if (rp.bandwidths().host(idx[i]).up_kbps >
        rp.bandwidths().host(idx[best]).up_kbps)
      best = i;
  }
  std::swap(idx[0], idx[best]);
  alm::SessionSpec spec;
  spec.id = 1;
  spec.priority = 1;
  spec.root = idx[0];
  spec.members.assign(idx.begin() + 1, idx.end());
  return spec;
}

}  // namespace

// Figure 4: CDF of relative latency-prediction error, GNP with 16/32
// landmarks vs the leafset variant with leafset 16/32, over 1200 end
// systems. Expected (§4.1): Leafset-32 tracks GNP-16 closely, and GNP is
// less sensitive to its parameter than the leafset variant.
Outcome RunFig4(std::FILE* progress) {
  Outcome out("fig4", 2026);
  obs::RunReport& report = out.report;
  report.AddConfig("hosts", static_cast<std::int64_t>(1200));
  report.AddConfig("pair_samples", static_cast<std::int64_t>(kPairSamples));
  report.AddConfig("series_seeds",
                   "GNP-16:11,GNP-32:12,Leafset-16:13,Leafset-32:14");
  const Network net({.seed = 2026, .hosts = 1200}, progress);
  std::map<std::string, std::vector<double>> series;
  series["GNP-16"] = GnpErrors(net.oracle, 16, 11);
  series["GNP-32"] = GnpErrors(net.oracle, 32, 12);
  series["Leafset-16"] = LeafsetErrors(net.oracle, 16, 13);
  series["Leafset-32"] = LeafsetErrors(net.oracle, 32, 14);

  // The CDF at fixed relative-error abscissae (the paper's x-axis).
  std::vector<std::string> header{"rel_error"};
  std::map<std::string, util::EmpiricalCdf> cdfs;
  for (const auto& [name, errs] : series) {
    header.push_back(name);
    cdfs.emplace(name, errs);
  }
  ResultTable table(report, "fig4_cdf", header);
  for (const double x :
       {0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.7, 1.0, 1.5, 2.0}) {
    std::vector<util::Table::Cell> row{x};
    for (const auto& [name, cdf] : cdfs) row.emplace_back(cdf.Eval(x));
    table.AddRow(std::move(row));
  }
  ResultTable summary(report, "fig4_summary", {"series", "mean", "p50", "p90"});
  for (const auto& [name, errs] : series) {
    summary.AddRow({name, util::Mean(errs), util::Percentile(errs, 50),
                    util::Percentile(errs, 90)});
  }

  // Visual CDF (x = relative error, y = fraction of pairs).
  std::vector<util::ChartSeries> chart;
  for (const auto& [name, cdf] : cdfs) {
    util::ChartSeries s;
    s.name = name;
    for (double x = 0.0; x <= 1.0; x += 0.02)
      s.points.emplace_back(x, cdf.Eval(x));
    chart.push_back(std::move(s));
  }
  util::ChartOptions copt;
  copt.y_min = 0.0;
  copt.y_max = 1.0;
  out.text = Header("Figure 4 — network-coordinate accuracy (CDF)",
                    "Fig. 4: GNP vs leafset variant, 1200 GT-ITM nodes") +
             table.ToText(3) + "\n" + summary.ToText(3) + "\n" +
             util::RenderAsciiChart(chart, copt) + "\n" +
             "Check: Leafset-32 should track GNP-16; larger leafset/landmark "
             "sets should not be worse.\n";
  return out;
}

// Figure 5: mean relative error of the leafset bottleneck-bandwidth
// estimator vs leafset size on the Gnutella-like population (DESIGN.md
// §4). Expected: error falls with leafset size, upstream beats downstream,
// and at leafset 32 the upstream error is near zero and the uplink
// ranking essentially perfect.
Outcome RunFig5(std::FILE* progress) {
  Outcome out("fig5", 7);
  obs::RunReport& report = out.report;
  report.AddConfig("hosts", static_cast<std::int64_t>(1200));
  report.AddConfig("bandwidth_seed", static_cast<std::int64_t>(8));
  report.AddConfig("ring_seeds", "100,101,102");
  const Network net({.seed = 7, .hosts = 1200}, progress);
  util::Rng bw_rng(8);
  const net::BandwidthModel model(net::GnutellaAccessClasses(),
                                  net.topo.host_count(), bw_rng);

  ResultTable table(report, "fig5_bandwidth",
                    {"leafset", "up_rel_err", "down_rel_err",
                     "up_ranking_acc"});
  for (const std::size_t L : {4u, 8u, 16u, 32u, 64u}) {
    // Averaged over 3 ring instantiations (different id salts).
    util::Accumulator up, down, rank;
    for (std::uint64_t r = 0; r < 3; ++r) {
      const BandwidthRow row =
          EstimateBandwidth(net.oracle, model, L, 100 + r);
      up.Add(row.up_err);
      down.Add(row.down_err);
      rank.Add(row.ranking);
    }
    table.AddRow({static_cast<long long>(L), up.mean(), down.mean(),
                  rank.mean()});
  }
  out.text =
      Header("Figure 5 — bottleneck-bandwidth estimation error vs leafset "
             "size",
             "Fig. 5: average relative error, Gnutella-like population") +
      table.ToText(4) + "\n" +
      "Check: error decreases with leafset size; uplink beats downlink; "
      "uplink error ~0 and ranking ~1.0 at leafset 32.\n";
  return out;
}

// Figure 8, the headline single-session result: tree-height improvement
// over AMCast vs group size, averaged over 20 runs, for AMCast+adj,
// Critical(+adj), Leafset(+adj) and the Bound (a root of unbounded
// degree). Expected: helper strategies gain ~30% for small-to-medium
// groups and less for large ones; the Bound sits at 40-50%; adjustment
// helps Leafset most.
Outcome RunFig8(std::FILE* progress) {
  constexpr std::size_t kRuns = 20;
  const std::vector<std::size_t> groups = {20, 50, 100, 200, 300, 400};
  const std::vector<alm::Strategy> strategies = {
      alm::Strategy::kAmcastAdjust,   alm::Strategy::kCritical,
      alm::Strategy::kCriticalAdjust, alm::Strategy::kLeafset,
      alm::Strategy::kLeafsetAdjust,
  };
  Outcome out("fig8", 1000);
  obs::RunReport& report = out.report;
  report.AddConfig("runs", static_cast<std::int64_t>(kRuns));
  report.AddConfig("groups", "20,50,100,200,300,400");
  report.AddConfig("pool_seeds", "1000+run");
  report.AddConfig("session_seeds", "5000+run");
  Progress(progress, "running %zu runs on 1200-host pools ...\n", kRuns);

  // improvement[run][group * columns + strategy], the Bound last in each
  // group: each run fills its own slot, and the means fold in run order,
  // so they do not depend on which worker finished first.
  const std::size_t columns = strategies.size() + 1;
  std::vector<std::vector<double>> improvement(
      kRuns, std::vector<double>(groups.size() * columns));
  util::ThreadPool threads;
  threads.ParallelFor(kRuns, [&](std::size_t run) {
    const pool::ResourcePool rp(PaperPool(1000 + run));
    std::vector<alm::TreePlanner> planners;
    for (const alm::Strategy s : strategies)
      planners.emplace_back(alm::OptionsForStrategy(s));
    util::Rng rng(5000 + run);
    for (std::size_t gi = 0; gi < groups.size(); ++gi) {
      const alm::PlanInput in = SamplePoolSession(rp, rng, groups[gi]);
      const double base = AmcastBaseline(in);
      double* cell = &improvement[run][gi * columns];
      for (std::size_t si = 0; si < planners.size(); ++si)
        cell[si] = alm::Improvement(base, planners[si].Plan(in).height_true);
      cell[strategies.size()] = alm::Improvement(
          base, alm::IdealHeight(in.root, in.members, in.true_latency));
    }
  });

  std::vector<std::string> header{"group"};
  for (const alm::Strategy s : strategies)
    header.push_back(alm::StrategyName(s));
  header.push_back("Bound");
  ResultTable table(report, "fig8_single_session", header);
  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    std::vector<util::Table::Cell> row{static_cast<long long>(groups[gi])};
    for (std::size_t col = 0; col < columns; ++col) {
      util::Accumulator mean;
      for (const auto& run : improvement) mean.Add(run[gi * columns + col]);
      row.emplace_back(mean.mean());
    }
    table.AddRow(std::move(row));
  }
  out.text =
      Header("Figure 8 — single ALM session: improvement over AMCast vs "
             "group size",
             "Fig. 8: 1200-host pool, 20 runs, R=100, degree dist 2^-i") +
      table.ToText(3) + "\n" +
      "Check: helper strategies (Critical/Leafset +adj) clearly beat "
      "AMCast+adj for small-to-medium groups and the gain shrinks as the "
      "group grows; Critical+adj approaches Bound; adjustment helps "
      "Leafset far more than Critical. (Our absolute numbers run ~5-10 "
      "points under the paper's because the AMCast baseline here is "
      "stronger — see EXPERIMENTS.md E3.)\n";
  return out;
}

// Figure 10: concurrent sessions competing for the pool through the
// market-driven scheduler. (a) mean improvement per priority class vs
// session count, against the lower bound (AMCast+adj, members only) and
// the upper bound (Leafset+adj with the pool to itself); (b) mean helpers
// retained per class. Expected: every class between the bounds, decaying
// as sessions multiply; priority 1 keeps the most improvement and helpers.
Outcome RunFig10(std::FILE* progress) {
  const std::vector<std::size_t> counts = {10, 20, 30, 40, 50, 60};
  constexpr std::size_t kRepeats = 3;
  Outcome out("fig10", 42);
  obs::RunReport& report = out.report;
  report.AddConfig("session_counts", "10,20,30,40,50,60");
  report.AddConfig("repeats", static_cast<std::int64_t>(kRepeats));
  report.AddConfig("members", static_cast<std::int64_t>(20));
  report.AddConfig("sweeps", static_cast<std::int64_t>(2));
  report.AddConfig("pool_seeds", "42+repeat");
  report.AddConfig("market_seeds", "900+repeat*6+count_index");
  Progress(progress, "running %zu market experiments on 1200-host pools ...\n",
           counts.size() * kRepeats);

  // One slot per job (job = repeat * counts + count index), folded below
  // in repeat order.
  std::vector<pool::MultiSessionResult> results(counts.size() * kRepeats);
  util::ThreadPool threads;
  threads.ParallelFor(results.size(), [&](std::size_t job) {
    pool::ResourcePool rp(PaperPool(42 + job / counts.size()));
    pool::MultiSessionParams params;
    params.session_count = counts[job % counts.size()];
    params.members_per_session = 20;
    params.rescheduling_sweeps = 2;
    params.seed = 900 + job;
    results[job] = RunMultiSessionExperiment(rp, params);
  });

  ResultTable a(report, "fig10a_improvement",
                {"sessions", "prio1", "prio2", "prio3", "lower_bound",
                 "upper_bound"});
  ResultTable b(report, "fig10b_helpers",
                {"sessions", "helpers_p1", "helpers_p2", "helpers_p3",
                 "utilisation", "preemptions"});
  for (std::size_t ci = 0; ci < counts.size(); ++ci) {
    util::Accumulator impr[4], helpers[4];  // by priority 1..3
    util::Accumulator lb, ub, util_frac, preemptions;
    for (std::size_t rep = 0; rep < kRepeats; ++rep) {
      const pool::MultiSessionResult& result =
          results[rep * counts.size() + ci];
      for (int p = 1; p <= 3; ++p) {
        const auto& cls = result.by_priority[static_cast<std::size_t>(p)];
        if (cls.sessions == 0) continue;
        impr[p].Add(cls.improvement.mean());
        helpers[p].Add(cls.helpers_used.mean());
      }
      lb.Add(result.lower_bound_improvement.mean());
      ub.Add(result.upper_bound_improvement.mean());
      util_frac.Add(result.pool_utilisation);
      preemptions.Add(static_cast<double>(result.preemptions));
    }
    const auto sessions = static_cast<long long>(counts[ci]);
    a.AddRow({sessions, impr[1].mean(), impr[2].mean(), impr[3].mean(),
              lb.mean(), ub.mean()});
    b.AddRow({sessions, helpers[1].mean(), helpers[2].mean(),
              helpers[3].mean(), util_frac.mean(), preemptions.mean()});
  }
  out.text =
      Header("Figure 10 — market-driven scheduling of concurrent sessions",
             "Fig. 10(a)/(b): 10..60 sessions of 20, priorities 1-3") +
      "(a) improvement over own AMCast baseline, by priority\n" +
      a.ToText(3) + "\n" + "(b) helper nodes per session, by priority\n" +
      b.ToText(2) + "\n" +
      "Check: all classes within [lower_bound, upper_bound]; improvement "
      "decays with session count; prio1 >= prio2 >= prio3 in both "
      "improvement and helpers as contention rises.\n";
  return out;
}

// §3.2's SOMO aggregation latency: unsynchronised root staleness bounded
// by log_k(N)·T, synchronised ≈ T + t_hop·log_k(N), the paper's analytic
// headline (2M nodes, k=8, 200 ms hops → ≈1.6 s), and a fanout sweep.
Outcome RunSomoLatency(std::FILE* progress) {
  Outcome out("somo-latency", 0);
  obs::RunReport& report = out.report;
  report.AddConfig("hop_ms", kHopMs);
  report.AddConfig("interval_ms", kIntervalMs);
  report.AddConfig("leafset", static_cast<std::int64_t>(16));
  report.AddConfig("sim_seed", "nodes*131+fanout");
  Progress(progress,
           "running SOMO gathers on 4 ring sizes and 4 fanouts ...\n");

  ResultTable table(report, "somo_latency",
                    {"nodes", "fanout", "depth", "unsync_stale_ms",
                     "unsync_bound_ms", "sync_stale_ms", "sync_bound_ms",
                     "bytes/node/cycle"});
  for (const std::size_t n : {64u, 256u, 1024u, 4096u}) {
    const GatherSample s = MeasureGather(n, 8);
    const auto depth = static_cast<double>(s.depth);
    table.AddRow({static_cast<long long>(n), 8ll,
                  static_cast<long long>(s.depth), s.unsync_staleness_ms,
                  depth * kIntervalMs, s.sync_staleness_ms,
                  kIntervalMs + 2.0 * depth * kHopMs,
                  s.bytes_per_node_cycle});
  }
  ResultTable fanouts(report, "somo_fanout",
                      {"fanout", "depth", "unsync_stale_ms", "sync_stale_ms"});
  for (const std::size_t k : {2u, 4u, 8u, 16u}) {
    const GatherSample s = MeasureGather(1024, k);
    fanouts.AddRow({static_cast<long long>(k),
                    static_cast<long long>(s.depth), s.unsync_staleness_ms,
                    s.sync_staleness_ms});
  }
  const double depth_2m = std::ceil(std::log(2e6) / std::log(8.0));
  out.text =
      Header("SOMO aggregation latency (§3.2 bounds)",
             "§3.2: log_k(N)·T unsync, T + t_hop·log_k(N) sync") +
      table.ToText(1) + "\n" + "fanout ablation (N=1024):\n" +
      fanouts.ToText(1) + "\n" +
      StrFormat("Analytic check, 2M nodes, k=8, t_hop=200 ms: depth=%.0f, "
                "t_hop*log_k(N) = %.2f s (paper: ~1.6 s)\n",
                depth_2m, depth_2m * kHopMs / 1000.0) +
      "Check: unsync staleness <= depth*T; sync staleness << unsync (a few "
      "hop times, not interval-bound); depth falls as fanout grows.\n";
  return out;
}

// §3.2's LiquidEye self-healing: crash bursts under heartbeats + SOMO.
// Expected: the view regenerates after a short jitter (detection plus a
// cycle or two) at every burst size.
Outcome RunSomoRepair(std::FILE* progress) {
  Outcome out("somo-repair", 300);
  obs::RunReport& report = out.report;
  report.AddConfig("nodes", static_cast<std::int64_t>(kRepairNodes));
  report.AddConfig("fanout", static_cast<std::int64_t>(8));
  report.AddConfig("heartbeat_period_ms", 1000.0);
  report.AddConfig("heartbeat_timeout_ms", 3500.0);
  report.AddConfig("interval_ms", kIntervalMs);
  report.AddConfig("seeds", "300,301,302");
  Progress(progress, "running 24 crash bursts on 128-node rings ...\n");

  ResultTable table(report, "somo_repair",
                    {"nodes", "burst", "detect_ms", "recover_unsync_ms",
                     "recover_sync_ms"},
                    /*key_column=*/1);
  for (const std::size_t burst : {1u, 4u, 8u, 16u}) {
    util::Accumulator detect, recover_unsync, recover_sync;
    for (std::uint64_t r = 0; r < 3; ++r) {
      const RepairResult u = RunBurst(burst, 300 + r, false);
      if (u.detect_ms >= 0) detect.Add(u.detect_ms);
      if (u.recover_ms >= 0) recover_unsync.Add(u.recover_ms);
      const RepairResult sy = RunBurst(burst, 300 + r, true);
      if (sy.recover_ms >= 0) recover_sync.Add(sy.recover_ms);
    }
    table.AddRow({static_cast<long long>(kRepairNodes),
                  static_cast<long long>(burst), detect.mean(),
                  recover_unsync.mean(), recover_sync.mean()});
  }
  out.text =
      Header("SOMO self-healing (LiquidEye, §3.2)",
             "§3.2: view regenerates after a short jitter") +
      table.ToText(0) + "\n" +
      "Check: detection within the 3.5 s heartbeat timeout; synchronised "
      "gather recovers within ~1-2 reporting cycles after detection; "
      "unsynchronised gather needs ~depth cycles (information climbs one "
      "level per cycle).\n";
  return out;
}

// The critical-node helper search (DESIGN.md §7): nearest-to-parent (the
// paper's "first variation") vs the minimax heuristic of conditions 1-3,
// and a sweep of the radius R, which §5.2 reports works for 50-150.
Outcome RunAblationHelper(std::FILE* progress) {
  constexpr std::size_t kRuns = 10;
  Outcome out("ablation-helper", 31);
  obs::RunReport& report = out.report;
  report.AddConfig("runs", static_cast<std::int64_t>(kRuns));
  report.AddConfig("group", static_cast<std::int64_t>(20));
  report.AddConfig("session_seeds", "700+run");
  Progress(progress, "building pool (seed 31) ...\n");
  util::ThreadPool threads;
  const pool::ResourcePool rp(PaperPool(31), &threads);
  std::vector<alm::PlanInput> sessions;
  std::vector<double> base;
  for (std::size_t r = 0; r < kRuns; ++r) {
    util::Rng rng(700 + r);
    sessions.push_back(SamplePoolSession(rp, rng, 20));
    base.push_back(AmcastBaseline(sessions.back()));
  }
  alm::TreePlanner critical(alm::OptionsForStrategy(alm::Strategy::kCritical));
  alm::TreePlanner critical_adjust(
      alm::OptionsForStrategy(alm::Strategy::kCriticalAdjust));

  // The selection rule at R = 100, before and after adjustment: the
  // adjustment phase can mask selection-rule differences by repairing
  // poor splices.
  ResultTable sel(report, "ablation_helper_selection",
                  {"selection", "impr_no_adjust", "impr_with_adjust",
                   "helpers"});
  for (const auto mode : {alm::HelperSelection::kNearestToParent,
                          alm::HelperSelection::kMinimaxHeuristic}) {
    util::Accumulator raw, adjusted, helpers;
    for (std::size_t r = 0; r < kRuns; ++r) {
      alm::PlanInput in = sessions[r];
      in.amcast.selection = mode;
      in.amcast.helper_radius = 100.0;
      raw.Add(alm::Improvement(base[r], critical.Plan(in).height_true));
      const auto r1 = critical_adjust.Plan(in);
      adjusted.Add(alm::Improvement(base[r], r1.height_true));
      helpers.Add(static_cast<double>(r1.helpers_used));
    }
    sel.AddRow({mode == alm::HelperSelection::kNearestToParent
                    ? std::string("nearest-to-parent")
                    : std::string("minimax (cond 1-3)"),
                raw.mean(), adjusted.mean(), helpers.mean()});
  }

  ResultTable rad(report, "ablation_helper_radius",
                  {"R_ms", "improvement", "helpers"});
  for (const double R : {25.0, 50.0, 100.0, 150.0, 300.0, 600.0}) {
    util::Accumulator impr, helpers;
    for (std::size_t r = 0; r < kRuns; ++r) {
      alm::PlanInput in = sessions[r];
      in.amcast.selection = alm::HelperSelection::kMinimaxHeuristic;
      in.amcast.helper_radius = R;
      const auto plan = critical_adjust.Plan(in);
      impr.Add(alm::Improvement(base[r], plan.height_true));
      helpers.Add(static_cast<double>(plan.helpers_used));
    }
    rad.AddRow({R, impr.mean(), helpers.mean()});
  }
  out.text = Header("Ablation — helper selection rule and radius R",
                    "§5.2: selection heuristic; R in 50~150 works well") +
             sel.ToText(3) + "\n" + rad.ToText(3) + "\n" +
             "Check: minimax >= nearest-to-parent; improvement peaks for R "
             "in 50-150 and degrades at the extremes.\n";
  return out;
}

// The three tree-adjustment move classes of §5.2 footnote 2 — (a)
// reparent the highest node, (b) swap it with another leaf, (c) swap its
// parent's subtree — alone and together, on plain AMCast and on the
// Critical helper plan.
Outcome RunAblationAdjust(std::FILE* progress) {
  constexpr std::size_t kRuns = 10;
  struct MoveSet {
    const char* name;
    bool a, b, c;
  };
  const std::vector<MoveSet> sets = {
      {"none", false, false, false}, {"(a) reparent", true, false, false},
      {"(b) leaf swap", false, true, false},
      {"(c) subtree swap", false, false, true},
      {"(a)+(b)", true, true, false}, {"all", true, true, true},
  };
  Outcome out("ablation-adjust", 57);
  obs::RunReport& report = out.report;
  report.AddConfig("runs", static_cast<std::int64_t>(kRuns));
  report.AddConfig("group", static_cast<std::int64_t>(50));
  report.AddConfig("session_seeds", "800+run");
  Progress(progress, "building pool (seed 57) ...\n");
  util::ThreadPool threads;
  const pool::ResourcePool rp(PaperPool(57), &threads);
  // Each session's AMCast and Critical plans, made once: every move set
  // adjusts its own copies of the trees.
  alm::TreePlanner amcast_planner(
      alm::OptionsForStrategy(alm::Strategy::kAmcast));
  alm::TreePlanner critical_planner(
      alm::OptionsForStrategy(alm::Strategy::kCritical));
  std::vector<alm::PlanInput> sessions;
  std::vector<alm::PlanResult> amcast, critical;
  for (std::size_t run = 0; run < kRuns; ++run) {
    util::Rng rng(800 + run);
    sessions.push_back(SamplePoolSession(rp, rng, 50));
    amcast.push_back(amcast_planner.Plan(sessions.back()));
    critical.push_back(critical_planner.Plan(sessions.back()));
  }

  ResultTable table(report, "ablation_adjust",
                    {"moves", "improvement_amcast", "improvement_critical",
                     "moves_applied"});
  for (const MoveSet& set : sets) {
    alm::AdjustOptions opt;
    opt.enable_reparent = set.a;
    opt.enable_leaf_swap = set.b;
    opt.enable_subtree_swap = set.c;
    util::Accumulator impr_amcast, impr_critical, applied;
    for (std::size_t run = 0; run < kRuns; ++run) {
      const alm::PlanInput& in = sessions[run];
      const double base = amcast[run].height_true;
      alm::MulticastTree tree = amcast[run].tree;
      const auto stats =
          AdjustTree(tree, in.degree_bounds, in.true_latency, opt);
      impr_amcast.Add(alm::Improvement(base, tree.Height(in.true_latency)));
      applied.Add(static_cast<double>(stats.total_moves()));
      tree = critical[run].tree;
      AdjustTree(tree, in.degree_bounds, in.true_latency, opt);
      impr_critical.Add(
          alm::Improvement(base, tree.Height(in.true_latency)));
    }
    table.AddRow({std::string(set.name), impr_amcast.mean(),
                  impr_critical.mean(), applied.mean()});
  }
  out.text = Header("Ablation — adjustment move classes (a)/(b)/(c)",
                    "§5.2 footnote 2; 'adjust' series in Fig. 8") +
             table.ToText(3) + "\n" +
             "Check: each move class alone helps a little (paper: adjust "
             "alone ~5% over baseline); combined moves help most; gains are "
             "larger on top of Critical than alone.\n";
  return out;
}

// What SOMO's staleness costs the market: the closed loop of §5.3
// (reports → gather → task managers planning from the root view → live
// reservations) swept over the reporting interval. Stale knowledge shows
// as refused reservations, replanned against live state.
Outcome RunAblationStaleness(std::FILE* progress) {
  Outcome out("ablation-staleness", 71);
  obs::RunReport& report = out.report;
  report.AddConfig("sessions", static_cast<std::int64_t>(20));
  report.AddConfig("members", static_cast<std::int64_t>(20));
  report.AddConfig("fanout", static_cast<std::int64_t>(8));
  report.AddConfig("experiment_seeds", "500,501,502");
  Progress(progress, "building pool (seed 71) ...\n");
  util::ThreadPool threads;
  pool::ResourcePool rp(PaperPool(71), &threads);

  ResultTable table(report, "ablation_staleness",
                    {"report_interval_s", "view_staleness_s", "improvement",
                     "helpers", "stale_conflicts", "somo_msgs"});
  for (const double interval_ms :
       {1000.0, 2000.0, 5000.0, 10000.0, 30000.0, 60000.0}) {
    util::Accumulator impr, helpers, staleness, conflicts, msgs;
    for (std::uint64_t rep = 0; rep < 3; ++rep) {
      pool::LiveExperimentParams params;
      params.session_count = 20;
      params.members_per_session = 20;
      params.somo.report_interval_ms = interval_ms;
      params.somo.fanout = 8;
      params.seed = 500 + rep;
      const auto r = RunStalenessExperiment(rp, params);
      impr.Add(r.improvement.mean());
      helpers.Add(r.helpers.mean());
      staleness.Add(r.mean_view_staleness_ms / 1000.0);
      conflicts.Add(static_cast<double>(r.stale_conflicts));
      msgs.Add(static_cast<double>(r.somo_messages));
    }
    table.AddRow({interval_ms / 1000.0, staleness.mean(), impr.mean(),
                  helpers.mean(), conflicts.mean(), msgs.mean()});
  }
  out.text =
      Header("Ablation — scheduling quality vs SOMO staleness",
             "§5.3's market loop run end-to-end in simulated time") +
      table.ToText(2) + "\n" +
      "Check: the market is remarkably robust — refused reservations plus "
      "an immediate live replan hold improvement steady across a 30x "
      "staleness range; only when the newscast lags the session-arrival "
      "timescale itself (60 s interval) do sessions start planning before "
      "any view exists and helper usage collapses. SOMO message volume "
      "scales inversely with the interval: freshness is paid for in "
      "traffic, not plan quality.\n";
  return out;
}

// Stream-rate-constrained scheduling: the Figure-7 report carries up- and
// downlink estimates so a task manager can respect stream rates. Tree
// height, helper use and feasibility as the per-link rate rises on the
// Gnutella-like population (modems cannot source one stream; T3 hosts
// fan out dozens).
Outcome RunAblationBandwidth(std::FILE* progress) {
  constexpr std::size_t kRuns = 10;
  Outcome out("ablation-bandwidth", 83);
  obs::RunReport& report = out.report;
  report.AddConfig("runs", static_cast<std::int64_t>(kRuns));
  report.AddConfig("group", static_cast<std::int64_t>(20));
  report.AddConfig("session_seeds", "600+run");
  Progress(progress, "building pool (seed 83) ...\n");
  util::ThreadPool threads;
  pool::ResourcePool rp(PaperPool(83), &threads);

  ResultTable table(report, "ablation_bandwidth",
                    {"stream_kbps", "feasible_frac", "height_ms", "helpers",
                     "improvement"});
  for (const double rate : {0.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0}) {
    util::Accumulator height, helpers, impr;
    std::size_t feasible = 0;
    for (std::size_t run = 0; run < kRuns; ++run) {
      pool::TaskManagerOptions opt;
      opt.stream_kbps = rate;
      pool::TaskManager tm(rp, BestUplinkSession(rp, 600 + run), opt);
      if (tm.Schedule().ok) {
        ++feasible;
        height.Add(tm.current_height());
        helpers.Add(static_cast<double>(tm.current_helpers()));
        impr.Add(tm.CurrentImprovement());
      }
      tm.Teardown();
    }
    table.AddRow({rate,
                  static_cast<double>(feasible) / static_cast<double>(kRuns),
                  height.mean(), helpers.mean(), impr.mean()});
  }
  out.text =
      Header("Ablation — stream-rate-constrained scheduling",
             "an extension exercising the Figure-7 report's bandwidth "
             "fields") +
      table.ToText(3) + "\n" +
      "Check: unconstrained (0) is the Figure-8 regime; as the rate rises, "
      "thin-uplink members become leaves and trees lean on high-uplink "
      "helpers (the feasibility-rescue splice), heights grow — eventually "
      "past the unconstrained AMCast baseline (negative improvement: the "
      "constrained problem is strictly harder) — and at ~2 Mbps per link "
      "even helper capacity runs out for some sessions.\n";
  return out;
}

// §5.1 names several QoS criteria — "bandwidth bottleneck, maximal
// latency or variance of latencies" — and the paper optimises maximal
// latency. What that choice costs on the other axes: each strategy's
// trees at group size 20 measured under every metric.
Outcome RunQosMetrics(std::FILE* progress) {
  constexpr std::size_t kRuns = 10;
  const std::vector<alm::Strategy> strategies = {
      alm::Strategy::kAmcast, alm::Strategy::kAmcastAdjust,
      alm::Strategy::kCriticalAdjust, alm::Strategy::kLeafsetAdjust};
  Outcome out("qos-metrics", 29);
  obs::RunReport& report = out.report;
  report.AddConfig("runs", static_cast<std::int64_t>(kRuns));
  report.AddConfig("group", static_cast<std::int64_t>(20));
  report.AddConfig("session_seeds", "900+run");
  Progress(progress, "building pool (seed 29) ...\n");
  util::ThreadPool threads;
  const pool::ResourcePool rp(PaperPool(29), &threads);
  std::vector<alm::PlanInput> sessions;
  for (std::size_t run = 0; run < kRuns; ++run) {
    util::Rng rng(900 + run);
    sessions.push_back(SamplePoolSession(rp, rng, 20));
  }
  const auto bottleneck_kbps = [&rp](std::size_t a, std::size_t b) {
    return rp.bandwidths().PathBottleneckKbps(a, b);
  };

  ResultTable table(report, "qos_metrics",
                    {"strategy", "max_height_ms", "mean_height_ms",
                     "height_stddev_ms", "total_edge_ms", "bottleneck_kbps",
                     "max_fanout", "helpers"});
  for (const alm::Strategy s : strategies) {
    alm::TreePlanner planner(alm::OptionsForStrategy(s));
    util::Accumulator maxh, meanh, stddev, total, bottleneck, fanout,
        helpers;
    for (const alm::PlanInput& in : sessions) {
      const auto r = planner.Plan(in);
      const auto m =
          ComputeTreeMetrics(r.tree, in.true_latency, bottleneck_kbps);
      maxh.Add(m.max_height_ms);
      meanh.Add(m.mean_height_ms);
      stddev.Add(m.height_stddev_ms);
      total.Add(m.total_edge_ms);
      bottleneck.Add(m.bottleneck_kbps);
      fanout.Add(static_cast<double>(m.max_fanout));
      helpers.Add(static_cast<double>(r.helpers_used));
    }
    table.AddRow({alm::StrategyName(s), maxh.mean(), meanh.mean(),
                  stddev.mean(), total.mean(), bottleneck.mean(),
                  fanout.mean(), helpers.mean()});
  }
  out.text =
      Header("QoS metrics across planning strategies",
             "§5.1's alternative criteria, measured per strategy") +
      table.ToText(1) + "\n" +
      "Check: helper strategies cut max height (the optimised objective) "
      "and usually mean height and spread with it; total edge cost and "
      "the sustained-bandwidth bottleneck are NOT optimised and may move "
      "either way — §5.1's point that the criteria genuinely differ.\n";
  return out;
}

}  // namespace p2p::exp
