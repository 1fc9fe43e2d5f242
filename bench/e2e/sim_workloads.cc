// Simulation workloads: steady_* (the sharded fullstack run) and faults_*
// (the serial kernel under loss, a crash wave and a healing partition).
//
// The stack is assembled the way the CLI's fullstack command does it:
// preset topology, hierarchical oracle, shard plan (+ extracted lookahead
// when sharded), batch DHT join, then one heartbeat and one SOMO instance
// per shard over the shared ring. One op of the timed phase is one
// RunUntil call that advances the simulation by `slice_ms` of virtual time;
// one pass is every slice from t = 0 to the horizon.
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "alm/bounds.h"
#include "alm/critical.h"
#include "dht/heartbeat.h"
#include "e2e.h"
#include "net/latency_oracle.h"
#include "net/shard_plan.h"
#include "sim/sharded.h"
#include "somo/somo.h"
#include "util/check.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace p2p::e2e {

namespace {

constexpr double kMiB = 1024.0 * 1024.0;
// SOMO reporting cycle T: the paper's LiquidEye 5 s, as in the CLI.
constexpr double kSomoIntervalMs = 5000.0;
// Virtual time granted after Stop() for in-flight messages to land: well
// above the longest one-way latency of any preset.
constexpr double kDrainMs = 5000.0;

using PhaseTimes = std::map<std::string, std::vector<double>>;

template <typename F>
void Phase(Tracer& tracer, PhaseTimes& times, const char* name, F&& f) {
  times[name].push_back(TimedMs(tracer, name, -1, f) / 1e3);
}

struct SimStack {
  net::TransitStubTopology topo;
  std::unique_ptr<net::LatencyOracle> oracle;
  net::ShardPlan plan;
  std::unique_ptr<sim::ShardedSimulation> ssim;
  std::unique_ptr<dht::Ring> ring;
  std::vector<std::unique_ptr<dht::HeartbeatProtocol>> hbs;
  std::vector<std::unique_ptr<somo::SomoProtocol>> somos;
  std::size_t root_shard = 0;
  std::vector<double> first_detect;  // by node; < 0 until detected
};

std::unique_ptr<SimStack> BuildSimStack(const Inputs& in,
                                        const RunOptions& opt,
                                        util::ThreadPool& workers,
                                        Tracer& tracer, PhaseTimes& times) {
  const bool faults = in.kind == "faults";
  auto st = std::make_unique<SimStack>();
  SimStack* s = st.get();
  const net::TransitStubParams params =
      net::PresetParams(net::ParseTopologyPreset(in.preset));

  Phase(tracer, times, "net.topology", [&] {
    util::Rng rng(in.seed);
    s->topo = net::GenerateTransitStub(params, rng, &workers);
  });
  P2P_CHECK_MSG(s->topo.host_count() == in.hosts,
                "preset " << in.preset << " has " << s->topo.host_count()
                          << " hosts, inputs say " << in.hosts);
  Phase(tracer, times, "net.oracle", [&] {
    net::OracleOptions opts;
    opts.kind = net::OracleKind::kHierarchical;
    opts.pool = &workers;
    s->oracle = std::make_unique<net::LatencyOracle>(s->topo, opts);
  });
  Phase(tracer, times, "net.shard_plan",
        [&] { s->plan = net::PlanShards(s->topo, in.shards); });
  if (in.shards > 1) {
    Phase(tracer, times, "net.lookahead",
          [&] { net::ExtractLookahead(s->topo, *s->oracle, s->plan); });
  }
  Phase(tracer, times, "sim.kernel", [&] {
    sim::ShardedOptions opts;
    opts.shards = in.shards;
    opts.lookahead_ms = s->plan.lookahead_ms;
    opts.lookahead_matrix = s->plan.lookahead_matrix;
    opts.seed = in.sim_seed;
    opts.threads = opt.shard_threads;
    s->ssim = std::make_unique<sim::ShardedSimulation>(opts);
    for (std::size_t k = 0; k < in.shards; ++k)
      s->ssim->shard(k).EnableMetrics();
    s->ssim->SetHostShards(s->plan.shard_of_host);
  });
  Phase(tracer, times, "dht.join", [&] {
    s->ring = std::make_unique<dht::Ring>(32, s->oracle.get());
    s->ring->set_thread_pool(&workers);
    const dht::NodeIndex first = s->ring->JoinBatchHashed(0, in.hosts);
    P2P_CHECK(first == 0 && s->ring->size() == in.hosts);
    s->ring->set_metrics(&s->ssim->shard(0).metrics());
  });
  Phase(tracer, times, "dht.heartbeat_build", [&] {
    dht::HeartbeatConfig cfg;
    cfg.suspect_alive = faults;
    for (std::size_t k = 0; k < in.shards; ++k)
      s->hbs.push_back(std::make_unique<dht::HeartbeatProtocol>(
          s->ssim->shard(k), *s->ring, cfg));
    if (in.shards > 1) {
      std::vector<dht::HeartbeatProtocol*> peers;
      for (auto& hb : s->hbs) peers.push_back(hb.get());
      for (std::size_t k = 0; k < in.shards; ++k)
        s->hbs[k]->BindShard(static_cast<std::uint32_t>(k),
                             &s->ssim->host_shards(), peers);
    }
  });
  Phase(tracer, times, "somo.build", [&] {
    somo::SomoConfig cfg;
    cfg.report_interval_ms = kSomoIntervalMs;
    for (std::size_t k = 0; k < in.shards; ++k) {
      sim::Simulation& shard = s->ssim->shard(k);
      dht::Ring& ring = *s->ring;
      s->somos.push_back(std::make_unique<somo::SomoProtocol>(
          shard, ring, cfg, [&ring, &shard](dht::NodeIndex n) {
            somo::NodeReport r;
            r.node = n;
            r.host = ring.node(n).host();
            r.generated_at = shard.now();
            return r;
          }));
    }
    if (in.shards > 1) {
      std::vector<somo::SomoProtocol*> peers;
      for (auto& so : s->somos) peers.push_back(so.get());
      for (std::size_t k = 0; k < in.shards; ++k)
        s->somos[k]->BindShard(static_cast<std::uint32_t>(k),
                               &s->ssim->host_shards(), peers);
    }
    const somo::LogicalTree& tree = s->somos[0]->tree();
    s->root_shard = s->ssim->ShardOfHost(
        s->ring->node(tree.node(tree.root()).owner).host());
  });
  if (faults) {
    // The fault script: global loss from t=0, a crash wave, and a healing
    // partition of a host block. Detection reacts the way the CLI's truth
    // arm does: Ring::DetectFailure (auto-repair) plus a SOMO rebuild.
    Span span(tracer, "bench.fault_script");
    P2P_CHECK_MSG(in.shards == 1, "the fault script runs on the serial kernel");
    sim::Simulation& sim0 = s->ssim->shard(0);
    sim0.transport().faults().loss_probability = in.loss;
    s->first_detect.assign(in.hosts, -1.0);
    s->hbs[0]->AddFailureObserver(
        [s](dht::NodeIndex, dht::NodeIndex dead, sim::Time when) {
          if (s->first_detect[dead] < 0.0) s->first_detect[dead] = when;
          s->somos[0]->Rebuild();
        });
    sim0.At(in.crash_ms, [s, &in] {
      for (const std::size_t h : in.crash) s->ring->Fail(h);
    });
    sim0.At(in.partition_start_ms,
            [&sim0, &in] { sim0.transport().Partition(in.partition); });
    sim0.At(in.partition_end_ms,
            [&sim0] { sim0.transport().HealPartitions(); });
  }
  Phase(tracer, times, "dht.heartbeat_start", [&] {
    for (auto& hb : s->hbs) hb->Start();
  });
  Phase(tracer, times, "somo.start", [&] {
    for (auto& so : s->somos) so->Start();
  });
  return st;
}

// Deterministic state at the checkpoint horizon: digest, checks and the
// simulation-side metrics. Returns the mean crash-to-detection delay of the
// fault run (0 for the steady run).
double Checkpoint(const Inputs& in, SimStack& st, double run_ms,
                Result& result) {
  const bool faults = in.kind == "faults";
  sim::ShardedSimulation& ssim = *st.ssim;
  const sim::TransportStats ts = ssim.MergedTransportStats();
  std::size_t inflight = 0;
  for (std::size_t k = 0; k < in.shards; ++k)
    inflight += ssim.shard(k).transport().inflight_messages();
  std::size_t outstanding = 0;
  for (std::size_t p = 0; p < sim::kProtocolCount; ++p) {
    const sim::ProtocolStats& ps = ts.by_protocol[p];
    const std::string name = sim::ProtocolName(static_cast<sim::Protocol>(p));
    result.Check(ps.sent >= ps.delivered + ps.dropped,
                 "transport." + name + ": sent < delivered + dropped");
    result.Check(ps.dropped == ps.dropped_loss + ps.dropped_partition,
                 "transport." + name + ": drop causes do not add up");
    outstanding += ps.sent - ps.delivered - ps.dropped;
    result.Digest("transport." + name + ".sent", static_cast<double>(ps.sent));
    result.Digest("transport." + name + ".delivered",
                  static_cast<double>(ps.delivered));
    result.Digest("transport." + name + ".dropped_loss",
                  static_cast<double>(ps.dropped_loss));
    result.Digest("transport." + name + ".dropped_partition",
                  static_cast<double>(ps.dropped_partition));
    result.Digest("transport." + name + ".bytes",
                  static_cast<double>(ps.bytes));
  }
  // Serial: everything admitted and not dropped is still in flight on the
  // one bus. Sharded: cross-shard messages wait in mailboxes, outside any
  // bus's in-flight count, so only the bound holds here (the exact balance
  // is checked after the drain).
  result.Check(in.shards > 1 ? outstanding >= inflight
                             : outstanding == inflight,
               "transport: sent - delivered - dropped != in flight");
  const sim::ProtocolStats total = ts.Total();
  if (!faults) result.Check(total.dropped == 0, "steady run dropped messages");

  std::size_t hb_sent = 0, hb_delivered = 0, hb_failures = 0, hb_false = 0;
  for (const auto& hb : st.hbs) {
    hb_sent += hb->heartbeats_sent();
    hb_delivered += hb->heartbeats_delivered();
    hb_failures += hb->failures_detected();
    hb_false += hb->false_suspicions();
  }
  const double repairs = ssim.shard(0).metrics().Value("dht.leafset.repairs");
  std::size_t somo_msgs = 0, somo_bytes = 0, somo_mem = 0;
  for (const auto& so : st.somos) {
    somo_msgs += so->messages_sent();
    somo_bytes += so->bytes_sent();
    somo_mem += so->MemoryBytes();
  }
  const somo::SomoProtocol& root = *st.somos[st.root_shard];
  const double alive_staleness = root.RootAliveStalenessMs();
  result.Digest("hb.sent", static_cast<double>(hb_sent));
  result.Digest("hb.delivered", static_cast<double>(hb_delivered));
  result.Digest("hb.failures", static_cast<double>(hb_failures));
  result.Digest("hb.false_suspicions", static_cast<double>(hb_false));
  result.Digest("dht.leafset_repairs", repairs);
  result.Digest("somo.gathers", static_cast<double>(root.gathers_completed()));
  result.Digest("somo.messages", static_cast<double>(somo_msgs));
  result.Digest("somo.bytes", static_cast<double>(somo_bytes));
  result.Digest("somo.alive_staleness_ms", alive_staleness);
  result.Digest("somo.staleness_ms", root.RootStalenessMs());

  double detect_ms = 0.0;
  std::size_t detected = 0;
  if (faults) {
    result.Check(
        [&] {
          try {
            st.ring->CheckInvariants();
            return true;
          } catch (const util::CheckError&) {
            return false;
          }
        }(),
        "Ring::CheckInvariants failed at the horizon");
    for (const std::size_t h : in.crash) {
      if (st.first_detect[h] < 0.0) continue;
      detect_ms += st.first_detect[h] - in.crash_ms;
      ++detected;
    }
    result.Check(detected > 0, "no crashed host was detected");
    if (detected > 0) detect_ms /= static_cast<double>(detected);
    result.Digest("detect_ms", detect_ms);
    result.Digest("undetected",
                  static_cast<double>(in.crash.size() - detected));
  }
  if (!result.first_pass()) return detect_ms;

  // Infinite until a report from a live host has reached the root.
  if (std::isfinite(alive_staleness))
    result.Extra("somo_staleness_ms", alive_staleness, "ms");
  if (faults) {
    result.Extra("detect_ms", detect_ms, "ms");
    result.Layer("dht.undetected",
                 static_cast<double>(in.crash.size() - detected));
  }

  // Wall-clock kernel profile: sums of the per-window slowest-shard times.
  const obs::MetricsRegistry& prof = ssim.kernel_profile();
  const auto prof_ms = [&prof](const char* name) {
    const auto it = prof.profiles().find(name);
    return it == prof.profiles().end() ? 0.0 : it->second.sum();
  };
  double slab_hwm = 0.0;
  for (std::size_t k = 0; k < in.shards; ++k)
    slab_hwm = std::max(slab_hwm,
                        ssim.shard(k).metrics().Value("kernel.slab_hwm"));
  const double events = static_cast<double>(ssim.fired_events());
  const double critical_ms = ssim.critical_path_ns() / 1e6;
  const auto run_pct = [run_ms](double ms) { return 100.0 * ms / run_ms; };
  result.Layer("net.oracle_mib",
               static_cast<double>(st.oracle->MemoryBytes()) / kMiB);
  result.Layer("dht.ring_mib",
               static_cast<double>(st.ring->MemoryBytes()) / kMiB);
  result.Layer("dht.hb_sent", static_cast<double>(hb_sent));
  result.Layer("dht.hb_delivered", static_cast<double>(hb_delivered));
  result.Layer("dht.failures_detected", static_cast<double>(hb_failures));
  result.Layer("dht.false_suspicions", static_cast<double>(hb_false));
  result.Layer("dht.leafset_repairs", repairs);
  result.Layer("sim.events", events);
  result.Layer("sim.events_per_s", events / (run_ms / 1e3));
  result.Layer("sim.windows", static_cast<double>(ssim.windows()));
  result.Layer("sim.cross_msgs",
               static_cast<double>(ssim.cross_shard_messages()));
  result.Layer("sim.critical_path_pct", run_pct(critical_ms));
  result.Layer("sim.wait_pct", run_pct(run_ms - critical_ms));
  result.Layer("sim.exchange_pct", run_pct(prof_ms("shard.exchange_ms")));
  result.Layer("sim.drain_pct", run_pct(prof_ms("shard.drain_ms")));
  result.Layer("sim.sort_pct", run_pct(prof_ms("shard.sort_ms")));
  result.Layer("sim.window_pct", run_pct(prof_ms("shard.window_ms")));
  result.Layer("sim.slab_hwm", slab_hwm);
  result.Layer("sim.transport.sent", static_cast<double>(total.sent));
  result.Layer("sim.transport.delivered", static_cast<double>(total.delivered));
  result.Layer("sim.transport.dropped_loss",
               static_cast<double>(total.dropped_loss));
  result.Layer("sim.transport.dropped_partition",
               static_cast<double>(total.dropped_partition));
  result.Layer("sim.transport.bytes", static_cast<double>(total.bytes));
  result.Layer("somo.gathers", static_cast<double>(root.gathers_completed()));
  result.Layer("somo.messages", static_cast<double>(somo_msgs));
  result.Layer("somo.bytes", static_cast<double>(somo_bytes));
  result.Layer("somo.mib", static_cast<double>(somo_mem) / kMiB);

  result.Extra("sim.ns_per_event", run_ms * 1e6 / events, "ns");
  result.Extra("sim.critical_path_s", critical_ms / 1e3, "s");
  result.Extra("sim.wait_s", (run_ms - critical_ms) / 1e3, "s");
  result.Extra("sim.exchange_s", prof_ms("shard.exchange_ms") / 1e3, "s");
  result.Extra("sim.drain_s", prof_ms("shard.drain_ms") / 1e3, "s");
  result.Extra("sim.sort_s", prof_ms("shard.sort_ms") / 1e3, "s");
  result.Extra("sim.window_s", prof_ms("shard.window_ms") / 1e3, "s");
  result.Extra("somo.tree_depth",
                static_cast<double>(root.tree().depth()), "count");
  if (in.shards > 1)
    result.Extra("net.lookahead_min_ms", st.plan.extracted_lookahead_ms, "ms");
  return detect_ms;
}

// The closing plans over the simulated network (critical+adj, the CLI's
// fullstack default), each with its AMCast baseline. Returns their mean
// true height.
double FinalPlans(const Inputs& in, SimStack& st, Tracer& tracer,
                  Result& result) {
  P2P_CHECK_MSG(!in.requests.empty(), "sim workloads need plan requests");
  const net::LatencyOracle& oracle = *st.oracle;
  alm::PlanInput pin;
  pin.degree_bounds = in.degree_bounds;
  pin.oracle = &oracle;
  alm::TreePlanner planner(
      alm::OptionsForStrategy(alm::Strategy::kCriticalAdjust));
  double height = 0.0, helpers = 0.0, improvement = 0.0;
  for (std::size_t i = 0; i < in.requests.size(); ++i) {
    const Group& g = in.requests[i];
    pin.root = g.root;
    pin.members = g.members;
    pin.helper_candidates = g.helpers;
    double base = 0.0;
    {
      Span span(tracer, "alm.amcast", static_cast<std::int64_t>(i));
      base = alm::PlanSession(pin, alm::Strategy::kAmcast).height_true;
    }
    alm::PlanResult r{alm::MulticastTree(0), 0.0, 0.0, 0, {}, 0};
    {
      Span span(tracer, "alm.plan", static_cast<std::int64_t>(i));
      r = planner.Plan(pin);
    }
    bool spans = r.tree.Contains(g.root);
    for (const std::size_t m : g.members) spans = spans && r.tree.Contains(m);
    const double ideal = alm::IdealHeight(
        g.root, g.members, [&oracle](std::size_t a, std::size_t b) {
          return oracle.Latency(a, b);
        });
    result.Check(spans && r.height_true >= ideal - 1e-9,
                 "closing plan " + std::to_string(i) +
                     " misses a member or beats the ideal star");
    result.Digest("plan.height_ms", r.height_true);
    result.Digest("plan.helpers", static_cast<double>(r.helpers_used));
    height += r.height_true;
    helpers += static_cast<double>(r.helpers_used);
    improvement += alm::Improvement(base, r.height_true);
  }
  const double n = static_cast<double>(in.requests.size());
  if (result.first_pass()) {
    result.Layer("alm.plans", n);
    result.Layer("alm.height_ms", height / n);
    result.Layer("alm.helpers_used", helpers / n);
    result.Extra("alm.improvement", improvement / n, "ratio");
  }
  return height / n;
}

// One pass of the timed phase: `slice_ms` RunUntil calls up to the horizon
// (the ops), the checkpoint, the closing plans and the drain.
void RunSimPass(const Inputs& in, SimStack& st, Tracer& tracer,
                Result& result, std::vector<OpTime>& ops) {
  double run_ms = 0.0;
  double t = 0.0;
  while (t < in.horizon_ms) {
    t += in.slice_ms;
    const OpTime op = TimedOp(tracer, "sim.run_until",
                              static_cast<std::int64_t>(ops.size()),
                              [&] { st.ssim->RunUntil(t); });
    ops.push_back(op);
    run_ms += op.wall_ms;
    result.Check(true, "slice");
  }
  double detect_ms = 0.0;
  {
    Span span(tracer, "bench.checkpoint");
    detect_ms = Checkpoint(in, st, run_ms, result);
  }

  const double plan_height_ms = FinalPlans(in, st, tracer, result);
  // A user of the fault run waits for crash detection; a user of the steady
  // run gets the closing plans' trees.
  if (result.first_pass())
    result.SetQuality(in.kind == "faults" ? detect_ms : plan_height_ms);

  // Stop the protocols and let every in-flight message land: afterwards
  // each protocol's sent must equal delivered + dropped exactly.
  {
    Span span(tracer, "sim.drain");
    for (auto& hb : st.hbs) hb->Stop();
    for (auto& so : st.somos) so->Stop();
    st.ssim->RunUntil(t + kDrainMs);
  }
  const sim::TransportStats ts = st.ssim->MergedTransportStats();
  for (std::size_t p = 0; p < sim::kProtocolCount; ++p) {
    const sim::ProtocolStats& ps = ts.by_protocol[p];
    result.Check(ps.sent == ps.delivered + ps.dropped,
                 std::string("transport.") +
                     sim::ProtocolName(static_cast<sim::Protocol>(p)) +
                     ": sent != delivered + dropped after the drain");
  }
  std::size_t inflight = 0;
  for (std::size_t k = 0; k < in.shards; ++k)
    inflight += st.ssim->shard(k).transport().inflight_messages();
  result.Check(inflight == 0, "messages still in flight after the drain");
}

}  // namespace

void RunSimWorkload(const Inputs& in, const RunOptions& opt, Tracer& tracer,
                    Result& result) {
  P2P_CHECK_MSG(in.horizon_ms > 0.0 && in.slice_ms > 0.0,
                "sim workloads need horizon_ms and slice_ms");
  util::ThreadPool workers(opt.threads);
  PhaseTimes times;
  std::vector<double> setup_s;
  std::unique_ptr<SimStack> st;
  {
    // A pass runs the simulation from t = 0, so each one sets up afresh.
    Span root(tracer, "e2e.workload");
    for (std::size_t pass = 0; pass < opt.passes; ++pass) {
      st.reset();
      const auto t0 = Clock::now();
      st = BuildSimStack(in, opt, workers, tracer, times);
      setup_s.push_back(SecondsSince(t0));
      std::vector<OpTime> ops;
      RunSimPass(in, *st, tracer, result, ops);
      result.EndPass(ops);
    }
  }
  if (tracer.enabled()) {
    RunLayerProbes(*st->oracle, in.degree_bounds, in, tracer, result);
    result.LayerSharesFromSpans(tracer);
  }
  Tracer off(false);
  while (MoreSetups(setup_s, opt.setup_reps)) {
    st.reset();
    const auto t0 = Clock::now();
    st = BuildSimStack(in, opt, workers, off, times);
    setup_s.push_back(SecondsSince(t0));
  }
  result.SetSetups(setup_s);
  for (const auto& [name, secs] : times)
    result.Extra(name + "_s", util::Median(secs), "s");
  result.Layer("net.topology_s", util::Median(times["net.topology"]));
  result.Layer("net.oracle_s", util::Median(times["net.oracle"]));
}

}  // namespace p2p::e2e
