// Planning workloads: plan_* (closed-loop critical+adj plan requests over
// the oracle) and market_* (the paper's §5.3 market on a ResourcePool).
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "alm/bounds.h"
#include "alm/critical.h"
#include "bwest/estimator.h"
#include "coord/leafset_coords.h"
#include "e2e.h"
#include "net/bandwidth_model.h"
#include "net/latency_oracle.h"
#include "pool/market.h"
#include "pool/resource_pool.h"
#include "util/check.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace p2p::e2e {

namespace {

constexpr double kMiB = 1024.0 * 1024.0;
// Sampled host pairs on which the traced run's replica must match the pool.
constexpr std::size_t kReplicaPairs = 1000;

bool Throws(const std::function<void()>& f) {
  try {
    f();
    return false;
  } catch (const util::CheckError&) {
    return true;
  }
}

// Spans the root and every member, respects the degree table, and is no
// lower than the ideal star.
void CheckTree(const alm::PlanResult& r, const alm::PlanInput& pin,
               const net::LatencyOracle& oracle, Result& result) {
  bool spans = r.tree.Contains(pin.root);
  for (const std::size_t m : pin.members) spans = spans && r.tree.Contains(m);
  const double ideal = alm::IdealHeight(
      pin.root, pin.members,
      [&oracle](std::size_t a, std::size_t b) { return oracle.Latency(a, b); });
  result.Check(spans && r.height_true >= ideal - 1e-9 &&
                   !Throws([&] { r.tree.Validate(pin.degree_bounds); }),
               "plan for root " + std::to_string(pin.root) +
                   " is not a valid degree-bounded spanning tree");
}

}  // namespace

void RunPlanWorkload(const Inputs& in, const RunOptions& opt, Tracer& tracer,
                     Result& result) {
  P2P_CHECK_MSG(!in.requests.empty() && in.degree_bounds.size() == in.hosts,
                "plan workloads need requests and one degree bound per host");
  util::ThreadPool workers(opt.threads);
  const net::TransitStubParams params =
      net::PresetParams(net::ParseTopologyPreset(in.preset));
  net::TransitStubTopology topo;
  std::unique_ptr<net::LatencyOracle> oracle;
  std::vector<double> setup_s, topo_s, oracle_s;
  const auto setup = [&](Tracer& t) {
    oracle.reset();
    const auto t0 = Clock::now();
    topo_s.push_back(TimedMs(t, "net.topology", -1, [&] {
                       util::Rng rng(in.seed);
                       topo = net::GenerateTransitStub(params, rng, &workers);
                     }) /
                     1e3);
    oracle_s.push_back(TimedMs(t, "net.oracle", -1, [&] {
                         net::OracleOptions opts;
                         opts.kind = net::OracleKind::kHierarchical;
                         opts.pool = &workers;
                         oracle =
                             std::make_unique<net::LatencyOracle>(topo, opts);
                       }) /
                       1e3);
    setup_s.push_back(SecondsSince(t0));
    P2P_CHECK_MSG(topo.host_count() == in.hosts, "preset/host count mismatch");
  };
  {
    Span root(tracer, "e2e.workload");
    setup(tracer);
    // One PlanInput reused across requests: the degree table stays put and
    // only the group changes, as a caller planning many sessions would do.
    alm::PlanInput pin;
    pin.degree_bounds = in.degree_bounds;
    pin.oracle = oracle.get();
    alm::TreePlanner planner(
        alm::OptionsForStrategy(alm::Strategy::kCriticalAdjust));
    for (std::size_t pass = 0; pass < opt.passes; ++pass) {
      std::vector<OpTime> ops;
      double height_sum = 0.0, helper_sum = 0.0;
      for (std::size_t i = 0; i < in.requests.size(); ++i) {
        const Group& g = in.requests[i];
        pin.root = g.root;
        pin.members = g.members;
        pin.helper_candidates = g.helpers;
        alm::PlanResult r{alm::MulticastTree(0), 0.0, 0.0, 0, {}, 0};
        ops.push_back(TimedOp(tracer, "alm.plan", static_cast<std::int64_t>(i),
                              [&] { r = planner.Plan(pin); }));
        {
          Span check(tracer, "bench.check", static_cast<std::int64_t>(i));
          CheckTree(r, pin, *oracle, result);
          result.Digest("plan.height_ms", r.height_true);
          result.Digest("plan.helpers", static_cast<double>(r.helpers_used));
          height_sum += r.height_true;
          helper_sum += static_cast<double>(r.helpers_used);
        }
        // Freeing the host-indexed tree is part of each request's cost.
        TimedMs(tracer, "alm.free", static_cast<std::int64_t>(i), [&] {
          r = alm::PlanResult{alm::MulticastTree(0), 0.0, 0.0, 0, {}, 0};
        });
      }
      if (result.first_pass()) {
        const double n = static_cast<double>(in.requests.size());
        result.SetQuality(height_sum / n);
        result.Extra("plan_height_ms", height_sum / n, "ms");
        result.Layer("alm.plans", n);
        result.Layer("alm.height_ms", height_sum / n);
        result.Layer("alm.helpers_used", helper_sum / n);
      }
      result.EndPass(ops);
    }
    result.Layer("net.oracle_mib",
                 static_cast<double>(oracle->MemoryBytes()) / kMiB);
  }
  if (tracer.enabled()) {
    RunLayerProbes(*oracle, in.degree_bounds, in, tracer, result);
    result.LayerSharesFromSpans(tracer);
  }
  Tracer off(false);
  while (MoreSetups(setup_s, opt.setup_reps)) setup(off);
  result.SetSetups(setup_s);
  result.Layer("net.topology_s", util::Median(topo_s));
  result.Layer("net.oracle_s", util::Median(oracle_s));
  result.Extra("net.topology_s", util::Median(topo_s), "s");
  result.Extra("net.oracle_s", util::Median(oracle_s), "s");
}

namespace {

// The ResourcePool constructor is one call. The traced run splits it by
// rebuilding the same substrates from the same public calls, in the same
// Rng::Substream(1..5) order, and then checks the replica against the
// real pool bit for bit.
struct PoolReplica {
  util::Rng rng;
  util::Rng coord_rng;
  util::Rng bw_rng;
  net::TransitStubTopology topo;
  std::unique_ptr<net::LatencyOracle> oracle;
  std::unique_ptr<net::BandwidthModel> bandwidths;
  std::unique_ptr<dht::Ring> ring;
  std::unique_ptr<coord::LeafsetCoordSystem> coords;
  std::unique_ptr<bwest::BandwidthEstimator> estimator;

  explicit PoolReplica(const pool::PoolConfig& cfg)
      : rng(cfg.seed), coord_rng(rng.Substream(4)), bw_rng(rng.Substream(5)) {}
};

std::unique_ptr<PoolReplica> BuildReplica(const pool::PoolConfig& cfg,
                                          util::ThreadPool& workers,
                                          Tracer& tracer, Result& result) {
  auto rep = std::make_unique<PoolReplica>(cfg);
  const auto phase = [&](const char* name, const auto& f) {
    const double s = TimedMs(tracer, name, -1, f) / 1e3;
    result.Extra(std::string(name) + "_s", s, "s");
    return s;
  };
  result.Layer("net.topology_s", phase("net.topology", [&] {
                 util::Rng topo_rng = rep->rng.Substream(1);
                 rep->topo = net::GenerateTransitStub(cfg.topology, topo_rng);
               }));
  result.Layer("net.oracle_s", phase("net.oracle", [&] {
                 rep->oracle = std::make_unique<net::LatencyOracle>(
                     rep->topo,
                     net::OracleOptions{.kind = cfg.oracle_kind,
                                        .precision = cfg.oracle_precision,
                                        .pool = &workers});
               }));
  phase("net.bandwidth_model", [&] {
    util::Rng bw_model_rng = rep->rng.Substream(2);
    rep->bandwidths = std::make_unique<net::BandwidthModel>(
        net::GnutellaAccessClasses(), rep->topo.host_count(), bw_model_rng);
  });
  phase("dht.join", [&] {
    rep->ring =
        std::make_unique<dht::Ring>(cfg.leafset_size, rep->oracle.get());
    for (net::HostIdx h = 0; h < rep->topo.host_count(); ++h)
      P2P_CHECK(rep->ring->JoinHashed(h) == h);
  });
  phase("dht.stabilize", [&] { rep->ring->StabilizeAll(); });
  phase("coord.rounds", [&] {
    coord::LeafsetCoordOptions copt;
    copt.dimensions = cfg.coord_dimensions;
    copt.nm.max_iterations = cfg.coord_nm_iterations;
    rep->coords = std::make_unique<coord::LeafsetCoordSystem>(*rep->ring, copt,
                                                              rep->coord_rng);
    rep->coords->RunRounds(cfg.coord_rounds);
  });
  phase("bwest.estimate", [&] {
    rep->estimator = std::make_unique<bwest::BandwidthEstimator>(
        *rep->ring, *rep->bandwidths, bwest::PacketPairOptions{}, rep->bw_rng);
    rep->estimator->EstimateAll();
  });
  return rep;
}

void CheckReplica(const PoolReplica& rep, const pool::ResourcePool& pool,
                  std::uint64_t seed, Result& result) {
  util::Rng rng(seed);
  bool coords_match = true;
  for (std::size_t i = 0; i < kReplicaPairs; ++i) {
    const std::size_t a = rng.NextBounded(pool.size());
    const std::size_t b = rng.NextBounded(pool.size());
    const double mine = a == b ? 0.0 : rep.coords->Predict(a, b);
    coords_match = coords_match && mine == pool.EstimatedLatency(a, b);
  }
  result.Check(coords_match, "replica coordinates differ from the pool's");
  bool bw_match = true;
  for (std::size_t v = 0; v < pool.size(); ++v) {
    const bwest::BandwidthEstimate& x = rep.estimator->estimate(v);
    const bwest::BandwidthEstimate& y = pool.bandwidth_estimates().estimate(v);
    bw_match = bw_match && x.up_kbps == y.up_kbps &&
               x.down_kbps == y.down_kbps && x.up_samples == y.up_samples &&
               x.down_samples == y.down_samples;
  }
  result.Check(bw_match, "replica bandwidth estimates differ from the pool's");
  result.Check(rep.ring->MemoryBytes() == pool.ring().MemoryBytes(),
               "replica ring size differs from the pool's");
}

}  // namespace

void RunMarketWorkload(const Inputs& in, const RunOptions& opt,
                       Tracer& tracer, Result& result) {
  P2P_CHECK_MSG(in.active_cap > 0 && in.sweep_every > 0 &&
                    in.requests.size() > in.warmup,
                "market workloads need active_cap, sweep_every and more "
                "sessions than the warm-up");
  util::ThreadPool workers(opt.threads);
  pool::PoolConfig cfg;
  cfg.topology = net::PresetParams(net::ParseTopologyPreset(in.preset));
  cfg.seed = in.seed;
  cfg.oracle_kind = net::OracleKind::kHierarchical;
  std::unique_ptr<pool::ResourcePool> pool;
  std::vector<double> setup_s;
  const auto setup = [&](Tracer& t) {
    pool.reset();
    setup_s.push_back(TimedMs(t, "pool.build", -1, [&] {
                        pool = std::make_unique<pool::ResourcePool>(cfg,
                                                                    &workers);
                      }) /
                      1e3);
    P2P_CHECK_MSG(pool->size() == in.hosts, "preset/host count mismatch");
  };
  {
    Span root(tracer, "e2e.workload");
    pool::TaskManagerOptions tm;
    tm.strategy = alm::Strategy::kLeafsetAdjust;
    std::vector<double> remove_ms, sweep_ms;
    const auto spec_of = [&in](std::size_t i) {
      alm::SessionSpec spec;
      spec.id = static_cast<alm::SessionId>(i + 1);
      spec.priority = in.requests[i].priority;
      spec.root = in.requests[i].root;
      spec.members = in.requests[i].members;
      return spec;
    };
    // A pass opens a market on the pool and admits every session in order:
    // the oldest leaves at the cap, and a sweep runs every `sweep_every`
    // admissions. Admissions past the warm-up are the ops. The pass ends
    // with every session removed, which leaves the pool as it was built.
    // The passes are spread over the setups that make setup_s a median, each
    // on the pool built last, so a run's ops are timed over its whole length
    // and not only over the stretch after one setup.
    std::size_t pass = 0;
    for (std::size_t rep = 0; rep < opt.setup_reps; ++rep) {
      setup(tracer);
      pool::DegreeRegistry& registry = pool->registry();
      for (; pass < opt.passes * (rep + 1) / opt.setup_reps; ++pass) {
        std::vector<OpTime> admits;
        pool::MarketScheduler market(*pool, tm);
        util::Rng sweep_rng(in.sweep_seed);
        std::deque<alm::SessionId> active;
        double admitted_height = 0.0;
        for (std::size_t i = 0; i < in.requests.size(); ++i) {
          const bool timed = i >= in.warmup;
          if (active.size() >= in.active_cap) {
            const alm::SessionId oldest = active.front();
            active.pop_front();
            const double ms = TimedMs(tracer, "pool.remove", oldest,
                                      [&] { market.RemoveSession(oldest); });
            if (timed) remove_ms.push_back(ms);
          }
          const alm::SessionSpec spec = spec_of(i);
          const pool::TaskManager* admitted = nullptr;
          const OpTime admit = TimedOp(tracer, "pool.admit", spec.id, [&] {
            admitted = &market.AddSession(spec);
          });
          if (timed) admits.push_back(admit);
          result.Check(admitted->scheduled(),
                       "session " + std::to_string(spec.id) + " not admitted");
          admitted_height += admitted->current_height();
          active.push_back(spec.id);
          if ((i + 1) % in.sweep_every == 0) {
            const double sms = TimedMs(tracer, "pool.sweep", -1, [&] {
              market.ReschedulingSweep(sweep_rng);
            });
            if (timed) sweep_ms.push_back(sms);
          }
        }

        {
          Span span(tracer, "bench.check");
          double improvement = 0.0, height = 0.0, helpers = 0.0;
          for (const alm::SessionId id : market.session_ids()) {
            pool::TaskManager& tmgr = market.session(id);
            result.Check(tmgr.scheduled(), "session " + std::to_string(id) +
                                               " ended unscheduled");
            result.Digest("session." + std::to_string(id) + ".height_ms",
                          tmgr.current_height());
            improvement += tmgr.CurrentImprovement();
            height += tmgr.current_height();
            helpers += static_cast<double>(tmgr.current_helpers());
          }
          result.Check(registry.TotalUsed() <= registry.TotalCapacity(),
                       "degree utilisation above 1");
          result.Check(!Throws([&] { registry.CheckInvariants(); }),
                       "DegreeRegistry::CheckInvariants failed");
          const double n = static_cast<double>(market.session_count());
          const double reschedules =
              static_cast<double>(market.total_reschedules());
          const double utilisation =
              static_cast<double>(registry.TotalUsed()) /
              static_cast<double>(registry.TotalCapacity());
          result.Digest("market.reschedules", reschedules);
          result.Digest("market.preemptions",
                        static_cast<double>(market.total_preemptions()));
          result.Digest("market.utilisation", utilisation);
          result.Digest("market.admitted_height_ms", admitted_height);
          if (result.first_pass()) {
            // The tree height a session's users get when it is admitted.
            result.SetQuality(admitted_height /
                              static_cast<double>(in.requests.size()));
            result.Extra("market_height_ms", height / n, "ms");
            result.Extra("market_improvement", improvement / n, "ratio");
            result.Layer("alm.plans", reschedules);
            result.Layer("alm.height_ms", height / n);
            result.Layer("alm.helpers_used", helpers / n);
            result.Layer("pool.reschedules", reschedules);
            result.Layer("pool.preemptions",
                         static_cast<double>(market.total_preemptions()));
            result.Layer("pool.useful_ratio",
                         static_cast<double>(in.requests.size()) / reschedules);
            result.Layer("pool.utilisation", utilisation);
          }
        }
        while (!active.empty()) {
          const alm::SessionId id = active.front();
          active.pop_front();
          TimedMs(tracer, "pool.remove", id, [&] { market.RemoveSession(id); });
        }
        result.Check(registry.TotalUsed() == 0,
                     "degrees still claimed after every session ended");
        result.EndPass(admits);
      }
    }
    if (!remove_ms.empty())
      result.Extra("pool.remove_p50_ms", util::Median(remove_ms), "ms");
    if (!sweep_ms.empty())
      result.Extra("pool.sweep_ms", util::Median(sweep_ms), "ms");
    result.Layer("net.oracle_mib",
                 static_cast<double>(pool->oracle().MemoryBytes()) / kMiB);
    result.Layer("dht.ring_mib",
                 static_cast<double>(pool->ring().MemoryBytes()) / kMiB);
  }
  if (tracer.enabled()) {
    RunLayerProbes(pool->oracle(), pool->degree_bounds(), in, tracer, result);
    // The market leaves coordinates, bandwidth estimates and the ring as
    // built, so the replica is compared against the pool after the run.
    const std::unique_ptr<PoolReplica> replica =
        BuildReplica(cfg, workers, tracer, result);
    Span span(tracer, "bench.replica_check");
    CheckReplica(*replica, *pool, in.probe_seed, result);
  }
  result.SetSetups(setup_s);
  result.Extra("pool.build_s", util::Median(setup_s), "s");
  if (tracer.enabled()) result.LayerSharesFromSpans(tracer);
}

}  // namespace p2p::e2e
