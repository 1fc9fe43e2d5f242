#include "pool/multi_session_sim.h"

#include <algorithm>
#include <memory>
#include <numeric>

#include "alm/bounds.h"
#include "obs/scope_timer.h"
#include "util/check.h"

namespace p2p::pool {

MultiSessionResult RunMultiSessionExperiment(
    ResourcePool& pool, const MultiSessionParams& params) {
  P2P_CHECK_MSG(params.session_count * params.members_per_session <=
                    pool.size(),
                "not enough hosts for non-overlapping member sets");
  P2P_CHECK_MSG(pool.registry().TotalUsed() == 0,
                "registry must be empty at experiment start");

  util::Rng rng(params.seed);

  // Non-overlapping member sets: shuffle all hosts, carve consecutive
  // blocks of `members_per_session`.
  std::vector<std::size_t> hosts(pool.size());
  std::iota(hosts.begin(), hosts.end(), 0);
  rng.Shuffle(hosts);

  std::vector<alm::SessionSpec> specs;
  specs.reserve(params.session_count);
  for (std::size_t s = 0; s < params.session_count; ++s) {
    alm::SessionSpec spec;
    spec.id = static_cast<alm::SessionId>(s + 1);
    spec.priority = static_cast<int>(
        rng.UniformInt(somo::kHighestPriority, somo::kLowestPriority));
    const std::size_t base = s * params.members_per_session;
    spec.root = hosts[base];
    for (std::size_t k = 1; k < params.members_per_session; ++k)
      spec.members.push_back(hosts[base + k]);
    specs.push_back(std::move(spec));
  }

  MultiSessionResult result;

  // Per-session bounds, computed against an uncontended pool. Sessions are
  // independent here (each plans against read-only pool state), so the work
  // fans out across params.workers when provided. Per-session results land
  // in pre-sized slots and are folded in spec order afterwards, so the
  // accumulated statistics match a sequential run exactly.
  struct BoundsRow {
    double lb_improvement = 0.0;
    double ub_improvement = 0.0;
  };
  std::vector<BoundsRow> bounds(specs.size());
  // Registry sharding: each session's planning instruments its own shard,
  // merged into params.metrics in spec order after the fan-out. Worker
  // threads never touch the shared registry, and the sequential path runs
  // the identical shard-then-merge code, so `--jobs N` snapshots are
  // byte-identical to sequential ones.
  std::vector<std::unique_ptr<obs::MetricsRegistry>> shards;
  if (params.metrics != nullptr) {
    shards.resize(specs.size());
    for (auto& shard : shards) shard = std::make_unique<obs::MetricsRegistry>();
  }
  // The upper bound's helper pool: every node whose static bound reaches
  // the helper threshold (fetched here, before any fan-out).
  const std::vector<std::size_t>& helper_pool =
      pool.registry().NodesWithBoundAtLeast(
          params.options.helper_min_available);
  const auto compute_bounds = [&](std::size_t s) {
    const auto& spec = specs[s];
    alm::PlanInput in;
    in.degree_bounds = pool.degree_bounds();
    in.root = spec.root;
    in.members = spec.members;
    in.true_latency = pool.TrueLatencyFn();
    in.amcast = params.options.amcast;
    in.adjust = params.options.adjust;

    // Bounds always come from the tree-planner corners of the option cube
    // (the paper's Figure 8 frame), whatever planner the market phase runs.
    alm::TreePlanner base(alm::OptionsForStrategy(alm::Strategy::kAmcast));
    const double base_height = base.Plan(in).height_true;

    alm::TreePlanner lower(
        alm::OptionsForStrategy(alm::Strategy::kAmcastAdjust));
    const double lb_height = lower.Plan(in).height_true;
    bounds[s].lb_improvement = alm::Improvement(base_height, lb_height);
    if (!shards.empty()) {
      obs::MetricsRegistry& shard = *shards[s];
      shard.counter("pool.bounds.sessions").Inc();
      shard.histogram("pool.bounds.base_height_ms").Add(base_height);
      shard.histogram("pool.bounds.lb_improvement")
          .Add(bounds[s].lb_improvement);
    }

    if (params.compute_upper_bound) {
      alm::PlanInput solo = in;
      std::vector<alm::ParticipantId> all;
      spec.AppendAllMembers(all);
      std::sort(all.begin(), all.end());
      for (const std::size_t v : helper_pool) {
        if (!std::binary_search(all.begin(), all.end(), v))
          solo.helper_candidates.push_back(v);
      }
      solo.estimated_latency = pool.EstimatedLatencyFn();
      alm::TreePlanner upper(
          alm::OptionsForStrategy(alm::Strategy::kLeafsetAdjust));
      const double ub_height = upper.Plan(solo).height_true;
      bounds[s].ub_improvement = alm::Improvement(base_height, ub_height);
      if (!shards.empty()) {
        obs::MetricsRegistry& shard = *shards[s];
        shard.counter("pool.bounds.helper_candidates")
            .Inc(static_cast<double>(solo.helper_candidates.size()));
        shard.histogram("pool.bounds.ub_improvement")
            .Add(bounds[s].ub_improvement);
      }
    }
  };
  {
    // Wall-clock profile of the bounds fan-out, measured from this (single)
    // calling thread — safe regardless of params.workers.
    obs::ScopeTimer timer(params.metrics != nullptr
                              ? &params.metrics->profile("pool.bounds_ms")
                              : nullptr);
    if (params.workers != nullptr && specs.size() > 1) {
      params.workers->ParallelFor(specs.size(), compute_bounds);
    } else {
      for (std::size_t s = 0; s < specs.size(); ++s) compute_bounds(s);
    }
  }
  // Merge order is spec order, on this (single) thread: float sums — and
  // therefore snapshot bytes — cannot depend on worker interleaving.
  for (const auto& shard : shards) params.metrics->MergeFrom(*shard);
  for (const BoundsRow& row : bounds) {
    result.lower_bound_improvement.Add(row.lb_improvement);
    if (params.compute_upper_bound)
      result.upper_bound_improvement.Add(row.ub_improvement);
  }

  // Market phase: sessions arrive in random order, then the periodic
  // rescheduling sweeps let the market settle.
  MarketScheduler market(pool, params.options);
  {
    obs::ScopeTimer timer(params.metrics != nullptr
                              ? &params.metrics->profile("pool.market_ms")
                              : nullptr);
    std::vector<std::size_t> arrival(specs.size());
    std::iota(arrival.begin(), arrival.end(), 0);
    rng.Shuffle(arrival);
    for (const std::size_t i : arrival) market.AddSession(specs[i]);
    for (std::size_t sweep = 0; sweep < params.rescheduling_sweeps; ++sweep)
      market.ReschedulingSweep(rng);
  }

  // Measure the settled state.
  for (const auto& spec : specs) {
    TaskManager& tm = market.session(spec.id);
    P2P_CHECK(tm.scheduled());
    auto& cls = result.by_priority[static_cast<std::size_t>(spec.priority)];
    cls.improvement.Add(tm.CurrentImprovement());
    cls.helpers_used.Add(static_cast<double>(tm.current_helpers()));
    ++cls.sessions;
    if (params.metrics != nullptr) {
      params.metrics->counter("pool.sessions.planned").Inc();
      params.metrics->counter("pool.helpers.recruited")
          .Inc(static_cast<double>(tm.current_helpers()));
      params.metrics->histogram("pool.session.height_ms")
          .Add(tm.current_height());
      params.metrics->histogram("pool.session.improvement")
          .Add(tm.CurrentImprovement());
    }
  }
  result.reschedules = market.total_reschedules();
  result.preemptions = market.total_preemptions();
  result.pool_utilisation =
      static_cast<double>(pool.registry().TotalUsed()) /
      static_cast<double>(pool.registry().TotalCapacity());
  if (params.metrics != nullptr) {
    params.metrics->counter("pool.reschedules")
        .Inc(static_cast<double>(result.reschedules));
    params.metrics->counter("pool.preemptions")
        .Inc(static_cast<double>(result.preemptions));
    params.metrics->gauge("pool.utilisation").Set(result.pool_utilisation);
  }

  // Drain the registry so the pool can host another experiment.
  for (const alm::SessionId id : market.session_ids())
    market.RemoveSession(id);
  P2P_CHECK(pool.registry().TotalUsed() == 0);

  return result;
}

}  // namespace p2p::pool
