#include "reference/market_ref.h"

#include <algorithm>

#include "util/check.h"

namespace p2p::marketref {

TaskManagerRef::TaskManagerRef(pool::ResourcePool& pool,
                               pool::DegreeRegistry& registry,
                               alm::SessionSpec spec,
                               pool::TaskManagerOptions options)
    : pool_(pool), registry_(registry), spec_(std::move(spec)),
      options_(std::move(options)), tree_(pool.size()) {
  P2P_CHECK(spec_.root < pool_.size());
  planner_ = std::make_unique<alm::TreePlanner>(
      alm::OptionsForStrategy(options_.strategy));
  P2P_CHECK(spec_.priority >= somo::kHighestPriority &&
            spec_.priority <= somo::kLowestPriority);
  is_member_.assign(pool_.size(), 0);
  is_member_[spec_.root] = 1;
  for (const alm::ParticipantId m : spec_.members) {
    P2P_CHECK(m < pool_.size() && m != spec_.root);
    is_member_[m] = 1;
  }
}

pool::ScheduleOutcome TaskManagerRef::Schedule(
    const somo::AggregateReport* view) {
  pool::ScheduleOutcome outcome;
  pool::DegreeRegistry& reg = registry_;

  // Release previous reservations (the paper's "switch to the better
  // plan"): planning then sees our prior resources as free again.
  reg.ReleaseSession(spec_.id);
  scheduled_ = false;

  // When planning from a SOMO snapshot, index the advertised availability
  // by node (degrees free or preemptible at this session's priority,
  // straight off the view's degree columns). Nodes absent from the view
  // are treated as unavailable (the newscast has not reported them yet;
  // advertised[n] stays -1).
  std::vector<int> advertised;
  if (view != nullptr) {
    advertised.assign(pool_.size(), -1);
    for (std::size_t i = 0; i < view->size(); ++i) {
      const dht::NodeIndex n = view->node(i);
      if (n >= advertised.size()) continue;
      const auto slots = view->degree_slots(i);
      int avail = view->degrees_total(i) - static_cast<int>(slots.size());
      for (const auto& s : slots) {
        if (s.priority > spec_.priority) ++avail;
      }
      advertised[n] = avail;
    }
  }

  // Effective degree bounds under current contention: a member node grants
  // the session its full bound (member claims dominate); elsewhere the
  // session can use free degrees plus degrees preemptible at its priority.
  alm::PlanInput in;
  in.degree_bounds.resize(pool_.size());
  for (std::size_t v = 0; v < pool_.size(); ++v) {
    if (IsMember(v)) {
      // Sessions talk to their own members directly: live truth.
      in.degree_bounds[v] =
          reg.AvailableFor(v, somo::kHighestPriority, true);
    } else if (view != nullptr) {
      in.degree_bounds[v] = advertised[v] >= 0 ? advertised[v] : 0;
    } else {
      in.degree_bounds[v] = reg.AvailableFor(v, spec_.priority, false);
    }
    if (options_.stream_kbps > 0.0) {
      // Cap by the node's advertised uplink: every CHILD edge carries one
      // outgoing copy of the stream (the parent edge consumes downlink,
      // so non-root nodes get +1 incident edge on top of the child cap).
      const auto& est = pool_.bandwidth_estimates().estimate(v);
      const double up =
          est.up_samples > 0 ? est.up_kbps
                             : pool_.bandwidths().host(v).up_kbps;
      const int child_cap = static_cast<int>(up / options_.stream_kbps);
      const int allowed = v == spec_.root ? child_cap : child_cap + 1;
      in.degree_bounds[v] = std::min(in.degree_bounds[v], allowed);
    }
  }
  in.root = spec_.root;
  in.members = spec_.members;
  for (std::size_t v = 0; v < pool_.size(); ++v) {
    if (IsMember(v)) continue;
    if (in.degree_bounds[v] >= options_.helper_min_available)
      in.helper_candidates.push_back(v);
  }
  // The oracle itself, not TrueLatencyFn(): same values, but planning fills
  // read it through its row kernel, as they read the coordinates' estimates.
  in.oracle = &pool_.oracle();
  if (planner_->NeedsEstimates())
    in.estimated_latency = pool_.EstimatedLatencyFn();
  in.amcast = options_.amcast;
  in.adjust = options_.adjust;

  // The paper assumes non-overlapping member sets; when sessions DO share
  // members (a host in two conferences), the shared node's guaranteed
  // degree is split and the DB-MHT can become infeasible. Degrade
  // gracefully: report failure instead of crashing the market.
  alm::PlanResult plan{alm::MulticastTree(0), 0.0, 0.0, 0, {}, 0};
  try {
    plan = planner_->Plan(in);
  } catch (const util::CheckError&) {
    return outcome;  // ok == false; previous reservation already released
  }

  // Reserve: one claim per incident tree edge at every tree node.
  std::vector<alm::SessionId> preempted;
  for (const alm::ParticipantId v : plan.tree.members()) {
    const int need = plan.tree.Degree(v);
    for (int k = 0; k < need; ++k) {
      const pool::ClaimResult cr =
          reg.Claim(v, spec_.id, IsMember(v) ? somo::kHighestPriority
                                             : spec_.priority,
                    IsMember(v));
      if (!cr.ok) {
        // A live node refused what the snapshot advertised. Roll back and
        // let the caller replan with fresher knowledge. Impossible when
        // planning straight from the registry (nothing runs concurrently).
        P2P_CHECK_MSG(view != nullptr, "claim failed at node " << v);
        reg.ReleaseSession(spec_.id);
        outcome.stale_conflict = true;
        return outcome;
      }
      if (cr.preemption && cr.preempted != spec_.id)
        preempted.push_back(cr.preempted);
    }
  }
  std::sort(preempted.begin(), preempted.end());
  preempted.erase(std::unique(preempted.begin(), preempted.end()),
                  preempted.end());

  tree_ = std::move(plan.tree);
  scheduled_ = true;
  height_true_ = plan.height_true;
  helpers_used_ = plan.helpers_used;

  outcome.ok = true;
  outcome.height_true = height_true_;
  outcome.helpers_used = helpers_used_;
  outcome.preempted = std::move(preempted);
  return outcome;
}

void TaskManagerRef::Teardown() {
  registry_.ReleaseSession(spec_.id);
  scheduled_ = false;
}

}  // namespace p2p::marketref
