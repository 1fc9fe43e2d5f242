#include "pool/task_manager.h"

#include <algorithm>

#include "alm/bounds.h"
#include "util/check.h"

namespace p2p::pool {

TaskManager::TaskManager(ResourcePool& pool, alm::SessionSpec spec,
                         TaskManagerOptions options)
    : pool_(pool),
      spec_(std::move(spec)),
      options_(std::move(options)),
      planner_(alm::OptionsForStrategy(options_.strategy)) {
  P2P_CHECK(spec_.root < pool_.size());
  P2P_CHECK(spec_.priority >= somo::kHighestPriority &&
            spec_.priority <= somo::kLowestPriority);
  for (const alm::ParticipantId m : spec_.members)
    P2P_CHECK(m < pool_.size() && m != spec_.root);
  // A member listed twice could never be placed, so every Schedule would
  // fail: reject the spec before the market admits it.
  spec_.AppendAllMembers(session_);
  std::sort(session_.begin(), session_.end());
  const auto dup = std::adjacent_find(session_.begin(), session_.end());
  P2P_CHECK_MSG(dup == session_.end(), "duplicate member id " << *dup);
}

bool TaskManager::IsMember(alm::ParticipantId v) const {
  return std::binary_search(session_.begin(), session_.end(), v);
}

int TaskManager::StreamCapped(std::size_t v, int bound) const {
  if (options_.stream_kbps <= 0.0) return bound;
  // Cap by the node's advertised uplink: every CHILD edge carries one
  // outgoing copy of the stream (the parent edge consumes downlink, so
  // non-root nodes get +1 incident edge on top of the child cap).
  const auto& est = pool_.bandwidth_estimates().estimate(v);
  const double up =
      est.up_samples > 0 ? est.up_kbps : pool_.bandwidths().host(v).up_kbps;
  const int child_cap = static_cast<int>(up / options_.stream_kbps);
  const int allowed = v == spec_.root ? child_cap : child_cap + 1;
  return std::min(bound, allowed);
}

double TaskManager::AmcastBaselineHeight() {
  if (amcast_baseline_ >= 0.0) return amcast_baseline_;
  alm::PlanInput in;
  in.degree_bounds = pool_.degree_bounds();
  in.root = spec_.root;
  in.members = spec_.members;
  in.oracle = &pool_.oracle();
  amcast_baseline_ =
      alm::TreePlanner(alm::OptionsForStrategy(alm::Strategy::kAmcast))
          .Plan(in)
          .height_true;
  return amcast_baseline_;
}

ScheduleOutcome TaskManager::Schedule(const somo::AggregateReport* view) {
  ScheduleOutcome outcome;
  DegreeRegistry& reg = pool_.registry();

  // Release previous reservations (the paper's "switch to the better
  // plan"): planning then sees our prior resources as free again.
  reg.ReleaseSession(spec_.id);
  scheduled_ = false;

  // Effective degree bounds under current contention. A member node grants
  // the session its full bound (member claims dominate), read live even
  // when planning from a view: sessions talk to their own members
  // directly. Elsewhere the session can use free degrees plus degrees
  // preemptible at its priority. Only the session's and the weighed
  // candidates' entries are written; the planner reads no others.
  alm::PlanInput in;
  in.degree_bounds.resize(pool_.size());
  for (const alm::ParticipantId v : session_) {
    in.degree_bounds[v] = StreamCapped(
        v, reg.AvailableFor(v, somo::kHighestPriority, true));
  }
  // A non-member qualifies as helper candidate when its bound reaches the
  // threshold. Nodes are weighed in ascending id order, so the sorted
  // member list is walked alongside instead of searched.
  const int threshold = options_.helper_min_available;
  std::size_t member_at = 0;
  const auto weigh = [&](std::size_t v, int available) {
    while (member_at < session_.size() && session_[member_at] < v) ++member_at;
    if (member_at < session_.size() && session_[member_at] == v) return;
    const int bound = StreamCapped(v, available);
    in.degree_bounds[v] = bound;
    if (bound >= threshold) in.helper_candidates.push_back(v);
  };
  if (view == nullptr) {
    // AvailableFor never exceeds a node's static bound, so only the nodes
    // whose bound reaches the threshold can qualify.
    for (const std::size_t v : reg.NodesWithBoundAtLeast(threshold))
      weigh(v, reg.AvailableFor(v, spec_.priority, false));
  } else {
    // The availability the root's aggregate advertised: degrees free or
    // preemptible at this session's priority, straight off the view's
    // degree columns. A node's last record wins; a negative count plans
    // as 0. The view may promise more than the static bound, so its own
    // entries are the candidates.
    std::vector<std::pair<std::size_t, int>> advertised;
    advertised.reserve(view->size());
    for (std::size_t i = 0; i < view->size(); ++i) {
      const dht::NodeIndex n = view->node(i);
      if (n >= pool_.size()) continue;
      const auto slots = view->degree_slots(i);
      int avail = view->degrees_total(i) - static_cast<int>(slots.size());
      for (const auto& s : slots) {
        if (s.priority > spec_.priority) ++avail;
      }
      advertised.emplace_back(n, std::max(avail, 0));
    }
    std::stable_sort(
        advertised.begin(), advertised.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    // Nodes the view omits (the newscast has not reported them yet) are
    // not candidates; their entries stay 0.
    for (std::size_t k = 0; k < advertised.size(); ++k) {
      const auto [v, avail] = advertised[k];
      if (k + 1 < advertised.size() && advertised[k + 1].first == v) continue;
      weigh(v, avail);
    }
  }
  in.root = spec_.root;
  in.members = spec_.members;
  // The oracle itself, not TrueLatencyFn(): same values, but planning fills
  // read it through its row kernel, as they read the coordinates' estimates.
  in.oracle = &pool_.oracle();
  if (planner_.NeedsEstimates())
    in.estimated_latency = pool_.EstimatedLatencyFn();
  in.amcast = options_.amcast;
  in.adjust = options_.adjust;

  // The paper assumes non-overlapping member sets; when sessions DO share
  // members (a host in two conferences), the shared node's guaranteed
  // degree is split and the DB-MHT can become infeasible. Degrade
  // gracefully: report failure instead of crashing the market.
  alm::PlanResult plan{alm::MulticastTree(0), 0.0, 0.0, 0, {}, 0};
  try {
    plan = planner_.Plan(in);
  } catch (const util::CheckError&) {
    return outcome;  // ok == false; previous reservation already released
  }
  // Planners keep helpers within their bounds but attach every member, so
  // a shared member whose slots another session's member claims all hold
  // (bound 0) can still get a tree edge. A plan is feasible only within
  // the degrees it was given; claiming past them would fail.
  for (const alm::ParticipantId v : plan.tree.members()) {
    if (plan.tree.Degree(v) > in.degree_bounds[v]) return outcome;
  }

  // Reserve: one claim per incident tree edge at every tree node.
  std::vector<alm::SessionId> preempted;
  for (const alm::ParticipantId v : plan.tree.members()) {
    const int need = plan.tree.Degree(v);
    for (int k = 0; k < need; ++k) {
      const ClaimResult cr =
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

void TaskManager::Teardown() {
  pool_.registry().ReleaseSession(spec_.id);
  scheduled_ = false;
}

double TaskManager::CurrentImprovement() {
  P2P_CHECK_MSG(scheduled_, "session not scheduled");
  return alm::Improvement(AmcastBaselineHeight(), height_true_);
}

}  // namespace p2p::pool
