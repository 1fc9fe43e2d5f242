// TaskManager: the per-session scheduler (paper §5.3). The root of an ALM
// session plans its tree with the Leafset+adjust algorithm against the
// resource availability SOMO advertises (here: the degree registry), claims
// the degrees the plan needs, and records which sessions it preempted so
// the market layer can make the victims replan. "Global scheduling is
// never attempted."
//
// A schedule costs what the session and its helper candidates cost, not
// what the pool costs: bounds are computed only for the root, the members
// and the nodes whose static bound reaches helper_min_available (the
// registry's NodesWithBoundAtLeast list), and the planner works in the
// session's own planning ids. A task manager keeps its members as a sorted
// list and its tree as member records plus the tree's 4 B-per-id index.
#pragma once

#include <vector>

#include "alm/planner.h"
#include "alm/session.h"
#include "pool/resource_pool.h"

namespace p2p::pool {

struct TaskManagerOptions {
  // The session plans with a TreePlanner at this corner of its option cube.
  alm::Strategy strategy = alm::Strategy::kLeafsetAdjust;
  alm::AmcastOptions amcast;
  alm::AdjustOptions adjust;
  // A pool node qualifies as helper candidate if the scheduler could obtain
  // at least this many degrees on it (condition 2 of the helper search).
  int helper_min_available = 4;
  // Per-link stream rate of the session (kbps). When positive, a node's
  // usable degree is additionally capped by its estimated uplink:
  // floor(up_kbps / stream_kbps) concurrent outgoing streams — this is
  // what the bandwidth fields of the SOMO report (paper Figure 7) exist
  // for. 0 disables the bandwidth constraint ("degree" then models the
  // end system's limit as in §5.1).
  double stream_kbps = 0.0;
};

struct ScheduleOutcome {
  bool ok = false;
  double height_true = 0.0;
  std::size_t helpers_used = 0;
  // Sessions that lost at least one degree to this plan (deduplicated).
  std::vector<alm::SessionId> preempted;
  // Scheduling from a stale SOMO view: a reservation the view promised was
  // refused by the live node. The plan was rolled back; the caller should
  // replan with fresher information.
  bool stale_conflict = false;
};

class TaskManager {
 public:
  TaskManager(ResourcePool& pool, alm::SessionSpec spec,
              TaskManagerOptions options);

  const alm::SessionSpec& spec() const { return spec_; }

  // Plan against current availability and reserve. Any previous
  // reservation of this session is released first (the paper's periodic
  // re-run does exactly this swap).
  ScheduleOutcome Schedule() { return Schedule(nullptr); }

  // Plan against a SOMO snapshot instead of the live registry (`view` is
  // what the root's aggregate advertised; it may be stale). Member nodes
  // are still planned at their true full bound — a session talks to its
  // own members directly. Reservations go to the LIVE registry; if a node
  // refuses a claim the view promised, everything is rolled back and the
  // outcome reports a stale conflict.
  ScheduleOutcome Schedule(const somo::AggregateReport* view);

  // Release every reservation (session ended).
  void Teardown();

  bool scheduled() const { return scheduled_; }
  double current_height() const { return height_true_; }
  std::size_t current_helpers() const { return helpers_used_; }
  const alm::MulticastTree* current_tree() const {
    return scheduled_ ? &tree_ : nullptr;
  }

  // The session's own AMCast baseline height (members only, full member
  // degrees — always achievable), used for the improvement metric. Cached.
  double AmcastBaselineHeight();

  // (H_AMCast − H_current)/H_AMCast for the currently reserved plan.
  double CurrentImprovement();

 private:
  bool IsMember(alm::ParticipantId v) const;
  // `bound` capped by the node's uplink when a stream rate is set.
  int StreamCapped(std::size_t v, int bound) const;

  ResourcePool& pool_;
  alm::SessionSpec spec_;
  TaskManagerOptions options_;
  alm::TreePlanner planner_;
  std::vector<alm::ParticipantId> session_;  // root + members, ascending
  alm::MulticastTree tree_{0};
  bool scheduled_ = false;
  double height_true_ = 0.0;
  std::size_t helpers_used_ = 0;
  double amcast_baseline_ = -1.0;
};

}  // namespace p2p::pool
