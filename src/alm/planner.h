// Planner abstraction for ALM sessions: one `PlanInput -> PlanResult`
// interface behind which competing overlay constructions live side by side
// under identical seeds, inputs, and metrics plumbing.
//
//   TreePlanner   the paper's DB-MHT pipeline (amcast build, helper
//                 recruitment, tree adjustment) with the six legacy
//                 Strategy values decomposed into their three orthogonal
//                 axes: helpers on/off x adjust on/off x latency source.
//   MeshPlanner   (alm/mesh.h) the Ripeanu et al. self-organizing
//                 unstructured mesh, exposed through the same PlanResult
//                 vocabulary via per-source dissemination-tree extraction.
//
// CreatePlanner turns a name into a planner; the CLI experiments and the
// conformance battery (which runs every name in PlannerNames()) both use
// it, so a planner added there is exercised by both.
// `PlanSession(input, strategy)` in alm/critical.h survives as a shim over
// `TreePlanner` and is byte-identical to the pre-interface code path
// (equivalence-test-enforced, including metric snapshots).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "alm/adjust.h"
#include "alm/amcast.h"
#include "alm/session.h"
#include "alm/strategy.h"
#include "net/latency_oracle.h"
#include "obs/metrics.h"

namespace p2p::alm {

struct PlanInput {
  // Degree bound by participant id. Every entry must be non-negative, but
  // a tree plan reads only the root's, the members' and the helper
  // candidates' entries: it renumbers those participants 0..n-1 in
  // ascending id order (the session's planning ids) and sizes all of its
  // own state by n, not by degree_bounds.size(). Entries of other ids may
  // hold anything non-negative.
  std::vector<int> degree_bounds;
  ParticipantId root = kNoParticipant;
  std::vector<ParticipantId> members;  // excluding root
  std::vector<ParticipantId> helper_candidates;
  LatencyFn true_latency;
  // Coordinate-based estimate; required only when the planner reports
  // NeedsEstimates() (the Leafset tree configurations). A plain LatencyFn
  // converts; a source with a row kernel (ResourcePool::EstimatedLatencyFn)
  // fills each planning-matrix row in one call.
  LatencySource estimated_latency;
  // When set, planning matrices are filled by the oracle's row kernel (no
  // std::function dispatch per pair) and `true_latency` may be left null —
  // participant ids must then be host indices into the oracle. Leafset
  // strategies still need `estimated_latency`; a non-null `true_latency`
  // overrides the oracle for truth queries (hybrid test setups).
  const net::LatencyOracle* oracle = nullptr;
  AmcastOptions amcast;   // helper_radius / helper_min_degree knobs
  AdjustOptions adjust;
  // Optional instrumentation: alm.plan.* histograms and counters plus the
  // wall-clock alm.plan_ms profile. Leave null on parallel planning paths —
  // the registry is not thread-safe.
  obs::MetricsRegistry* metrics = nullptr;
  // Opt-in alm.planner.<name>.* namespace (plans, height_ms, stress,
  // maintenance_msgs) recorded by the Planner::Plan wrapper. Off by default
  // so legacy Strategy paths keep their pre-interface snapshot bytes.
  bool planner_metrics = false;

  // The truth source: `true_latency` when set, else OracleLatency(*oracle).
  LatencySource Truth() const;

  // Root followed by members, appended to `out` (planning hot paths build
  // matrix core-id lists this way; see also SessionSpec::AppendAllMembers).
  void AppendAllMembers(std::vector<ParticipantId>& out) const {
    out.reserve(out.size() + 1 + members.size());
    out.push_back(root);
    out.insert(out.end(), members.begin(), members.end());
  }
};

struct PlanResult {
  MulticastTree tree;
  double height_true = 0.0;      // evaluated with true latency
  double height_planning = 0.0;  // evaluated with the planning latency
  std::size_t helpers_used = 0;
  AdjustStats adjust_stats;
  // Control messages the planner's overlay spends building and maintaining
  // itself for this session (mesh joins/probes/rewires). The centrally
  // computed tree planners spend none — the DB-MHT build is an oracle-side
  // computation — which is exactly the axis the mesh comparison measures.
  std::size_t maintenance_messages = 0;
};

// The Leafset strategies' planning latency: truth between two session
// members, the estimate for every pair that touches a non-member. The
// membership is the session's ascending, duplicate-free member ids (root
// included), which the source keeps: its state is sized by the session,
// not by the id space. Its row (column) kernel is built from the truth and
// estimate rows (columns).
LatencySource LeafsetHybridLatency(std::vector<ParticipantId> sorted_members,
                                   LatencySource truth,
                                   LatencySource estimate);

// Maximum out-degree (children count) over every node of the tree — the
// "stress" a plan puts on its busiest forwarder.
std::size_t MaxFanout(const MulticastTree& tree);

// Outcome of Planner::Repair: the overlay's reaction to a set of failed
// participants, in comparable units across planners.
struct RepairOutcome {
  // Post-repair dissemination tree over the survivors.
  PlanResult plan{MulticastTree(0), 0.0, 0.0, 0, {}, 0};
  std::size_t disrupted = 0;  // survivors cut off until the repair landed
  std::size_t repair_messages = 0;
  double repair_latency_ms = 0.0;  // until the last disrupted node rejoins
};

class Planner {
 public:
  virtual ~Planner();

  // Metric namespace component ("tree", "mesh").
  virtual std::string name() const = 0;

  // True when Plan() reads PlanInput::estimated_latency.
  virtual bool NeedsEstimates() const { return false; }

  // Plan a session. Non-virtual wrapper over DoPlan: when the input opts in
  // (planner_metrics + metrics), records the alm.planner.<name>.* namespace
  // after the planner-specific work.
  PlanResult Plan(const PlanInput& input);

  // React to `failed` participants dropping out of a session previously
  // planned from `original`. The base implementation models the tree
  // planners' centralized story: the source detects the failures, re-plans
  // over the survivors, and pushes the new tree to every node — so
  //   disrupted       = survivors whose old-tree path crossed a failed node,
  //   repair_messages = 2 x new tree size (re-contact + ack per node),
  //   repair_latency  = 2 x new height_true (push down, acks settle back).
  // Failed members/helpers are removed from the input and their degree
  // zeroed. The root must not be in `failed` (the session dies with it).
  virtual RepairOutcome Repair(const PlanInput& original,
                               const std::vector<ParticipantId>& failed);

 protected:
  virtual PlanResult DoPlan(const PlanInput& input) = 0;
};

// Tree-planner option cube. Defaults reproduce Strategy::kCriticalAdjust
// (oracle latency, helpers, adjustment).
struct TreePlannerOptions {
  bool use_helpers = true;
  bool use_adjust = true;
  // Plan with coordinate estimates for helper-involved pairs (the Leafset
  // hybrid) instead of oracle truth throughout.
  bool use_estimates = false;
};

// The Strategy enum is exactly the corner coordinates of the option cube.
TreePlannerOptions OptionsForStrategy(Strategy s);

class TreePlanner : public Planner {
 public:
  TreePlanner() = default;
  explicit TreePlanner(TreePlannerOptions options) : options_(options) {}

  std::string name() const override { return "tree"; }
  bool NeedsEstimates() const override { return options_.use_estimates; }
  const TreePlannerOptions& options() const { return options_; }

 protected:
  PlanResult DoPlan(const PlanInput& input) override;

 private:
  TreePlannerOptions options_;
};

struct MeshOptions;  // alm/mesh.h

// The planner a name stands for: "tree" is a TreePlanner at `strategy`'s
// corner of the option cube, "mesh" a MeshPlanner tuned by `mesh`, and the
// six ParseStrategy spellings are TreePlanners at their own corners (they
// ignore `strategy`). Throws util::UsageError on any other name.
std::unique_ptr<Planner> CreatePlanner(const std::string& name,
                                       Strategy strategy,
                                       const MeshOptions& mesh);
// Every name CreatePlanner accepts, sorted.
std::vector<std::string> PlannerNames();

}  // namespace p2p::alm
