#include "alm/planner.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "alm/mesh.h"
#include "obs/scope_timer.h"
#include "util/check.h"

namespace p2p::alm {

LatencySource PlanInput::Truth() const {
  if (true_latency != nullptr) return true_latency;
  P2P_CHECK_MSG(oracle != nullptr, "no true latency fn and no oracle");
  return OracleLatency(*oracle);
}

LatencySource LeafsetHybridLatency(std::vector<ParticipantId> sorted_members,
                                   LatencySource truth,
                                   LatencySource estimate) {
  // Shared, so the three kernels (and every copy of the source) hold one
  // list.
  auto members = std::make_shared<const std::vector<ParticipantId>>(
      std::move(sorted_members));
  const auto is_member = [members](ParticipantId v) {
    return std::binary_search(members->begin(), members->end(), v);
  };
  LatencyFn pair = [is_member, truth, estimate](ParticipantId a,
                                                ParticipantId b) {
    return (is_member(a) && is_member(b)) ? truth(a, b) : estimate(a, b);
  };
  // A non-member row is all estimates; a member row is truth except at
  // non-member columns (none in a planning fill, whose columns are the
  // session's own members). Columns follow the same rule.
  LatencyBatchFn row = [is_member, truth, estimate](
                           ParticipantId a, std::span<const ParticipantId> bs,
                           double* out) {
    if (!is_member(a)) {
      estimate.Row(a, bs, out);
      return;
    }
    truth.Row(a, bs, out);
    for (std::size_t k = 0; k < bs.size(); ++k)
      if (!is_member(bs[k])) out[k] = estimate(a, bs[k]);
  };
  LatencyBatchFn column = [is_member, truth = std::move(truth),
                           estimate = std::move(estimate)](
                              ParticipantId b,
                              std::span<const ParticipantId> as, double* out) {
    if (!is_member(b)) {
      estimate.Column(b, as, out);
      return;
    }
    truth.Column(b, as, out);
    for (std::size_t k = 0; k < as.size(); ++k)
      if (!is_member(as[k])) out[k] = estimate(as[k], b);
  };
  return LatencySource(std::move(pair), std::move(row), std::move(column));
}

std::size_t MaxFanout(const MulticastTree& tree) {
  std::size_t fanout = 0;
  for (const ParticipantId v : tree.members())
    fanout = std::max(fanout, tree.children(v).size());
  return fanout;
}

Planner::~Planner() = default;

PlanResult Planner::Plan(const PlanInput& input) {
  PlanResult result = DoPlan(input);
  if (input.metrics != nullptr && input.planner_metrics) {
    const std::string ns = "alm.planner." + name() + ".";
    input.metrics->counter(ns + "plans").Inc();
    input.metrics->counter(ns + "maintenance_msgs")
        .Inc(static_cast<double>(result.maintenance_messages));
    input.metrics->histogram(ns + "height_ms").Add(result.height_true);
    input.metrics->histogram(ns + "stress")
        .Add(static_cast<double>(MaxFanout(result.tree)));
    input.metrics->histogram(ns + "helpers")
        .Add(static_cast<double>(result.helpers_used));
  }
  return result;
}

RepairOutcome Planner::Repair(const PlanInput& original,
                              const std::vector<ParticipantId>& failed) {
  std::vector<char> is_failed(original.degree_bounds.size(), 0);
  for (const ParticipantId f : failed) {
    P2P_CHECK_MSG(f != original.root, "cannot repair a failed root");
    P2P_CHECK_MSG(f < is_failed.size(), "failed id out of range");
    is_failed[f] = 1;
  }

  // Who the failures cut off: walk the pre-failure tree from the root,
  // refusing to cross failed nodes; surviving tree nodes never reached are
  // the disrupted set. (Helpers count too — they were forwarding.)
  const PlanResult before = DoPlan(original);
  RepairOutcome out;
  {
    std::vector<char> reached(original.degree_bounds.size(), 0);
    std::vector<ParticipantId> stack{before.tree.root()};
    reached[before.tree.root()] = 1;
    while (!stack.empty()) {
      const ParticipantId v = stack.back();
      stack.pop_back();
      for (const ParticipantId c : before.tree.children(v)) {
        if (is_failed[c] || reached[c]) continue;
        reached[c] = 1;
        stack.push_back(c);
      }
    }
    for (const ParticipantId v : before.tree.members())
      if (!is_failed[v] && !reached[v]) ++out.disrupted;
  }

  // Re-plan over the survivors: failed ids leave the member/helper lists
  // and contribute zero degree, so no planner configuration can route
  // through them.
  PlanInput rest = original;
  const auto alive = [&](ParticipantId v) { return !is_failed[v]; };
  rest.members.erase(
      std::remove_if(rest.members.begin(), rest.members.end(),
                     [&](ParticipantId v) { return !alive(v); }),
      rest.members.end());
  rest.helper_candidates.erase(
      std::remove_if(rest.helper_candidates.begin(),
                     rest.helper_candidates.end(),
                     [&](ParticipantId v) { return !alive(v); }),
      rest.helper_candidates.end());
  for (const ParticipantId f : failed) rest.degree_bounds[f] = 0;

  out.plan = Plan(rest);
  out.repair_messages = 2 * out.plan.tree.size();
  out.repair_latency_ms = 2.0 * out.plan.height_true;
  return out;
}

TreePlannerOptions OptionsForStrategy(Strategy s) {
  TreePlannerOptions opt;
  opt.use_helpers = StrategyUsesHelpers(s);
  opt.use_adjust = StrategyUsesAdjust(s);
  opt.use_estimates = StrategyUsesEstimates(s);
  return opt;
}

PlanResult TreePlanner::DoPlan(const PlanInput& input) {
  obs::ScopeTimer plan_timer(
      input.metrics != nullptr ? &input.metrics->profile("alm.plan_ms")
                               : nullptr);
  P2P_CHECK_MSG(input.true_latency != nullptr || input.oracle != nullptr,
                "PlanSession needs a true latency fn or an oracle");
  P2P_CHECK_MSG(!options_.use_estimates || input.estimated_latency != nullptr,
                "Leafset strategies need an estimated latency");
  // Every id is checked before it is mapped or read.
  const std::size_t space = input.degree_bounds.size();
  P2P_CHECK_MSG(input.root < space, "root id out of range");
  for (const ParticipantId m : input.members)
    P2P_CHECK_MSG(m < space, "member id " << m << " out of range");
  for (const ParticipantId h : input.helper_candidates)
    P2P_CHECK_MSG(h < space, "helper id " << h << " out of range");
  for (const int b : input.degree_bounds) P2P_CHECK_MSG(b >= 0, "bad bound");
  // The session (root and members), ascending. A member listed twice, or
  // the root listed as a member, could never be placed: reject it here,
  // before any matrix work.
  std::vector<ParticipantId> session;
  input.AppendAllMembers(session);
  std::sort(session.begin(), session.end());
  const auto dup = std::adjacent_find(session.begin(), session.end());
  P2P_CHECK_MSG(dup == session.end(),
                "duplicate member id " << *dup
                                       << (*dup == input.root ? " (the root)"
                                                              : ""));
  const LatencySource truth = input.Truth();

  // The session's planning ids: the root, the members and (when used) the
  // helper candidates, numbered 0..n-1 in ascending participant id order.
  // Every plan structure below is sized by n. The numbering is monotone, so
  // every tie-break that prefers the smaller id (AMCast's heap, the sorted
  // helper scan) picks the same participant as it would in the caller's
  // ids. `ids` maps back; matrices query their sources through it.
  std::vector<ParticipantId> ids;
  std::vector<ParticipantId> helper_ids;  // planning ids, ascending
  if (!options_.use_helpers) {
    ids = session;
  } else {
    std::vector<ParticipantId> helpers = input.helper_candidates;
    if (!std::is_sorted(helpers.begin(), helpers.end()))
      std::sort(helpers.begin(), helpers.end());
    helpers.erase(std::unique(helpers.begin(), helpers.end()), helpers.end());
    ids.reserve(session.size() + helpers.size());
    helper_ids.reserve(helpers.size());
    // Merge; a helper candidate that is also a session member keeps one id
    // and stays a candidate.
    std::size_t i = 0, j = 0;
    while (i < session.size() || j < helpers.size()) {
      const bool take_s = i < session.size() &&
                          (j == helpers.size() || session[i] <= helpers[j]);
      const bool take_h = j < helpers.size() &&
                          (i == session.size() || helpers[j] <= session[i]);
      ids.push_back(take_s ? session[i++] : helpers[j]);
      if (take_h) {
        helper_ids.push_back(ids.size() - 1);
        ++j;
      }
    }
  }
  const auto planning_id = [&ids](ParticipantId v) {
    return static_cast<ParticipantId>(
        std::lower_bound(ids.begin(), ids.end(), v) - ids.begin());
  };

  AmcastInput ain;
  ain.degree_bounds.resize(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i)
    ain.degree_bounds[i] = input.degree_bounds[ids[i]];
  ain.root = planning_id(input.root);
  ain.members.reserve(input.members.size());
  for (const ParticipantId m : input.members)
    ain.members.push_back(planning_id(m));
  ain.helper_candidates = helper_ids;

  // Planning latency: true for oracle strategies; hybrid for Leafset.
  const LatencySource planning =
      options_.use_estimates
          ? LeafsetHybridLatency(session, truth, input.estimated_latency)
          : truth;

  AmcastOptions aopt = input.amcast;
  aopt.selection = options_.use_helpers
                       ? (input.amcast.selection == HelperSelection::kNone
                              ? HelperSelection::kMinimaxHeuristic
                              : input.amcast.selection)
                       : HelperSelection::kNone;

  // One planning matrix per session: every latency the build (and the
  // final planning-height evaluation) reads becomes a flat array load
  // instead of a std::function dispatch. Root and members are the core;
  // helper candidates are satellites (their pairwise block is not filled).
  // The fill takes one row-kernel call per row, in participant ids: oracle
  // rows, or the Leafset hybrid's truth and estimate rows.
  std::vector<ParticipantId> core_ids;
  core_ids.reserve(1 + ain.members.size());
  core_ids.push_back(ain.root);
  core_ids.insert(core_ids.end(), ain.members.begin(), ain.members.end());
  const LatencyMatrix planning_matrix(ids, core_ids, helper_ids, planning);

  AmcastResult built = BuildAmcastTree(ain, planning_matrix, aopt);

  MulticastTree& tree = built.tree;
  PlanResult result{MulticastTree(0), 0.0, 0.0, built.helpers_used, {}, 0};
  if (options_.use_adjust) {
    // Adjustment always runs on TRUE latencies: by this point every tree
    // node — helpers included — has been contacted to reserve its degree,
    // so the session can measure the actual delays among its (small) tree
    // membership. This is why the paper finds adjustment "remarkably
    // effective especially for Leafset": it repairs the damage done by
    // coordinate-estimate errors during helper selection.
    const LatencyMatrix true_matrix(ids, tree.members(), {}, truth);
    result.adjust_stats =
        AdjustTree(tree, ain.degree_bounds, true_matrix, input.adjust);
    result.height_true = tree.Height(true_matrix);
  } else {
    // One O(members) evaluation pass; not worth a pairwise matrix fill.
    result.height_true = tree.Height([&](ParticipantId a, ParticipantId b) {
      return truth(ids[a], ids[b]);
    });
  }
  result.height_planning = tree.Height(planning_matrix);
  tree.Relabel(space, ids);
  result.tree = std::move(tree);
  if (input.metrics != nullptr) {
    input.metrics->counter("alm.sessions.planned").Inc();
    if (options_.use_adjust)
      input.metrics->counter("alm.sessions.adjusted").Inc();
    input.metrics->histogram("alm.plan.height_ms").Add(result.height_true);
    input.metrics->histogram("alm.plan.helpers")
        .Add(static_cast<double>(result.helpers_used));
  }
  return result;
}

std::vector<std::string> PlannerNames() {
  return {"amcast",  "amcast+adj",  "critical", "critical+adj",
          "leafset", "leafset+adj", "mesh",     "tree"};
}

std::unique_ptr<Planner> CreatePlanner(const std::string& name,
                                       Strategy strategy,
                                       const MeshOptions& mesh) {
  const std::vector<std::string> names = PlannerNames();
  if (!std::binary_search(names.begin(), names.end(), name))
    throw util::UsageError("unknown planner '" + name + "'");
  if (name == "mesh") return std::make_unique<MeshPlanner>(mesh);
  if (name != "tree") strategy = ParseStrategy(name);
  return std::make_unique<TreePlanner>(OptionsForStrategy(strategy));
}

}  // namespace p2p::alm
