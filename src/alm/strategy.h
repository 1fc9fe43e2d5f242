// Named planning strategies for an ALM session — the six lines of the
// paper's Figure 8 plus the theoretical bound:
//   AMCast            greedy DB-MHT over M(s) only
//   AMCast+adjust     ... followed by tree adjustment
//   Critical          helper recruitment with oracle pairwise latency
//   Critical+adjust
//   Leafset           helper recruitment with coordinate-estimated latency
//   Leafset+adjust    (the practical algorithm the paper recommends)
//
// A Strategy is planner *policy*, not planner logic: it names one point in
// the (helpers × adjust × latency-source) option cube that TreePlanner
// (alm/planner.h) exposes directly. New code should configure
// TreePlannerOptions; the enum survives for the paper-figure vocabulary and
// for the PlanSession() compatibility shim.
#pragma once

#include <string>

namespace p2p::alm {

enum class Strategy {
  kAmcast,
  kAmcastAdjust,
  kCritical,
  kCriticalAdjust,
  kLeafset,
  kLeafsetAdjust,
};

std::string StrategyName(Strategy s);
bool StrategyUsesHelpers(Strategy s);
bool StrategyUsesAdjust(Strategy s);
bool StrategyUsesEstimates(Strategy s);

// CLI spelling ("amcast", "amcast+adj", "critical", "critical+adj",
// "leafset", "leafset+adj") -> Strategy; throws util::UsageError on an
// unknown spelling. These spellings double as planner registry names.
Strategy ParseStrategy(const std::string& name);

}  // namespace p2p::alm
