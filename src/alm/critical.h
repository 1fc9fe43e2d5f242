// Compatibility shim. The strategy vocabulary now lives in alm/strategy.h
// and the planning entry points in alm/planner.h (TreePlanner behind the
// alm::Planner interface); this header re-exports both so pre-interface
// includers keep compiling for one release. New code should construct a
// planner (directly or via CreatePlanner) instead of calling
// PlanSession().
#pragma once

#include "alm/planner.h"
#include "alm/strategy.h"

namespace p2p::alm {

// Equivalent to TreePlanner(OptionsForStrategy(strategy)).Plan(input) and
// byte-identical — results and metric snapshots — to the pre-interface
// implementation (enforced by tests/alm_planner_test.cc).
PlanResult PlanSession(const PlanInput& input, Strategy strategy);

}  // namespace p2p::alm
