#include "alm/strategy.h"

#include "util/check.h"

namespace p2p::alm {

std::string StrategyName(Strategy s) {
  switch (s) {
    case Strategy::kAmcast: return "AMCast";
    case Strategy::kAmcastAdjust: return "AMCast+adj";
    case Strategy::kCritical: return "Critical";
    case Strategy::kCriticalAdjust: return "Critical+adj";
    case Strategy::kLeafset: return "Leafset";
    case Strategy::kLeafsetAdjust: return "Leafset+adj";
  }
  return "?";
}

bool StrategyUsesHelpers(Strategy s) {
  return s != Strategy::kAmcast && s != Strategy::kAmcastAdjust;
}

bool StrategyUsesAdjust(Strategy s) {
  return s == Strategy::kAmcastAdjust || s == Strategy::kCriticalAdjust ||
         s == Strategy::kLeafsetAdjust;
}

bool StrategyUsesEstimates(Strategy s) {
  return s == Strategy::kLeafset || s == Strategy::kLeafsetAdjust;
}

Strategy ParseStrategy(const std::string& name) {
  if (name == "amcast") return Strategy::kAmcast;
  if (name == "amcast+adj") return Strategy::kAmcastAdjust;
  if (name == "critical") return Strategy::kCritical;
  if (name == "critical+adj") return Strategy::kCriticalAdjust;
  if (name == "leafset") return Strategy::kLeafset;
  if (name == "leafset+adj") return Strategy::kLeafsetAdjust;
  throw util::UsageError("unknown strategy '" + name + "'");
}

}  // namespace p2p::alm
