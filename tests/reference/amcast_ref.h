// Retained linear-scan AMCast (paper §5.2, Figure 6), kept for the
// equivalence test the way somo_map_ref keeps the map-based SOMO protocol:
// `amcastref::BuildAmcastTree` is the original O(P) min-scan builder
// exactly as it shipped before the indexed-heap + LatencyMatrix fast path
// in src/alm/amcast.cc. tests/alm_equivalence_test.cc runs both on seeded
// instances and pins tree, height and helper count; bench_to_json's
// BM_AmcastPlanReference rows price the fast path against it. Do not
// optimise this function.
//
// Input, option and result types are reused from src/alm; only the builder
// and its input check are duplicated here.
#pragma once

#include "alm/amcast.h"
#include "alm/tree.h"

namespace p2p::amcastref {

using alm::AmcastInput;
using alm::AmcastOptions;
using alm::AmcastResult;
using alm::HelperSelection;
using alm::LatencyFn;
using alm::MulticastTree;
using alm::ParticipantId;
using alm::kNoParticipant;

AmcastResult BuildAmcastTree(const AmcastInput& input,
                             const LatencyFn& latency,
                             const AmcastOptions& options = {});

}  // namespace p2p::amcastref
