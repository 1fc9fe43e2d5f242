// The AMCast greedy DB-MHT heuristic (paper §5.2, Figure 6) and the
// critical-node helper extension (the dashed box).
//
// AMCast grows the tree from the root: each step absorbs the pending node
// of minimum tentative height, then relaxes the remaining nodes' tentative
// (height, parent) against every tree member with free degree — O(N³)
// overall.
//
// The critical-node extension fires when the chosen node's parent is about
// to spend its last free degree: the builder searches the resource pool for
// a helper h to splice between them, so the parent's fan-out effectively
// grows. Selection criteria (paper §5.2):
//   minimise l(h, parent(u)) + max_v l(h, v)       (condition 1)
//   over v with parent(v) == parent(u),
//   subject to d_bound(h) ≥ helper_min_degree      (condition 2)
//   and l(h, parent(u)) < helper_radius R          (condition 3).
// The simpler "nearest to parent" rule is kept as an ablation option.
#pragma once

#include <cstddef>
#include <vector>

#include "alm/latency_matrix.h"
#include "alm/tree.h"

namespace p2p::alm {

enum class HelperSelection {
  kNone,             // plain AMCast
  kNearestToParent,  // first variation in §5.2
  kMinimaxHeuristic, // conditions 1–3 (the paper's preferred rule)
};

struct AmcastOptions {
  HelperSelection selection = HelperSelection::kNone;
  double helper_radius = 100.0;   // R; paper: 50–150 works well
  int helper_min_degree = 4;      // condition 2 ("we use 4")
};

struct AmcastInput {
  // Degree bound per participant id; ids ≥ degree_bounds.size() invalid.
  // The build's own state is sized by degree_bounds.size(), so TreePlanner
  // passes the session's planning ids here, not the pool's.
  std::vector<int> degree_bounds;
  ParticipantId root = kNoParticipant;
  // Session members M(s), excluding the root.
  std::vector<ParticipantId> members;
  // Helper candidates H from the resource pool (disjoint from members and
  // root); only consulted when options.selection != kNone.
  std::vector<ParticipantId> helper_candidates;
};

struct AmcastResult {
  MulticastTree tree;
  double height = 0.0;           // under the planning latency
  std::size_t helpers_used = 0;  // helper nodes spliced into the tree
};

// Build a DB-MHT tree. `latency` is the planning latency (oracle for
// "Critical", coordinate estimate for "Leafset"); callers evaluate the
// resulting tree under the true latency separately.
//
// The LatencyMatrix overload is the fast path: an indexed lazy-deletion
// min-heap replaces the per-iteration linear min-scan, relaxation sweeps
// touch only the still-pending members, and every latency read is a flat
// array load. The matrix must cover the root, all members, and (when
// options.selection != kNone) all helper candidates. The LatencyFn
// overload builds that matrix internally and delegates, so existing
// callers and tests are unaffected. Both produce the trees of the original
// linear-scan builder (same pop order, same tie-breaks), which
// tests/reference/amcast_ref.h keeps for the equivalence test.
AmcastResult BuildAmcastTree(const AmcastInput& input,
                             const LatencyFn& latency,
                             const AmcastOptions& options = {});
AmcastResult BuildAmcastTree(const AmcastInput& input,
                             const LatencyMatrix& latency,
                             const AmcastOptions& options = {});

}  // namespace p2p::alm
