#include "reference/amcast_ref.h"

#include <algorithm>
#include <limits>

#include "util/check.h"

namespace p2p::amcastref {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

void ValidateInput(const AmcastInput& input) {
  const std::size_t P = input.degree_bounds.size();
  P2P_CHECK_MSG(input.root < P, "root id out of range");
  for (const ParticipantId m : input.members) P2P_CHECK(m < P && m != input.root);
  for (const ParticipantId h : input.helper_candidates) P2P_CHECK(h < P);
  for (const int b : input.degree_bounds) P2P_CHECK_MSG(b >= 0, "bad bound");
}

}  // namespace

AmcastResult BuildAmcastTree(const AmcastInput& input,
                             const LatencyFn& latency,
                             const AmcastOptions& options) {
  ValidateInput(input);
  const std::size_t P = input.degree_bounds.size();

  MulticastTree tree(P);
  tree.SetRoot(input.root);

  // Tentative height/parent per participant id; only member entries used by
  // the main loop (helpers enter the tree exclusively via splicing).
  std::vector<double> height(P, kInf);
  std::vector<ParticipantId> tent_parent(P, kNoParticipant);
  std::vector<char> pending(P, 0);
  std::vector<char> helper_available(P, 0);
  for (const ParticipantId h : input.helper_candidates)
    helper_available[h] = 1;

  // Exact tree heights (recomputed incrementally as nodes are added).
  std::vector<double> tree_height(P, 0.0);

  for (const ParticipantId v : input.members) {
    pending[v] = 1;
    height[v] = latency(input.root, v);
    tent_parent[v] = input.root;
  }

  std::size_t remaining = input.members.size();
  std::size_t helpers_used = 0;

  auto relax_all_against = [&](ParticipantId w) {
    if (input.degree_bounds[w] - tree.Degree(w) <= 0) return;
    for (ParticipantId v = 0; v < P; ++v) {
      if (!pending[v]) continue;
      const double h = tree_height[w] + latency(w, v);
      if (h < height[v]) {
        height[v] = h;
        tent_parent[v] = w;
      }
    }
  };

  while (remaining > 0) {
    // find u ∈ V−W with minimum tentative height.
    ParticipantId u = kNoParticipant;
    for (ParticipantId v = 0; v < P; ++v) {
      if (pending[v] && (u == kNoParticipant || height[v] < height[u])) u = v;
    }
    P2P_CHECK(u != kNoParticipant);

    ParticipantId pu = tent_parent[u];
    // The tentative parent may have filled up since this entry was relaxed;
    // recompute the best feasible parent if so.
    if (input.degree_bounds[pu] - tree.Degree(pu) <= 0) {
      height[u] = kInf;
      tent_parent[u] = kNoParticipant;
      for (const ParticipantId w : tree.members()) {
        if (input.degree_bounds[w] - tree.Degree(w) <= 0) continue;
        const double h = tree_height[w] + latency(w, u);
        if (h < height[u]) {
          height[u] = h;
          tent_parent[u] = w;
        }
      }
      P2P_CHECK_MSG(tent_parent[u] != kNoParticipant,
                    "no feasible parent: degree bounds too tight");
      pu = tent_parent[u];
    }

    // Critical-node helper search: parent about to spend its last degree.
    bool spliced = false;
    if (options.selection != HelperSelection::kNone &&
        input.degree_bounds[pu] - tree.Degree(pu) == 1) {
      ParticipantId h = kNoParticipant;
      {
        double best_score = kInf;
        std::vector<ParticipantId> vs{u};
        for (ParticipantId v = 0; v < P; ++v) {
          if (pending[v] && v != u && tent_parent[v] == pu) vs.push_back(v);
        }
        for (ParticipantId c = 0; c < P; ++c) {
          if (!helper_available[c]) continue;
          if (input.degree_bounds[c] < options.helper_min_degree) continue;
          const double to_parent = latency(c, pu);
          if (to_parent >= options.helper_radius) continue;
          double score = to_parent;
          if (options.selection == HelperSelection::kMinimaxHeuristic) {
            double worst = 0.0;
            for (const ParticipantId v : vs)
              worst = std::max(worst, latency(c, v));
            score += worst;
          }
          if (score < best_score) {
            best_score = score;
            h = c;
          }
        }
      }
      if (h == kNoParticipant && remaining > 1) {
        int total_free = 0;
        for (const ParticipantId w : tree.members())
          total_free += input.degree_bounds[w] - tree.Degree(w);
        if (total_free <= 1) {
          double best_score = kInf;
          for (ParticipantId c = 0; c < P; ++c) {
            if (!helper_available[c]) continue;
            if (input.degree_bounds[c] < 3) continue;  // must add capacity
            const double score = latency(c, pu) + latency(c, u);
            if (score < best_score) {
              best_score = score;
              h = c;
            }
          }
        }
      }
      if (h != kNoParticipant) {
        // Splice: h becomes the child of parent(u); u becomes h's child.
        tree.AddChild(pu, h);
        tree_height[h] = tree_height[pu] + latency(pu, h);
        tree.AddChild(h, u);
        tree_height[u] = tree_height[h] + latency(h, u);
        helper_available[h] = 0;
        ++helpers_used;
        spliced = true;
        pending[u] = 0;
        --remaining;
        relax_all_against(h);
        relax_all_against(pu);
        relax_all_against(u);
      }
    }

    if (!spliced) {
      tree.AddChild(pu, u);
      tree_height[u] = tree_height[pu] + latency(pu, u);
      pending[u] = 0;
      --remaining;
      relax_all_against(pu);
      relax_all_against(u);
    }
  }

  AmcastResult result{std::move(tree), 0.0, helpers_used};
  result.height = result.tree.Height(latency);
  return result;
}

}  // namespace p2p::amcastref
