#include "alm/amcast.h"

#include <algorithm>
#include <limits>

#include "util/check.h"

namespace p2p::alm {
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
                             const LatencyMatrix& latency,
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

  // Exact tree heights (recomputed incrementally as nodes are added).
  std::vector<double> tree_height(P, 0.0);

  // The still-pending members as a compact set (swap-erase removal), so
  // relaxation sweeps are O(|pending|) instead of O(P). pending_dense
  // mirrors pending_ids with each member's dense matrix index, letting the
  // sweeps index raw matrix rows directly.
  std::vector<ParticipantId> pending_ids;
  std::vector<std::uint32_t> pending_dense;
  std::vector<std::uint32_t> pending_pos(P, 0);

  // Lazy-deletion min-heap over (tentative height, id). Relaxations only
  // ever LOWER a member's tentative height, so an entry is current iff it
  // matches height[v] exactly; stale entries are skipped at pop time. Ties
  // break towards the smaller id — the same order the linear scan yields.
  struct HeapEntry {
    double h;
    ParticipantId v;
    bool operator>(const HeapEntry& o) const {
      if (h != o.h) return h > o.h;
      return v > o.v;
    }
  };
  std::vector<HeapEntry> heap;
  heap.reserve(input.members.size() * 2);
  const auto heap_push = [&heap](double h, ParticipantId v) {
    heap.push_back(HeapEntry{h, v});
    std::push_heap(heap.begin(), heap.end(), std::greater<>{});
  };

  // Available helper candidates, ascending (the reference scans ids in
  // increasing order, so score ties resolve to the smallest id).
  std::vector<ParticipantId> helpers = input.helper_candidates;
  std::sort(helpers.begin(), helpers.end());
  helpers.erase(std::unique(helpers.begin(), helpers.end()), helpers.end());
  std::vector<double> to_parent_ms;  // helper search: l(helpers[i], pu)

  // Tree degrees mirrored in a flat array: the fallback scan reads a
  // degree per tree member per pop, and tree.Degree() pays a containment
  // check plus a children-vector header load each call.
  std::vector<int> degree(P, 0);
  const auto free_deg = [&](ParticipantId v) {
    return input.degree_bounds[v] - degree[v];
  };

  // Total free degree across tree members, maintained incrementally: the
  // feasibility rescue consults it on every critical-node event.
  int total_free = input.degree_bounds[input.root];
  const auto attach = [&](ParticipantId parent, ParticipantId v) {
    tree.AddChild(parent, v);
    ++degree[parent];
    ++degree[v];  // v enters with its parent link as the sole edge
    tree_height[v] = tree_height[parent] + latency(parent, v);
    total_free += input.degree_bounds[v] - 2;  // v joins at degree 1; parent +1
  };

  const double* root_row = latency.CoreRow(input.root);
  for (const ParticipantId v : input.members) {
    pending_pos[v] = static_cast<std::uint32_t>(pending_ids.size());
    pending_ids.push_back(v);
    pending_dense.push_back(latency.DenseIndex(v));
    pending[v] = 1;
    height[v] = root_row[pending_dense.back()];
    tent_parent[v] = input.root;
    heap_push(height[v], v);
  }

  std::size_t remaining = input.members.size();
  std::size_t helpers_used = 0;

  const auto drop_pending = [&](ParticipantId v) {
    const std::uint32_t pos = pending_pos[v];
    pending_ids[pos] = pending_ids.back();
    pending_dense[pos] = pending_dense.back();
    pending_pos[pending_ids[pos]] = pos;
    pending_ids.pop_back();
    pending_dense.pop_back();
    pending[v] = 0;
  };

  const auto relax_all_against = [&](ParticipantId w) {
    if (free_deg(w) <= 0) return;
    const double base = tree_height[w];
    // Pending members are all core ids, so w's row (core or satellite —
    // satellite rows hold their core-facing latencies) serves every query.
    const double* row = latency.CoreRow(w);
    for (std::size_t i = 0; i < pending_ids.size(); ++i) {
      const double h = base + row[pending_dense[i]];
      const ParticipantId v = pending_ids[i];
      if (h < height[v]) {
        height[v] = h;
        tent_parent[v] = w;
        heap_push(h, v);
      }
    }
  };

  while (remaining > 0) {
    // Pop u ∈ V−W with minimum tentative height, skipping stale entries.
    ParticipantId u = kNoParticipant;
    for (;;) {
      P2P_CHECK_MSG(!heap.empty(), "min-heap drained with members pending");
      std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
      const HeapEntry top = heap.back();
      heap.pop_back();
      if (pending[top.v] && top.h == height[top.v]) {
        u = top.v;
        break;
      }
    }

    ParticipantId pu = tent_parent[u];
    // The tentative parent may have filled up since this entry was relaxed;
    // recompute the best feasible parent if so. (With all bounds ≥ 2 at
    // least one tree node always has free degree; bandwidth-capped bounds
    // can drop below 2 and genuinely exhaust the members.)
    if (free_deg(pu) <= 0) {
      height[u] = kInf;
      tent_parent[u] = kNoParticipant;
      // In a metric space relaxation rarely beats the root star, so once
      // the root fills this recompute runs for nearly every pop — it is
      // the real inner loop at scale. Scanning column u of the matrix
      // (CoreRow(w)[u]) would miss the cache on every read; by symmetry
      // row u holds the same values and stays resident across the scan.
      const double* urow = latency.CoreRow(u);
      const std::uint32_t core_n =
          static_cast<std::uint32_t>(latency.core_size());
      for (const ParticipantId w : tree.members()) {
        if (free_deg(w) <= 0) continue;
        const std::uint32_t dw = latency.DenseIndex(w);
        const double l = dw < core_n ? urow[dw] : latency(w, u);
        const double h = tree_height[w] + l;
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
    if (options.selection != HelperSelection::kNone && free_deg(pu) == 1) {
      // Mirror Figure 6: trigger when d(parent(u)) == d_bound(parent(u))−1.
      ParticipantId h = kNoParticipant;
      {
        // find_helper(u): conditions 1–3 of §5.2. The v-set is u plus the
        // still-pending nodes whose tentative parent is parent(u) — the
        // nodes that "will potentially be h's future children".
        double best_score = kInf;
        // vs as dense matrix indices: every candidate's row is scanned
        // against them, so resolve the remap once.
        std::vector<std::uint32_t> vs{latency.DenseIndex(u)};
        for (std::size_t i = 0; i < pending_ids.size(); ++i) {
          if (pending_ids[i] != u && tent_parent[pending_ids[i]] == pu)
            vs.push_back(pending_dense[i]);
        }
        // l(c, pu) for every candidate in one call: matrix reads when pu is
        // core, one source column when pu is a spliced helper (satellite).
        to_parent_ms.resize(helpers.size());
        latency.Column(pu, helpers, to_parent_ms.data());
        for (std::size_t i = 0; i < helpers.size(); ++i) {
          const ParticipantId c = helpers[i];
          if (input.degree_bounds[c] < options.helper_min_degree) continue;
          const double to_parent = to_parent_ms[i];
          if (to_parent >= options.helper_radius) continue;
          double score = to_parent;
          if (options.selection == HelperSelection::kMinimaxHeuristic) {
            const double* crow = latency.CoreRow(c);
            double worst = 0.0;
            for (const std::uint32_t v : vs)
              worst = std::max(worst, crow[v]);
            score += worst;
          }
          if (score < best_score) {
            best_score = score;
            h = c;
          }
        }
      }
      // Feasibility rescue: if attaching u directly would consume the
      // tree's LAST free slot while members remain pending, a helper is
      // mandatory — retry the search ignoring the radius (a tree-quality
      // heuristic, not a capacity rule) and preferring capacity gain.
      // This is what keeps sessions schedulable when bandwidth caps make
      // most members leaf-only.
      if (h == kNoParticipant && remaining > 1 && total_free <= 1) {
        double best_score = kInf;
        for (const ParticipantId c : helpers) {
          if (input.degree_bounds[c] < 3) continue;  // must add capacity
          const double score = latency(c, pu) + latency(c, u);
          if (score < best_score) {
            best_score = score;
            h = c;
          }
        }
      }
      if (h != kNoParticipant) {
        // Splice: h becomes the child of parent(u); u becomes h's child.
        attach(pu, h);
        attach(h, u);
        helpers.erase(std::lower_bound(helpers.begin(), helpers.end(), h));
        ++helpers_used;
        spliced = true;
        drop_pending(u);
        --remaining;
        relax_all_against(h);
        relax_all_against(pu);
        relax_all_against(u);
      }
    }

    if (!spliced) {
      attach(pu, u);
      drop_pending(u);
      --remaining;
      relax_all_against(pu);
      relax_all_against(u);
    }

    // Figure 6 re-adjusts against ALL tree members each iteration; the
    // incremental relaxations above cover new/changed nodes, but a member
    // whose chosen parent just lost its last degree must fall back to the
    // next-best feasible option — handled lazily at pop time above.
  }

  AmcastResult result{std::move(tree), 0.0, helpers_used};
  result.height = result.tree.Height(latency);
  return result;
}

AmcastResult BuildAmcastTree(const AmcastInput& input,
                             const LatencyFn& latency,
                             const AmcastOptions& options) {
  ValidateInput(input);
  // Root and members form the matrix core; helper candidates ride along as
  // satellites (and stay out entirely when helper selection is off).
  std::vector<ParticipantId> core;
  core.reserve(1 + input.members.size());
  core.push_back(input.root);
  core.insert(core.end(), input.members.begin(), input.members.end());
  const LatencyMatrix matrix(
      input.degree_bounds.size(), core,
      options.selection != HelperSelection::kNone ? input.helper_candidates
                                                  : std::vector<ParticipantId>{},
      latency);
  return BuildAmcastTree(input, matrix, options);
}

}  // namespace p2p::alm
