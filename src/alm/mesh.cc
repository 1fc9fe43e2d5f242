#include "alm/mesh.h"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "alm/latency_matrix.h"
#include "obs/scope_timer.h"
#include "util/check.h"
#include "util/rng.h"

namespace p2p::alm {

namespace {

// Working state for one session's mesh, in a dense 0..n-1 index space
// (0 = root, then members in input order).
struct MeshState {
  std::vector<ParticipantId> nodes;  // dense -> participant id
  std::vector<int> cap;              // dense -> degree bound
  std::vector<std::vector<std::uint32_t>> adj;  // dense adjacency lists
  LatencyMatrix matrix;              // all-core over `nodes`

  std::size_t n() const { return nodes.size(); }
  double Lat(std::uint32_t a, std::uint32_t b) const {
    return matrix(nodes[a], nodes[b]);
  }
  bool Linked(std::uint32_t a, std::uint32_t b) const {
    const auto& na = adj[a];
    return std::find(na.begin(), na.end(), b) != na.end();
  }
  bool HasFree(std::uint32_t v) const {
    return adj[v].size() < static_cast<std::size_t>(cap[v]);
  }
  void Link(std::uint32_t a, std::uint32_t b) {
    adj[a].push_back(b);
    adj[b].push_back(a);
  }
  void Unlink(std::uint32_t a, std::uint32_t b) {
    adj[a].erase(std::find(adj[a].begin(), adj[a].end(), b));
    adj[b].erase(std::find(adj[b].begin(), adj[b].end(), a));
  }
  // Highest-latency neighbor of `v` (first-seen on ties).
  std::uint32_t WorstNeighbor(std::uint32_t v) const {
    std::uint32_t worst = adj[v][0];
    double worst_lat = Lat(v, worst);
    for (const std::uint32_t u : adj[v]) {
      const double l = Lat(v, u);
      if (l > worst_lat) {
        worst = u;
        worst_lat = l;
      }
    }
    return worst;
  }
  // Does `target` stay reachable from `from` if the direct edge between
  // them is removed? (Edge-removal connectivity probe for refinement.)
  bool ConnectedWithout(std::uint32_t from, std::uint32_t target) const {
    std::vector<char> seen(n(), 0);
    std::vector<std::uint32_t> stack{from};
    seen[from] = 1;
    while (!stack.empty()) {
      const std::uint32_t v = stack.back();
      stack.pop_back();
      for (const std::uint32_t u : adj[v]) {
        if (v == from && u == target) continue;  // the edge under test
        if (seen[u]) continue;
        if (u == target) return true;
        seen[u] = 1;
        stack.push_back(u);
      }
    }
    return false;
  }
};

std::uint64_t SeedFor(const PlanInput& input, const MeshOptions& options) {
  std::uint64_t h = util::Mix64(options.seed ^ input.root);
  for (const ParticipantId m : input.members)
    h = util::Mix64(h ^ (m + 0x9e3779b97f4a7c15ULL));
  return h;
}

MeshState InitState(const PlanInput& input) {
  P2P_CHECK_MSG(input.true_latency != nullptr || input.oracle != nullptr,
                "MeshPlanner needs a true latency fn or an oracle");
  P2P_CHECK_MSG(input.root < input.degree_bounds.size(),
                "root id out of range");
  MeshState st;
  input.AppendAllMembers(st.nodes);
  st.cap.reserve(st.nodes.size());
  for (const ParticipantId v : st.nodes) {
    P2P_CHECK_MSG(v < input.degree_bounds.size(), "member id out of range");
    P2P_CHECK_MSG(input.degree_bounds[v] >= 1,
                  "mesh needs degree bound >= 1 at participant " << v);
    st.cap.push_back(input.degree_bounds[v]);
  }
  st.adj.assign(st.nodes.size(), {});
  // Truth-only planning: with an oracle and no override fn, the fill runs
  // on the oracle's row kernel (the tree planner's fast path too).
  st.matrix = LatencyMatrix(input.degree_bounds.size(), st.nodes,
                            input.Truth());
  return st;
}

// Build + refine; every join/probe/rewire message is counted into
// `*messages`.
void BuildMesh(MeshState& st, const MeshOptions& options, util::Rng& rng,
               std::size_t* messages) {
  const std::size_t n = st.n();
  if (n < 2) return;

  // Join in random order: each newcomer links to a uniformly random
  // already-connected node with free degree (its bootstrap contact).
  std::vector<std::uint32_t> order(n);
  for (std::uint32_t i = 0; i < n; ++i) order[i] = i;
  rng.Shuffle(order);
  std::vector<char> connected(n, 0);
  connected[order[0]] = 1;
  std::vector<std::uint32_t> pool;
  for (std::size_t k = 1; k < n; ++k) {
    const std::uint32_t v = order[k];
    pool.clear();
    for (std::uint32_t u = 0; u < n; ++u)
      if (connected[u] && st.HasFree(u)) pool.push_back(u);
    P2P_CHECK_MSG(!pool.empty(),
                  "mesh infeasible: every connected node is at its degree "
                  "bound with " << (n - k) << " member(s) still to join");
    const std::uint32_t u = pool[rng.NextBounded(pool.size())];
    st.Link(u, v);
    connected[v] = 1;
    *messages += 1;  // join request accepted
  }

  // Top up toward the target degree with random extra links.
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::size_t target =
        std::min<std::size_t>(options.target_degree,
                              static_cast<std::size_t>(st.cap[i]));
    std::size_t attempts = options.extra_link_attempts;
    while (st.adj[i].size() < target && attempts-- > 0) {
      const auto j = static_cast<std::uint32_t>(rng.NextBounded(n));
      *messages += 1;  // probe
      if (j == i || st.Linked(i, j) || !st.HasFree(j)) continue;
      st.Link(i, j);
      *messages += 1;  // accept
    }
  }

  // Local refinement: probe a random node; if it is closer than the worst
  // current neighbor and dropping that neighbor keeps the mesh connected,
  // rewire.
  for (std::size_t round = 0; round < options.refine_rounds; ++round) {
    for (std::uint32_t i = 0; i < n; ++i) {
      if (st.adj[i].empty()) continue;
      const auto j = static_cast<std::uint32_t>(rng.NextBounded(n));
      *messages += 1;  // probe
      if (j == i || st.Linked(i, j) || !st.HasFree(j)) continue;
      const std::uint32_t worst = st.WorstNeighbor(i);
      if (st.Lat(i, j) >= st.Lat(i, worst)) continue;
      if (!st.ConnectedWithout(i, worst)) continue;
      st.Unlink(i, worst);
      st.Link(i, j);
      *messages += 2;  // teardown + setup
    }
  }
}

// Flood/prune delivery keeps the first copy of a message, so the effective
// dissemination structure from the root is the shortest-path tree over the
// mesh. O(n^2) Dijkstra with dense-index tie-breaks: deterministic settle
// order, parents settled before children (AddChild's contract).
MulticastTree ExtractTree(const MeshState& st, const PlanInput& input,
                          const std::vector<char>& alive) {
  MulticastTree tree(input.degree_bounds.size());
  tree.SetRoot(input.root);
  const std::size_t n = st.n();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(n, kInf);
  std::vector<std::uint32_t> parent(n, 0);
  std::vector<char> settled(n, 0);
  dist[0] = 0.0;
  for (;;) {
    std::uint32_t best = n;
    for (std::uint32_t v = 0; v < n; ++v)
      if (!settled[v] && alive[v] && dist[v] < (best == n ? kInf : dist[best]))
        best = v;
    if (best == n) break;
    settled[best] = 1;
    if (best != 0) tree.AddChild(st.nodes[parent[best]], st.nodes[best]);
    for (const std::uint32_t u : st.adj[best]) {
      if (settled[u] || !alive[u]) continue;
      const double d = dist[best] + st.Lat(best, u);
      if (d < dist[u]) {
        dist[u] = d;
        parent[u] = best;
      }
    }
  }
  return tree;
}

std::vector<char> ReachableFromRoot(const MeshState& st,
                                    const std::vector<char>& alive) {
  std::vector<char> reached(st.n(), 0);
  if (!alive[0]) return reached;
  std::vector<std::uint32_t> stack{0};
  reached[0] = 1;
  while (!stack.empty()) {
    const std::uint32_t v = stack.back();
    stack.pop_back();
    for (const std::uint32_t u : st.adj[v]) {
      if (!alive[u] || reached[u]) continue;
      reached[u] = 1;
      stack.push_back(u);
    }
  }
  return reached;
}

PlanResult ResultFromState(const MeshState& st, const PlanInput& input,
                           const std::vector<char>& alive,
                           std::size_t messages) {
  PlanResult result{ExtractTree(st, input, alive), 0.0, 0.0, 0, {}, 0};
  result.height_true = result.tree.Height(st.matrix);
  result.height_planning = result.height_true;  // mesh plans on truth
  result.helpers_used = 0;                      // members-only overlay
  result.maintenance_messages = messages;
  return result;
}

}  // namespace

PlanResult MeshPlanner::DoPlan(const PlanInput& input) {
  obs::ScopeTimer plan_timer(
      input.metrics != nullptr ? &input.metrics->profile("alm.plan_ms")
                               : nullptr);
  MeshState st = InitState(input);
  util::Rng rng(SeedFor(input, options_));
  std::size_t messages = 0;
  BuildMesh(st, options_, rng, &messages);
  const std::vector<char> alive(st.n(), 1);
  PlanResult result = ResultFromState(st, input, alive, messages);
  if (input.metrics != nullptr) {
    input.metrics->counter("alm.sessions.planned").Inc();
    input.metrics->histogram("alm.plan.height_ms").Add(result.height_true);
    input.metrics->histogram("alm.plan.helpers")
        .Add(static_cast<double>(result.helpers_used));
  }
  return result;
}

RepairOutcome MeshPlanner::Repair(const PlanInput& original,
                                  const std::vector<ParticipantId>& failed) {
  // Rebuild the pre-failure mesh deterministically (same input, same seed,
  // same draws), then continue the RNG stream for the repair probes.
  MeshState st = InitState(original);
  util::Rng rng(SeedFor(original, options_));
  std::size_t build_messages = 0;
  BuildMesh(st, options_, rng, &build_messages);

  const std::size_t n = st.n();
  std::vector<char> alive(n, 1);
  for (const ParticipantId f : failed) {
    P2P_CHECK_MSG(f != original.root, "cannot repair a failed root");
    bool found = false;
    for (std::uint32_t i = 0; i < n; ++i) {
      if (st.nodes[i] == f) {
        alive[i] = 0;
        found = true;
      }
    }
    P2P_CHECK_MSG(found, "failed participant " << f << " is not a member");
  }
  // Drop the failed nodes' edges; their ex-neighbors notice via heartbeat
  // silence, which costs no extra messages in this model.
  for (std::uint32_t i = 0; i < n; ++i) {
    if (alive[i]) continue;
    while (!st.adj[i].empty()) st.Unlink(i, st.adj[i][0]);
  }

  RepairOutcome out;
  {
    const std::vector<char> reached = ReachableFromRoot(st, alive);
    for (std::uint32_t v = 1; v < n; ++v)
      if (alive[v] && !reached[v]) ++out.disrupted;
  }

  // Each disconnected component probes random nodes until it lands on an
  // alive, root-reachable one with spare degree; components repair in
  // parallel, so each pass adds the slowest component's probe time.
  // Reconnecting one component can make another reachable, hence passes.
  for (std::size_t pass = 0; pass < 16; ++pass) {
    const std::vector<char> reached = ReachableFromRoot(st, alive);
    // Components of the unreachable-alive subgraph, by smallest dense id.
    std::vector<char> visited(n, 0);
    std::vector<std::uint32_t> reps;
    for (std::uint32_t v = 0; v < n; ++v) {
      if (!alive[v] || reached[v] || visited[v]) continue;
      reps.push_back(v);
      std::vector<std::uint32_t> stack{v};
      visited[v] = 1;
      while (!stack.empty()) {
        const std::uint32_t w = stack.back();
        stack.pop_back();
        for (const std::uint32_t u : st.adj[w]) {
          if (visited[u] || !alive[u]) continue;
          visited[u] = 1;
          stack.push_back(u);
        }
      }
    }
    if (reps.empty()) break;

    double pass_latency = 0.0;
    for (const std::uint32_t rep : reps) {
      // Make room first: a representative at its bound sheds its worst
      // (in-component) neighbor.
      while (!st.HasFree(rep)) {
        st.Unlink(rep, st.WorstNeighbor(rep));
        out.repair_messages += 1;
      }
      double cost = 0.0;
      bool linked = false;
      const std::size_t max_probes = 4 * n + 16;
      for (std::size_t p = 0; p < max_probes; ++p) {
        const auto t = static_cast<std::uint32_t>(rng.NextBounded(n));
        out.repair_messages += 1;  // probe
        if (!alive[t]) {
          cost += options_.probe_timeout_ms;
          continue;
        }
        cost += 2.0 * st.Lat(rep, t);  // round trip to an alive responder
        if (t == rep || !reached[t] || st.Linked(rep, t) || !st.HasFree(t))
          continue;
        st.Link(rep, t);
        out.repair_messages += 1;  // accept
        linked = true;
        break;
      }
      if (!linked) {
        // Every random probe missed: fall back to a deterministic sweep for
        // a reachable node with spare degree, then (all saturated) evict
        // the nearest reachable node's worst edge to make room.
        std::uint32_t pick = n;
        for (std::uint32_t t = 0; t < n; ++t) {
          if (t == rep || !alive[t] || !reached[t] || st.Linked(rep, t))
            continue;
          if (st.HasFree(t)) {
            pick = t;
            break;
          }
          if (pick == n || st.Lat(rep, t) < st.Lat(rep, pick)) pick = t;
        }
        if (pick != n) {
          if (!st.HasFree(pick)) {
            st.Unlink(pick, st.WorstNeighbor(pick));
            out.repair_messages += 1;
          }
          st.Link(rep, pick);
          cost += 2.0 * st.Lat(rep, pick);
          out.repair_messages += 2;  // request + accept
          linked = true;
        }
      }
      P2P_CHECK_MSG(linked, "mesh repair found no reachable attach point");
      pass_latency = std::max(pass_latency, cost);
    }
    out.repair_latency_ms += pass_latency;
  }
  {
    const std::vector<char> reached = ReachableFromRoot(st, alive);
    for (std::uint32_t v = 0; v < n; ++v)
      P2P_CHECK_MSG(!alive[v] || reached[v],
                    "mesh repair left a survivor disconnected");
  }

  out.plan = ResultFromState(st, original, alive, out.repair_messages);
  return out;
}

}  // namespace p2p::alm
