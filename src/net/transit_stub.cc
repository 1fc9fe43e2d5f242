#include "net/transit_stub.h"

#include <algorithm>
#include <numeric>

#include "util/check.h"

namespace p2p::net {
namespace {

// Wire `members` into a connected random subgraph: random spanning tree
// (each node links to a uniformly chosen earlier node in a shuffled order)
// plus extra edges with probability `extra_prob` per unordered pair.
void WireConnected(Graph& g, const std::vector<NodeIdx>& members,
                   double latency_ms, double extra_prob, util::Rng& rng) {
  P2P_CHECK(!members.empty());
  std::vector<NodeIdx> order = members;
  rng.Shuffle(order);
  for (std::size_t i = 1; i < order.size(); ++i) {
    const std::size_t j = rng.NextBounded(i);
    g.AddEdge(order[i], order[j], latency_ms);
  }
  if (extra_prob <= 0.0) return;
  for (std::size_t i = 0; i < members.size(); ++i) {
    for (std::size_t j = i + 1; j < members.size(); ++j) {
      if (!g.HasEdge(members[i], members[j]) && rng.Bernoulli(extra_prob)) {
        g.AddEdge(members[i], members[j], latency_ms);
      }
    }
  }
}

// RNG-draw-identical twin of WireConnected that records the edges instead
// of inserting them. Exact because each domain is wired exactly once over a
// fresh node block — `members` have no pre-existing edges among themselves,
// so WireConnected's HasEdge could only ever see this call's own
// spanning-tree edges, replicated by the local scan below (extra edges
// never collide: each unordered pair is visited once).
void PlanConnected(const std::vector<NodeIdx>& members, double extra_prob,
                   util::Rng& rng,
                   std::vector<std::pair<NodeIdx, NodeIdx>>& out) {
  P2P_CHECK(!members.empty());
  std::vector<NodeIdx> order = members;
  rng.Shuffle(order);
  const std::size_t tree_begin = out.size();
  for (std::size_t i = 1; i < order.size(); ++i) {
    const std::size_t j = rng.NextBounded(i);
    out.emplace_back(order[i], order[j]);
  }
  if (extra_prob <= 0.0) return;
  const std::size_t tree_end = out.size();
  auto has_tree_edge = [&](NodeIdx a, NodeIdx b) {
    for (std::size_t k = tree_begin; k < tree_end; ++k) {
      if ((out[k].first == a && out[k].second == b) ||
          (out[k].first == b && out[k].second == a))
        return true;
    }
    return false;
  };
  for (std::size_t i = 0; i < members.size(); ++i) {
    for (std::size_t j = i + 1; j < members.size(); ++j) {
      if (!has_tree_edge(members[i], members[j]) &&
          rng.Bernoulli(extra_prob)) {
        out.emplace_back(members[i], members[j]);
      }
    }
  }
}

}  // namespace

TransitStubParams PresetParams(TopologyPreset preset) {
  TransitStubParams p;  // defaults are the paper's §5.2 shape
  switch (preset) {
    case TopologyPreset::kPaper1200:
      break;
    case TopologyPreset::kHosts10k:
      p.transit_domains = 8;
      p.transit_routers_per_domain = 8;       // 64 transit routers
      p.stub_domains_per_transit_router = 4;  // 256 stub domains
      p.routers_per_stub_domain = 16;         // 4096 stub routers
      p.stub_multihome_prob = 0.3;
      p.end_hosts = 10000;
      break;
    case TopologyPreset::kHosts50k:
      p.transit_domains = 10;
      p.transit_routers_per_domain = 10;      // 100 transit routers
      p.stub_domains_per_transit_router = 6;  // 600 stub domains
      p.routers_per_stub_domain = 12;         // 7200 stub routers
      p.stub_multihome_prob = 0.3;
      p.end_hosts = 50000;
      break;
    case TopologyPreset::kHosts100k:
      p.transit_domains = 12;
      p.transit_routers_per_domain = 12;      // 144 transit routers
      p.stub_domains_per_transit_router = 6;  // 864 stub domains
      p.routers_per_stub_domain = 12;         // 10368 stub routers
      p.stub_multihome_prob = 0.3;
      p.end_hosts = 100000;
      break;
    case TopologyPreset::kHosts250k:
      p.transit_domains = 14;
      p.transit_routers_per_domain = 14;      // 196 transit routers
      p.stub_domains_per_transit_router = 7;  // 1372 stub domains
      p.routers_per_stub_domain = 12;         // 16464 stub routers
      p.stub_multihome_prob = 0.3;
      p.end_hosts = 250000;
      break;
  }
  return p;
}

TopologyPreset ParseTopologyPreset(const std::string& name) {
  if (name == "1200" || name == "paper") return TopologyPreset::kPaper1200;
  if (name == "10k" || name == "10000") return TopologyPreset::kHosts10k;
  if (name == "50k" || name == "50000") return TopologyPreset::kHosts50k;
  if (name == "100k" || name == "100000") return TopologyPreset::kHosts100k;
  if (name == "250k" || name == "250000") return TopologyPreset::kHosts250k;
  throw util::UsageError("unknown topology preset '" + name +
                         "' (1200|10k|50k|100k|250k)");
}

const char* TopologyPresetName(TopologyPreset preset) {
  switch (preset) {
    case TopologyPreset::kPaper1200: return "1200";
    case TopologyPreset::kHosts10k: return "10k";
    case TopologyPreset::kHosts50k: return "50k";
    case TopologyPreset::kHosts100k: return "100k";
    case TopologyPreset::kHosts250k: return "250k";
  }
  return "?";
}

TransitStubTopology GenerateTransitStub(const TransitStubParams& params,
                                        util::Rng& rng,
                                        util::ThreadPool* pool) {
  P2P_CHECK(params.transit_domains > 0);
  P2P_CHECK(params.transit_routers_per_domain > 0);
  P2P_CHECK(params.routers_per_stub_domain > 0);
  P2P_CHECK(params.last_hop_min_ms <= params.last_hop_max_ms);

  TransitStubTopology topo;
  topo.params = params;
  topo.routers = Graph(params.total_routers());
  topo.is_transit.assign(params.total_routers(), false);
  topo.domain_of.assign(params.total_routers(), 0);

  // Transit routers occupy indices [0, T); stub routers follow.
  const std::size_t kTransit = params.total_transit_routers();
  for (std::size_t i = 0; i < kTransit; ++i) {
    topo.is_transit[i] = true;
    topo.domain_of[i] = i / params.transit_routers_per_domain;
  }

  // 1. Wire each transit domain internally.
  std::vector<std::vector<NodeIdx>> transit_domains(params.transit_domains);
  for (std::size_t d = 0; d < params.transit_domains; ++d) {
    for (std::size_t k = 0; k < params.transit_routers_per_domain; ++k)
      transit_domains[d].push_back(d * params.transit_routers_per_domain + k);
    WireConnected(topo.routers, transit_domains[d], params.transit_link_ms,
                  params.intra_transit_extra_edge_prob, rng);
  }

  // 2. Interconnect transit domains: random spanning tree over domains, one
  //    gateway link per tree edge, endpoints chosen at random per domain.
  {
    std::vector<std::size_t> order(params.transit_domains);
    std::iota(order.begin(), order.end(), 0);
    rng.Shuffle(order);
    for (std::size_t i = 1; i < order.size(); ++i) {
      const std::size_t a = order[i];
      const std::size_t b = order[rng.NextBounded(i)];
      const NodeIdx ra =
          transit_domains[a][rng.NextBounded(transit_domains[a].size())];
      const NodeIdx rb =
          transit_domains[b][rng.NextBounded(transit_domains[b].size())];
      topo.routers.AddEdge(ra, rb, params.transit_link_ms);
    }
  }

  // 3. Stub domains: each transit router owns `stub_domains_per_transit_
  //    router` domains of `routers_per_stub_domain` routers; the domain is
  //    internally wired with 10 ms links and attached to its transit router
  //    by a 25 ms link from a random member. With stub_multihome_prob > 0 a
  //    domain may gain a second attach link to a different transit router
  //    (two gateways); prob 0 draws no RNG and reproduces the paper shape.
  //    The RNG plan below draws in exactly the order the serial generator
  //    always did; only the draw-free edge materialisation fans out across
  //    the pool (disjoint per-domain node sets, one writer per adjacency
  //    list), so topologies are byte-identical at any thread count.
  const std::size_t kDomains = params.total_stub_domains();
  struct StubPlan {
    std::size_t edge_begin = 0, edge_end = 0;  // span in intra_edges
    NodeIdx owner = 0, attach = 0;
    NodeIdx owner2 = 0, attach2 = 0;
    bool multihomed = false;
  };
  std::vector<StubPlan> plans(kDomains);
  std::vector<std::pair<NodeIdx, NodeIdx>> intra_edges;
  std::size_t next_router = kTransit;
  std::size_t stub_domain_id = 0;
  std::vector<NodeIdx> members;
  for (std::size_t t = 0; t < kTransit; ++t) {
    for (std::size_t s = 0; s < params.stub_domains_per_transit_router; ++s) {
      members.clear();
      members.reserve(params.routers_per_stub_domain);
      for (std::size_t k = 0; k < params.routers_per_stub_domain; ++k) {
        const NodeIdx r = next_router++;
        topo.domain_of[r] = stub_domain_id;
        members.push_back(r);
      }
      StubPlan& plan = plans[stub_domain_id];
      plan.edge_begin = intra_edges.size();
      PlanConnected(members, params.intra_stub_extra_edge_prob, rng,
                    intra_edges);
      plan.edge_end = intra_edges.size();
      plan.owner = t;
      plan.attach = members[rng.NextBounded(members.size())];
      if (params.stub_multihome_prob > 0.0 && kTransit > 1 &&
          rng.Bernoulli(params.stub_multihome_prob)) {
        NodeIdx t2 = rng.NextBounded(kTransit - 1);
        if (t2 >= t) ++t2;  // any transit router except the owner
        plan.multihomed = true;
        plan.owner2 = t2;
        plan.attach2 = members[rng.NextBounded(members.size())];
      }
      ++stub_domain_id;
    }
  }
  P2P_CHECK(next_router == params.total_routers());
  auto wire_domains = [&](std::size_t begin, std::size_t end) {
    for (std::size_t d = begin; d < end; ++d) {
      for (std::size_t k = plans[d].edge_begin; k < plans[d].edge_end; ++k)
        topo.routers.AddEdgeRaw(intra_edges[k].first, intra_edges[k].second,
                                params.stub_link_ms);
    }
  };
  if (pool != nullptr && kDomains >= 64) {
    pool->ParallelForRange(kDomains, 16, wire_domains);
  } else {
    wire_domains(0, kDomains);
  }
  topo.routers.BumpEdgeCount(intra_edges.size());
  // Attach links touch shared transit-router adjacency lists: applied
  // serially, in the same global domain order (and thus the same per-node
  // adjacency order) as the fully serial generator.
  for (const StubPlan& plan : plans) {
    topo.routers.AddEdge(plan.owner, plan.attach,
                         params.stub_transit_link_ms);
    if (plan.multihomed)
      topo.routers.AddEdge(plan.owner2, plan.attach2,
                           params.stub_transit_link_ms);
  }
  P2P_CHECK_MSG(topo.routers.IsConnected(), "generated topology disconnected");

  // 4. End systems: attach to random stub routers with a 3–8 ms last hop.
  topo.host_router.reserve(params.end_hosts);
  topo.host_last_hop_ms.reserve(params.end_hosts);
  const std::size_t kStub = params.total_stub_routers();
  for (std::size_t h = 0; h < params.end_hosts; ++h) {
    topo.host_router.push_back(kTransit + rng.NextBounded(kStub));
    topo.host_last_hop_ms.push_back(
        rng.Uniform(params.last_hop_min_ms, params.last_hop_max_ms));
  }
  return topo;
}

}  // namespace p2p::net
