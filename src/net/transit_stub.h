// GT-ITM-style two-layer transit-stub topology generator (substitution for
// the GT-ITM tool the paper uses; see DESIGN.md §4).
//
// The paper's configuration (§5.2): 600 routers — 24 transit routers and
// 576 stub routers — with link latencies of 100 ms for intra-transit-domain
// links, 25 ms for stub-transit links and 10 ms for intra-stub-domain links;
// 1200 end systems attached to random stub routers with a 3–8 ms last hop.
// The defaults below produce exactly that shape: 4 transit domains × 6
// transit routers, each transit router owning 3 stub domains of 8 routers
// (24 × 24 = 576 stub routers).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/graph.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace p2p::net {

struct TransitStubParams {
  // Router-level structure.
  std::size_t transit_domains = 4;
  std::size_t transit_routers_per_domain = 6;
  std::size_t stub_domains_per_transit_router = 3;
  std::size_t routers_per_stub_domain = 8;

  // Extra-edge probabilities beyond the connectivity backbone (each domain
  // and the inter-domain graph is first wired as a random spanning tree).
  double intra_transit_extra_edge_prob = 0.5;
  double intra_stub_extra_edge_prob = 0.3;

  // Probability that a stub domain is multi-homed: it gets a second
  // stub-transit attach link, from a random member to a random transit
  // router other than its owner. 0 (the paper's shape) draws no RNG, so
  // default topologies are bit-identical to the single-homed generator.
  // Multi-homed domains have two gateway routers, which is what makes the
  // hierarchical latency oracle's gateway-pair minimisation non-trivial.
  double stub_multihome_prob = 0.0;

  // Link latency classes (ms). Inter-transit-domain links use the
  // intra-transit class as well, matching the paper's three-class model.
  double transit_link_ms = 100.0;
  double stub_transit_link_ms = 25.0;
  double stub_link_ms = 10.0;

  // End systems.
  std::size_t end_hosts = 1200;
  double last_hop_min_ms = 3.0;
  double last_hop_max_ms = 8.0;

  std::size_t total_transit_routers() const {
    return transit_domains * transit_routers_per_domain;
  }
  std::size_t total_stub_routers() const {
    return total_transit_routers() * stub_domains_per_transit_router *
           routers_per_stub_domain;
  }
  std::size_t total_routers() const {
    return total_transit_routers() + total_stub_routers();
  }
  std::size_t total_stub_domains() const {
    return total_transit_routers() * stub_domains_per_transit_router;
  }
};

// Scaling presets for full-stack experiments. kPaper1200 is the §5.2
// configuration (600 routers / 1200 hosts); the larger presets grow the
// router substrate sublinearly with the host count and multi-home ~30% of
// stub domains so gateway-pair routing is actually exercised.
enum class TopologyPreset {
  kPaper1200,  //    600 routers,   1200 hosts (paper §5.2, single-homed)
  kHosts10k,   //  4,160 routers,  10000 hosts
  kHosts50k,   //  7,300 routers,  50000 hosts
  kHosts100k,  // 10,512 routers, 100000 hosts
  kHosts250k,  // 16,660 routers, 250000 hosts (stretch)
};

TransitStubParams PresetParams(TopologyPreset preset);

// "1200" | "10k" | "50k" | "100k" | "250k" (throws util::UsageError on
// anything else).
TopologyPreset ParseTopologyPreset(const std::string& name);
const char* TopologyPresetName(TopologyPreset preset);

// Index of an end system (0 .. end_hosts-1); routers use net::NodeIdx.
using HostIdx = std::size_t;

struct TransitStubTopology {
  TransitStubParams params;
  Graph routers;  // router-level graph; transit routers come first

  // Per-router metadata.
  std::vector<bool> is_transit;       // size = total_routers()
  std::vector<std::size_t> domain_of;  // transit-domain or stub-domain index

  // End systems.
  std::vector<NodeIdx> host_router;     // attachment router per host
  std::vector<double> host_last_hop_ms;  // 3–8 ms access delay per host

  std::size_t router_count() const { return routers.node_count(); }
  std::size_t host_count() const { return host_router.size(); }
};

// Generate a topology; deterministic for a given rng state. When `pool` is
// non-null the stub-domain edge materialisation fans out across it; every
// RNG draw happens in a serial planning pass first, so the result is
// byte-identical to the serial path at any thread count.
TransitStubTopology GenerateTransitStub(const TransitStubParams& params,
                                        util::Rng& rng,
                                        util::ThreadPool* pool = nullptr);

}  // namespace p2p::net
