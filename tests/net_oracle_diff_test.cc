// Differential tests pinning the hierarchical latency oracle to the flat
// all-pairs Dijkstra oracle (the reference). Same spirit as the PR 4
// scheduler A/B tests: randomized topologies across many seeds, exact
// agreement required. Multi-homing is turned up well past the preset level
// so the gateway-pair minimisation (not just the single-gateway fast path)
// is exercised.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "net/latency_oracle.h"
#include "net/transit_stub.h"
#include "test_support.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace p2p {
namespace {

// Varied small shapes so domain sizes, gateway counts and transit meshes
// all change from seed to seed.
net::TransitStubParams VariedParams(std::uint64_t seed) {
  net::TransitStubParams p;
  p.transit_domains = 2 + seed % 2;
  p.transit_routers_per_domain = 2 + seed % 3;
  p.stub_domains_per_transit_router = 1 + seed % 3;
  p.routers_per_stub_domain = 3 + seed % 4;
  p.stub_multihome_prob = 0.4;
  p.end_hosts = 80;
  return p;
}

TEST(OracleDiff, HierarchicalMatchesFlatAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    util::Rng rng_flat(seed), rng_hier(seed);
    const net::TransitStubTopology topo_f =
        net::GenerateTransitStub(VariedParams(seed), rng_flat);
    const net::TransitStubTopology topo_h =
        net::GenerateTransitStub(VariedParams(seed), rng_hier);
    const net::LatencyOracle flat(topo_f);
    const net::LatencyOracle hier(
        topo_h, net::OracleOptions{.kind = net::OracleKind::kHierarchical});
    ASSERT_EQ(hier.kind(), net::OracleKind::kHierarchical);
    EXPECT_GT(hier.stub_domain_count(), 0u) << "seed " << seed;
    EXPECT_GE(hier.gateway_count(), hier.stub_domain_count()) << "seed " << seed;
    const std::size_t n = topo_f.router_count();
    for (net::NodeIdx a = 0; a < n; ++a) {
      for (net::NodeIdx b = a; b < n; ++b) {
        ASSERT_NEAR(hier.RouterDistance(a, b), flat.RouterDistance(a, b), 1e-9)
            << "seed " << seed << " routers " << a << "," << b;
      }
    }
    for (std::size_t a = 0; a < topo_f.host_count(); a += 7) {
      for (std::size_t b = a; b < topo_f.host_count(); b += 11) {
        ASSERT_NEAR(hier.Latency(a, b), flat.Latency(a, b), 1e-9)
            << "seed " << seed << " hosts " << a << "," << b;
      }
    }
  }
}

// Index of the first k where row[k] is not the double Latency(a, bs[k])
// returns, or bs.size() when the whole row matches bit for bit.
std::size_t FirstRowMismatch(const net::LatencyOracle& oracle, net::HostIdx a,
                             const std::vector<net::HostIdx>& bs,
                             const std::vector<double>& row) {
  for (std::size_t k = 0; k < bs.size(); ++k)
    if (row[k] != oracle.Latency(a, bs[k])) return k;
  return bs.size();
}

// Stub routers with a link leaving their stub domain, per stub domain.
std::vector<std::size_t> GatewaysPerStubDomain(
    const net::TransitStubTopology& topo) {
  std::vector<std::size_t> gateways;
  for (net::NodeIdx r = 0; r < topo.router_count(); ++r) {
    if (topo.is_transit[r]) continue;
    const std::size_t d = topo.domain_of[r];
    if (d >= gateways.size()) gateways.resize(d + 1, 0);
    for (const net::Graph::Neighbor& nb : topo.routers.Neighbors(r)) {
      if (topo.is_transit[nb.to] || topo.domain_of[nb.to] != d) {
        ++gateways[d];
        break;
      }
    }
  }
  return gateways;
}

TEST(OracleDiff, LatencyRowMatchesLatencyBitForBit) {
  // Every row host against every host, itself included, on both backends
  // in both precisions. The counters make sure the rows cover the cases
  // the kernels branch on.
  std::size_t same_router = 0, same_domain = 0, multi_gateway = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    util::Rng rng(seed);
    const net::TransitStubTopology topo =
        net::GenerateTransitStub(VariedParams(seed), rng);
    const std::vector<std::size_t> gateways = GatewaysPerStubDomain(topo);
    const std::size_t hosts = topo.host_count();
    std::vector<net::HostIdx> all(hosts);
    for (net::HostIdx h = 0; h < hosts; ++h) all[h] = h;
    for (net::HostIdx a = 0; a < hosts; ++a) {
      for (net::HostIdx b = 0; b < hosts; ++b) {
        const net::NodeIdx ra = topo.host_router[a], rb = topo.host_router[b];
        if (a != b && ra == rb) ++same_router;
        if (ra == rb || topo.is_transit[ra] || topo.is_transit[rb]) continue;
        if (topo.domain_of[ra] == topo.domain_of[rb]) {
          ++same_domain;
        } else if (gateways[topo.domain_of[ra]] > 1 &&
                   gateways[topo.domain_of[rb]] > 1) {
          ++multi_gateway;
        }
      }
    }
    for (const net::OracleKind kind :
         {net::OracleKind::kFlat, net::OracleKind::kHierarchical}) {
      for (const net::OraclePrecision precision :
           {net::OraclePrecision::kF64, net::OraclePrecision::kF32}) {
        const net::LatencyOracle oracle(
            topo, net::OracleOptions{.kind = kind, .precision = precision});
        std::vector<double> row(hosts);
        for (net::HostIdx a = 0; a < hosts; ++a) {
          oracle.LatencyRow(a, all, row.data());
          const std::size_t k = FirstRowMismatch(oracle, a, all, row);
          if (k < hosts) {
            EXPECT_EQ(row[k], oracle.Latency(a, all[k]))
                << "seed " << seed << " kind " << static_cast<int>(kind)
                << " f32 " << oracle.uses_float_storage() << " hosts " << a
                << "," << all[k];
            return;
          }
        }
        // Order and repeats are the caller's: a reversed row with the row
        // host twice gives the same doubles.
        std::vector<net::HostIdx> shuffled(all.rbegin(), all.rend());
        shuffled.push_back(0);
        shuffled.push_back(0);
        std::vector<double> out(shuffled.size());
        oracle.LatencyRow(0, shuffled, out.data());
        EXPECT_EQ(FirstRowMismatch(oracle, 0, shuffled, out), shuffled.size())
            << "seed " << seed;
        oracle.LatencyRow(0, {}, nullptr);  // an empty row writes nothing
      }
    }
  }
  EXPECT_GT(same_router, 0u);
  EXPECT_GT(same_domain, 0u);
  EXPECT_GT(multi_gateway, 0u);
}

TEST(OracleDiff, LatencyRowRejectsOutOfRangeIds) {
  util::Rng rng(7);
  const net::TransitStubTopology topo =
      net::GenerateTransitStub(VariedParams(7), rng);
  const net::HostIdx n = topo.host_count();
  for (const net::OracleKind kind :
       {net::OracleKind::kFlat, net::OracleKind::kHierarchical}) {
    const net::LatencyOracle oracle(topo, net::OracleOptions{.kind = kind});
    std::vector<double> out(2);
    const std::vector<net::HostIdx> ok{0, 1};
    const std::vector<net::HostIdx> bad{0, n};
    EXPECT_THROW(oracle.LatencyRow(n, ok, out.data()), util::CheckError);
    EXPECT_THROW(oracle.LatencyRow(0, bad, out.data()), util::CheckError);
    EXPECT_THROW(oracle.Latency(0, n), util::CheckError);
  }
}

TEST(OracleDiff, ParallelHierarchicalMatchesSequential) {
  util::Rng rng_a(99), rng_b(99);
  const net::TransitStubParams params = VariedParams(99);
  const net::TransitStubTopology topo_a = net::GenerateTransitStub(params, rng_a);
  const net::TransitStubTopology topo_b = net::GenerateTransitStub(params, rng_b);
  util::ThreadPool pool(4);
  const net::LatencyOracle seq(
      topo_a, net::OracleOptions{.kind = net::OracleKind::kHierarchical});
  const net::LatencyOracle par(
      topo_b, net::OracleOptions{.kind = net::OracleKind::kHierarchical,
                                 .pool = &pool});
  const std::size_t n = topo_a.router_count();
  for (net::NodeIdx a = 0; a < n; ++a)
    for (net::NodeIdx b = a; b < n; ++b)
      ASSERT_EQ(par.RouterDistance(a, b), seq.RouterDistance(a, b))
          << a << "," << b;
}

TEST(OracleDiff, FloatStorageWithinMilliTolerance) {
  for (std::uint64_t seed : {3u, 11u, 19u}) {
    util::Rng rng_d(seed), rng_f(seed), rng_hf(seed);
    const net::TransitStubParams params = VariedParams(seed);
    const net::TransitStubTopology topo_d =
        net::GenerateTransitStub(params, rng_d);
    const net::TransitStubTopology topo_f =
        net::GenerateTransitStub(params, rng_f);
    const net::TransitStubTopology topo_hf =
        net::GenerateTransitStub(params, rng_hf);
    const net::LatencyOracle ref(topo_d);
    const net::LatencyOracle flat_f32(
        topo_f, net::OracleOptions{.precision = net::OraclePrecision::kF32});
    const net::LatencyOracle hier_f32(
        topo_hf, net::OracleOptions{.kind = net::OracleKind::kHierarchical,
                                    .precision = net::OraclePrecision::kF32});
    EXPECT_TRUE(flat_f32.uses_float_storage());
    EXPECT_LT(flat_f32.MemoryBytes(), ref.MemoryBytes());
    const std::size_t n = topo_d.router_count();
    for (net::NodeIdx a = 0; a < n; ++a) {
      for (net::NodeIdx b = a; b < n; ++b) {
        const double want = ref.RouterDistance(a, b);
        ASSERT_NEAR(flat_f32.RouterDistance(a, b), want, 1e-3) << a << "," << b;
        ASSERT_NEAR(hier_f32.RouterDistance(a, b), want, 1e-3) << a << "," << b;
      }
    }
  }
}

TEST(OracleDiff, HierarchicalUsesFarLessMemoryOnPaperShape) {
  util::Rng rng_f(7), rng_h(7);
  net::TransitStubParams params;  // paper shape: 600 routers
  params.end_hosts = 200;
  const net::TransitStubTopology topo_f = net::GenerateTransitStub(params, rng_f);
  const net::TransitStubTopology topo_h = net::GenerateTransitStub(params, rng_h);
  const net::LatencyOracle flat(topo_f);
  const net::LatencyOracle hier(
      topo_h, net::OracleOptions{.kind = net::OracleKind::kHierarchical});
  // 600 routers flat ≈ 1.4 MB of triangle; the core is 24 transit + 72
  // gateways. The tentpole's ≥5x floor at the 10k preset is bench-gated;
  // here we just pin the order-of-magnitude win on the paper shape too.
  EXPECT_LT(hier.MemoryBytes() * 5, flat.MemoryBytes());
  EXPECT_EQ(hier.core_node_count(),
            params.total_transit_routers() + hier.gateway_count());
  EXPECT_EQ(hier.stub_domain_count(), params.total_stub_domains());
}

TEST(OracleDiff, BuildRecordsMetrics) {
  util::Rng rng(5);
  const net::TransitStubTopology topo =
      net::GenerateTransitStub(testing::SmallTopologyParams(), rng);
  obs::MetricsRegistry metrics;
  const net::LatencyOracle hier(
      topo, net::OracleOptions{.kind = net::OracleKind::kHierarchical,
                               .metrics = &metrics});
  EXPECT_EQ(metrics.Value("net.oracle.kind"), 1.0);
  EXPECT_EQ(metrics.Value("net.oracle.routers"),
            static_cast<double>(topo.router_count()));
  EXPECT_EQ(metrics.Value("net.oracle.stub_domains"),
            static_cast<double>(hier.stub_domain_count()));
  EXPECT_EQ(metrics.Value("net.oracle.bytes"),
            static_cast<double>(hier.MemoryBytes()));
  EXPECT_FALSE(metrics.profiles().empty());
}

}  // namespace
}  // namespace p2p
