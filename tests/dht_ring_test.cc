#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "dht/ring.h"
#include "util/check.h"
#include "util/rng.h"

namespace p2p::dht {
namespace {

Ring MakeRing(std::size_t n, std::size_t leafset = 8) {
  Ring ring(leafset);
  for (std::size_t i = 0; i < n; ++i) ring.JoinHashed(i);
  return ring;
}

TEST(Ring, LeafsetSizeMustBeEven) {
  EXPECT_THROW(Ring(3), util::CheckError);
  EXPECT_THROW(Ring(0), util::CheckError);
}

TEST(Ring, JoinAssignsSequentialIndices) {
  Ring ring(4);
  EXPECT_EQ(ring.JoinHashed(10), 0u);
  EXPECT_EQ(ring.JoinHashed(11), 1u);
  EXPECT_EQ(ring.alive_count(), 2u);
}

TEST(Ring, DuplicateIdRejected) {
  Ring ring(4);
  ring.Join(0, 12345);
  EXPECT_THROW(ring.Join(1, 12345), util::CheckError);
}

TEST(Ring, InvariantsHoldAfterJoins) {
  auto ring = MakeRing(50);
  ring.CheckInvariants();
}

TEST(Ring, SortedAliveIsSortedAndComplete) {
  auto ring = MakeRing(30);
  const auto sorted = ring.SortedAlive();
  EXPECT_EQ(sorted.size(), 30u);
  for (std::size_t i = 1; i < sorted.size(); ++i)
    EXPECT_LT(ring.node(sorted[i - 1]).id(), ring.node(sorted[i]).id());
}

TEST(Ring, ResponsibleForOwnIdIsSelf) {
  auto ring = MakeRing(40);
  for (const NodeIndex n : ring.SortedAlive())
    EXPECT_EQ(ring.ResponsibleFor(ring.node(n).id()), n);
}

TEST(Ring, ResponsibleForMatchesZoneDefinition) {
  // zone(x) = (pred, x]: every key in that arc must resolve to x.
  auto ring = MakeRing(20);
  const auto sorted = ring.SortedAlive();
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    const NodeId prev =
        ring.node(sorted[(i + sorted.size() - 1) % sorted.size()]).id();
    const NodeId own = ring.node(sorted[i]).id();
    const NodeId midpoint = prev + ClockwiseDistance(prev, own) / 2 + 1;
    EXPECT_EQ(ring.ResponsibleFor(midpoint), sorted[i]);
  }
}

TEST(Ring, RouteReachesResponsibleNode) {
  auto ring = MakeRing(100, 16);
  ring.StabilizeAll();
  util::Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const NodeId key = rng();
    const NodeIndex from = rng.NextBounded(ring.size());
    const RouteResult r = ring.Route(from, key);
    EXPECT_TRUE(r.success);
    EXPECT_EQ(r.destination, ring.ResponsibleFor(key));
  }
}

TEST(Ring, RouteHopCountIsLogarithmic) {
  auto ring = MakeRing(256, 16);
  ring.StabilizeAll();
  util::Rng rng(6);
  double total_hops = 0;
  const int kTrials = 300;
  for (int i = 0; i < kTrials; ++i) {
    const RouteResult r =
        ring.Route(rng.NextBounded(ring.size()), rng());
    EXPECT_TRUE(r.success);
    total_hops += static_cast<double>(r.hops);
  }
  // log2(256) = 8; greedy Chord-style routing averages ~log2(N)/2.
  EXPECT_LT(total_hops / kTrials, 8.0);
}

TEST(Ring, RouteFromOwnerIsZeroHops) {
  auto ring = MakeRing(10);
  const NodeId key = 777;
  const NodeIndex owner = ring.ResponsibleFor(key);
  const RouteResult r = ring.Route(owner, key);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.hops, 0u);
}

TEST(Ring, LeaveRemovesFromNeighbours) {
  auto ring = MakeRing(20);
  const auto sorted = ring.SortedAlive();
  const NodeIndex victim = sorted[5];
  const NodeId victim_id = ring.node(victim).id();
  ring.Leave(victim);
  EXPECT_EQ(ring.alive_count(), 19u);
  for (const NodeIndex n : ring.SortedAlive())
    EXPECT_FALSE(ring.node(n).leafset().Contains(victim_id));
  ring.CheckInvariants();
}

TEST(Ring, FailedNodeStaysInTablesUntilDetection) {
  auto ring = MakeRing(20);
  const auto sorted = ring.SortedAlive();
  const NodeIndex victim = sorted[3];
  const NodeId victim_id = ring.node(victim).id();
  // The victim's ring neighbours hold it in their leafsets.
  const NodeIndex succ = sorted[4];
  EXPECT_TRUE(ring.node(succ).leafset().Contains(victim_id));
  ring.Fail(victim);
  EXPECT_TRUE(ring.node(succ).leafset().Contains(victim_id));  // stale
  ring.DetectFailure(victim);
  EXPECT_FALSE(ring.node(succ).leafset().Contains(victim_id));
  ring.CheckInvariants();
}

TEST(Ring, RoutingSurvivesUndetectedFailures) {
  auto ring = MakeRing(100, 16);
  ring.StabilizeAll();
  util::Rng rng(7);
  // Crash 10 nodes without detection: stale entries remain.
  for (int i = 0; i < 10; ++i) {
    const auto alive = ring.SortedAlive();
    ring.Fail(alive[rng.NextBounded(alive.size())]);
  }
  for (int i = 0; i < 100; ++i) {
    const auto alive = ring.SortedAlive();
    const NodeIndex from = alive[rng.NextBounded(alive.size())];
    const RouteResult r = ring.Route(from, rng());
    EXPECT_TRUE(r.success);
  }
}

TEST(Ring, DoubleFailRejected) {
  auto ring = MakeRing(10);
  ring.Fail(0);
  EXPECT_THROW(ring.Fail(0), util::CheckError);
}

TEST(Ring, JoinAfterFailuresKeepsInvariants) {
  auto ring = MakeRing(30);
  ring.Fail(2);
  ring.DetectFailure(2);
  ring.Fail(7);
  ring.DetectFailure(7);
  for (std::size_t i = 0; i < 10; ++i) ring.JoinHashed(100 + i);
  ring.StabilizeAll();
  ring.CheckInvariants();
}

TEST(Ring, SwapNodeIdsExchangesIdsAndRepairs) {
  auto ring = MakeRing(25);
  const NodeId id_a = ring.node(3).id();
  const NodeId id_b = ring.node(9).id();
  ring.SwapNodeIds(3, 9);
  EXPECT_EQ(ring.node(3).id(), id_b);
  EXPECT_EQ(ring.node(9).id(), id_a);
  ring.CheckInvariants();
  // The responsible node for the old ids follows the swap.
  EXPECT_EQ(ring.ResponsibleFor(id_a), 9u);
  EXPECT_EQ(ring.ResponsibleFor(id_b), 3u);
}

TEST(Ring, SwapWithSelfIsNoop) {
  auto ring = MakeRing(10);
  const NodeId id = ring.node(4).id();
  ring.SwapNodeIds(4, 4);
  EXPECT_EQ(ring.node(4).id(), id);
}

TEST(Ring, RouteAccumulatesLatencyWithOracle) {
  // Build a tiny topology-backed ring to exercise the latency path.
  util::Rng rng(11);
  net::TransitStubParams params;
  params.transit_domains = 2;
  params.transit_routers_per_domain = 2;
  params.stub_domains_per_transit_router = 2;
  params.routers_per_stub_domain = 3;
  params.end_hosts = 64;
  const auto topo = net::GenerateTransitStub(params, rng);
  const net::LatencyOracle oracle(topo);
  Ring ring(8, &oracle);
  for (std::size_t h = 0; h < 64; ++h) ring.JoinHashed(h);
  ring.StabilizeAll();
  const RouteResult r = ring.Route(0, ring.node(40).id());
  EXPECT_TRUE(r.success);
  if (r.hops > 0) {
    EXPECT_GT(r.latency_ms, 0.0);
  }
}

TEST(Ring, SingleNodeOwnsEverything) {
  Ring ring(4);
  ring.JoinHashed(0);
  EXPECT_EQ(ring.ResponsibleFor(0), 0u);
  EXPECT_EQ(ring.ResponsibleFor(~0ull), 0u);
  const RouteResult r = ring.Route(0, 12345);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.hops, 0u);
}

TEST(Ring, TwoNodesSplitTheSpace) {
  Ring ring(4);
  const NodeIndex a = ring.JoinHashed(0);
  const NodeIndex b = ring.JoinHashed(1);
  const NodeId ida = ring.node(a).id();
  const NodeId idb = ring.node(b).id();
  EXPECT_EQ(ring.ResponsibleFor(ida), a);
  EXPECT_EQ(ring.ResponsibleFor(idb), b);
  // zone(b) = (id(a), id(b)]: the key right after a's id belongs to b.
  EXPECT_EQ(ring.ResponsibleFor(ida + 1), b);
  ring.CheckInvariants();
}

// Two rings are interchangeable for every consumer we have: same ids/hosts
// per index, same leafsets, same routing decisions.
void ExpectSameEndState(const Ring& a, const Ring& b) {
  ASSERT_EQ(a.size(), b.size());
  a.CheckInvariants();
  b.CheckInvariants();
  for (NodeIndex n = 0; n < a.size(); ++n) {
    EXPECT_EQ(a.node(n).id(), b.node(n).id()) << "node " << n;
    EXPECT_EQ(a.node(n).host(), b.node(n).host());
    const auto ma = a.node(n).leafset().Members();
    const auto mb = b.node(n).leafset().Members();
    ASSERT_EQ(ma.size(), mb.size()) << "node " << n;
    for (std::size_t i = 0; i < ma.size(); ++i) {
      EXPECT_EQ(ma[i].id, mb[i].id);
      EXPECT_EQ(ma[i].node, mb[i].node);
    }
  }
  for (NodeId key : {0ull, 1ull << 40, ~0ull, 0x1234567890abcdefull}) {
    for (NodeIndex from = 0; from < a.size(); from += 7) {
      const RouteResult ra = a.Route(from, key);
      const RouteResult rb = b.Route(from, key);
      EXPECT_EQ(ra.success, rb.success);
      EXPECT_EQ(ra.hops, rb.hops);
      EXPECT_EQ(ra.destination, rb.destination);
    }
  }
}

// The setup-time fast path must be behaviour-invisible: JoinBatchHashed
// lands the exact end state of the per-host JoinHashed loop (same
// collision probe sequence) followed by one StabilizeAll.
void ExpectBatchMatchesPerHost(std::size_t hosts, std::size_t leafset) {
  Ring per_host(leafset);
  for (std::size_t i = 0; i < hosts; ++i) per_host.JoinHashed(i);
  per_host.StabilizeAll();

  Ring batch(leafset);
  EXPECT_EQ(batch.JoinBatchHashed(0, hosts), 0u);
  EXPECT_EQ(batch.alive_count(), hosts);
  ExpectSameEndState(per_host, batch);
}

TEST(Ring, BatchJoinMatchesPerHostJoins) { ExpectBatchMatchesPerHost(60, 8); }

TEST(Ring, BatchJoinMatchesPerHostJoinsAtScale) {
  // Every per-host join refills 2r + 1 leafsets by Leafset::Insert, and
  // each insert offers the candidate to both sides, so at this scale every
  // side overflows and drops its farthest entry on almost every insert.
  ExpectBatchMatchesPerHost(5000, 32);
}

TEST(Ring, JoinCacheMatchesBruteForceUnderRandomChurn) {
  // Join keeps the sorted-membership cache valid by ordered insertion;
  // every other membership change invalidates it. A seeded interleaving of
  // all of them must leave SortedAlive() equal to a fresh sort of the live
  // nodes after every step, and the ring converged whenever no crash is
  // awaiting detection.
  Ring ring(8);
  util::Rng rng(2024);
  std::size_t next_host = 0;
  for (; next_host < 24; ++next_host) ring.JoinHashed(next_host);
  std::vector<NodeIndex> undetected;
  const auto random_alive = [&] {
    const std::vector<NodeIndex> alive = ring.SortedAlive();
    return alive[rng.NextBounded(alive.size())];
  };
  for (int step = 0; step < 600; ++step) {
    const std::uint64_t op = rng.NextBounded(10);
    if (op < 4 || ring.alive_count() < 12) {
      ring.JoinHashed(next_host++);
    } else if (op < 6) {
      const NodeIndex n = random_alive();
      ring.Fail(n);
      undetected.push_back(n);
    } else if (op < 7) {
      ring.Leave(random_alive());
    } else if (op < 9) {
      if (undetected.empty()) continue;
      const std::size_t i = rng.NextBounded(undetected.size());
      ring.DetectFailure(undetected[i]);
      undetected.erase(undetected.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ring.SwapNodeIds(random_alive(), random_alive());
    }

    std::vector<std::pair<NodeId, NodeIndex>> live;
    for (NodeIndex n = 0; n < ring.size(); ++n)
      if (ring.node(n).alive()) live.emplace_back(ring.node(n).id(), n);
    std::sort(live.begin(), live.end());
    const std::vector<NodeIndex> sorted = ring.SortedAlive();
    ASSERT_EQ(sorted.size(), live.size()) << "step " << step;
    for (std::size_t i = 0; i < live.size(); ++i)
      ASSERT_EQ(sorted[i], live[i].second) << "step " << step << " rank " << i;
    ASSERT_EQ(ring.alive_count(), live.size());
    if (undetected.empty()) {
      ASSERT_NO_THROW(ring.CheckInvariants()) << "step " << step;
    }
  }
}

TEST(Ring, BatchJoinOnPopulatedRingMatches) {
  // Batch-joining into a ring that already has members (a second wave).
  Ring per_host(8);
  for (std::size_t i = 0; i < 10; ++i) per_host.JoinHashed(i);
  per_host.StabilizeAll();
  for (std::size_t i = 10; i < 40; ++i) per_host.JoinHashed(i);
  per_host.StabilizeAll();

  Ring batch(8);
  batch.JoinBatchHashed(0, 10);
  EXPECT_EQ(batch.JoinBatchHashed(10, 30), 10u);
  ExpectSameEndState(per_host, batch);
}

}  // namespace
}  // namespace p2p::dht
