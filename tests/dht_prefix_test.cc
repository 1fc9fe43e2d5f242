#include <gtest/gtest.h>

#include "dht/prefix_table.h"
#include "dht/maintenance.h"
#include "dht/ring.h"
#include "sim/simulation.h"
#include "util/rng.h"

namespace p2p::dht {
namespace {

// ----------------------------------------------------------- PrefixTable --

TEST(PrefixTable, DigitExtraction) {
  PrefixTable t(0, /*bits_per_digit=*/4);
  const NodeId id = 0xABCDEF0123456789ull;
  EXPECT_EQ(t.DigitOf(id, 0), 0xAu);
  EXPECT_EQ(t.DigitOf(id, 1), 0xBu);
  EXPECT_EQ(t.DigitOf(id, 15), 0x9u);
  EXPECT_EQ(t.digits(), 16u);
  EXPECT_EQ(t.columns(), 16u);
}

TEST(PrefixTable, SharedPrefixDigits) {
  PrefixTable t(0xAB00000000000000ull);
  EXPECT_EQ(t.SharedPrefixDigits(0xAB00000000000000ull,
                                 0xABFF000000000000ull),
            2u);
  EXPECT_EQ(t.SharedPrefixDigits(0x1234ull, 0x1234ull), 16u);
  EXPECT_EQ(t.SharedPrefixDigits(0x8000000000000000ull, 0), 0u);
}

TEST(PrefixTable, OfferPlacesByPrefixRow) {
  const NodeId owner = 0xA000000000000000ull;
  PrefixTable t(owner);
  // Differs in digit 0 → row 0, column B.
  EXPECT_TRUE(t.Offer(0xB000000000000000ull, 1));
  EXPECT_EQ(t.At(0, 0xB).node, 1u);
  // Shares 1 digit, differs in digit 1 → row 1, column 5.
  EXPECT_TRUE(t.Offer(0xA500000000000000ull, 2));
  EXPECT_EQ(t.At(1, 0x5).node, 2u);
  EXPECT_EQ(t.filled_entries(), 2u);
}

TEST(PrefixTable, FirstComePlacementKeepsExisting) {
  PrefixTable t(0);
  EXPECT_TRUE(t.Offer(0xB000000000000000ull, 1));
  EXPECT_FALSE(t.Offer(0xBF00000000000000ull, 2));  // same row 0 col B
  EXPECT_EQ(t.At(0, 0xB).node, 1u);
}

TEST(PrefixTable, OwnerNeverPlaced) {
  PrefixTable t(42);
  EXPECT_FALSE(t.Offer(42, 7));
  EXPECT_EQ(t.filled_entries(), 0u);
}

TEST(PrefixTable, EntryForRoutesToDigitFix) {
  const NodeId owner = 0xA000000000000000ull;
  PrefixTable t(owner);
  t.Offer(0xB300000000000000ull, 1);
  // Key starting with B: row 0, column B.
  EXPECT_EQ(t.EntryFor(0xBEEF000000000000ull).node, 1u);
  // Key starting with C: empty slot.
  EXPECT_EQ(t.EntryFor(0xC000000000000000ull).node, kNoNode);
  // Key == owner id: no hop needed.
  EXPECT_EQ(t.EntryFor(owner).node, kNoNode);
}

TEST(PrefixTable, InvalidateRemovesEverywhere) {
  PrefixTable t(0);
  t.Offer(0xB000000000000000ull, 5);
  t.Offer(0x0B00000000000000ull, 5);
  EXPECT_EQ(t.filled_entries(), 2u);
  t.Invalidate(5);
  EXPECT_EQ(t.filled_entries(), 0u);
}

TEST(PrefixTable, InvalidBitsRejected) {
  EXPECT_THROW(PrefixTable(0, 0), util::CheckError);
  EXPECT_THROW(PrefixTable(0, 5), util::CheckError);  // 5 does not divide 64
  EXPECT_THROW(PrefixTable(0, 9), util::CheckError);
}

// ------------------------------------------------------- Pastry routing --

Ring MakePastryRing(std::size_t n) {
  Ring ring(16, nullptr, RoutingGeometry::kPastryPrefix);
  for (std::size_t i = 0; i < n; ++i) ring.JoinHashed(i);
  ring.StabilizeAll();
  return ring;
}

TEST(PastryRouting, ReachesResponsibleNode) {
  auto ring = MakePastryRing(200);
  util::Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const NodeId key = rng();
    const RouteResult r = ring.Route(rng.NextBounded(ring.size()), key);
    ASSERT_TRUE(r.success);
    EXPECT_EQ(r.destination, ring.ResponsibleFor(key));
  }
}

TEST(PastryRouting, HopCountLogarithmicWithSteeperBase) {
  // b=4 → log16(N) digit fixes; for 512 nodes that is ~2.25 + last mile.
  auto ring = MakePastryRing(512);
  util::Rng rng(5);
  double hops = 0;
  const int kTrials = 300;
  for (int i = 0; i < kTrials; ++i) {
    const auto r = ring.Route(rng.NextBounded(ring.size()), rng());
    EXPECT_TRUE(r.success);
    hops += static_cast<double>(r.hops);
  }
  EXPECT_LT(hops / kTrials, 5.0);
}

TEST(PastryRouting, PrefixBeatsChordHopCountAtScale) {
  Ring chord(16, nullptr, RoutingGeometry::kChordFingers);
  Ring pastry(16, nullptr, RoutingGeometry::kPastryPrefix);
  for (std::size_t i = 0; i < 1024; ++i) {
    chord.JoinHashed(i);
    pastry.JoinHashed(i);
  }
  chord.StabilizeAll();
  pastry.StabilizeAll();
  auto mean_hops = [](Ring& ring) {
    util::Rng rng(7);
    double hops = 0;
    for (int i = 0; i < 300; ++i)
      hops += static_cast<double>(
          ring.Route(rng.NextBounded(ring.size()), rng()).hops);
    return hops / 300.0;
  };
  // log16 vs log2-ish bases: prefix should not lose.
  EXPECT_LE(mean_hops(pastry), mean_hops(chord) + 0.5);
}

TEST(PastryRouting, SurvivesDetectedFailures) {
  auto ring = MakePastryRing(150);
  util::Rng rng(9);
  for (int i = 0; i < 30; ++i) {
    const auto alive = ring.SortedAlive();
    const NodeIndex victim = alive[rng.NextBounded(alive.size())];
    ring.Fail(victim);
    ring.DetectFailure(victim);
  }
  for (int i = 0; i < 100; ++i) {
    const NodeId key = rng();
    const auto alive = ring.SortedAlive();
    const auto r = ring.Route(alive[rng.NextBounded(alive.size())], key);
    EXPECT_TRUE(r.success);
    EXPECT_EQ(r.destination, ring.ResponsibleFor(key));
  }
}

TEST(PastryRouting, MaintenanceLearnsFromLookups) {
  // After churn, new nodes are absent from old prefix tables; lookup
  // traffic via MaintenanceProtocol should (re)populate slots.
  auto ring = MakePastryRing(100);
  for (std::size_t i = 0; i < 30; ++i) ring.JoinHashed(500 + i);
  std::size_t filled_before = 0;
  for (const NodeIndex n : ring.SortedAlive())
    filled_before += ring.node(n).prefix().filled_entries();
  sim::Simulation sim(11);
  MaintenanceProtocol maint(sim, ring);
  maint.Start();
  sim.RunUntil(20000.0);
  std::size_t filled_after = 0;
  for (const NodeIndex n : ring.SortedAlive())
    filled_after += ring.node(n).prefix().filled_entries();
  EXPECT_GE(filled_after, filled_before);
}

// ------------------------------------------------ tables by geometry --

// Prefix-table heap bytes summed over every node of the ring.
std::size_t PrefixHeapBytes(const Ring& ring) {
  std::size_t bytes = 0;
  for (NodeIndex n = 0; n < ring.size(); ++n)
    bytes += ring.node(n).prefix().HeapBytes();
  return bytes;
}

// Crashes `count` random alive nodes of `ring`, each detected at once.
void FailAndDetect(Ring& ring, std::size_t count, util::Rng& rng) {
  for (std::size_t i = 0; i < count; ++i) {
    const auto alive = ring.SortedAlive();
    const NodeIndex victim = alive[rng.NextBounded(alive.size())];
    ring.Fail(victim);
    ring.DetectFailure(victim);
  }
}

TEST(ChordRing, BuildsAndKeepsNoPrefixTables) {
  // Route on a Chord ring reads fingers and leafsets only, so no path —
  // join, batch join, failure repair, id swap or maintenance lookups —
  // gives a node a prefix table.
  Ring per_host(16);
  for (std::size_t i = 0; i < 300; ++i) per_host.JoinHashed(i);
  EXPECT_EQ(PrefixHeapBytes(per_host), 0u);

  Ring ring(16);
  ring.JoinBatchHashed(0, 300);
  EXPECT_EQ(PrefixHeapBytes(ring), 0u);
  util::Rng rng(21);
  FailAndDetect(ring, 20, rng);
  EXPECT_EQ(PrefixHeapBytes(ring), 0u);
  const auto alive = ring.SortedAlive();
  ring.SwapNodeIds(alive.front(), alive[alive.size() / 2]);
  EXPECT_EQ(PrefixHeapBytes(ring), 0u);

  sim::Simulation sim(11);
  MaintenanceProtocol maint(sim, ring);
  maint.Start();
  sim.RunUntil(20000.0);
  EXPECT_GT(maint.refreshes(), 0u);
  EXPECT_EQ(PrefixHeapBytes(ring), 0u);
  for (int i = 0; i < 100; ++i) {
    const NodeId key = rng();
    const auto live = ring.SortedAlive();
    const RouteResult r = ring.Route(live[rng.NextBounded(live.size())], key);
    ASSERT_TRUE(r.success);
    EXPECT_EQ(r.destination, ring.ResponsibleFor(key));
  }
}

TEST(PastryRouting, EveryPathStillFillsPrefixTables) {
  Ring per_host(16, nullptr, RoutingGeometry::kPastryPrefix);
  for (std::size_t i = 0; i < 300; ++i) per_host.JoinHashed(i);
  // Each joiner builds its own table on arrival (the first has no peers).
  EXPECT_EQ(per_host.node(0).prefix().filled_entries(), 0u);
  for (NodeIndex n = 1; n < per_host.size(); ++n) {
    EXPECT_GT(per_host.node(n).prefix().filled_entries(), 0u) << n;
    EXPECT_GT(per_host.node(n).prefix().HeapBytes(), 0u) << n;
  }
  per_host.StabilizeAll();

  Ring batch(16, nullptr, RoutingGeometry::kPastryPrefix);
  batch.JoinBatchHashed(0, 300);
  const PrefixTable& probe = batch.node(0).prefix();
  for (NodeIndex n = 0; n < batch.size(); ++n) {
    const PrefixTable& a = per_host.node(n).prefix();
    const PrefixTable& b = batch.node(n).prefix();
    ASSERT_GT(b.filled_entries(), 0u) << n;
    ASSERT_EQ(a.filled_entries(), b.filled_entries()) << n;
    for (std::size_t row = 0; row < probe.digits(); ++row) {
      for (std::size_t col = 0; col < probe.columns(); ++col) {
        EXPECT_EQ(a.At(row, col).node, b.At(row, col).node)
            << n << " " << row << " " << col;
      }
    }
  }

  // Failure repair still drops the dead nodes from every table.
  util::Rng rng(23);
  FailAndDetect(batch, 20, rng);
  for (const NodeIndex n : batch.SortedAlive()) {
    const PrefixTable& t = batch.node(n).prefix();
    for (std::size_t row = 0; row < t.digits(); ++row) {
      for (std::size_t col = 0; col < t.columns(); ++col) {
        const NodeIndex e = t.At(row, col).node;
        EXPECT_TRUE(e == kNoNode || batch.node(e).alive()) << n;
      }
    }
  }
  const auto alive = batch.SortedAlive();
  batch.SwapNodeIds(alive.front(), alive[alive.size() / 2]);
  for (const NodeIndex n : batch.SortedAlive())
    EXPECT_GT(batch.node(n).prefix().filled_entries(), 0u) << n;
}

}  // namespace
}  // namespace p2p::dht
