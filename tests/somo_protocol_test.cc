#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dht/heartbeat.h"
#include "dht/ring.h"
#include "sim/simulation.h"
#include "somo/somo.h"
#include "util/check.h"

namespace p2p::somo {
namespace {

NodeReport BasicReport(sim::Simulation& sim, const dht::Ring& ring,
                       dht::NodeIndex n) {
  NodeReport r;
  r.node = n;
  r.host = ring.node(n).host();
  r.generated_at = sim.now();
  r.degrees.total = 4;
  return r;
}

struct SomoFixture {
  sim::Simulation sim{21};
  dht::Ring ring{8};

  explicit SomoFixture(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) ring.JoinHashed(i);
    ring.StabilizeAll();
  }

  // SomoProtocol holds references and is immovable; hand out a pointer.
  std::unique_ptr<SomoProtocol> MakeProtocol(SomoConfig cfg) {
    return std::make_unique<SomoProtocol>(
        sim, ring, cfg,
        [this](dht::NodeIndex n) { return BasicReport(sim, ring, n); });
  }
};

// -------------------------------------------------------- AggregateReport --

TEST(AggregateReport, AddAndMergeTrackFreshness) {
  AggregateReport a;
  NodeReport r1;
  r1.node = 1;
  r1.generated_at = 10.0;
  a.Add(r1);
  NodeReport r2;
  r2.node = 2;
  r2.generated_at = 5.0;
  a.Add(r2);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_DOUBLE_EQ(a.oldest, 5.0);
  EXPECT_DOUBLE_EQ(a.newest, 10.0);

  AggregateReport b;
  NodeReport r3;
  r3.node = 3;
  r3.generated_at = 20.0;
  b.Add(r3);
  a.Merge(b);
  EXPECT_EQ(a.size(), 3u);
  EXPECT_DOUBLE_EQ(a.newest, 20.0);
}

TEST(AggregateReport, MergeEmptyIsNoop) {
  AggregateReport a, empty;
  NodeReport r;
  r.generated_at = 1.0;
  a.Add(r);
  a.Merge(empty);
  EXPECT_EQ(a.size(), 1u);
  EXPECT_DOUBLE_EQ(a.oldest, 1.0);
}

// ------------------------------------------------------------ DegreeTable --

TEST(DegreeTable, AvailabilityAccounting) {
  DegreeTable t;
  t.total = 4;
  t.taken.push_back({7, 2});   // session 7 at priority 2
  t.taken.push_back({9, 3});   // session 9 at priority 3
  EXPECT_EQ(t.used(), 2);
  EXPECT_EQ(t.free(), 2);
  EXPECT_EQ(t.AvailableFor(1), 4);  // can preempt both
  EXPECT_EQ(t.AvailableFor(2), 3);  // can preempt priority 3 only
  EXPECT_EQ(t.AvailableFor(3), 2);  // free only
  EXPECT_EQ(t.UsedAt(2), 1);
  EXPECT_EQ(t.HeldBy(9), 1);
}

// ----------------------------------------------- unsynchronised gathering --

TEST(SomoProtocol, UnsyncGatherReachesCompleteRootView) {
  SomoFixture f(40);
  SomoConfig cfg;
  cfg.fanout = 4;
  cfg.report_interval_ms = 1000.0;
  auto somo = f.MakeProtocol(cfg);
  somo->Start();
  // depth·T suffices for data to climb the whole hierarchy.
  const double horizon =
      (somo->tree().depth() + 2) * cfg.report_interval_ms + 1000.0;
  f.sim.RunUntil(horizon);
  EXPECT_TRUE(somo->RootViewComplete());
  EXPECT_EQ(somo->RootReport().size(), 40u);
}

TEST(SomoProtocol, UnsyncStalenessBoundedByDepthTimesInterval) {
  SomoFixture f(64);
  SomoConfig cfg;
  cfg.fanout = 8;
  cfg.report_interval_ms = 500.0;
  auto somo = f.MakeProtocol(cfg);
  somo->Start();
  f.sim.RunUntil(20000.0);
  ASSERT_TRUE(somo->RootViewComplete());
  // Paper bound: log_k(N)·T (+ slack for transmission delays).
  const double bound =
      (static_cast<double>(somo->tree().depth()) + 1.0) *
          cfg.report_interval_ms +
      1000.0;
  EXPECT_LE(somo->RootStalenessMs(), bound);
}

// Per-level freshness gauges (somo.level<k>.age_ms, root at level 0). A
// node keeps only the oldest report time of its last aggregate, and a
// parent's aggregate holds an older-or-equal copy of each child's, so the
// age never falls on the way up: the root's level reads the root view's
// staleness and the deepest level, all leaves, is at most one interval old.
TEST(SomoProtocol, LevelAgeGaugesGrowTowardTheRoot) {
  SomoFixture f(64);
  SomoConfig cfg;
  cfg.fanout = 4;
  cfg.report_interval_ms = 500.0;
  auto somo = f.MakeProtocol(cfg);
  somo->Start();
  f.sim.RunUntil(20000.0);
  ASSERT_TRUE(somo->RootViewComplete());
  const std::size_t depth = somo->tree().depth();
  ASSERT_GE(depth, 3u);
  const auto& gauges = f.sim.metrics().gauges();
  const auto level_gauge = [](std::size_t k) {
    return "somo.level" + std::to_string(k) + ".age_ms";
  };
  std::vector<double> age;
  for (std::size_t k = 0; k < depth; ++k) {
    const auto it = gauges.find(level_gauge(k));
    ASSERT_NE(it, gauges.end()) << level_gauge(k);
    age.push_back(it->second.value());
  }
  EXPECT_EQ(gauges.count(level_gauge(depth)), 0u);
  EXPECT_EQ(age[0], f.sim.metrics().Value("somo.root.staleness_ms"));
  for (std::size_t k = 1; k < depth; ++k)
    EXPECT_LE(age[k], age[k - 1]) << level_gauge(k);
  EXPECT_LE(age[depth - 1], cfg.report_interval_ms);
  EXPECT_GT(age[0], age[depth - 1]);
}

TEST(SomoProtocol, StalenessInfiniteBeforeFirstGather) {
  SomoFixture f(10);
  auto somo = f.MakeProtocol(SomoConfig{});
  EXPECT_TRUE(std::isinf(somo->RootStalenessMs()));
  EXPECT_FALSE(somo->RootViewComplete());
}

// ------------------------------------------------- synchronised gathering --

TEST(SomoProtocol, SyncGatherCompletesWithinOneInterval) {
  SomoFixture f(50);
  SomoConfig cfg;
  cfg.fanout = 8;
  cfg.report_interval_ms = 5000.0;
  cfg.synchronized_gather = true;
  auto somo = f.MakeProtocol(cfg);
  somo->Start();
  f.sim.RunUntil(cfg.report_interval_ms - 1.0);  // within the first cycle
  EXPECT_TRUE(somo->RootViewComplete());
  // Synchronised staleness ≈ 2·t_hop·depth, far below T.
  EXPECT_LT(somo->RootStalenessMs(), cfg.report_interval_ms);
}

TEST(SomoProtocol, SyncGatherCountsRounds) {
  SomoFixture f(30);
  SomoConfig cfg;
  cfg.synchronized_gather = true;
  cfg.report_interval_ms = 1000.0;
  auto somo = f.MakeProtocol(cfg);
  somo->Start();
  // Each cascade needs ~2·depth·hop ≈ 1.2–1.6 s; rounds fire every 1 s and
  // overlap, completing independently.
  f.sim.RunUntil(8000.0);
  EXPECT_GE(somo->gathers_completed(), 6u);
}

// ------------------------------------------------------------ self-repair --

TEST(SomoProtocol, RebuildAfterFailureRestoresCompleteView) {
  SomoFixture f(40);
  SomoConfig cfg;
  cfg.fanout = 4;
  cfg.report_interval_ms = 500.0;
  auto somo = f.MakeProtocol(cfg);
  somo->Start();
  f.sim.RunUntil(15000.0);
  ASSERT_TRUE(somo->RootViewComplete());

  // Crash three nodes (including, possibly, SOMO internal-node owners).
  for (const dht::NodeIndex victim : {3u, 17u, 29u}) {
    f.ring.Fail(victim);
    f.ring.DetectFailure(victim);
  }
  somo->Rebuild();
  f.sim.RunUntil(f.sim.now() + 15000.0);
  EXPECT_TRUE(somo->RootViewComplete());
  EXPECT_EQ(somo->RootReport().size(), 37u);
}

// Rebuild starts every logical node's state over: the child aggregates go,
// and only the root view survives until the gather climbs the new tree.
TEST(SomoProtocol, RebuildKeepsOnlyTheRootView) {
  SomoConfig cfg;
  cfg.fanout = 4;
  cfg.report_interval_ms = 500.0;
  SomoFixture f(40);
  auto somo = f.MakeProtocol(cfg);
  somo->Start();
  f.sim.RunUntil(15000.0);
  ASSERT_TRUE(somo->RootViewComplete());
  const std::vector<std::uint8_t> view = EncodeAggregate(somo->RootReport());

  somo->Rebuild();  // same membership, so the same tree
  EXPECT_EQ(EncodeAggregate(somo->RootReport()), view);
  // Byte for byte what a started instance that has not gathered yet holds,
  // plus the surviving root view.
  SomoFixture twin(40);
  auto fresh = twin.MakeProtocol(cfg);
  fresh->Start();
  ASSERT_EQ(fresh->tree().size(), somo->tree().size());
  EXPECT_EQ(somo->MemoryBytes(),
            fresh->MemoryBytes() + somo->RootReport().MemoryBytes() -
                sizeof(AggregateReport));

  f.sim.RunUntil(f.sim.now() + 15000.0);
  EXPECT_TRUE(somo->RootViewComplete());
  EXPECT_EQ(somo->RootReport().size(), 40u);
}

TEST(SomoProtocol, QueryFromNodeRoutesToRootOwner) {
  SomoFixture f(60);
  SomoConfig cfg;
  auto somo = f.MakeProtocol(cfg);
  somo->Start();
  f.sim.RunUntil(30000.0);
  const auto qr = somo->QueryFromNode(7);
  EXPECT_TRUE(qr.route.success);
  EXPECT_EQ(qr.route.destination, somo->tree().node(somo->tree().root()).owner);
  EXPECT_FALSE(qr.view->empty());
}

TEST(SomoProtocol, OptimizeRootMovesRootToMostCapableNode) {
  SomoFixture f(30);
  SomoConfig cfg;
  auto somo = f.MakeProtocol(cfg);
  // Capacity: node 13 is the beefiest machine.
  const dht::NodeIndex new_root = somo->OptimizeRoot(
      [](dht::NodeIndex n) { return n == 13 ? 100.0 : 1.0; });
  EXPECT_EQ(new_root, 13u);
  EXPECT_EQ(somo->tree().node(somo->tree().root()).owner, 13u);
  f.ring.CheckInvariants();
}

TEST(SomoProtocol, OptimizeRootIsNoopWhenAlreadyOptimal) {
  SomoFixture f(20);
  auto somo = f.MakeProtocol(SomoConfig{});
  const dht::NodeIndex owner = somo->tree().node(somo->tree().root()).owner;
  const dht::NodeIndex after = somo->OptimizeRoot(
      [owner](dht::NodeIndex n) { return n == owner ? 10.0 : 1.0; });
  EXPECT_EQ(after, owner);
}

TEST(SomoProtocol, StopSilencesTimers) {
  SomoFixture f(20);
  SomoConfig cfg;
  cfg.report_interval_ms = 100.0;
  auto somo = f.MakeProtocol(cfg);
  somo->Start();
  f.sim.RunUntil(2000.0);
  somo->Stop();
  const std::size_t msgs = somo->messages_sent();
  f.sim.RunUntil(10000.0);
  EXPECT_EQ(somo->messages_sent(), msgs);
}

}  // namespace
}  // namespace p2p::somo
