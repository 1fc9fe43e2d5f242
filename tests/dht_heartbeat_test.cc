#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "dht/churn.h"
#include "dht/heartbeat.h"
#include "dht/ring.h"
#include "sim/simulation.h"

namespace p2p::dht {
namespace {

struct HeartbeatFixture {
  sim::Simulation sim{123};
  Ring ring{8};

  explicit HeartbeatFixture(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) ring.JoinHashed(i);
    ring.StabilizeAll();
  }
};

TEST(Heartbeat, TimeoutMustExceedPeriod) {
  HeartbeatFixture f(4);
  HeartbeatConfig cfg;
  cfg.period_ms = 1000;
  cfg.timeout_ms = 500;
  EXPECT_THROW(HeartbeatProtocol(f.sim, f.ring, cfg), util::CheckError);
}

TEST(Heartbeat, DeliversToAllLeafsetMembers) {
  HeartbeatFixture f(10);
  HeartbeatProtocol hb(f.sim, f.ring);
  hb.Start();
  f.sim.RunUntil(3000.0);
  EXPECT_GT(hb.heartbeats_sent(), 0u);
  EXPECT_GT(hb.heartbeats_delivered(), 0u);
  // Without failures every sent heartbeat is eventually delivered; allow
  // the in-flight tail at the horizon.
  EXPECT_GE(hb.heartbeats_sent(), hb.heartbeats_delivered());
}

TEST(Heartbeat, ObserverSeesSendAndReceiveTimes) {
  HeartbeatFixture f(6);
  HeartbeatProtocol hb(f.sim, f.ring);
  int count = 0;
  hb.AddObserver([&](NodeIndex from, NodeIndex to, sim::Time send_t,
                     sim::Time recv_t) {
    EXPECT_NE(from, to);
    EXPECT_GE(recv_t, send_t);
    ++count;
  });
  hb.Start();
  f.sim.RunUntil(2500.0);
  EXPECT_GT(count, 0);
}

TEST(Heartbeat, DetectsCrashedNodeWithinTimeout) {
  HeartbeatFixture f(16);
  HeartbeatConfig cfg;
  cfg.period_ms = 500.0;
  cfg.timeout_ms = 1600.0;
  HeartbeatProtocol hb(f.sim, f.ring, cfg);
  NodeIndex dead = kNoNode;
  sim::Time detected_at = -1.0;
  hb.AddFailureObserver([&](NodeIndex, NodeIndex d, sim::Time when) {
    dead = d;
    detected_at = when;
  });
  hb.Start();
  f.sim.RunUntil(2000.0);
  f.ring.Fail(3);
  f.sim.RunUntil(8000.0);
  EXPECT_EQ(dead, 3u);
  EXPECT_EQ(hb.failures_detected(), 1u);
  // Detection no earlier than the timeout after the crash, and not much
  // later than timeout + one period of checking slack.
  EXPECT_GE(detected_at, 2000.0 + 0.0);
  EXPECT_LE(detected_at, 2000.0 + cfg.timeout_ms + 2 * cfg.period_ms);
  // Ring-wide cleanup happened.
  for (const NodeIndex n : f.ring.SortedAlive())
    EXPECT_FALSE(f.ring.node(n).leafset().Contains(f.ring.node(3).id()));
}

TEST(Heartbeat, EachFailureDetectedOnce) {
  HeartbeatFixture f(20);
  HeartbeatConfig cfg;
  cfg.period_ms = 400.0;
  cfg.timeout_ms = 1300.0;
  HeartbeatProtocol hb(f.sim, f.ring, cfg);
  int notifications = 0;
  hb.AddFailureObserver(
      [&](NodeIndex, NodeIndex, sim::Time) { ++notifications; });
  hb.Start();
  f.sim.RunUntil(1000.0);
  f.ring.Fail(2);
  f.ring.Fail(9);
  f.sim.RunUntil(10000.0);
  EXPECT_EQ(notifications, 2);
  EXPECT_EQ(hb.failures_detected(), 2u);
}

TEST(Heartbeat, SensorModeObservesWithoutRepairing) {
  // auto_repair=false turns the detector into a pure sensor: timeouts
  // still count, fire observers, and populate the per-node suspect sets
  // that flow into in-band telemetry — but nobody calls DetectFailure, so
  // the dead member stays in its neighbours' leafsets until an external
  // reactor (the alert loop) evicts it.
  HeartbeatFixture f(16);
  HeartbeatConfig cfg;
  cfg.period_ms = 500.0;
  cfg.timeout_ms = 1600.0;
  cfg.suspect_alive = true;
  cfg.auto_repair = false;
  HeartbeatProtocol hb(f.sim, f.ring, cfg);
  NodeIndex dead = kNoNode;
  hb.AddFailureObserver(
      [&](NodeIndex, NodeIndex d, sim::Time) { dead = d; });
  hb.Start();
  f.sim.RunUntil(2000.0);
  f.ring.Fail(3);
  f.sim.RunUntil(8000.0);
  EXPECT_EQ(dead, 3u);
  EXPECT_EQ(hb.failures_detected(), 1u);
  // No ring-wide cleanup: the victim is still in leafsets, only suspected.
  std::size_t holders = 0, suspectors = 0;
  for (const NodeIndex n : f.ring.SortedAlive()) {
    if (f.ring.node(n).leafset().Contains(f.ring.node(3).id())) ++holders;
    if (hb.suspected_count(n) > 0) ++suspectors;
  }
  EXPECT_GT(holders, 0u);
  EXPECT_GT(suspectors, 0u);
  // The external reactor's move: evict, then nobody holds the victim.
  f.ring.DetectFailure(3);
  for (const NodeIndex n : f.ring.SortedAlive())
    EXPECT_FALSE(f.ring.node(n).leafset().Contains(f.ring.node(3).id()));
}

TEST(Heartbeat, StopCancelsFutureBeats) {
  HeartbeatFixture f(8);
  HeartbeatProtocol hb(f.sim, f.ring);
  hb.Start();
  f.sim.RunUntil(1500.0);
  const std::size_t sent = hb.heartbeats_sent();
  hb.Stop();
  f.sim.RunUntil(10000.0);
  EXPECT_EQ(hb.heartbeats_sent(), sent);
}

TEST(Heartbeat, JoinedNodeStartsBeating) {
  HeartbeatFixture f(8);
  HeartbeatProtocol hb(f.sim, f.ring);
  hb.Start();
  f.sim.RunUntil(1000.0);
  const NodeIndex n = f.ring.JoinHashed(99);
  hb.OnNodeJoined(n);
  std::size_t from_new = 0;
  hb.AddObserver([&](NodeIndex from, NodeIndex, sim::Time, sim::Time) {
    if (from == n) ++from_new;
  });
  f.sim.RunUntil(4000.0);
  EXPECT_GT(from_new, 0u);
}

// Beat schedule properties, recorded through the delivery observer: each
// node beats at `first`, within one period of its start or join, then at
// first += period with no gaps; nodes due at the same time beat in row
// (insertion) order; a crashed node sends nothing after the crash. The
// clock starts at 2^50 ms, where adjacent doubles lie 0.25 ms apart, so
// random phases within the 2 ms period collide and ties really occur.
TEST(Heartbeat, BeatsFollowPhasePeriodAndRowOrderThroughCrashAndJoin) {
  constexpr sim::Time kStart = 1125899906842624.0;  // 2^50 ms
  constexpr sim::Time kJoin = kStart + 9.0;
  constexpr sim::Time kCrash = kStart + 17.0;
  constexpr sim::Time kEnd = kStart + 40.0;
  constexpr NodeIndex kVictim = 3;
  constexpr std::size_t kJoinHost = 99;
  HeartbeatFixture f(24);
  f.sim.transport().EnablePerHostStats(kJoinHost + 1);
  HeartbeatConfig cfg;
  cfg.period_ms = 2.0;
  cfg.timeout_ms = 7.0;
  cfg.default_delay_ms = 1.0;  // fixed: delivery order is send order
  HeartbeatProtocol hb(f.sim, f.ring, cfg);
  // One entry per delivery: (sender, send time), in delivery order.
  std::vector<std::pair<NodeIndex, sim::Time>> seen;
  hb.AddObserver([&](NodeIndex from, NodeIndex, sim::Time send, sim::Time) {
    seen.emplace_back(from, send);
  });
  f.sim.RunUntil(kStart);
  hb.Start();
  f.sim.RunUntil(kJoin);
  const NodeIndex joiner = f.ring.JoinHashed(kJoinHost);
  hb.OnNodeJoined(joiner);
  f.sim.RunUntil(kCrash);
  f.ring.Fail(kVictim);
  const std::size_t victim_host = f.ring.node(kVictim).host();
  const std::size_t victim_sent =
      f.sim.transport().host_stats(victim_host).sent;
  f.sim.RunUntil(kEnd);

  // A beat's deliveries are contiguous: collapse them to one (node, time).
  std::vector<std::pair<NodeIndex, sim::Time>> beats;
  for (const auto& d : seen)
    if (beats.empty() || beats.back() != d) beats.push_back(d);

  // Row order: Start inserts nodes in index order and the joiner last, so
  // beats at equal times must come in ascending node index.
  std::size_t ties = 0;
  for (std::size_t i = 1; i < beats.size(); ++i) {
    ASSERT_LE(beats[i - 1].second, beats[i].second) << "beat " << i;
    if (beats[i - 1].second != beats[i].second) continue;
    ++ties;
    EXPECT_LT(beats[i - 1].first, beats[i].first) << "beat " << i;
  }
  EXPECT_GT(ties, 0u) << "no equal-time beats: the row order went untested";

  // Per node: first within one period of its start, then += period up to
  // the last beat whose deliveries land by the horizon (or the crash).
  for (NodeIndex n = 0; n < f.ring.size(); ++n) {
    std::vector<sim::Time> times;
    for (const auto& b : beats)
      if (b.first == n) times.push_back(b.second);
    ASSERT_FALSE(times.empty()) << "node " << n << " never beat";
    const sim::Time start = n == joiner ? kJoin : kStart;
    const sim::Time last_delivery = n == kVictim ? kCrash : kEnd;
    EXPECT_GE(times.front(), start) << "node " << n;
    EXPECT_LE(times.front(), start + cfg.period_ms) << "node " << n;
    std::vector<sim::Time> want;
    for (sim::Time t = times.front();
         t + cfg.default_delay_ms <= last_delivery; t += cfg.period_ms)
      want.push_back(t);
    EXPECT_EQ(times, want) << "node " << n;
  }

  // The crashed node sent nothing after the crash.
  EXPECT_GT(victim_sent, 0u);
  EXPECT_EQ(f.sim.transport().host_stats(victim_host).sent, victim_sent);
  EXPECT_EQ(hb.failures_detected(), 1u);
}

// Stop() must also cancel the walker event itself: once the in-flight
// deliveries land, the queue is empty.
TEST(Heartbeat, StopCancelsBatchedWalker) {
  HeartbeatFixture f(8);
  HeartbeatProtocol hb(f.sim, f.ring);
  hb.Start();
  f.sim.RunUntil(1500.0);
  const std::size_t sent = hb.heartbeats_sent();
  hb.Stop();
  f.sim.RunUntil(10000.0);
  EXPECT_EQ(hb.heartbeats_sent(), sent);
  EXPECT_EQ(f.sim.pending_events(), 0u);
}

// ---------------------------------------------------------------- Churn --

TEST(Churn, JoinsAndFailuresOccurAtConfiguredRates) {
  HeartbeatFixture f(30);
  ChurnProcess::Config cfg;
  cfg.mean_join_interval_ms = 500.0;
  cfg.mean_fail_interval_ms = 500.0;
  for (std::size_t h = 100; h < 200; ++h) cfg.join_hosts.push_back(h);
  ChurnProcess churn(f.sim, f.ring, cfg);
  churn.Start();
  f.sim.RunUntil(20000.0);
  churn.Stop();
  // ~40 of each expected; allow wide tolerance.
  EXPECT_GT(churn.joins(), 15u);
  EXPECT_GT(churn.failures(), 15u);
  f.ring.StabilizeAll();
  f.ring.CheckInvariants();
}

TEST(Churn, NeverFailsBelowMinAlive) {
  HeartbeatFixture f(6);
  ChurnProcess::Config cfg;
  cfg.mean_fail_interval_ms = 10.0;  // aggressive
  cfg.min_alive = 4;
  ChurnProcess churn(f.sim, f.ring, cfg);
  churn.Start();
  f.sim.RunUntil(5000.0);
  EXPECT_GE(f.ring.alive_count(), 4u);
}

TEST(Churn, CallbacksFire) {
  HeartbeatFixture f(10);
  ChurnProcess::Config cfg;
  cfg.mean_join_interval_ms = 200.0;
  cfg.join_hosts = {50, 51, 52};
  ChurnProcess churn(f.sim, f.ring, cfg);
  int joined = 0;
  churn.on_join = [&](NodeIndex) { ++joined; };
  churn.Start();
  f.sim.RunUntil(5000.0);
  EXPECT_GT(joined, 0);
  EXPECT_EQ(static_cast<std::size_t>(joined), churn.joins());
}

}  // namespace
}  // namespace p2p::dht
