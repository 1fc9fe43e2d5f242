// dht::LivenessTable and the heartbeat detector built on it, against the
// sorted-row store and the protocol that used it
// (tests/reference/heartbeat_liveness_ref.h):
//  * seeded random Set/Find sequences, with receivers hearing more senders
//    than a block holds (the spill path) and the table re-reserved for a
//    larger ring mid-sequence, as a Stop/Start after joins does;
//  * a seeded churn script — jitter, loss, a crash wave, a partition that
//    heals, joins, a second crash wave and a Stop/Start — with
//    suspect_alive and auto_repair each on and off: the failure and
//    suspicion observer logs, the counters and the metrics snapshot match
//    the reference byte for byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "dht/heartbeat.h"
#include "dht/liveness.h"
#include "dht/ring.h"
#include "reference/heartbeat_liveness_ref.h"
#include "sim/simulation.h"
#include "util/rng.h"

namespace p2p::dht {
namespace {

std::string Hex(sim::Time t) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", t);
  return buf;
}

TEST(LivenessTable, MatchesSortedRowsOnRandomSetFindSequences) {
  constexpr std::size_t kSlots = 8;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    LivenessTable table(kSlots);
    heartbeatref::SortedLiveness ref;
    util::Rng rng(seed);
    std::size_t nodes = 24;
    table.Reserve(nodes, nodes / 2);
    ref.Reserve(nodes, nodes / 2);
    for (std::size_t step = 0; step < 20000; ++step) {
      if (rng.NextBounded(2000) == 0) {
        // Stop/Start after joins: the table is reserved for a larger ring
        // and keeps everything it held.
        nodes += 1 + rng.NextBounded(6);
        table.Reserve(nodes, nodes);
        ref.Reserve(nodes, nodes);
      }
      // A few receivers past the reserved range, as a node that joins
      // while running first hears a sender.
      const NodeIndex receiver = rng.NextBounded(nodes + 2);
      // Three blocks' worth of senders: most receivers spill.
      const NodeIndex sender = rng.NextBounded(3 * kSlots);
      if (rng.Bernoulli(0.5)) {
        const sim::Time t = rng.Uniform(0.0, 1e6);
        table.Set(receiver, sender, t);
        ref.Set(receiver, sender, t);
      }
      const sim::Time* got = table.Find(receiver, sender);
      const sim::Time* want = ref.Find(receiver, sender);
      ASSERT_EQ(got == nullptr, want == nullptr)
          << "seed " << seed << " step " << step;
      if (got != nullptr) {
        ASSERT_EQ(*got, *want);
      }
    }
    for (NodeIndex r = 0; r < nodes + 4; ++r) {
      for (NodeIndex s = 0; s < 3 * kSlots + 2; ++s) {
        const sim::Time* got = table.Find(r, s);
        const sim::Time* want = ref.Find(r, s);
        ASSERT_EQ(got == nullptr, want == nullptr)
            << "seed " << seed << " receiver " << r << " sender " << s;
        if (got != nullptr) {
          EXPECT_EQ(*got, *want);
        }
      }
    }
    EXPECT_GT(table.spilled(), 0u) << "seed " << seed;
  }
}

struct ChurnLog {
  std::vector<std::string> failures;
  std::vector<std::string> suspicions;
  std::vector<std::size_t> counters;
  std::vector<std::size_t> suspected;
  std::string metrics_json;
  std::size_t fired = 0;
  std::size_t most_senders = 0;  // distinct senders one receiver heard
  std::size_t late_failures = 0;  // detections after the second crash wave
};

// Fails `count` distinct alive nodes picked by `script`.
void CrashWave(Ring& ring, util::Rng& script, std::size_t count) {
  for (std::size_t k = 0; k < count;) {
    const NodeIndex n = script.NextBounded(ring.size());
    if (!ring.node(n).alive()) continue;
    ring.Fail(n);
    ++k;
  }
}

constexpr sim::Time kSecondWave = 26000.0;

template <class Protocol>
ChurnLog RunChurn(bool suspect_alive, bool auto_repair) {
  constexpr std::size_t kHosts = 48;
  sim::Simulation sim(2024);
  sim.EnableMetrics();
  Ring ring(8);  // r = 4: blocks of 8 slots, which churn overflows
  for (std::size_t h = 0; h < kHosts; ++h) ring.JoinHashed(h);
  HeartbeatConfig cfg;
  cfg.suspect_alive = suspect_alive;
  cfg.auto_repair = auto_repair;
  Protocol hb(sim, ring, cfg);

  ChurnLog log;
  hb.AddFailureObserver([&](NodeIndex detector, NodeIndex dead, sim::Time t) {
    log.failures.push_back(std::to_string(detector) + " " +
                           std::to_string(dead) + " " + Hex(t));
    if (t >= kSecondWave) ++log.late_failures;
  });
  hb.AddSuspicionObserver(
      [&](NodeIndex detector, NodeIndex suspect, sim::Time t, bool alive) {
        log.suspicions.push_back(std::to_string(detector) + " " +
                                 std::to_string(suspect) + " " + Hex(t) +
                                 (alive ? " alive" : " dead"));
      });
  std::set<std::pair<NodeIndex, NodeIndex>> heard;  // (receiver, sender)
  hb.AddObserver([&](NodeIndex from, NodeIndex to, sim::Time, sim::Time) {
    heard.emplace(to, from);
  });

  util::Rng script(77);  // picks victims; the simulation's stream is apart
  sim::Transport& bus = sim.transport();
  hb.Start();
  sim.RunUntil(3000.0);
  bus.faults().jitter_ms = 40.0;
  sim.RunUntil(5000.0);
  bus.faults().loss_probability = 0.3;
  sim.RunUntil(8000.0);
  CrashWave(ring, script, 6);
  sim.RunUntil(12000.0);
  std::vector<std::size_t> cut;
  for (NodeIndex n = 0; n < 12; ++n) cut.push_back(ring.node(n).host());
  bus.Partition(cut);
  sim.RunUntil(20000.0);
  bus.HealPartitions();
  bus.faults().loss_probability = 0.0;
  sim.RunUntil(22000.0);
  for (std::size_t k = 0; k < 10; ++k)
    hb.OnNodeJoined(ring.JoinHashed(kHosts + k));
  sim.RunUntil(kSecondWave);
  CrashWave(ring, script, 4);
  sim.RunUntil(30000.0);
  hb.Stop();
  sim.RunUntil(31000.0);
  for (std::size_t k = 10; k < 12; ++k)
    hb.OnNodeJoined(ring.JoinHashed(kHosts + k));  // stopped: a no-op
  hb.Start();
  sim.RunUntil(40000.0);

  log.counters = {hb.heartbeats_sent(), hb.heartbeats_delivered(),
                  hb.failures_detected(), hb.suspicions(),
                  hb.false_suspicions()};
  for (NodeIndex n = 0; n < ring.size(); ++n)
    log.suspected.push_back(hb.suspected_count(n));
  log.metrics_json = sim.metrics().SnapshotJson(false);
  log.fired = sim.fired_events();
  std::size_t run = 0;
  for (auto it = heard.begin(); it != heard.end(); ++it) {
    run = it != heard.begin() && std::prev(it)->first == it->first ? run + 1
                                                                     : 1;
    log.most_senders = std::max(log.most_senders, run);
  }
  return log;
}

class LivenessChurn
    : public ::testing::TestWithParam<std::pair<bool, bool>> {};

TEST_P(LivenessChurn, MatchesSortedRowDetectorByteForByte) {
  const auto [suspect_alive, auto_repair] = GetParam();
  const ChurnLog got = RunChurn<HeartbeatProtocol>(suspect_alive, auto_repair);
  const ChurnLog want =
      RunChurn<heartbeatref::HeartbeatProtocol>(suspect_alive, auto_repair);
  EXPECT_EQ(got.failures, want.failures);
  EXPECT_EQ(got.suspicions, want.suspicions);
  EXPECT_EQ(got.counters, want.counters);
  EXPECT_EQ(got.suspected, want.suspected);
  EXPECT_EQ(got.metrics_json, want.metrics_json);
  EXPECT_EQ(got.fired, want.fired);
  // Non-vacuous: both crash waves were detected, suspicion fired when on,
  // and some receiver heard more senders than its block holds.
  EXPECT_GT(got.late_failures, 0u);
  EXPECT_GT(got.failures.size(), got.late_failures);
  if (suspect_alive) {
    EXPECT_GT(got.counters[4], 0u);
  }
  EXPECT_GT(got.most_senders, 8u);
}

INSTANTIATE_TEST_SUITE_P(
    SuspectAndRepair, LivenessChurn,
    ::testing::Values(std::make_pair(false, true), std::make_pair(false, false),
                      std::make_pair(true, true), std::make_pair(true, false)),
    [](const ::testing::TestParamInfo<std::pair<bool, bool>>& info) {
      return std::string(info.param.first ? "Suspect" : "NoSuspect") +
             (info.param.second ? "Repair" : "Sensor");
    });

}  // namespace
}  // namespace p2p::dht
