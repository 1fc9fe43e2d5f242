// The heartbeat detector's liveness state as it was before
// dht::LivenessTable: one row per receiving node of (sender, last-heard
// time) pairs sorted by sender, found by binary search and grown by sorted
// insertion. SortedLiveness keeps that store behind LivenessTable's
// interface, and HeartbeatProtocol is the serial protocol that used it —
// alive() read from each node's record, every timeout check walking a
// copy of the leafset. tests/dht_liveness_test.cc drives both stores with
// the same random Set/Find sequences and both protocols through the same
// churn script, and requires identical answers, observer logs and
// counters.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "dht/heartbeat.h"
#include "dht/ring.h"
#include "obs/metrics.h"
#include "sim/simulation.h"

namespace p2p::heartbeatref {

class SortedLiveness {
  using Row = std::vector<std::pair<dht::NodeIndex, sim::Time>>;

  template <typename R>
  static auto LowerBound(R& row, dht::NodeIndex key) {
    return std::lower_bound(
        row.begin(), row.end(), key,
        [](const std::pair<dht::NodeIndex, sim::Time>& p, dht::NodeIndex k) {
          return p.first < k;
        });
  }

 public:
  void Reserve(std::size_t node_count, std::size_t /*blocks*/) {
    if (rows_.size() < node_count) rows_.resize(node_count);
  }

  const sim::Time* Find(dht::NodeIndex receiver, dht::NodeIndex sender) const {
    if (receiver >= rows_.size()) return nullptr;
    const Row& row = rows_[receiver];
    const auto it = LowerBound(row, sender);
    if (it != row.end() && it->first == sender) return &it->second;
    return nullptr;
  }

  void Set(dht::NodeIndex receiver, dht::NodeIndex sender, sim::Time t) {
    if (receiver >= rows_.size()) rows_.resize(receiver + 1);
    Row& row = rows_[receiver];
    const auto it = LowerBound(row, sender);
    if (it != row.end() && it->first == sender) {
      it->second = t;
    } else {
      row.insert(it, {sender, t});
    }
  }

 private:
  std::vector<Row> rows_;
};

// The unbound (serial) dht::HeartbeatProtocol over SortedLiveness, with
// the same beat row, sends, counters and observer calls.
class HeartbeatProtocol {
 public:
  using Config = dht::HeartbeatConfig;
  using Observer = dht::HeartbeatProtocol::Observer;
  using FailureObserver = dht::HeartbeatProtocol::FailureObserver;
  using SuspicionObserver = dht::HeartbeatProtocol::SuspicionObserver;

  HeartbeatProtocol(sim::Simulation& sim, dht::Ring& ring, Config config = {});

  void Start();
  void Stop();
  void OnNodeJoined(dht::NodeIndex n);

  void AddObserver(Observer obs) { observers_.push_back(std::move(obs)); }
  void AddFailureObserver(FailureObserver obs) {
    failure_observers_.push_back(std::move(obs));
  }
  void AddSuspicionObserver(SuspicionObserver obs) {
    suspicion_observers_.push_back(std::move(obs));
  }

  std::size_t heartbeats_sent() const { return sent_; }
  std::size_t heartbeats_delivered() const { return delivered_; }
  std::size_t failures_detected() const { return failures_detected_; }
  std::size_t suspicions() const { return suspicions_; }
  std::size_t false_suspicions() const { return false_suspicions_; }
  std::size_t suspected_count(dht::NodeIndex n) const {
    return n < suspected_.size() ? suspected_[n].size() : 0;
  }

 private:
  void InsertBeat(dht::NodeIndex n);
  void BeatSweep();
  void ScheduleSweep();
  void Beat(dht::NodeIndex n);
  void Deliver(dht::NodeIndex from, dht::NodeIndex to, sim::Time send_time);
  void CheckTimeouts(dht::NodeIndex n);

  sim::Simulation& sim_;
  dht::Ring& ring_;
  Config config_;
  bool running_ = false;
  SortedLiveness last_heard_;
  std::vector<std::pair<sim::Time, dht::NodeIndex>> beat_order_;
  std::size_t beat_cursor_ = 0;
  sim::EventId beat_walker_ = sim::kInvalidEventId;
  std::vector<char> detected_;
  std::vector<std::vector<dht::NodeIndex>> suspected_;
  std::vector<Observer> observers_;
  std::vector<FailureObserver> failure_observers_;
  std::vector<SuspicionObserver> suspicion_observers_;
  obs::Counter* m_sent_;
  obs::Counter* m_delivered_;
  obs::Counter* m_failures_;
  obs::Counter* m_suspicions_;
  obs::Counter* m_false_suspicions_;
  obs::Counter* m_suspicion_clears_;
  std::size_t sent_ = 0;
  std::size_t delivered_ = 0;
  std::size_t failures_detected_ = 0;
  std::size_t suspicions_ = 0;
  std::size_t false_suspicions_ = 0;
};

}  // namespace p2p::heartbeatref
