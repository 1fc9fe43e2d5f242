// Leafset heartbeat protocol (paper §3.1/§4): every node periodically
// heartbeats its leafset members; missed heartbeats drive failure
// detection; the §4 measurement protocols (network coordinates, packet-pair
// bandwidth probing) piggyback on the same messages via observers.
//
// Message delivery runs over the simulation's Transport bus with the
// latency oracle's host-to-host delays, so observers see realistic
// send/receive timestamps — and fault injection (loss, jitter, partitions)
// configured on the bus applies to heartbeats with no protocol changes.
//
// Beats are batch-ticked: every node shares one period, so beats recur in
// a fixed cyclic order, and one self-rescheduling walker event sweeps the
// phase-sorted beat row. Each node fires at its own deadlines — first at a
// random phase within one period of its start or join, then += period —
// and nodes due at the same time fire in row order (insertion order). The
// event queue holds one always-hot walker record instead of N periodic
// records scattered across the slab, which is where the run-phase profile
// showed the heartbeat tax at 50k+ hosts.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "dht/ring.h"
#include "sim/simulation.h"

namespace p2p::dht {

// Namespace-scope (not nested) so it can serve as a defaulted constructor
// argument — GCC rejects brace-defaulting a nested aggregate with default
// member initializers inside its enclosing class.
struct HeartbeatConfig {
  sim::Time period_ms = 1000.0;
  // Declare a member failed after this long without hearing from it.
  sim::Time timeout_ms = 3500.0;
  // Transport fallback one-way delay used when the ring has no latency
  // oracle (passed per send; the bus-wide default stays untouched).
  sim::Time default_delay_ms = 50.0;
  // Failure *suspicion*: also flag members that have been heard from
  // before but have now been silent past timeout_ms, even while they are
  // in fact alive (message loss / jitter makes silence ambiguous). A
  // suspicion of an alive member is a false positive; suspicions clear
  // when the member is heard again. Off by default — the seed behaviour
  // only ever declares genuinely crashed nodes.
  bool suspect_alive = false;
  // When true (default), the first detection of a genuinely dead member
  // triggers ring-wide cleanup (Ring::DetectFailure). Set false to run the
  // detector as a pure sensor: timeouts are still recorded (counters,
  // observers, per-node suspect sets — so the silence shows up in in-band
  // telemetry), but membership repair is left to an external reactor. The
  // in-band alerting experiments use this to make the disseminated SOMO
  // view, not simulator ground truth, the thing that heals the ring.
  bool auto_repair = true;
};

// Modelled heartbeat wire size: the paper pads heartbeats to ~1.5 KB so
// they double as packet-pair probes (§4.2).
inline constexpr std::size_t kHeartbeatBytes = 1500;

class HeartbeatProtocol {
 public:
  using Config = HeartbeatConfig;

  // Called on each heartbeat delivery: (sender, receiver, send_t, recv_t).
  using Observer = std::function<void(NodeIndex, NodeIndex, sim::Time,
                                      sim::Time)>;
  // Called when `detector` times out `dead` (fires once per dead node,
  // at first detection).
  using FailureObserver =
      std::function<void(NodeIndex detector, NodeIndex dead, sim::Time when)>;
  // Called when `detector` starts suspecting `suspect` (suspect_alive
  // mode); `was_alive` marks a false positive.
  using SuspicionObserver = std::function<void(
      NodeIndex detector, NodeIndex suspect, sim::Time when, bool was_alive)>;

  HeartbeatProtocol(sim::Simulation& sim, Ring& ring, Config config = {});

  // Begin periodic heartbeating for every currently-alive node. Nodes that
  // join later are picked up via OnNodeJoined.
  void Start();
  void Stop();

  // Register a node that joined after Start().
  void OnNodeJoined(NodeIndex n);

  // --- sharding -----------------------------------------------------------

  // Bind this instance to one shard of a sim::ShardedSimulation run. Every
  // shard constructs its own HeartbeatProtocol over its own Simulation (and
  // the shared, stabilized Ring); BindShard tells each instance which nodes
  // it owns (`shard_of_host` indexed by ring host, owned by the caller and
  // outliving the protocol) and where its peers live. After binding, Start
  // schedules beats only for owned nodes, and delivery closures
  // target the receiver's owning instance, so all mutable per-node state
  // (last_heard_, suspected_) is touched exclusively by its owner's shard
  // thread. Serial runs never call this; an unbound instance owns every
  // node and delivers to itself — the exact seed code path.
  void BindShard(std::uint32_t shard,
                 const std::vector<std::uint32_t>* shard_of_host,
                 std::vector<HeartbeatProtocol*> peers);

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
  // suspect_alive mode only. Suspicions cover both dead members (true
  // positives, also counted in failures_detected) and alive-but-silent
  // ones; a false suspicion targeted a node that was alive when flagged
  // (message loss or jitter starved the detector).
  std::size_t suspicions() const { return suspicions_; }
  std::size_t false_suspicions() const { return false_suspicions_; }

  // Members node n currently suspects (sorted set size): alive-but-silent
  // members in suspect_alive mode, plus timed-out dead members when
  // auto_repair is off. This is the per-node signal HostTelemetry::suspects
  // carries in-band.
  std::size_t suspected_count(NodeIndex n) const {
    return n < suspected_.size() ? suspected_[n].size() : 0;
  }

  sim::Simulation& simulation() { return sim_; }

  const Config& config() const { return config_; }

  // Resident bytes of the detector's per-node tables (the dense
  // last-heard / suspicion rows) plus this object — feeds the
  // mem.bytes_per_host gauge.
  std::size_t MemoryBytes() const;

 private:
  // Draw node n's random phase and insert its first deadline into the
  // cyclic beat row, keeping the walker's wakeup aligned with the earliest
  // entry.
  void InsertBeat(NodeIndex n);
  // Fire every beat whose deadline equals the walker's wakeup time, then
  // reschedule for the next entry.
  void BeatSweep();
  void ScheduleSweep();
  void Beat(NodeIndex n);
  void Deliver(NodeIndex from, NodeIndex to, sim::Time send_time);
  void CheckTimeouts(NodeIndex n);

  // True when this instance schedules node n's beats and receives its
  // heartbeats (always true when unbound).
  bool OwnsNode(NodeIndex n) const {
    return shard_of_host_ == nullptr ||
           (*shard_of_host_)[ring_.node(n).host()] == shard_;
  }
  // The instance owning node n (this, when unbound — the serial path).
  HeartbeatProtocol* PeerForNode(NodeIndex n) {
    if (shard_of_host_ == nullptr) return this;
    return peers_[(*shard_of_host_)[ring_.node(n).host()]];
  }

  sim::Simulation& sim_;
  Ring& ring_;
  Config config_;
  bool running_ = false;

  // Sharding (empty/null when unbound — see BindShard).
  std::uint32_t shard_ = 0;
  const std::vector<std::uint32_t>* shard_of_host_ = nullptr;
  std::vector<HeartbeatProtocol*> peers_;

  // last_heard_[n]: (member, last-heard sim time) sorted by member — a flat
  // struct-of-arrays replacement for the old per-node hash map. Leafsets
  // are small (2L entries), so binary search beats hashing, the rows pack
  // cache-dense at 50k nodes, and iteration order is deterministic.
  std::vector<std::vector<std::pair<NodeIndex, sim::Time>>> last_heard_;
  // The beat row, cyclically sorted by next deadline — [beat_cursor_, end)
  // then [0, beat_cursor_) is ascending. The sweep advances each fired
  // entry by one period in place, which preserves the ordering (x < y
  // implies x+p <= y+p, and rounding ties keep their row order).
  std::vector<std::pair<sim::Time, NodeIndex>> beat_order_;
  std::size_t beat_cursor_ = 0;
  sim::EventId beat_walker_ = sim::kInvalidEventId;
  std::vector<char> detected_;  // dead nodes already processed
  // suspected_[n] = members node n currently suspects, sorted
  // (suspect_alive mode).
  std::vector<std::vector<NodeIndex>> suspected_;

  std::vector<Observer> observers_;
  std::vector<FailureObserver> failure_observers_;
  std::vector<SuspicionObserver> suspicion_observers_;
  // dht.heartbeat.* counters in the simulation's registry, cached at
  // construction (pointer bumps only on the hot path, no name lookups).
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

}  // namespace p2p::dht
