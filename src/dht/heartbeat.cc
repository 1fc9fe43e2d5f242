#include "dht/heartbeat.h"

#include <algorithm>

#include "util/check.h"

namespace p2p::dht {

namespace {

using HeardRow = std::vector<std::pair<NodeIndex, sim::Time>>;

// Sorted-row lookups for the flat last_heard_/suspected_ state.
sim::Time* FindHeard(HeardRow& row, NodeIndex m) {
  const auto it = std::lower_bound(
      row.begin(), row.end(), m,
      [](const std::pair<NodeIndex, sim::Time>& p, NodeIndex key) {
        return p.first < key;
      });
  if (it != row.end() && it->first == m) return &it->second;
  return nullptr;
}

void SetHeard(HeardRow& row, NodeIndex m, sim::Time t) {
  const auto it = std::lower_bound(
      row.begin(), row.end(), m,
      [](const std::pair<NodeIndex, sim::Time>& p, NodeIndex key) {
        return p.first < key;
      });
  if (it != row.end() && it->first == m) {
    it->second = t;
  } else {
    row.insert(it, {m, t});
  }
}

// Returns true when `m` was newly inserted.
bool SortedInsert(std::vector<NodeIndex>& set, NodeIndex m) {
  const auto it = std::lower_bound(set.begin(), set.end(), m);
  if (it != set.end() && *it == m) return false;
  set.insert(it, m);
  return true;
}

// Returns true when `m` was present (and removed).
bool SortedErase(std::vector<NodeIndex>& set, NodeIndex m) {
  const auto it = std::lower_bound(set.begin(), set.end(), m);
  if (it == set.end() || *it != m) return false;
  set.erase(it);
  return true;
}

}  // namespace

HeartbeatProtocol::HeartbeatProtocol(sim::Simulation& sim, Ring& ring,
                                     Config config)
    : sim_(sim), ring_(ring), config_(config) {
  P2P_CHECK(config_.period_ms > 0.0);
  P2P_CHECK(config_.timeout_ms > config_.period_ms);
  auto& reg = sim_.metrics();
  m_sent_ = &reg.counter("dht.heartbeat.sent");
  m_delivered_ = &reg.counter("dht.heartbeat.delivered");
  m_failures_ = &reg.counter("dht.heartbeat.failures_detected");
  m_suspicions_ = &reg.counter("dht.heartbeat.suspicions");
  m_false_suspicions_ = &reg.counter("dht.heartbeat.false_suspicions");
  m_suspicion_clears_ = &reg.counter("dht.heartbeat.suspicion_clears");
}

void HeartbeatProtocol::Start() {
  P2P_CHECK_MSG(!running_, "heartbeat protocol already running");
  running_ = true;
  // The bus charges the same host-to-host delays the protocol used to
  // compute itself; keep its oracle in sync with the ring's.
  if (ring_.oracle() != nullptr) sim_.transport().set_oracle(ring_.oracle());
  last_heard_.resize(ring_.size());
  detected_.assign(ring_.size(), 0);
  suspected_.resize(ring_.size());
  // First beats: the phase draws InsertBeat would make, in the same node
  // order, sorted once. The stable sort keeps equal deadlines in node
  // order, and every entry lands in the wrapped segment, exactly as
  // one-at-a-time insertion into the empty row leaves it.
  P2P_CHECK(beat_order_.empty() && beat_walker_ == sim::kInvalidEventId);
  const sim::Time now = sim_.now();
  for (NodeIndex n = 0; n < ring_.size(); ++n) {
    if (!ring_.node(n).alive() || !OwnsNode(n)) continue;
    beat_order_.emplace_back(
        now + sim_.rng().Uniform(0.0, config_.period_ms), n);
  }
  std::stable_sort(beat_order_.begin(), beat_order_.end(),
                   [](const std::pair<sim::Time, NodeIndex>& a,
                      const std::pair<sim::Time, NodeIndex>& b) {
                     return a.first < b.first;
                   });
  beat_cursor_ = beat_order_.size();
  ScheduleSweep();
}

void HeartbeatProtocol::BindShard(
    std::uint32_t shard, const std::vector<std::uint32_t>* shard_of_host,
    std::vector<HeartbeatProtocol*> peers) {
  P2P_CHECK_MSG(!running_, "bind before Start");
  P2P_CHECK(shard_of_host != nullptr);
  P2P_CHECK_MSG(shard < peers.size(), "shard index outside the peer table");
  P2P_CHECK_MSG(peers[shard] == this, "peer table must map this shard here");
  shard_ = shard;
  shard_of_host_ = shard_of_host;
  peers_ = std::move(peers);
}

void HeartbeatProtocol::Stop() {
  running_ = false;
  sim_.Cancel(beat_walker_);
  beat_walker_ = sim::kInvalidEventId;
  beat_order_.clear();
  beat_cursor_ = 0;
}

void HeartbeatProtocol::OnNodeJoined(NodeIndex n) {
  if (!running_) return;
  if (last_heard_.size() <= n) {
    last_heard_.resize(n + 1);
    detected_.resize(n + 1, 0);
    suspected_.resize(n + 1);
  }
  if (OwnsNode(n)) InsertBeat(n);
}

void HeartbeatProtocol::InsertBeat(NodeIndex n) {
  // Desynchronise nodes with a random phase within one period.
  const sim::Time first =
      sim_.now() + sim_.rng().Uniform(0.0, config_.period_ms);
  // The row is cyclically ascending: [cursor, end) then [0, cursor). A
  // deadline past the current segment's tail belongs to the wrapped
  // segment (it fires next cycle). Ties insert after existing entries, so
  // nodes due at the same time fire in insertion order.
  const auto fires_no_later = [first](const std::pair<sim::Time, NodeIndex>&
                                          e) { return e.first <= first; };
  std::size_t pos;
  if (beat_cursor_ < beat_order_.size() &&
      first <= beat_order_.back().first) {
    pos = static_cast<std::size_t>(
        std::partition_point(beat_order_.begin() + beat_cursor_,
                             beat_order_.end(), fires_no_later) -
        beat_order_.begin());
    beat_order_.insert(beat_order_.begin() + pos, {first, n});
  } else {
    pos = static_cast<std::size_t>(
        std::partition_point(beat_order_.begin(),
                             beat_order_.begin() + beat_cursor_,
                             fires_no_later) -
        beat_order_.begin());
    beat_order_.insert(beat_order_.begin() + pos, {first, n});
    ++beat_cursor_;  // inserted into the wrapped (next-cycle) segment
  }
  const std::size_t next =
      beat_cursor_ == beat_order_.size() ? 0 : beat_cursor_;
  if (pos != next) return;
  // The new entry is the next to fire: pull the walker's wakeup forward.
  // Rearm reports false when the walker is firing right now (a join from
  // inside the sweep) — BeatSweep reschedules after it drains — and when
  // no walker exists yet (Start), schedule the first one.
  if (beat_walker_ == sim::kInvalidEventId) {
    ScheduleSweep();
  } else {
    sim_.Rearm(beat_walker_, first);
  }
}

void HeartbeatProtocol::BeatSweep() {
  const sim::Time now = sim_.now();
  while (!beat_order_.empty()) {
    if (beat_cursor_ == beat_order_.size()) {
      if (beat_order_.front().first != now) break;
      beat_cursor_ = 0;
    }
    auto& e = beat_order_[beat_cursor_];
    if (e.first != now) break;
    const NodeIndex n = e.second;
    e.first += config_.period_ms;
    ++beat_cursor_;
    Beat(n);
  }
  ScheduleSweep();
}

void HeartbeatProtocol::ScheduleSweep() {
  if (beat_order_.empty()) {
    beat_walker_ = sim::kInvalidEventId;
    return;
  }
  const std::size_t next =
      beat_cursor_ == beat_order_.size() ? 0 : beat_cursor_;
  beat_walker_ = sim_.At(beat_order_[next].first, [this] { BeatSweep(); });
}

void HeartbeatProtocol::Beat(NodeIndex n) {
  if (!running_ || !ring_.node(n).alive()) return;
  const sim::Time now = sim_.now();
  ring_.node(n).leafset().ForEachMember([&](const LeafsetEntry& e) {
    ++sent_;
    m_sent_->Inc();
    const NodeIndex to = e.node;
    sim::Message msg;
    msg.src_host = ring_.node(n).host();
    msg.dst_host = ring_.node(to).host();
    msg.protocol = sim::Protocol::kHeartbeat;
    msg.bytes = kHeartbeatBytes;
    sim::SendOptions opts;
    opts.fallback_delay_ms = config_.default_delay_ms;
    // The receiver's owning instance records the delivery: its state rows
    // for `to` are only ever touched on its own shard. `peer == this` when
    // unbound, so the serial path is unchanged.
    HeartbeatProtocol* peer = PeerForNode(to);
    sim_.transport().Send(
        msg, [peer, n, to, now] { peer->Deliver(n, to, now); }, opts);
  });
  CheckTimeouts(n);
}

void HeartbeatProtocol::Deliver(NodeIndex from, NodeIndex to,
                                sim::Time send_time) {
  if (!running_) return;
  // A crashed sender's in-flight messages are dropped (it "stopped
  // responding" at fail time, and Beat checks liveness at send time, so
  // this only filters messages racing a failure).
  if (!ring_.node(from).alive() || !ring_.node(to).alive()) return;
  ++delivered_;
  m_delivered_->Inc();
  SetHeard(last_heard_[to], from, sim_.now());
  // Hearing from a suspect clears the suspicion (it was a false alarm or
  // the network healed).
  if (config_.suspect_alive && SortedErase(suspected_[to], from))
    m_suspicion_clears_->Inc();
  for (const auto& obs : observers_) obs(from, to, send_time, sim_.now());
}

void HeartbeatProtocol::CheckTimeouts(NodeIndex n) {
  const sim::Time now = sim_.now();
  // A snapshot, not ForEachMember: Ring::DetectFailure below refills n's own
  // leafset (and every other) while this loop is still walking it.
  for (const auto& e : ring_.node(n).leafset().Members()) {
    const NodeIndex m = e.node;
    if (ring_.node(m).alive()) {
      // Suspicion (suspect_alive mode): a member we *have* heard from
      // before has gone silent past the timeout. Requiring one prior
      // delivery avoids flagging everyone during start-up warm-up.
      if (!config_.suspect_alive) continue;
      const sim::Time* heard = FindHeard(last_heard_[n], m);
      if (heard == nullptr) continue;
      if (now - *heard < config_.timeout_ms) continue;
      if (!SortedInsert(suspected_[n], m)) continue;  // already suspected
      ++suspicions_;
      ++false_suspicions_;  // m is alive: by definition a false positive
      m_suspicions_->Inc();
      m_false_suspicions_->Inc();
      for (const auto& obs : suspicion_observers_) obs(n, m, now, true);
      continue;
    }
    const sim::Time* found = FindHeard(last_heard_[n], m);
    const sim::Time heard = found == nullptr ? 0.0 : *found;
    if (now - heard < config_.timeout_ms) continue;
    // Sensor mode (auto_repair off): every detector independently marks the
    // silent member in its own suspect set — the dead node never beats
    // again, so the suspicion persists and rides the in-band telemetry
    // until an external reactor repairs membership.
    if (!config_.auto_repair) SortedInsert(suspected_[n], m);
    if (detected_[m]) continue;
    detected_[m] = 1;
    ++failures_detected_;
    m_failures_->Inc();
    if (config_.suspect_alive) {
      // The unified suspicion stream also sees true positives, so
      // false_suspicions() / suspicions() is a meaningful FP rate.
      ++suspicions_;
      m_suspicions_->Inc();
      for (const auto& obs : suspicion_observers_) obs(n, m, now, false);
    }
    if (config_.auto_repair) {
      // Failure detection rewrites shared ring membership (DetectFailure
      // below) and races lazily-sorted ring views; multi-shard runs keep
      // membership frozen during windows, so a detection there is a bug.
      P2P_CHECK_MSG(peers_.size() <= 1,
                    "failure detection is unsupported in multi-shard runs");
      // First detection triggers ring-wide cleanup, standing in for the
      // rapid propagation of the death notice through leafset exchanges.
      ring_.DetectFailure(m);
    }
    for (const auto& obs : failure_observers_) obs(n, m, now);
  }
}

std::size_t HeartbeatProtocol::MemoryBytes() const {
  std::size_t bytes = sizeof(*this);
  bytes += last_heard_.capacity() *
           sizeof(std::vector<std::pair<NodeIndex, sim::Time>>);
  for (const auto& row : last_heard_)
    bytes += row.capacity() * sizeof(std::pair<NodeIndex, sim::Time>);
  bytes += beat_order_.capacity() * sizeof(std::pair<sim::Time, NodeIndex>);
  bytes += detected_.capacity();
  bytes += suspected_.capacity() * sizeof(std::vector<NodeIndex>);
  for (const auto& row : suspected_)
    bytes += row.capacity() * sizeof(NodeIndex);
  return bytes;
}

}  // namespace p2p::dht
