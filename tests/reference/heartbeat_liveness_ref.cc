#include "reference/heartbeat_liveness_ref.h"

#include "util/check.h"

namespace p2p::heartbeatref {

namespace {

bool SortedInsert(std::vector<dht::NodeIndex>& set, dht::NodeIndex m) {
  const auto it = std::lower_bound(set.begin(), set.end(), m);
  if (it != set.end() && *it == m) return false;
  set.insert(it, m);
  return true;
}

bool SortedErase(std::vector<dht::NodeIndex>& set, dht::NodeIndex m) {
  const auto it = std::lower_bound(set.begin(), set.end(), m);
  if (it == set.end() || *it != m) return false;
  set.erase(it);
  return true;
}

}  // namespace

HeartbeatProtocol::HeartbeatProtocol(sim::Simulation& sim, dht::Ring& ring,
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
  P2P_CHECK(!running_);
  running_ = true;
  if (ring_.oracle() != nullptr) sim_.transport().set_oracle(ring_.oracle());
  last_heard_.Reserve(ring_.size(), 0);
  detected_.assign(ring_.size(), 0);
  suspected_.resize(ring_.size());
  P2P_CHECK(beat_order_.empty() && beat_walker_ == sim::kInvalidEventId);
  const sim::Time now = sim_.now();
  for (dht::NodeIndex n = 0; n < ring_.size(); ++n) {
    if (!ring_.node(n).alive()) continue;
    beat_order_.emplace_back(
        now + sim_.rng().Uniform(0.0, config_.period_ms), n);
  }
  std::stable_sort(beat_order_.begin(), beat_order_.end(),
                   [](const std::pair<sim::Time, dht::NodeIndex>& a,
                      const std::pair<sim::Time, dht::NodeIndex>& b) {
                     return a.first < b.first;
                   });
  beat_cursor_ = beat_order_.size();
  ScheduleSweep();
}

void HeartbeatProtocol::Stop() {
  running_ = false;
  sim_.Cancel(beat_walker_);
  beat_walker_ = sim::kInvalidEventId;
  beat_order_.clear();
  beat_cursor_ = 0;
}

void HeartbeatProtocol::OnNodeJoined(dht::NodeIndex n) {
  if (!running_) return;
  if (detected_.size() <= n) {
    last_heard_.Reserve(n + 1, 0);
    detected_.resize(n + 1, 0);
    suspected_.resize(n + 1);
  }
  InsertBeat(n);
}

void HeartbeatProtocol::InsertBeat(dht::NodeIndex n) {
  const sim::Time first =
      sim_.now() + sim_.rng().Uniform(0.0, config_.period_ms);
  const auto fires_no_later =
      [first](const std::pair<sim::Time, dht::NodeIndex>& e) {
        return e.first <= first;
      };
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
    ++beat_cursor_;
  }
  const std::size_t next =
      beat_cursor_ == beat_order_.size() ? 0 : beat_cursor_;
  if (pos != next) return;
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
    const dht::NodeIndex n = e.second;
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

void HeartbeatProtocol::Beat(dht::NodeIndex n) {
  if (!running_ || !ring_.node(n).alive()) return;
  const sim::Time now = sim_.now();
  ring_.node(n).leafset().ForEachMember([&](const dht::LeafsetEntry& e) {
    ++sent_;
    m_sent_->Inc();
    const dht::NodeIndex to = e.node;
    sim::Message msg;
    msg.src_host = ring_.node(n).host();
    msg.dst_host = ring_.node(to).host();
    msg.protocol = sim::Protocol::kHeartbeat;
    msg.bytes = dht::kHeartbeatBytes;
    sim::SendOptions opts;
    opts.fallback_delay_ms = config_.default_delay_ms;
    sim_.transport().Send(
        msg, [this, n, to, now] { Deliver(n, to, now); }, opts);
  });
  CheckTimeouts(n);
}

void HeartbeatProtocol::Deliver(dht::NodeIndex from, dht::NodeIndex to,
                                sim::Time send_time) {
  if (!running_) return;
  if (!ring_.node(from).alive() || !ring_.node(to).alive()) return;
  ++delivered_;
  m_delivered_->Inc();
  last_heard_.Set(to, from, sim_.now());
  if (config_.suspect_alive && SortedErase(suspected_[to], from))
    m_suspicion_clears_->Inc();
  for (const auto& obs : observers_) obs(from, to, send_time, sim_.now());
}

void HeartbeatProtocol::CheckTimeouts(dht::NodeIndex n) {
  const sim::Time now = sim_.now();
  for (const auto& e : ring_.node(n).leafset().Members()) {
    const dht::NodeIndex m = e.node;
    if (ring_.node(m).alive()) {
      if (!config_.suspect_alive) continue;
      const sim::Time* heard = last_heard_.Find(n, m);
      if (heard == nullptr) continue;
      if (now - *heard < config_.timeout_ms) continue;
      if (!SortedInsert(suspected_[n], m)) continue;
      ++suspicions_;
      ++false_suspicions_;
      m_suspicions_->Inc();
      m_false_suspicions_->Inc();
      for (const auto& obs : suspicion_observers_) obs(n, m, now, true);
      continue;
    }
    const sim::Time* found = last_heard_.Find(n, m);
    const sim::Time heard = found == nullptr ? 0.0 : *found;
    if (now - heard < config_.timeout_ms) continue;
    if (!config_.auto_repair) SortedInsert(suspected_[n], m);
    if (detected_[m]) continue;
    detected_[m] = 1;
    ++failures_detected_;
    m_failures_->Inc();
    if (config_.suspect_alive) {
      ++suspicions_;
      m_suspicions_->Inc();
      for (const auto& obs : suspicion_observers_) obs(n, m, now, false);
    }
    if (config_.auto_repair) ring_.DetectFailure(m);
    for (const auto& obs : failure_observers_) obs(n, m, now);
  }
}

}  // namespace p2p::heartbeatref
