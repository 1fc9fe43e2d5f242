#include "dht/maintenance.h"

#include <cstdint>

#include "util/check.h"

namespace p2p::dht {

MaintenanceProtocol::MaintenanceProtocol(sim::Simulation& sim, Ring& ring,
                                         MaintenanceConfig config)
    : sim_(sim), ring_(ring), config_(config) {
  P2P_CHECK(config_.period_ms > 0.0);
  P2P_CHECK(config_.fingers_per_round > 0);
  auto& reg = sim_.metrics();
  m_refreshes_ = &reg.counter("dht.maintenance.refreshes");
  m_failed_ = &reg.counter("dht.maintenance.failed_lookups");
  m_dropped_ = &reg.counter("dht.maintenance.dropped_lookups");
}

void MaintenanceProtocol::Start() {
  P2P_CHECK(!running_);
  running_ = true;
  if (ring_.oracle() != nullptr) sim_.transport().set_oracle(ring_.oracle());
  tokens_.resize(ring_.size());
  for (NodeIndex n = 0; n < ring_.size(); ++n) {
    if (ring_.node(n).alive()) ScheduleNode(n);
  }
}

void MaintenanceProtocol::Stop() {
  running_ = false;
  for (auto& t : tokens_) sim::Simulation::CancelPeriodic(t);
}

void MaintenanceProtocol::OnNodeJoined(NodeIndex n) {
  if (!running_) return;
  if (tokens_.size() <= n) tokens_.resize(n + 1);
  ScheduleNode(n);
}

void MaintenanceProtocol::ScheduleNode(NodeIndex n) {
  const sim::Time phase = sim_.rng().Uniform(0.0, config_.period_ms);
  tokens_[n] =
      sim_.Every(config_.period_ms, phase, [this, n] { RefreshRound(n); });
}

void MaintenanceProtocol::RefreshRound(NodeIndex n) {
  if (!running_ || !ring_.node(n).alive()) return;
  Node& x = ring_.node(n);
  for (std::size_t k = 0; k < config_.fingers_per_round; ++k) {
    const std::size_t i = sim_.rng().NextBounded(FingerTable::kBits);
    const NodeId key = x.fingers().TargetKey(i);
    // Resolve via an actual overlay lookup using current (possibly stale)
    // tables; a failed lookup leaves the entry for the next round.
    const RouteResult r = ring_.Route(n, key);
    if (!r.success) {
      ++failed_lookups_;
      m_failed_->Inc();
      continue;
    }
    ++refreshes_;
    m_refreshes_->Inc();
    // The lookup's repair traffic rides the bus: the response arrives
    // after the route's accumulated latency, and fault injection can eat
    // it (the entry then stays stale until a later round).
    sim::Message msg;
    msg.src_host = x.host();
    msg.dst_host = ring_.node(r.destination).host();
    msg.protocol = sim::Protocol::kMaintenance;
    msg.bytes = kLookupBytes;
    sim::SendOptions opts;
    opts.delay_override_ms = r.latency_ms;
    // 32-bit captures keep the closure at 24 bytes, so its event is inline.
    const auto node_index = static_cast<std::uint32_t>(n);
    const auto slot = static_cast<std::uint32_t>(i);
    const auto dest = static_cast<std::uint32_t>(r.destination);
    const bool admitted = sim_.transport().Send(
        msg,
        [this, n = node_index, i = slot, dest] {
          if (!running_) return;
          if (!ring_.node(n).alive() || !ring_.node(dest).alive()) return;
          Node& node = ring_.node(n);
          node.fingers().Set(i, ring_.node(dest).id(), dest);
          // Pastry-style tables learn from lookup traffic: offer the
          // resolved node for whatever prefix slot it fits (no-op if
          // already filled). Chord rings keep no prefix table.
          if (ring_.geometry() == RoutingGeometry::kPastryPrefix)
            node.prefix().Offer(ring_.node(dest).id(), dest);
        },
        opts);
    if (!admitted) {
      ++dropped_lookups_;
      m_dropped_->Inc();
    }
  }
}

}  // namespace p2p::dht
