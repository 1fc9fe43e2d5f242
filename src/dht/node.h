// A DHT node: identifier, hosting end-system, liveness, and its routing
// state (leafset + finger table). Protocol-specific per-node state (network
// coordinates, bandwidth estimates, SOMO reports, degree tables) is owned by
// the respective protocol modules, keyed by NodeIndex — the DHT layer stays
// application-agnostic.
#pragma once

#include "dht/finger_table.h"
#include "dht/id.h"
#include "dht/leafset.h"
#include "dht/prefix_table.h"
#include "net/transit_stub.h"

namespace p2p::dht {

enum class NodeState {
  kAlive,
  kLeft,    // graceful departure: neighbours informed immediately
  kFailed,  // crash: neighbours hold stale entries until detection/repair
};

class Node {
 public:
  Node(NodeId id, net::HostIdx host, std::size_t leafset_per_side)
      : id_(id), host_(host), leafset_(id, leafset_per_side), fingers_(id),
        prefix_(id) {}

  NodeId id() const { return id_; }
  net::HostIdx host() const { return host_; }

  NodeState state() const { return state_; }
  bool alive() const { return state_ == NodeState::kAlive; }

  // Re-key the node to a new id, discarding routing state (used only by
  // Ring::SwapNodeIds for SOMO's root-swap self-optimisation, §3.2: the
  // most capable machine exchanges ids with the holder of the root logical
  // point "without disturbing any other peers").
  void ResetRoutingState(NodeId new_id) {
    const std::size_t r = leafset_.per_side();
    id_ = new_id;
    leafset_ = Leafset(new_id, r);
    fingers_ = FingerTable(new_id);
    prefix_ = PrefixTable(new_id);
  }

  Leafset& leafset() { return leafset_; }
  const Leafset& leafset() const { return leafset_; }

  FingerTable& fingers() { return fingers_; }
  const FingerTable& fingers() const { return fingers_; }

  PrefixTable& prefix() { return prefix_; }
  const PrefixTable& prefix() const { return prefix_; }

 private:
  // Only the Ring changes liveness: it mirrors it in its dense alive bytes.
  friend class Ring;
  void set_state(NodeState s) { state_ = s; }

  NodeId id_;
  net::HostIdx host_;
  NodeState state_ = NodeState::kAlive;
  Leafset leafset_;
  FingerTable fingers_;
  PrefixTable prefix_;
};

}  // namespace p2p::dht
