// Leafset: the rudimentary routing table of the base ring (paper §3.1) —
// r neighbours to each side of a node, kept sorted by ring proximity.
//
// The leafset is also the substrate for the paper's §4 protocols: nodes
// heartbeat their leafset members, and those interactions yield network
// coordinates and packet-pair bandwidth estimates "for free".
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "dht/id.h"

namespace p2p::dht {

// Index of a node within its Ring.
using NodeIndex = std::size_t;
inline constexpr NodeIndex kNoNode = static_cast<NodeIndex>(-1);

struct LeafsetEntry {
  NodeId id;
  NodeIndex node;
};

class Leafset {
 public:
  // `r` neighbours per side (total capacity 2r).
  explicit Leafset(NodeId owner, std::size_t r);

  std::size_t per_side() const { return r_; }
  NodeId owner() const { return owner_; }

  // Insert or refresh a candidate neighbour. Keeps only the r closest on
  // each side. No-op for the owner itself. Returns true if the set changed.
  // A side's first entry reserves exactly r slots; a full side shifts in
  // place, so a side's capacity is 0 or r and never grows past it.
  bool Insert(NodeId id, NodeIndex node);

  // Remove a (failed) member. Returns true if it was present.
  bool Remove(NodeId id);

  void Clear();

  // Converged state for an owner at sorted[pos] of the alive membership
  // sorted by id: each side holds its min(r, m - 1) nearest members,
  // nearest first. Contents and vector capacities (r per side once any
  // other node exists) are what Clear() followed by Insert(succ_k),
  // Insert(pred_k) for k = 1, 2, ... leaves.
  void Refill(std::span<const LeafsetEntry> sorted, std::size_t pos);

  // Successor side: nodes clockwise from the owner, nearest first.
  const std::vector<LeafsetEntry>& successors() const { return succ_; }
  // Predecessor side: nodes counter-clockwise, nearest first.
  const std::vector<LeafsetEntry>& predecessors() const { return pred_; }

  // All members, successors then predecessors (no particular global order).
  std::vector<LeafsetEntry> Members() const;
  // Visits Members() in place, in the same order and without the copy. A
  // predecessor already listed as a successor is skipped (a ring of 2r+1
  // nodes or fewer puts a node on both sides). `f` must not modify this
  // leafset.
  template <typename F>
  void ForEachMember(F&& f) const {
    for (const LeafsetEntry& e : succ_) f(e);
    for (const LeafsetEntry& e : pred_)
      if (!IsSuccessor(e.id)) f(e);
  }
  std::size_t size() const { return succ_.size() + pred_.size(); }
  bool Contains(NodeId id) const;

  // Immediate successor/predecessor, or kNoNode when the side is empty.
  NodeIndex successor() const { return succ_.empty() ? kNoNode : succ_[0].node; }
  NodeIndex predecessor() const {
    return pred_.empty() ? kNoNode : pred_[0].node;
  }

  // The member whose id is ring-closest to `key` and at or clockwise-before
  // key relative to the owner (routing helper); kNoNode if none better than
  // the owner.
  NodeIndex ClosestTo(NodeId key) const;

  // The member whose id is the first at or clockwise-after `key` — the
  // member that would be responsible for the key under consistent hashing
  // (zone = (pred, id]). kNoNode when the leafset is empty.
  NodeIndex SuccessorOf(NodeId key) const;

  // True iff `key` falls within the leafset's covered arc
  // [farthest predecessor, farthest successor].
  bool Covers(NodeId key) const;

  // Heap bytes held by this leafset (memory accounting; excludes
  // sizeof(*this)).
  std::size_t HeapBytes() const {
    return (succ_.capacity() + pred_.capacity()) * sizeof(LeafsetEntry);
  }

 private:
  bool IsSuccessor(NodeId id) const;
  // Grows `side` to capacity r before its first entry (no-op after).
  void Reserve(std::vector<LeafsetEntry>& side) const;

  NodeId owner_;
  std::size_t r_;
  std::vector<LeafsetEntry> succ_;  // sorted by clockwise distance from owner
  std::vector<LeafsetEntry> pred_;  // sorted by counter-clockwise distance
};

}  // namespace p2p::dht
