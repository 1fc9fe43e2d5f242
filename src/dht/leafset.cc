#include "dht/leafset.h"

#include <algorithm>

#include "util/check.h"

namespace p2p::dht {

Leafset::Leafset(NodeId owner, std::size_t r) : owner_(owner), r_(r) {
  P2P_CHECK(r > 0);
}

bool Leafset::Insert(NodeId id, NodeIndex node) {
  if (id == owner_) return false;
  auto upsert = [&](std::vector<LeafsetEntry>& side, auto dist_fn) {
    // The side is sorted by a distance that is distinct per id, so the
    // first entry at least as far as the candidate is either the candidate
    // itself (refresh its node index) or its insertion point.
    const NodeId d = dist_fn(id);
    const auto at = std::find_if(
        side.begin(), side.end(),
        [&](const LeafsetEntry& e) { return dist_fn(e.id) >= d; });
    if (at != side.end() && at->id == id) {
      at->node = node;
      return false;
    }
    // Append, then rotate into place: capacity grows as one push_back grows
    // it, which Ring::MemoryBytes counts.
    const std::size_t pos = static_cast<std::size_t>(at - side.begin());
    side.push_back({id, node});
    std::rotate(side.begin() + static_cast<std::ptrdiff_t>(pos),
                side.end() - 1, side.end());
    if (side.size() > r_) {
      side.pop_back();
      // The candidate may have been the one dropped.
      return pos < r_;
    }
    return true;
  };
  const bool su = upsert(
      succ_, [this](NodeId x) { return ClockwiseDistance(owner_, x); });
  const bool pu = upsert(
      pred_, [this](NodeId x) { return ClockwiseDistance(x, owner_); });
  return su || pu;
}

bool Leafset::Remove(NodeId id) {
  auto drop = [&](std::vector<LeafsetEntry>& side) {
    const auto it =
        std::remove_if(side.begin(), side.end(),
                       [&](const LeafsetEntry& e) { return e.id == id; });
    const bool removed = it != side.end();
    side.erase(it, side.end());
    return removed;
  };
  const bool a = drop(succ_);
  const bool b = drop(pred_);
  return a || b;
}

void Leafset::Clear() {
  succ_.clear();
  pred_.clear();
}

std::vector<LeafsetEntry> Leafset::Members() const {
  std::vector<LeafsetEntry> all;
  all.reserve(succ_.size() + pred_.size());
  all.insert(all.end(), succ_.begin(), succ_.end());
  for (const auto& e : pred_) {
    if (!std::any_of(all.begin(), all.end(),
                     [&](const LeafsetEntry& x) { return x.id == e.id; })) {
      all.push_back(e);
    }
  }
  return all;
}

bool Leafset::Contains(NodeId id) const {
  auto in = [&](const std::vector<LeafsetEntry>& side) {
    return std::any_of(side.begin(), side.end(),
                       [&](const LeafsetEntry& e) { return e.id == id; });
  };
  return in(succ_) || in(pred_);
}

NodeIndex Leafset::ClosestTo(NodeId key) const {
  // Among members whose id is in (owner, key] (i.e. clockwise progress
  // toward the key without overshooting), pick the one closest to key.
  NodeIndex best = kNoNode;
  NodeId best_dist = ClockwiseDistance(owner_, key);
  auto consider = [&](const LeafsetEntry& e) {
    if (!InArc(owner_, e.id, key)) return;
    const NodeId d = ClockwiseDistance(e.id, key);
    if (best == kNoNode || d < best_dist) {
      best = e.node;
      best_dist = d;
    }
  };
  for (const auto& e : succ_) consider(e);
  for (const auto& e : pred_) consider(e);
  return best;
}

NodeIndex Leafset::SuccessorOf(NodeId key) const {
  NodeIndex best = kNoNode;
  NodeId best_dist = 0;
  auto consider = [&](const LeafsetEntry& e) {
    const NodeId d = ClockwiseDistance(key, e.id);  // 0 when e.id == key
    if (best == kNoNode || d < best_dist) {
      best = e.node;
      best_dist = d;
    }
  };
  for (const auto& e : succ_) consider(e);
  for (const auto& e : pred_) consider(e);
  return best;
}

bool Leafset::Covers(NodeId key) const {
  if (succ_.empty() || pred_.empty()) return false;
  const NodeId lo = pred_.back().id;  // farthest counter-clockwise member
  const NodeId hi = succ_.back().id;  // farthest clockwise member
  return InArc(lo, key, hi);
}

}  // namespace p2p::dht
