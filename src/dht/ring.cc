#include "dht/ring.h"

#include <algorithm>
#include <unordered_set>

#include "util/check.h"

namespace p2p::dht {

Ring::Ring(std::size_t leafset_size, const net::LatencyOracle* oracle,
           RoutingGeometry geometry)
    : per_side_(leafset_size / 2), oracle_(oracle), geometry_(geometry) {
  P2P_CHECK_MSG(leafset_size >= 2 && leafset_size % 2 == 0,
                "leafset size must be a positive even number, got "
                    << leafset_size);
}

void Ring::RefreshSorted() const {
  if (!sorted_dirty_) return;
  sorted_.clear();
  sorted_.reserve(alive_count_);
  for (NodeIndex i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].alive()) sorted_.push_back({nodes_[i].id(), i});
  }
  std::sort(sorted_.begin(), sorted_.end(),
            [](const LeafsetEntry& a, const LeafsetEntry& b) {
              return a.id < b.id;
            });
  sorted_dirty_ = false;
}

std::vector<NodeIndex> Ring::SortedAlive() const {
  RefreshSorted();
  std::vector<NodeIndex> out;
  out.reserve(sorted_.size());
  for (const auto& e : sorted_) out.push_back(e.node);
  return out;
}

void Ring::FillLeafsetFromSorted(NodeIndex n) {
  RefreshSorted();
  const NodeId id = nodes_[n].id();
  const auto it = std::lower_bound(
      sorted_.begin(), sorted_.end(), id,
      [](const LeafsetEntry& e, NodeId v) { return e.id < v; });
  P2P_CHECK(it != sorted_.end() && it->id == id);
  FillLeafsetAt(static_cast<std::size_t>(it - sorted_.begin()));
}

void Ring::FillLeafsetAt(std::size_t pos) {
  nodes_[sorted_[pos].node].leafset().Refill(sorted_, pos);
}

NodeIndex Ring::Join(net::HostIdx host, NodeId id) {
  RefreshSorted();
  const auto it = std::lower_bound(
      sorted_.begin(), sorted_.end(), id,
      [](const LeafsetEntry& e, NodeId v) { return e.id < v; });
  P2P_CHECK_MSG(it == sorted_.end() || it->id != id,
                "duplicate node id " << id);
  const std::size_t pos = static_cast<std::size_t>(it - sorted_.begin());
  nodes_.emplace_back(id, host, per_side_);
  alive_.push_back(1);
  const NodeIndex n = nodes_.size() - 1;
  ++alive_count_;
  // One ordered insertion keeps the cache valid, so a per-host bootstrap
  // does not re-sort the whole membership on every join.
  sorted_.insert(it, {id, n});

  // Bring the joiner and the 2r nodes around it to converged leafsets. In
  // a ring of 2r+1 nodes or fewer a neighbour sits on both sides and is
  // refilled twice, which leaves the same state.
  const std::size_t m = sorted_.size();
  const std::size_t take = std::min(per_side_, m - 1);
  FillLeafsetAt(pos);
  for (std::size_t k = 1; k <= take; ++k) {
    FillLeafsetAt(pos + k < m ? pos + k : pos + k - m);
    FillLeafsetAt(pos >= k ? pos - k : pos + m - k);
  }
  BuildFingers(n);
  if (geometry_ == RoutingGeometry::kPastryPrefix) BuildPrefixTable(n);
  return n;
}

NodeIndex Ring::JoinHashed(net::HostIdx host, std::uint64_t salt) {
  NodeId id = HashHostToId(static_cast<std::uint64_t>(host) ^ (salt << 32));
  // Resolve the (astronomically unlikely) collision deterministically.
  RefreshSorted();
  while (std::binary_search(sorted_.begin(), sorted_.end(),
                            LeafsetEntry{id, 0},
                            [](const LeafsetEntry& a, const LeafsetEntry& b) {
                              return a.id < b.id;
                            })) {
    id = util::Mix64(id);
  }
  return Join(host, id);
}

NodeIndex Ring::JoinBatchHashed(net::HostIdx first_host, std::size_t count,
                                std::uint64_t salt) {
  P2P_CHECK_MSG(count > 0, "empty batch join");
  RefreshSorted();
  // Collision probing must see pre-existing AND batch-assigned ids, in the
  // same order JoinHashed would (each joiner probes against everyone who
  // joined before it), so both paths assign identical ids.
  std::unordered_set<NodeId> used;
  used.reserve(sorted_.size() + count);
  for (const auto& e : sorted_) used.insert(e.id);
  // First-choice hashes are pure per-host functions: fan the batch out
  // across the pool (identical values under any schedule), then resolve
  // the rare collisions serially in join order so the probe sequence —
  // and therefore every assigned id — matches JoinHashed's exactly.
  std::vector<NodeId> first_choice(count);
  const auto hash_range = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      first_choice[i] = HashHostToId(
          static_cast<std::uint64_t>(first_host + i) ^ (salt << 32));
    }
  };
  if (pool_ != nullptr && count >= 4096) {
    pool_->ParallelForRange(count, 1024, hash_range);
  } else {
    hash_range(0, count);
  }
  const NodeIndex first = nodes_.size();
  nodes_.reserve(nodes_.size() + count);
  alive_.reserve(alive_.size() + count);
  for (std::size_t i = 0; i < count; ++i) {
    NodeId id = first_choice[i];
    while (!used.insert(id).second) id = util::Mix64(id);
    nodes_.emplace_back(id, first_host + i, per_side_);
    alive_.push_back(1);
    ++alive_count_;
  }
  sorted_dirty_ = true;
  StabilizeAll();
  return first;
}

void Ring::Leave(NodeIndex n) {
  Node& x = nodes_.at(n);
  P2P_CHECK_MSG(x.alive(), "node " << n << " is not alive");
  x.set_state(NodeState::kLeft);
  alive_[n] = 0;
  --alive_count_;
  sorted_dirty_ = true;
  // Graceful: neighbours drop the node and refill immediately.
  DetectFailure(n);
}

void Ring::Fail(NodeIndex n) {
  Node& x = nodes_.at(n);
  P2P_CHECK_MSG(x.alive(), "node " << n << " is not alive");
  x.set_state(NodeState::kFailed);
  alive_[n] = 0;
  --alive_count_;
  sorted_dirty_ = true;
  // Stale entries remain in neighbours' tables until DetectFailure.
}

void Ring::DetectFailure(NodeIndex n) {
  const NodeId dead_id = nodes_.at(n).id();
  P2P_CHECK(!nodes_[n].alive());
  for (NodeIndex i = 0; i < nodes_.size(); ++i) {
    if (i == n || !nodes_[i].alive()) continue;
    Node& y = nodes_[i];
    y.fingers().Invalidate(n);
    if (geometry_ == RoutingGeometry::kPastryPrefix) y.prefix().Invalidate(n);
    if (y.leafset().Remove(dead_id)) {
      // Lost a leafset member: refill from converged membership (stands in
      // for the leafset-merge repair exchange of the real protocol).
      FillLeafsetFromSorted(i);
      if (leafset_repairs_ != nullptr) leafset_repairs_->Inc();
    }
  }
}

NodeIndex Ring::ResponsibleFor(NodeId key) const {
  RefreshSorted();
  P2P_CHECK_MSG(!sorted_.empty(), "empty ring");
  // zone(x) = (pred, x]: the responsible node is the first node clockwise
  // at or after the key.
  const auto it = std::lower_bound(
      sorted_.begin(), sorted_.end(), key,
      [](const LeafsetEntry& e, NodeId v) { return e.id < v; });
  return it == sorted_.end() ? sorted_.front().node : it->node;
}

RouteResult Ring::Route(NodeIndex from, NodeId key) const {
  P2P_CHECK(from < nodes_.size());
  P2P_CHECK_MSG(nodes_[from].alive(), "routing from dead node " << from);
  const NodeIndex target = ResponsibleFor(key);
  RouteResult res;
  NodeIndex cur = from;
  NodeIndex last = kNoNode;  // previous hop, for 2-cycle detection
  // Generous hop bound: greedy routing halves the remaining distance per
  // finger hop, then walks at most the leafset span.
  const std::size_t kMaxHops = 2 * FingerTable::kBits + alive_count_;
  while (res.hops <= kMaxHops) {
    if (cur == target) {
      res.destination = cur;
      res.success = true;
      if (route_hops_ != nullptr) {
        route_hops_->Add(static_cast<double>(res.hops));
        if (oracle_ != nullptr) route_latency_->Add(res.latency_ms);
      }
      return res;
    }
    const Node& x = nodes_[cur];
    NodeIndex next = kNoNode;
    // Key's clockwise successor among *alive* leafset members (dead
    // entries may linger until failure detection).
    const NodeIndex alive_succ = [&]() -> NodeIndex {
      NodeIndex best = kNoNode;
      NodeId best_dist = 0;
      x.leafset().ForEachMember([&](const LeafsetEntry& e) {
        if (!nodes_[e.node].alive()) return;
        const NodeId d = ClockwiseDistance(key, e.id);
        if (best == kNoNode || d < best_dist) {
          best = e.node;
          best_dist = d;
        }
      });
      return best;
    }();
    // Last mile: when the leafset covers the key, the member that is the
    // key's clockwise successor is the responsible node (greedy preceding
    // hops alone would converge on the key's *predecessor* and stall).
    if (x.leafset().Covers(key)) next = alive_succ;
    // Long range: geometry-dependent table lookup.
    if (next == kNoNode) {
      if (geometry_ == RoutingGeometry::kChordFingers) {
        const NodeIndex f = x.fingers().ClosestPreceding(key);
        if (f != kNoNode && nodes_[f].alive()) next = f;
      } else {
        // Pastry: correct the next mismatched digit.
        const LeafsetEntry& e = x.prefix().EntryFor(key);
        if (e.node != kNoNode && nodes_[e.node].alive() && e.node != cur)
          next = e.node;
      }
    }
    // Fall back to any leafset member that makes clockwise progress.
    if (next == kNoNode) {
      const NodeIndex c = x.leafset().ClosestTo(key);
      if (c != kNoNode && nodes_[c].alive()) next = c;
    }
    // Dead-end repair: hop to the key's successor among alive leafset
    // members even without strict progress (mirrors the leafset-repair
    // detour a real implementation takes around stale entries).
    if (next == kNoNode && alive_succ != cur) next = alive_succ;
    // Last resort: walk the ring clockwise via the nearest alive
    // successor-side member. Stale tables can make the greedy step
    // overshoot the responsible node; the walk provably terminates at it
    // (a real implementation reaches the same result through timeout-
    // driven leafset repair and re-routing).
    if ((next == kNoNode || next == last) && res.hops > 0) {
      for (const auto& e : x.leafset().successors()) {
        if (nodes_[e.node].alive() && e.node != last) {
          next = e.node;
          break;
        }
      }
    }
    if (next == kNoNode || next == cur) break;  // stuck: stale tables
    last = cur;
    if (oracle_ != nullptr)
      res.latency_ms += LatencyBetween(cur, next);
    if (trace_ != nullptr) {
      sim::TraceRecord rec;
      rec.time_ms = trace_->now();
      rec.src_host = nodes_[cur].host();
      rec.dst_host = nodes_[next].host();
      rec.protocol = sim::Protocol::kRouting;
      rec.kind = static_cast<std::uint16_t>(res.hops);
      rec.bytes = kRouteHopBytes;
      rec.dropped = false;
      trace_->Append(rec);
    }
    cur = next;
    ++res.hops;
  }
  res.destination = cur;
  res.success = false;
  return res;
}

void Ring::set_metrics(obs::MetricsRegistry* registry) {
  metrics_ = registry;
  if (registry == nullptr) {
    route_hops_ = nullptr;
    route_latency_ = nullptr;
    leafset_repairs_ = nullptr;
    return;
  }
  route_hops_ = &registry->histogram("dht.route.hops");
  route_latency_ = &registry->histogram("dht.route.latency_ms");
  leafset_repairs_ = &registry->counter("dht.leafset.repairs");
}

void Ring::StabilizeAll() {
  // Snapshot the sorted membership once; every per-node rebuild below only
  // reads it (and writes that node's own tables), so the loop is safe to
  // fan out across the pool and lands on identical state either way.
  RefreshSorted();
  const std::size_t m = sorted_.size();
  const bool prefix = geometry_ == RoutingGeometry::kPastryPrefix;
  const auto rebuild = [this, prefix](std::size_t begin, std::size_t end) {
    for (std::size_t k = begin; k < end; ++k) {
      const NodeIndex n = sorted_[k].node;
      FillLeafsetAt(k);
      BuildFingers(n);
      if (prefix) BuildPrefixTable(n);
    }
  };
  if (pool_ != nullptr && m >= 2048) {
    pool_->ParallelForRange(m, 512, rebuild);
  } else {
    rebuild(0, m);
  }
}

void Ring::BuildFingers(NodeIndex n) {
  Node& x = nodes_.at(n);
  for (std::size_t i = 0; i < FingerTable::kBits; ++i) {
    const NodeId key = x.fingers().TargetKey(i);
    const NodeIndex r = ResponsibleFor(key);
    x.fingers().Set(i, nodes_[r].id(), r);
  }
}

void Ring::BuildPrefixTable(NodeIndex n) {
  // Equivalent to offering every sorted alive id in ascending order (the
  // historical build): under first-come placement the winner of slot
  // (row, col) is the SMALLEST alive id sharing exactly `row` digits with
  // the owner and carrying digit `col` at position row — i.e. the smallest
  // id in one aligned interval of the ring. One binary search per slot
  // replaces the O(N) offer sweep per node, which was the dominant cost of
  // bulk joins (O(N²) across a bootstrap). dht_prefix_test pins the
  // equivalence against the offer-loop build.
  RefreshSorted();
  Node& x = nodes_.at(n);
  PrefixTable& pt = x.prefix();
  pt.Clear();
  const NodeId owner = x.id();
  const std::size_t bits = pt.bits_per_digit();
  const std::size_t rows = pt.digits();
  const std::size_t cols = pt.columns();
  const auto first_at_or_after = [this](NodeId lo) {
    return std::lower_bound(
        sorted_.begin(), sorted_.end(), lo,
        [](const LeafsetEntry& e, NodeId v) { return e.id < v; });
  };
  for (std::size_t row = 0; row < rows; ++row) {
    // Ids eligible for row `row` or deeper share the owner's first `row`
    // digits — an aligned block. Once the owner is alone in its block, this
    // row and every deeper one stay empty.
    NodeId block_base = 0;
    if (row > 0) {
      const std::size_t shift = 64 - bits * row;
      block_base = (owner >> shift) << shift;
      const NodeId block_end = block_base + (NodeId{1} << shift);  // 0: top
      bool other = false;
      for (auto it = first_at_or_after(block_base);
           it != sorted_.end() && (block_end == 0 || it->id < block_end);
           ++it) {
        if (it->id != owner) {
          other = true;
          break;
        }
      }
      if (!other) break;
    }
    const std::size_t own_digit = pt.DigitOf(owner, row);
    const std::size_t slot_shift = 64 - bits * (row + 1);
    for (std::size_t col = 0; col < cols; ++col) {
      // Ids with digit own_digit here share > row digits: deeper rows.
      if (col == own_digit) continue;
      const NodeId lo = block_base | (static_cast<NodeId>(col) << slot_shift);
      const NodeId hi = lo + (NodeId{1} << slot_shift);  // 0 means wrap: top
      const auto it = first_at_or_after(lo);
      if (it == sorted_.end()) continue;
      if (hi != 0 && it->id >= hi) continue;
      pt.Place(row, col, it->id, it->node);
    }
  }
}

void Ring::SwapNodeIds(NodeIndex a, NodeIndex b) {
  Node& na = nodes_.at(a);
  Node& nb = nodes_.at(b);
  P2P_CHECK_MSG(na.alive() && nb.alive(), "SwapNodeIds needs alive nodes");
  if (a == b) return;
  const NodeId ida = na.id();
  const NodeId idb = nb.id();
  na.ResetRoutingState(idb);
  nb.ResetRoutingState(ida);
  sorted_dirty_ = true;
  // Leafsets referencing either node by its old id must be re-pointed; the
  // set of affected nodes is the union of the 2r-neighbourhoods of both
  // positions, so a full stabilisation is the simple correct repair (ids
  // didn't move for anyone else, so their leafsets come out identical).
  StabilizeAll();
}

std::size_t Ring::MemoryBytes() const {
  std::size_t total = sizeof(*this);
  total += nodes_.capacity() * sizeof(Node);
  for (const Node& x : nodes_) {
    total += x.leafset().HeapBytes();
    total += x.fingers().HeapBytes();
    total += x.prefix().HeapBytes();
  }
  total += alive_.capacity();
  total += sorted_.capacity() * sizeof(LeafsetEntry);
  return total;
}

double Ring::LatencyBetween(NodeIndex a, NodeIndex b) const {
  P2P_CHECK_MSG(oracle_ != nullptr, "ring has no latency oracle");
  return oracle_->Latency(nodes_.at(a).host(), nodes_.at(b).host());
}

void Ring::CheckInvariants() const {
  RefreshSorted();
  // Unique ids.
  for (std::size_t i = 1; i < sorted_.size(); ++i)
    P2P_CHECK_MSG(sorted_[i - 1].id < sorted_[i].id, "duplicate ids");
  // Converged leafsets must match the sorted ring order.
  const std::size_t m = sorted_.size();
  if (m < 2) return;
  for (std::size_t pos = 0; pos < m; ++pos) {
    const Node& x = nodes_[sorted_[pos].node];
    const std::size_t take = std::min(per_side_, m - 1);
    const auto& succ = x.leafset().successors();
    const auto& pred = x.leafset().predecessors();
    P2P_CHECK_MSG(succ.size() == take && pred.size() == take,
                  "leafset of node " << sorted_[pos].node << " not full");
    for (std::size_t k = 1; k <= take; ++k) {
      P2P_CHECK(succ[k - 1].id == sorted_[(pos + k) % m].id);
      P2P_CHECK(pred[k - 1].id == sorted_[(pos + m - k) % m].id);
    }
  }
}

}  // namespace p2p::dht
