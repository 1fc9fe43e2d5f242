#include "alm/tree.h"

#include <algorithm>

#include "alm/latency_matrix.h"
#include "util/check.h"

namespace p2p::alm {

MulticastTree::MulticastTree(std::size_t participant_count)
    : space_(participant_count) {}

bool MulticastTree::Contains(ParticipantId v) const {
  P2P_CHECK(v < space_);
  return v < slot_.size() && slot_[v] != kNoSlot;
}

std::uint32_t MulticastTree::SlotOf(ParticipantId v) const {
  P2P_CHECK(Contains(v));
  return slot_[v];
}

void MulticastTree::Insert(ParticipantId v, ParticipantId parent) {
  if (v >= slot_.size()) slot_.resize(v + 1, kNoSlot);
  slot_[v] = static_cast<std::uint32_t>(members_.size());
  members_.push_back(v);
  parents_.push_back(parent);
  children_.emplace_back();
}

void MulticastTree::SetRoot(ParticipantId r) {
  P2P_CHECK_MSG(root_ == kNoParticipant, "root already set");
  P2P_CHECK(r < space_);
  root_ = r;
  Insert(r, kNoParticipant);
}

void MulticastTree::AddChild(ParticipantId parent, ParticipantId v) {
  P2P_CHECK_MSG(Contains(parent), "parent " << parent << " not in tree");
  P2P_CHECK_MSG(!Contains(v), "node " << v << " already in tree");
  children_[slot_[parent]].push_back(v);
  Insert(v, parent);
}

void MulticastTree::Reparent(ParticipantId v, ParticipantId new_parent) {
  P2P_CHECK(Contains(v) && v != root_);
  P2P_CHECK(Contains(new_parent));
  P2P_CHECK_MSG(!InSubtree(new_parent, v),
                "reparenting " << v << " under its own descendant");
  const std::uint32_t sv = slot_[v];
  auto& sibs = children_[slot_[parents_[sv]]];
  sibs.erase(std::find(sibs.begin(), sibs.end(), v));
  parents_[sv] = new_parent;
  children_[slot_[new_parent]].push_back(v);
}

void MulticastTree::SwapPositions(ParticipantId a, ParticipantId b) {
  P2P_CHECK(Contains(a) && Contains(b));
  if (a == b) return;
  const std::uint32_t sa = slot_[a];
  const std::uint32_t sb = slot_[b];
  P2P_CHECK_MSG(parents_[sa] != b && parents_[sb] != a,
                "cannot swap a parent with its direct child");
  P2P_CHECK_MSG(a != root_ && b != root_, "cannot swap the root");

  const ParticipantId pa = parents_[sa];
  const ParticipantId pb = parents_[sb];
  // Swap the parent links (careful when a and b are siblings: swapping the
  // two entries in one child list must not match the freshly written one).
  if (pa == pb) {
    auto& cs = children_[slot_[pa]];
    std::iter_swap(std::find(cs.begin(), cs.end(), a),
                   std::find(cs.begin(), cs.end(), b));
  } else {
    auto replace_child = [&](ParticipantId p, ParticipantId from,
                             ParticipantId to) {
      auto& cs = children_[slot_[p]];
      *std::find(cs.begin(), cs.end(), from) = to;
    };
    replace_child(pa, a, b);
    replace_child(pb, b, a);
    parents_[sa] = pb;
    parents_[sb] = pa;
  }
  // Swap the children lists; their members' parent pointers follow.
  std::swap(children_[sa], children_[sb]);
  for (const ParticipantId c : children_[sa]) parents_[slot_[c]] = a;
  for (const ParticipantId c : children_[sb]) parents_[slot_[c]] = b;
}

void MulticastTree::SwapSubtrees(ParticipantId a, ParticipantId b) {
  P2P_CHECK(Contains(a) && Contains(b));
  P2P_CHECK(a != b);
  P2P_CHECK_MSG(a != root_ && b != root_, "cannot swap the root's subtree");
  P2P_CHECK_MSG(!InSubtree(a, b) && !InSubtree(b, a),
                "subtree swap between ancestor and descendant");
  const std::uint32_t sa = slot_[a];
  const std::uint32_t sb = slot_[b];
  const ParticipantId pa = parents_[sa];
  const ParticipantId pb = parents_[sb];
  if (pa == pb) return;  // same parent: the swap changes nothing
  auto& ca = children_[slot_[pa]];
  auto& cb = children_[slot_[pb]];
  *std::find(ca.begin(), ca.end(), a) = b;
  *std::find(cb.begin(), cb.end(), b) = a;
  parents_[sa] = pb;
  parents_[sb] = pa;
}

void MulticastTree::RemoveLeaf(ParticipantId v) {
  P2P_CHECK(Contains(v));
  P2P_CHECK_MSG(v != root_, "cannot remove the root");
  const std::uint32_t sv = slot_[v];
  P2P_CHECK_MSG(children_[sv].empty(), "node " << v << " has children");
  auto& sibs = children_[slot_[parents_[sv]]];
  sibs.erase(std::find(sibs.begin(), sibs.end(), v));
  // Records stay in insertion order: close the gap and re-index the
  // members behind it.
  members_.erase(members_.begin() + sv);
  parents_.erase(parents_.begin() + sv);
  children_.erase(children_.begin() + sv);
  slot_[v] = kNoSlot;
  for (std::size_t s = sv; s < members_.size(); ++s)
    slot_[members_[s]] = static_cast<std::uint32_t>(s);
}

ParticipantId MulticastTree::parent(ParticipantId v) const {
  return parents_[SlotOf(v)];
}

const std::vector<ParticipantId>& MulticastTree::children(
    ParticipantId v) const {
  return children_[SlotOf(v)];
}

int MulticastTree::Degree(ParticipantId v) const {
  return static_cast<int>(children_[SlotOf(v)].size()) + (v == root_ ? 0 : 1);
}

bool MulticastTree::IsLeaf(ParticipantId v) const {
  return children_[SlotOf(v)].empty();
}

bool MulticastTree::InSubtree(ParticipantId v, ParticipantId ancestor) const {
  P2P_CHECK(Contains(v) && Contains(ancestor));
  ParticipantId cur = v;
  for (;;) {
    if (cur == ancestor) return true;
    if (cur == root_) return false;
    cur = parents_[slot_[cur]];
  }
}

void MulticastTree::Relabel(std::size_t participant_space,
                            std::span<const ParticipantId> ids) {
  // Check and index the new ids first, so a bad map leaves the tree as it
  // was.
  ParticipantId top = 0;
  for (const ParticipantId v : members_) {
    P2P_CHECK_MSG(v < ids.size(), "no new id for participant " << v);
    P2P_CHECK_MSG(ids[v] < participant_space,
                  "new id " << ids[v] << " out of range");
    top = std::max(top, ids[v]);
  }
  std::vector<std::uint32_t> slot(members_.empty() ? 0 : top + 1, kNoSlot);
  for (std::size_t s = 0; s < members_.size(); ++s) {
    const ParticipantId to = ids[members_[s]];
    P2P_CHECK_MSG(slot[to] == kNoSlot, "two members relabeled to " << to);
    slot[to] = static_cast<std::uint32_t>(s);
  }
  // Parents and children are members, so each of their ids maps too.
  for (std::size_t s = 0; s < members_.size(); ++s) {
    members_[s] = ids[members_[s]];
    if (parents_[s] != kNoParticipant) parents_[s] = ids[parents_[s]];
    for (ParticipantId& c : children_[s]) c = ids[c];
  }
  if (root_ != kNoParticipant) root_ = ids[root_];
  space_ = participant_space;
  slot_ = std::move(slot);
}

// BFS height computation shared by the LatencyFn and LatencyMatrix
// overloads; `Lat` only needs operator()(ParticipantId, ParticipantId).
template <typename Lat>
std::vector<double> MulticastTree::HeightsImpl(const Lat& latency) const {
  std::vector<double> h(space_, 0.0);
  // members_ is insertion-ordered but Reparent/SwapPositions break the
  // parent-before-child property, so walk top-down via BFS from the root.
  if (root_ == kNoParticipant) return h;
  std::vector<ParticipantId> queue{root_};
  std::size_t head = 0;
  while (head < queue.size()) {
    const ParticipantId v = queue[head++];
    for (const ParticipantId c : children_[slot_[v]]) {
      h[c] = h[v] + latency(v, c);
      queue.push_back(c);
    }
  }
  P2P_CHECK_MSG(queue.size() == members_.size(), "tree contains a cycle");
  return h;
}

std::vector<double> MulticastTree::ComputeHeights(
    const LatencyFn& latency) const {
  return HeightsImpl(latency);
}

std::vector<double> MulticastTree::ComputeHeights(
    const LatencyMatrix& latency) const {
  return HeightsImpl(latency);
}

double MulticastTree::Height(const LatencyFn& latency) const {
  const auto h = ComputeHeights(latency);
  double best = 0.0;
  for (const ParticipantId v : members_) best = std::max(best, h[v]);
  return best;
}

double MulticastTree::Height(const LatencyMatrix& latency) const {
  const auto h = ComputeHeights(latency);
  double best = 0.0;
  for (const ParticipantId v : members_) best = std::max(best, h[v]);
  return best;
}

void MulticastTree::Validate(const std::vector<int>& degree_bounds) const {
  P2P_CHECK(root_ != kNoParticipant);
  P2P_CHECK(degree_bounds.size() == space_);
  for (std::size_t s = 0; s < members_.size(); ++s) {
    const ParticipantId v = members_[s];
    P2P_CHECK_MSG(Contains(v) && slot_[v] == s, "slot index broken at " << v);
    P2P_CHECK_MSG(Degree(v) <= degree_bounds[v],
                  "node " << v << " degree " << Degree(v) << " exceeds bound "
                          << degree_bounds[v]);
    for (const ParticipantId c : children_[s]) {
      P2P_CHECK_MSG(Contains(c), "non-member " << c << " listed as a child");
      P2P_CHECK_MSG(parents_[slot_[c]] == v, "broken parent link at " << c);
    }
    if (v != root_) {
      P2P_CHECK_MSG(Contains(parents_[s]), "orphan node " << v);
      const auto& sibs = children_[slot_[parents_[s]]];
      P2P_CHECK_MSG(std::count(sibs.begin(), sibs.end(), v) == 1,
                    "child-list inconsistency at " << v);
    }
  }
  // Acyclicity + connectivity via the BFS in ComputeHeights.
  (void)ComputeHeights([](ParticipantId, ParticipantId) { return 1.0; });
}

std::size_t MulticastTree::MemoryBytes() const {
  std::size_t bytes = sizeof(*this) +
                      slot_.capacity() * sizeof(std::uint32_t) +
                      members_.capacity() * sizeof(ParticipantId) +
                      parents_.capacity() * sizeof(ParticipantId) +
                      children_.capacity() * sizeof(children_[0]);
  for (const auto& cs : children_) bytes += cs.capacity() * sizeof(cs[0]);
  return bytes;
}

}  // namespace p2p::alm
