// Multicast tree representation for the degree-bounded minimum-height tree
// (DB-MHT) problem of paper §5.1.
//
// Participants live in an index space 0..P-1 (session members plus helper
// candidates); a tree spans a subset of them. "Height" of a node is its
// aggregated latency from the root (Definition 1); the tree's height is the
// maximum over its nodes, attained at some leaf.
//
// Storage is sized by the tree, not by P: one record per tree member
// (parent and child list, kept in insertion order) plus a 32-bit slot index
// that maps a participant id to its record. The index grows on demand up to
// the largest id that ever joined, so it costs at most 4 B per id of the
// space and nothing for ids above the largest member. A tree planned over a
// 10k-host pool for a 20-member session therefore holds ~20 records and at
// most a 40 KB index, where a per-id parent and child list would hold
// 320 KB.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

namespace p2p::alm {

using ParticipantId = std::size_t;
inline constexpr ParticipantId kNoParticipant =
    static_cast<ParticipantId>(-1);

// Pairwise latency used for planning. Both the oracle ("Critical") and the
// coordinate estimate ("Leafset") plug in here.
using LatencyFn = std::function<double(ParticipantId, ParticipantId)>;

class LatencyMatrix;  // flat fast-path view, see alm/latency_matrix.h

class MulticastTree {
 public:
  // `participant_count` sizes the index space; nodes join via SetRoot /
  // AddChild. Nothing is allocated per id up front.
  explicit MulticastTree(std::size_t participant_count);

  std::size_t participant_space() const { return space_; }
  std::size_t size() const { return members_.size(); }
  bool Contains(ParticipantId v) const;

  ParticipantId root() const { return root_; }
  void SetRoot(ParticipantId r);

  // Attach `v` (not yet in the tree) under `parent` (already in the tree).
  void AddChild(ParticipantId parent, ParticipantId v);

  // Re-attach `v` (already in the tree, not the root) under `new_parent`.
  // `new_parent` must not be in v's subtree.
  void Reparent(ParticipantId v, ParticipantId new_parent);

  // Exchange the tree positions of two members (used by adjust move (b):
  // "swap the highest node with another leaf node"). Each takes over the
  // other's parent and children.
  void SwapPositions(ParticipantId a, ParticipantId b);

  // Exchange the parent edges of two subtree roots (adjust move (c)):
  // each keeps its own children, so the whole subtrees move. Neither may
  // be the root or an ancestor of the other.
  void SwapSubtrees(ParticipantId a, ParticipantId b);

  // Detach a childless non-root member from the tree (dynamic-membership
  // support; interior departures first re-home their children).
  void RemoveLeaf(ParticipantId v);

  ParticipantId parent(ParticipantId v) const;
  const std::vector<ParticipantId>& children(ParticipantId v) const;

  // Tree degree: incident tree edges (children + parent link for non-root).
  int Degree(ParticipantId v) const;
  bool IsLeaf(ParticipantId v) const;

  // True iff `ancestor` lies on the root path of `v` (inclusive of v).
  bool InSubtree(ParticipantId v, ParticipantId ancestor) const;

  // Members in insertion order (root first).
  const std::vector<ParticipantId>& members() const { return members_; }

  // Move the tree to another id space, in place: participant v becomes
  // `ids[v]` (ids must be injective over the members and
  // < participant_space). Member order, parents and child order carry
  // over unchanged. Planners build a tree in a session's own compact id
  // space and return it in the caller's ids this way.
  void Relabel(std::size_t participant_space,
               std::span<const ParticipantId> ids);

  // Aggregated-latency heights for every member; index by participant id
  // (non-members hold 0). Root has height 0. The LatencyMatrix overloads
  // are the fast path (array indexing instead of std::function dispatch);
  // the matrix must cover every tree member.
  std::vector<double> ComputeHeights(const LatencyFn& latency) const;
  std::vector<double> ComputeHeights(const LatencyMatrix& latency) const;
  // Max over members of the height (the DB-MHT objective).
  double Height(const LatencyFn& latency) const;
  double Height(const LatencyMatrix& latency) const;

  // Structural + degree validation; throws util::CheckError on violation.
  // `degree_bounds` indexed by participant id.
  void Validate(const std::vector<int>& degree_bounds) const;

  // Resident bytes: the member records, their child lists, the slot index
  // and this object.
  std::size_t MemoryBytes() const;

 private:
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  // Record index of a member (checked).
  std::uint32_t SlotOf(ParticipantId v) const;
  // Append a record for `v` (not yet in the tree) under `parent`.
  void Insert(ParticipantId v, ParticipantId parent);
  template <typename Lat>
  std::vector<double> HeightsImpl(const Lat& latency) const;

  std::size_t space_ = 0;
  ParticipantId root_ = kNoParticipant;
  // Participant id -> record index; kNoSlot (or past the end) = not in
  // the tree.
  std::vector<std::uint32_t> slot_;
  // Member records, one per tree node in insertion order: the id, its
  // parent (kNoParticipant at the root) and its children.
  std::vector<ParticipantId> members_;
  std::vector<ParticipantId> parents_;
  std::vector<std::vector<ParticipantId>> children_;
};

}  // namespace p2p::alm
