// DegreeRegistry: the authoritative bookkeeping of every node's degree
// table (paper Figure 9). Task managers claim and release degrees here;
// the SOMO report plumbing snapshots these tables into NodeReports.
//
// The registry also owns the static degree bounds (each table's total,
// fixed at construction). No claim can make a node offer more than its
// bound, so a task manager looking for helpers that offer at least k
// degrees need only weigh the nodes whose bound reaches k:
// NodesWithBoundAtLeast(k) lists them, built once per k.
//
// Priority semantics (paper §5.3): a claim at priority p may preempt a slot
// held at a numerically larger (= lower-class) priority. Claims carry a
// member flag — a session holds priority 1 *as a member* at its own nodes,
// and member claims dominate equal-priority helper claims, which is what
// makes the paper's guarantee ("each session can always run at least its
// AMCast+adjust plan") hold even against priority-1 competitors' helpers.
#pragma once

#include <cstddef>
#include <map>
#include <unordered_map>
#include <vector>

#include "alm/session.h"
#include "somo/report.h"

namespace p2p::pool {

struct ClaimResult {
  bool ok = false;
  // Valid when a preemption happened: the victim session.
  alm::SessionId preempted = somo::kNoSession;
  bool preemption = false;
};

class DegreeRegistry {
 public:
  explicit DegreeRegistry(std::vector<int> degree_bounds);

  std::size_t node_count() const { return tables_.size(); }
  const somo::DegreeTable& table(std::size_t node) const {
    return tables_.at(node);
  }
  int bound(std::size_t node) const { return tables_.at(node).total; }

  // Degrees a claim (priority, is_member) could obtain at `node`,
  // counting its own already-held slots as unavailable. Never more than
  // bound(node).
  int AvailableFor(std::size_t node, int priority, bool is_member) const;

  // Ascending ids of the nodes whose static bound is at least `threshold`
  // (every node when threshold <= 0). The first call per threshold builds
  // the list; later calls return it. Not safe to call concurrently: fetch
  // the list before fanning work out over threads.
  const std::vector<std::size_t>& NodesWithBoundAtLeast(int threshold);

  // Claim one degree at `node` for `session` with the given effective
  // priority. Prefers free slots; otherwise preempts the weakest
  // preemptible slot (largest priority value, helper before member).
  ClaimResult Claim(std::size_t node, alm::SessionId session, int priority,
                    bool is_member);

  // Release all slots `session` holds at `node`; returns how many.
  int Release(std::size_t node, alm::SessionId session);

  // Release every slot of `session`; returns the affected nodes, ascending.
  // Visits only the nodes the session has claimed at, not every node.
  std::vector<std::size_t> ReleaseSession(alm::SessionId session);

  // Slots held by `session` at `node`.
  int HeldBy(std::size_t node, alm::SessionId session) const;

  // Total slots in use across all nodes (for utilisation metrics).
  std::size_t TotalUsed() const;
  std::size_t TotalCapacity() const;

  // Consistency check: every table within bounds, member flags coherent.
  void CheckInvariants() const;

 private:
  struct Slot {
    alm::SessionId session;
    int priority;
    bool is_member;
  };
  // Parallel to somo::DegreeTable but with the member flag; the public
  // table() view is regenerated on mutation.
  std::vector<std::vector<Slot>> slots_;
  std::vector<somo::DegreeTable> tables_;
  // Per session, every node a claim of it succeeded at since its last
  // ReleaseSession (repeats and since-preempted claims included): the only
  // nodes that can hold its slots.
  std::unordered_map<alm::SessionId, std::vector<std::size_t>> claimed_;
  // NodesWithBoundAtLeast lists, by threshold.
  std::map<int, std::vector<std::size_t>> bound_at_least_;

  void SyncTable(std::size_t node);
};

}  // namespace p2p::pool
