#include "pool/degree_table.h"

#include <algorithm>

#include "util/check.h"

namespace p2p::pool {

DegreeRegistry::DegreeRegistry(std::vector<int> degree_bounds) {
  slots_.resize(degree_bounds.size());
  tables_.resize(degree_bounds.size());
  for (std::size_t n = 0; n < degree_bounds.size(); ++n) {
    P2P_CHECK_MSG(degree_bounds[n] >= 0, "negative degree bound");
    tables_[n].total = degree_bounds[n];
  }
}

void DegreeRegistry::SyncTable(std::size_t node) {
  auto& t = tables_[node];
  t.taken.clear();
  t.taken.reserve(slots_[node].size());
  for (const Slot& s : slots_[node])
    t.taken.push_back({s.session, s.priority});
}

int DegreeRegistry::AvailableFor(std::size_t node, int priority,
                                 bool is_member) const {
  const auto& slots = slots_.at(node);
  int n = tables_[node].total - static_cast<int>(slots.size());
  for (const Slot& s : slots) {
    const bool preemptible =
        s.priority > priority ||
        (s.priority == priority && is_member && !s.is_member);
    if (preemptible) ++n;
  }
  return n;
}

const std::vector<std::size_t>& DegreeRegistry::NodesWithBoundAtLeast(
    int threshold) {
  const auto [it, inserted] = bound_at_least_.try_emplace(threshold);
  if (inserted) {
    for (std::size_t n = 0; n < tables_.size(); ++n)
      if (tables_[n].total >= threshold) it->second.push_back(n);
  }
  return it->second;
}

ClaimResult DegreeRegistry::Claim(std::size_t node, alm::SessionId session,
                                  int priority, bool is_member) {
  auto& slots = slots_.at(node);
  ClaimResult result;
  if (static_cast<int>(slots.size()) < tables_[node].total) {
    slots.push_back({session, priority, is_member});
    SyncTable(node);
    claimed_[session].push_back(node);
    result.ok = true;
    return result;
  }
  // Preempt the weakest preemptible slot: largest priority value first,
  // helper claims before member claims at equal priority.
  auto weakest = slots.end();
  for (auto it = slots.begin(); it != slots.end(); ++it) {
    const bool preemptible =
        it->priority > priority ||
        (it->priority == priority && is_member && !it->is_member);
    if (!preemptible) continue;
    if (weakest == slots.end() || it->priority > weakest->priority ||
        (it->priority == weakest->priority && !it->is_member &&
         weakest->is_member)) {
      weakest = it;
    }
  }
  if (weakest == slots.end()) return result;  // nothing claimable
  result.preempted = weakest->session;
  result.preemption = true;
  *weakest = {session, priority, is_member};
  SyncTable(node);
  claimed_[session].push_back(node);
  result.ok = true;
  return result;
}

int DegreeRegistry::Release(std::size_t node, alm::SessionId session) {
  auto& slots = slots_.at(node);
  const auto it = std::remove_if(
      slots.begin(), slots.end(),
      [session](const Slot& s) { return s.session == session; });
  const int n = static_cast<int>(slots.end() - it);
  slots.erase(it, slots.end());
  if (n > 0) SyncTable(node);
  return n;
}

std::vector<std::size_t> DegreeRegistry::ReleaseSession(
    alm::SessionId session) {
  std::vector<std::size_t> affected;
  const auto it = claimed_.find(session);
  if (it == claimed_.end()) return affected;
  std::vector<std::size_t> nodes = std::move(it->second);
  claimed_.erase(it);
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  // A node whose claims were all preempted releases nothing and is left
  // out, as the full scan this replaces left it out.
  for (const std::size_t n : nodes) {
    if (Release(n, session) > 0) affected.push_back(n);
  }
  return affected;
}

int DegreeRegistry::HeldBy(std::size_t node, alm::SessionId session) const {
  return static_cast<int>(
      std::count_if(slots_.at(node).begin(), slots_.at(node).end(),
                    [session](const Slot& s) { return s.session == session; }));
}

std::size_t DegreeRegistry::TotalUsed() const {
  std::size_t n = 0;
  for (const auto& s : slots_) n += s.size();
  return n;
}

std::size_t DegreeRegistry::TotalCapacity() const {
  std::size_t n = 0;
  for (const auto& t : tables_) n += static_cast<std::size_t>(t.total);
  return n;
}

void DegreeRegistry::CheckInvariants() const {
  for (std::size_t n = 0; n < slots_.size(); ++n) {
    P2P_CHECK_MSG(static_cast<int>(slots_[n].size()) <= tables_[n].total,
                  "node " << n << " over-committed");
    P2P_CHECK(tables_[n].taken.size() == slots_[n].size());
  }
}

}  // namespace p2p::pool
