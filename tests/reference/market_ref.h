// Retained pool-scan task manager and market cascade, kept for the
// schedule differential test the way amcast_ref keeps the linear-scan
// AMCast: `marketref::TaskManagerRef::Schedule` is TaskManager::Schedule as
// it shipped before admissions stopped walking the pool. It computes a
// degree bound for every pool node through DegreeRegistry::AvailableFor,
// then scans the whole pool again for helper candidates, and keeps a
// pool-sized membership array. `marketref::MarketRef` is
// MarketScheduler's admission, removal, sweep and preemption-cascade loop
// over those task managers. Do not optimise either.
//
// Both run against a registry of the test's choosing, so a reference
// market and a real MarketScheduler can share one ResourcePool's
// substrates (oracle, coordinates, bandwidth estimates) while each books
// degrees in its own registry. The planner itself is the one in src/alm.
#pragma once

#include <algorithm>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "alm/planner.h"
#include "alm/session.h"
#include "pool/degree_table.h"
#include "pool/resource_pool.h"
#include "pool/task_manager.h"
#include "somo/report.h"
#include "util/rng.h"

namespace p2p::marketref {

class TaskManagerRef {
 public:
  TaskManagerRef(pool::ResourcePool& pool, pool::DegreeRegistry& registry,
                 alm::SessionSpec spec, pool::TaskManagerOptions options);

  const alm::SessionSpec& spec() const { return spec_; }

  pool::ScheduleOutcome Schedule(const somo::AggregateReport* view = nullptr);
  void Teardown();

  bool scheduled() const { return scheduled_; }
  double current_height() const { return height_true_; }
  std::size_t current_helpers() const { return helpers_used_; }
  const alm::MulticastTree* current_tree() const {
    return scheduled_ ? &tree_ : nullptr;
  }

 private:
  bool IsMember(alm::ParticipantId v) const { return is_member_[v] != 0; }

  pool::ResourcePool& pool_;
  pool::DegreeRegistry& registry_;
  alm::SessionSpec spec_;
  pool::TaskManagerOptions options_;
  std::unique_ptr<alm::Planner> planner_;
  std::vector<char> is_member_;
  alm::MulticastTree tree_;
  bool scheduled_ = false;
  double height_true_ = 0.0;
  std::size_t helpers_used_ = 0;
};

// One Schedule call inside a cascade, in call order.
struct ScheduleRecord {
  alm::SessionId session = 0;
  pool::ScheduleOutcome outcome;
};

// MarketScheduler's loop, generic over the task manager type so the test
// can run the real TaskManager inside it and compare every outcome
// (preemption lists included) with the reference's. Task managers come
// from `factory`, which binds them to the registry.
template <typename TM>
class MarketRef {
 public:
  using Factory = std::unique_ptr<TM> (*)(pool::ResourcePool&,
                                          pool::DegreeRegistry&,
                                          alm::SessionSpec,
                                          pool::TaskManagerOptions);

  MarketRef(pool::ResourcePool& pool, pool::DegreeRegistry& registry,
            pool::TaskManagerOptions options, Factory factory)
      : pool_(pool), registry_(registry), options_(options),
        factory_(factory) {}

  TM& AddSession(alm::SessionSpec spec) {
    const alm::SessionId id = spec.id;
    sessions_.emplace(id, factory_(pool_, registry_, std::move(spec),
                                   options_));
    ScheduleWithCascade(id);
    return *sessions_.at(id);
  }

  void RemoveSession(alm::SessionId id) {
    auto it = sessions_.find(id);
    it->second->Teardown();
    sessions_.erase(it);
  }

  void ReschedulingSweep(util::Rng& rng) {
    std::vector<alm::SessionId> order = session_ids();
    rng.Shuffle(order);
    for (const alm::SessionId id : order) {
      if (sessions_.find(id) == sessions_.end()) continue;
      ScheduleWithCascade(id);
    }
  }

  std::vector<alm::SessionId> session_ids() const {
    std::vector<alm::SessionId> ids;
    ids.reserve(sessions_.size());
    for (const auto& [id, tm] : sessions_) ids.push_back(id);
    std::sort(ids.begin(), ids.end());
    return ids;
  }
  TM& session(alm::SessionId id) { return *sessions_.at(id); }
  std::size_t total_reschedules() const { return reschedules_; }
  std::size_t total_preemptions() const { return preemptions_; }

  // Every Schedule outcome since the last call, in call order.
  std::vector<ScheduleRecord> TakeLog() { return std::move(log_); }

  std::size_t max_cascade_depth = 256;

 private:
  void ScheduleWithCascade(alm::SessionId id) {
    std::deque<alm::SessionId> queue{id};
    std::size_t steps = 0;
    while (!queue.empty()) {
      const alm::SessionId cur = queue.front();
      queue.pop_front();
      const auto it = sessions_.find(cur);
      if (it == sessions_.end()) continue;  // victim ended meanwhile
      const pool::ScheduleOutcome out = it->second->Schedule();
      log_.push_back({cur, out});
      ++reschedules_;
      preemptions_ += out.preempted.size();
      for (const alm::SessionId victim : out.preempted) {
        if (std::find(queue.begin(), queue.end(), victim) == queue.end())
          queue.push_back(victim);
      }
      if (++steps >= max_cascade_depth) break;
    }
  }

  pool::ResourcePool& pool_;
  pool::DegreeRegistry& registry_;
  pool::TaskManagerOptions options_;
  Factory factory_;
  std::unordered_map<alm::SessionId, std::unique_ptr<TM>> sessions_;
  std::size_t reschedules_ = 0;
  std::size_t preemptions_ = 0;
  std::vector<ScheduleRecord> log_;
};

}  // namespace p2p::marketref
