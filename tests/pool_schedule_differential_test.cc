// Differential test of admission scheduling: TaskManager::Schedule (which
// weighs only the session and the registry's candidate list, and plans in
// session-local ids) against the retained pool-scan task manager in
// tests/reference/market_ref.h. Both sides run the same seeded admissions,
// removals and rescheduling sweeps on the 1200-host paper preset, each
// booking degrees in its own registry; after every operation every
// session's tree, height and helper count, every Schedule outcome
// (preemption lists included) and every degree table must be equal.
#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "pool/market.h"
#include "pool/resource_pool.h"
#include "reference/market_ref.h"
#include "somo/report.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace p2p::pool {
namespace {

using marketref::MarketRef;
using marketref::ScheduleRecord;
using marketref::TaskManagerRef;

ResourcePool& PaperPool() {
  static ResourcePool* pool = [] {
    util::ThreadPool threads(2);
    PoolConfig cfg;  // paper defaults: 600 routers, 1200 hosts
    cfg.seed = 5;
    return new ResourcePool(cfg, &threads);
  }();
  return *pool;
}

std::unique_ptr<TaskManagerRef> MakeRef(ResourcePool& pool,
                                        DegreeRegistry& registry,
                                        alm::SessionSpec spec,
                                        TaskManagerOptions options) {
  return std::make_unique<TaskManagerRef>(pool, registry, std::move(spec),
                                          std::move(options));
}

std::unique_ptr<TaskManager> MakeReal(ResourcePool& pool,
                                      DegreeRegistry& registry,
                                      alm::SessionSpec spec,
                                      TaskManagerOptions options) {
  EXPECT_EQ(&registry, &pool.registry());
  return std::make_unique<TaskManager>(pool, std::move(spec),
                                       std::move(options));
}

struct Config {
  alm::Strategy strategy;
  int helper_min_available;
  double stream_kbps;
};

std::string ConfigName(const ::testing::TestParamInfo<Config>& info) {
  const Config& c = info.param;
  std::string name =
      c.strategy == alm::Strategy::kLeafsetAdjust ? "Leafset" : "Critical";
  name += "_min" + std::to_string(c.helper_min_available);
  if (c.stream_kbps > 0.0)
    name += "_stream" + std::to_string(static_cast<int>(c.stream_kbps));
  return name;
}

TaskManagerOptions OptionsOf(const Config& c) {
  TaskManagerOptions opt;
  opt.strategy = c.strategy;
  opt.helper_min_available = c.helper_min_available;
  opt.stream_kbps = c.stream_kbps;
  return opt;
}

// 20-host sessions whose members are disjoint from every active session's,
// as the paper's market assumes (and bench/e2e's market workload draws
// them): the sessions compete for helpers and preempt each other, but
// never share a member.
class SpecSource {
 public:
  SpecSource(std::uint64_t seed, std::size_t hosts)
      : rng_(seed), busy_(hosts, 0) {}

  alm::SessionSpec Next(alm::SessionId id) {
    std::vector<std::size_t> group;
    while (group.size() < 20) {
      const std::size_t h = rng_.NextBounded(busy_.size());
      if (busy_[h]) continue;
      busy_[h] = 1;
      group.push_back(h);
    }
    alm::SessionSpec spec;
    spec.id = id;
    spec.priority = static_cast<int>(
        rng_.UniformInt(somo::kHighestPriority, somo::kLowestPriority));
    spec.root = group[0];
    spec.members.assign(group.begin() + 1, group.end());
    return spec;
  }

  void Release(const alm::SessionSpec& spec) {
    busy_[spec.root] = 0;
    for (const alm::ParticipantId m : spec.members) busy_[m] = 0;
  }

 private:
  util::Rng rng_;
  std::vector<char> busy_;
};

template <typename A, typename B>
void ExpectSameSession(const A& a, const B& b) {
  const alm::SessionId id = a.spec().id;
  ASSERT_EQ(a.scheduled(), b.scheduled()) << "session " << id;
  if (!a.scheduled()) return;
  EXPECT_EQ(a.current_height(), b.current_height()) << "session " << id;
  EXPECT_EQ(a.current_helpers(), b.current_helpers()) << "session " << id;
  const alm::MulticastTree& ta = *a.current_tree();
  const alm::MulticastTree& tb = *b.current_tree();
  ASSERT_EQ(ta.members(), tb.members()) << "session " << id;
  for (const alm::ParticipantId v : ta.members()) {
    ASSERT_EQ(ta.parent(v), tb.parent(v)) << "session " << id << " node " << v;
    ASSERT_EQ(ta.children(v), tb.children(v))
        << "session " << id << " node " << v;
  }
}

void ExpectSameRegistry(const DegreeRegistry& a, const DegreeRegistry& b) {
  ASSERT_EQ(a.node_count(), b.node_count());
  for (std::size_t n = 0; n < a.node_count(); ++n) {
    const somo::DegreeTable& x = a.table(n);
    const somo::DegreeTable& y = b.table(n);
    ASSERT_EQ(x.total, y.total) << "node " << n;
    ASSERT_EQ(x.taken.size(), y.taken.size()) << "node " << n;
    for (std::size_t k = 0; k < x.taken.size(); ++k) {
      ASSERT_EQ(x.taken[k].session, y.taken[k].session) << "node " << n;
      ASSERT_EQ(x.taken[k].priority, y.taken[k].priority) << "node " << n;
    }
  }
}

void ExpectSameOutcome(const ScheduleOutcome& a, const ScheduleOutcome& b) {
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.height_true, b.height_true);
  EXPECT_EQ(a.helpers_used, b.helpers_used);
  EXPECT_EQ(a.preempted, b.preempted);
  EXPECT_EQ(a.stale_conflict, b.stale_conflict);
}

void ExpectSameLog(const std::vector<ScheduleRecord>& a,
                   const std::vector<ScheduleRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("schedule call " + std::to_string(i));
    EXPECT_EQ(a[i].session, b[i].session);
    ExpectSameOutcome(a[i].outcome, b[i].outcome);
  }
}

// Drives two markets through one seeded script: admissions of random
// sessions, the oldest leaving above a cap of active sessions, and a
// sweep every few admissions. `check` runs after every operation.
template <typename MarketA, typename MarketB, typename Check>
void RunScript(MarketA& a, MarketB& b, std::uint64_t seed, std::size_t hosts,
               const Check& check) {
  constexpr std::size_t kAdmissions = 36;
  constexpr std::size_t kActiveCap = 14;
  constexpr std::size_t kSweepEvery = 9;
  SpecSource specs(seed, hosts);
  util::Rng sweep_a(seed + 1);
  util::Rng sweep_b(seed + 1);
  std::deque<alm::SessionSpec> active;
  for (std::size_t i = 0; i < kAdmissions; ++i) {
    SCOPED_TRACE("admission " + std::to_string(i));
    if (active.size() >= kActiveCap) {
      a.RemoveSession(active.front().id);
      b.RemoveSession(active.front().id);
      specs.Release(active.front());
      active.pop_front();
      check();
    }
    const alm::SessionSpec spec =
        specs.Next(static_cast<alm::SessionId>(i + 1));
    a.AddSession(spec);
    b.AddSession(spec);
    active.push_back(spec);
    check();
    if ((i + 1) % kSweepEvery == 0) {
      a.ReschedulingSweep(sweep_a);
      b.ReschedulingSweep(sweep_b);
      check();
    }
  }
  for (const alm::SessionSpec& spec : active) {
    a.RemoveSession(spec.id);
    b.RemoveSession(spec.id);
  }
}

class ScheduleDifferential : public ::testing::TestWithParam<Config> {};

// The real MarketScheduler (real TaskManagers, the pool's registry)
// against the reference market (reference task managers, a registry of
// its own).
TEST_P(ScheduleDifferential, MarketMatchesPoolScanReference) {
  ResourcePool& pool = PaperPool();
  ASSERT_EQ(pool.registry().TotalUsed(), 0u);
  const TaskManagerOptions options = OptionsOf(GetParam());
  DegreeRegistry ref_registry(pool.degree_bounds());
  MarketScheduler real(pool, options);
  MarketRef<TaskManagerRef> ref(pool, ref_registry, options, &MakeRef);
  std::size_t checks = 0;
  RunScript(real, ref, 11, pool.size(), [&] {
    ++checks;
    ASSERT_EQ(real.session_ids(), ref.session_ids());
    for (const alm::SessionId id : real.session_ids())
      ExpectSameSession(real.session(id), ref.session(id));
    EXPECT_EQ(real.total_reschedules(), ref.total_reschedules());
    EXPECT_EQ(real.total_preemptions(), ref.total_preemptions());
    ExpectSameRegistry(pool.registry(), ref_registry);
  });
  EXPECT_GT(checks, 40u);
  EXPECT_GT(real.total_preemptions(), 0u);  // cascades were exercised
  EXPECT_EQ(pool.registry().TotalUsed(), 0u);
}

// The real TaskManager inside the reference cascade loop: every Schedule
// outcome, preemption lists included, matches the reference's.
TEST_P(ScheduleDifferential, EveryOutcomeMatchesPoolScanReference) {
  ResourcePool& pool = PaperPool();
  ASSERT_EQ(pool.registry().TotalUsed(), 0u);
  const TaskManagerOptions options = OptionsOf(GetParam());
  DegreeRegistry ref_registry(pool.degree_bounds());
  MarketRef<TaskManager> real(pool, pool.registry(), options, &MakeReal);
  MarketRef<TaskManagerRef> ref(pool, ref_registry, options, &MakeRef);
  std::size_t calls = 0;
  RunScript(real, ref, 23, pool.size(), [&] {
    const std::vector<ScheduleRecord> log = real.TakeLog();
    calls += log.size();
    ExpectSameLog(log, ref.TakeLog());
    for (const alm::SessionId id : real.session_ids())
      ExpectSameSession(real.session(id), ref.session(id));
    ExpectSameRegistry(pool.registry(), ref_registry);
  });
  EXPECT_GT(calls, 40u);
  EXPECT_EQ(pool.registry().TotalUsed(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ScheduleDifferential,
    ::testing::Values(Config{alm::Strategy::kLeafsetAdjust, 4, 0.0},
                      Config{alm::Strategy::kCriticalAdjust, 4, 0.0},
                      Config{alm::Strategy::kLeafsetAdjust, 2, 0.0},
                      Config{alm::Strategy::kCriticalAdjust, 2, 0.0},
                      Config{alm::Strategy::kLeafsetAdjust, 9, 0.0},
                      Config{alm::Strategy::kCriticalAdjust, 9, 0.0},
                      Config{alm::Strategy::kLeafsetAdjust, 4, 500.0},
                      Config{alm::Strategy::kCriticalAdjust, 2, 500.0}),
    ConfigName);

// A view snapshot of `registry`. Records go in descending node order, and
// every seventh node is reported twice — first with an inflated total, then
// with its real table — so the view's last-record-wins rule is exercised.
// Every eleventh node advertises more than its static bound.
somo::AggregateReport SnapshotView(const DegreeRegistry& registry) {
  somo::AggregateReport view;
  for (std::size_t v = registry.node_count(); v-- > 0;) {
    somo::NodeReport r;
    r.node = v;
    r.host = v;
    r.degrees = registry.table(v);
    if (v % 7 == 0) {
      somo::NodeReport early = r;
      early.degrees.total += 5;
      view.Add(early);
    }
    if (v % 11 == 0) r.degrees.total += 3;
    view.Add(r);
  }
  return view;
}

// Schedule(&view) from a stale snapshot: after the snapshot, both
// registries lose every free degree of their high-bound nodes to a
// priority-1 claim, so plans that trust the view run into refused claims
// and roll back. Both sides must agree on every outcome, including which
// sessions hit the conflict.
TEST(ScheduleDifferential, StaleViewConflictsMatchReference) {
  ResourcePool& pool = PaperPool();
  ASSERT_EQ(pool.registry().TotalUsed(), 0u);
  for (const alm::Strategy strategy :
       {alm::Strategy::kLeafsetAdjust, alm::Strategy::kCriticalAdjust}) {
    SCOPED_TRACE(alm::StrategyName(strategy));
    TaskManagerOptions options;
    options.strategy = strategy;
    DegreeRegistry ref_registry(pool.degree_bounds());
    SpecSource specs(31, pool.size());
    std::vector<std::unique_ptr<TaskManager>> real;
    std::vector<std::unique_ptr<TaskManagerRef>> ref;
    const auto add = [&](alm::SessionId id) {
      const alm::SessionSpec spec = specs.Next(id);
      real.push_back(std::make_unique<TaskManager>(pool, spec, options));
      ref.push_back(std::make_unique<TaskManagerRef>(pool, ref_registry,
                                                     spec, options));
    };
    for (alm::SessionId id = 1; id <= 6; ++id) {
      add(id);
      ExpectSameOutcome(real.back()->Schedule(), ref.back()->Schedule());
    }
    // A view of the current tables first (a few nodes over-advertise).
    {
      const somo::AggregateReport fresh = SnapshotView(ref_registry);
      add(7);
      ExpectSameOutcome(real.back()->Schedule(&fresh),
                        ref.back()->Schedule(&fresh));
      ExpectSameSession(*real.back(), *ref.back());
      ExpectSameRegistry(pool.registry(), ref_registry);
    }
    const somo::AggregateReport stale = SnapshotView(ref_registry);
    constexpr alm::SessionId kPoison = 999;
    for (std::size_t v = 0; v < pool.size(); ++v) {
      if (pool.degree_bound(v) < 4) continue;
      while (pool.registry().table(v).free() > 0) {
        ASSERT_TRUE(pool.registry().Claim(v, kPoison, 1, false).ok);
        ASSERT_TRUE(ref_registry.Claim(v, kPoison, 1, false).ok);
      }
    }
    std::size_t conflicts = 0;
    for (alm::SessionId id = 8; id <= 16; ++id) {
      add(id);
      const ScheduleOutcome a = real.back()->Schedule(&stale);
      const ScheduleOutcome b = ref.back()->Schedule(&stale);
      ExpectSameOutcome(a, b);
      ExpectSameSession(*real.back(), *ref.back());
      ExpectSameRegistry(pool.registry(), ref_registry);
      if (a.stale_conflict) ++conflicts;
    }
    EXPECT_GT(conflicts, 0u) << "the stale view never forced a conflict";
    for (auto& tm : real) tm->Teardown();
    for (auto& tm : ref) tm->Teardown();
    pool.registry().ReleaseSession(kPoison);
    ref_registry.ReleaseSession(kPoison);
    ExpectSameRegistry(pool.registry(), ref_registry);
    ASSERT_EQ(pool.registry().TotalUsed(), 0u);
  }
}

}  // namespace
}  // namespace p2p::pool
