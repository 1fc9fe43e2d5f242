#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "pool/market.h"
#include "pool/task_manager.h"
#include "test_support.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace p2p::pool {
namespace {

alm::SessionSpec MakeSpec(ResourcePool& pool, alm::SessionId id, int priority,
                          std::uint64_t seed, std::size_t group = 12) {
  util::Rng rng(seed);
  const auto idx = rng.SampleIndices(pool.size(), group);
  alm::SessionSpec spec;
  spec.id = id;
  spec.priority = priority;
  spec.root = idx[0];
  spec.members.assign(idx.begin() + 1, idx.end());
  return spec;
}

TEST(TaskManager, ScheduleReservesTreeDegrees) {
  auto& pool = p2p::testing::SharedSmallPool();
  TaskManager tm(pool, MakeSpec(pool, 1, 1, 100), TaskManagerOptions{});
  const auto out = tm.Schedule();
  EXPECT_TRUE(out.ok);
  ASSERT_TRUE(tm.scheduled());
  const auto* tree = tm.current_tree();
  ASSERT_NE(tree, nullptr);
  for (const auto v : tree->members()) {
    EXPECT_EQ(pool.registry().HeldBy(v, 1), tree->Degree(v))
        << "node " << v;
  }
  tm.Teardown();
  EXPECT_EQ(pool.registry().TotalUsed(), 0u);
}

TEST(TaskManager, RescheduleReleasesOldClaims) {
  auto& pool = p2p::testing::SharedSmallPool();
  TaskManager tm(pool, MakeSpec(pool, 2, 1, 101), TaskManagerOptions{});
  tm.Schedule();
  const std::size_t used_once = pool.registry().TotalUsed();
  tm.Schedule();  // replan: must not leak the previous reservation
  EXPECT_EQ(pool.registry().TotalUsed(), used_once);
  tm.Teardown();
  EXPECT_EQ(pool.registry().TotalUsed(), 0u);
}

TEST(TaskManager, ImprovementAgainstOwnBaseline) {
  auto& pool = p2p::testing::SharedSmallPool();
  TaskManager tm(pool, MakeSpec(pool, 3, 1, 102), TaskManagerOptions{});
  tm.Schedule();
  const double baseline = tm.AmcastBaselineHeight();
  EXPECT_GT(baseline, 0.0);
  // Leafset+adjust with the whole pool free should beat plain AMCast.
  EXPECT_GE(tm.CurrentImprovement(), 0.0);
  EXPECT_DOUBLE_EQ(tm.CurrentImprovement(),
                   (baseline - tm.current_height()) / baseline);
  tm.Teardown();
}

// Non-overlapping member block (the paper's multi-session assumption).
alm::SessionSpec BlockSpec(ResourcePool& pool, alm::SessionId id,
                           int priority, std::size_t block,
                           std::size_t group = 12) {
  alm::SessionSpec spec;
  spec.id = id;
  spec.priority = priority;
  const std::size_t base = (block * group) % pool.size();
  spec.root = base;
  for (std::size_t k = 1; k < group; ++k)
    spec.members.push_back((base + k) % pool.size());
  return spec;
}

TEST(TaskManager, HighPriorityPreemptsLowPriorityHelpers) {
  auto& pool = p2p::testing::SharedSmallPool();
  // A low-priority session grabs helpers first.
  TaskManager low(pool, BlockSpec(pool, 10, 3, 0), TaskManagerOptions{});
  low.Schedule();
  // A high-priority session in an adjacent block competes for the same
  // high-degree helpers.
  TaskManager high(pool, BlockSpec(pool, 11, 1, 1), TaskManagerOptions{});
  const auto out = high.Schedule();
  EXPECT_TRUE(out.ok);
  // The only possible victim is session 10.
  for (const auto victim : out.preempted) EXPECT_EQ(victim, 10);
  // The victim can always reschedule (members-only plan is guaranteed).
  const auto retry = low.Schedule();
  EXPECT_TRUE(retry.ok);
  low.Teardown();
  high.Teardown();
  EXPECT_EQ(pool.registry().TotalUsed(), 0u);
}

TEST(TaskManager, MembersAlwaysSchedulableUnderContention) {
  auto& pool = p2p::testing::SharedSmallPool();
  // Fill the pool with several priority-1 sessions on disjoint blocks.
  std::vector<std::unique_ptr<TaskManager>> tms;
  for (int s = 0; s < 4; ++s) {
    tms.push_back(std::make_unique<TaskManager>(
        pool, BlockSpec(pool, 20 + s, 1, static_cast<std::size_t>(s)),
        TaskManagerOptions{}));
    EXPECT_TRUE(tms.back()->Schedule().ok);
  }
  // A late, lowest-priority session must still get a valid plan (its
  // members-only AMCast fallback is guaranteed).
  TaskManager late(pool, BlockSpec(pool, 30, 3, 5), TaskManagerOptions{});
  const auto out = late.Schedule();
  EXPECT_TRUE(out.ok);
  EXPECT_TRUE(late.scheduled());
  late.Teardown();
  for (auto& tm : tms) tm->Teardown();
  EXPECT_EQ(pool.registry().TotalUsed(), 0u);
}

TEST(TaskManager, OverlappingMembersFailGracefully) {
  auto& pool = p2p::testing::SharedSmallPool();
  // Two sessions share every member: the second may be unable to plan
  // (shared degree), but must fail cleanly rather than crash.
  TaskManager a(pool, MakeSpec(pool, 60, 1, 600), TaskManagerOptions{});
  EXPECT_TRUE(a.Schedule().ok);
  TaskManager b(pool, MakeSpec(pool, 61, 1, 600), TaskManagerOptions{});
  const auto out = b.Schedule();  // same seed → identical member set
  if (!out.ok) {
    EXPECT_FALSE(b.scheduled());
  }
  a.Teardown();
  b.Teardown();
  EXPECT_EQ(pool.registry().TotalUsed(), 0u);
}

TEST(TaskManager, SharedMemberWithoutFreeDegreesIsInfeasible) {
  // Another priority-1 session's member claims hold every slot of one of
  // this session's members, so the member plans at bound 0. Any tree gives
  // it an edge, so no plan is feasible: Schedule reports ok == false
  // instead of throwing "claim failed", and leaves the registry as it was.
  auto& pool = p2p::testing::SharedSmallPool();
  DegreeRegistry& reg = pool.registry();
  const alm::SessionSpec spec = MakeSpec(pool, 80, 2, 800);
  const std::size_t shared = spec.members[3];
  const alm::SessionId other = 81;
  for (int k = 0; k < reg.bound(shared); ++k)
    ASSERT_TRUE(reg.Claim(shared, other, 1, /*is_member=*/true).ok);
  TaskManager tm(pool, spec, TaskManagerOptions{});
  ScheduleOutcome out;
  ASSERT_NO_THROW(out = tm.Schedule());
  EXPECT_FALSE(out.ok);
  EXPECT_FALSE(out.stale_conflict);
  EXPECT_FALSE(tm.scheduled());
  EXPECT_NO_THROW(reg.CheckInvariants());
  EXPECT_EQ(reg.HeldBy(shared, other), reg.bound(shared));
  EXPECT_EQ(reg.TotalUsed(), static_cast<std::size_t>(reg.bound(shared)));
  reg.ReleaseSession(other);
  EXPECT_EQ(reg.TotalUsed(), 0u);
}

TEST(MarketScheduler, PartiallyOverlappingSessionsNeverThrow) {
  // 20-host sessions drawn independently on the paper-sized pool share
  // members with each other. Admitting them at priorities 1-3 used to
  // throw "claim failed" out of the market within ten admissions, when a
  // shared member's slots were all held by other sessions' member claims.
  util::ThreadPool threads(2);
  PoolConfig cfg;  // paper defaults: 1200 hosts
  cfg.seed = 1;
  ResourcePool pool(cfg, &threads);
  MarketScheduler market(pool, TaskManagerOptions{});
  util::Rng rng(7);
  std::vector<int> sessions_at(pool.size(), 0);
  bool overlap = false;
  std::size_t unscheduled = 0;
  for (alm::SessionId id = 1; id <= 40; ++id) {
    const auto idx = rng.SampleIndices(pool.size(), 20);
    alm::SessionSpec spec;
    spec.id = id;
    spec.priority = 1 + static_cast<int>(id % 3);
    spec.root = idx[0];
    spec.members.assign(idx.begin() + 1, idx.end());
    for (const auto v : idx) overlap = overlap || sessions_at[v]++ > 0;
    const TaskManager* tm = nullptr;
    ASSERT_NO_THROW(tm = &market.AddSession(spec)) << "admission " << id;
    if (!tm->scheduled()) ++unscheduled;
    ASSERT_NO_THROW(pool.registry().CheckInvariants()) << "admission " << id;
  }
  EXPECT_TRUE(overlap);
  EXPECT_GT(unscheduled, 0u);  // some admission met an infeasible plan
  for (const alm::SessionId id : market.session_ids()) market.RemoveSession(id);
  EXPECT_EQ(pool.registry().TotalUsed(), 0u);
}

TEST(TaskManager, DuplicateMemberRejectedBeforeAdmission) {
  // A member listed twice can never be placed, so every Schedule of such a
  // session would fail: the spec is refused up front, naming the id, and
  // the market never admits the session.
  auto& pool = p2p::testing::SharedSmallPool();
  alm::SessionSpec spec;
  spec.id = 70;
  spec.priority = 2;
  spec.root = 0;
  spec.members = {1, 2, 2, 3};
  try {
    TaskManager tm(pool, spec, TaskManagerOptions{});
    ADD_FAILURE() << "a spec listing member 2 twice was accepted";
  } catch (const util::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate member id 2"),
              std::string::npos)
        << e.what();
  }
  MarketScheduler market(pool, TaskManagerOptions{});
  EXPECT_THROW(market.AddSession(spec), util::CheckError);
  EXPECT_EQ(market.session_count(), 0u);
  EXPECT_EQ(pool.registry().TotalUsed(), 0u);
}

TEST(TaskManager, InvalidPriorityRejected) {
  auto& pool = p2p::testing::SharedSmallPool();
  auto spec = MakeSpec(pool, 40, 1, 400);
  spec.priority = 0;
  EXPECT_THROW(TaskManager(pool, spec, TaskManagerOptions{}),
               util::CheckError);
  spec.priority = 4;
  EXPECT_THROW(TaskManager(pool, spec, TaskManagerOptions{}),
               util::CheckError);
}

TEST(TaskManager, CriticalStrategyWorksWithoutEstimates) {
  auto& pool = p2p::testing::SharedSmallPool();
  TaskManagerOptions opt;
  opt.strategy = alm::Strategy::kCriticalAdjust;
  TaskManager tm(pool, MakeSpec(pool, 50, 2, 500), opt);
  const auto out = tm.Schedule();
  EXPECT_TRUE(out.ok);
  EXPECT_GE(tm.CurrentImprovement(), 0.0);
  tm.Teardown();
}

}  // namespace
}  // namespace p2p::pool
