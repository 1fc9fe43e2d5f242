#include <gtest/gtest.h>

#include <vector>

#include "pool/degree_table.h"
#include "util/check.h"

namespace p2p::pool {
namespace {

TEST(DegreeRegistry, FreeSlotsClaimedFirst) {
  DegreeRegistry reg({3});
  const auto r = reg.Claim(0, /*session=*/1, /*priority=*/2, false);
  EXPECT_TRUE(r.ok);
  EXPECT_FALSE(r.preemption);
  EXPECT_EQ(reg.table(0).used(), 1);
  EXPECT_EQ(reg.HeldBy(0, 1), 1);
}

TEST(DegreeRegistry, ClaimFailsWhenFullOfEqualOrHigherPriority) {
  DegreeRegistry reg({2});
  EXPECT_TRUE(reg.Claim(0, 1, 1, false).ok);
  EXPECT_TRUE(reg.Claim(0, 2, 2, false).ok);
  // Priority 2 helper cannot displace priority 1 or another priority 2.
  const auto r = reg.Claim(0, 3, 2, false);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(reg.table(0).used(), 2);
}

TEST(DegreeRegistry, LowerPriorityPreempted) {
  DegreeRegistry reg({1});
  EXPECT_TRUE(reg.Claim(0, 1, 3, false).ok);
  const auto r = reg.Claim(0, 2, 1, false);
  EXPECT_TRUE(r.ok);
  EXPECT_TRUE(r.preemption);
  EXPECT_EQ(r.preempted, 1);
  EXPECT_EQ(reg.HeldBy(0, 1), 0);
  EXPECT_EQ(reg.HeldBy(0, 2), 1);
}

TEST(DegreeRegistry, WeakestSlotPreemptedFirst) {
  DegreeRegistry reg({2});
  reg.Claim(0, 1, 2, false);
  reg.Claim(0, 2, 3, false);  // weaker
  const auto r = reg.Claim(0, 3, 1, false);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.preempted, 2);  // the priority-3 slot went first
}

TEST(DegreeRegistry, MemberClaimBeatsEqualPriorityHelper) {
  // The guarantee behind the paper's lower bound: a session's own member
  // claim (priority 1, member) displaces another session's priority-1
  // helper claim.
  DegreeRegistry reg({1});
  EXPECT_TRUE(reg.Claim(0, 1, 1, /*is_member=*/false).ok);
  const auto r = reg.Claim(0, 2, 1, /*is_member=*/true);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.preempted, 1);
}

TEST(DegreeRegistry, MemberClaimDoesNotBeatMemberClaim) {
  DegreeRegistry reg({1});
  EXPECT_TRUE(reg.Claim(0, 1, 1, true).ok);
  EXPECT_FALSE(reg.Claim(0, 2, 1, true).ok);
}

TEST(DegreeRegistry, HelperNeverPreemptsEqualPriorityMember) {
  DegreeRegistry reg({1});
  EXPECT_TRUE(reg.Claim(0, 1, 2, true).ok);
  EXPECT_FALSE(reg.Claim(0, 2, 2, false).ok);
  // But a strictly higher priority helper does.
  EXPECT_TRUE(reg.Claim(0, 3, 1, false).ok);
}

TEST(DegreeRegistry, AvailableForMatchesClaimability) {
  DegreeRegistry reg({4});
  reg.Claim(0, 1, 1, false);
  reg.Claim(0, 2, 2, false);
  reg.Claim(0, 3, 3, false);
  // 1 free + preemptible by priority.
  EXPECT_EQ(reg.AvailableFor(0, 1, false), 3);  // free + p2 + p3
  EXPECT_EQ(reg.AvailableFor(0, 2, false), 2);  // free + p3
  EXPECT_EQ(reg.AvailableFor(0, 3, false), 1);  // free only
  EXPECT_EQ(reg.AvailableFor(0, 1, true), 4);   // member: everything
}

TEST(DegreeRegistry, ReleaseByNode) {
  DegreeRegistry reg({4});
  reg.Claim(0, 7, 1, false);
  reg.Claim(0, 7, 1, false);
  reg.Claim(0, 8, 2, false);
  EXPECT_EQ(reg.Release(0, 7), 2);
  EXPECT_EQ(reg.table(0).used(), 1);
  EXPECT_EQ(reg.Release(0, 7), 0);
}

TEST(DegreeRegistry, ReleaseSessionAcrossNodes) {
  DegreeRegistry reg({2, 2, 2});
  reg.Claim(0, 5, 1, false);
  reg.Claim(2, 5, 1, false);
  reg.Claim(1, 6, 1, false);
  const auto affected = reg.ReleaseSession(5);
  EXPECT_EQ(affected, (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(reg.TotalUsed(), 1u);
}

TEST(DegreeRegistry, ReleaseSessionSkipsNodesWherePreempted) {
  // Session 5 claims at nodes 0, 1 and 2; session 6 then preempts its only
  // slot at node 1. Releasing 5 frees nodes 0 and 2 and leaves node 1 (and
  // session 6's slot there) alone, as the full scan did.
  DegreeRegistry reg({2, 1, 2});
  reg.Claim(2, 5, 3, false);
  reg.Claim(0, 5, 3, false);
  reg.Claim(1, 5, 3, false);
  reg.Claim(0, 5, 3, false);
  const ClaimResult cr = reg.Claim(1, 6, 1, false);
  ASSERT_TRUE(cr.ok && cr.preemption);
  EXPECT_EQ(cr.preempted, 5);
  EXPECT_EQ(reg.HeldBy(1, 5), 0);
  EXPECT_EQ(reg.ReleaseSession(5), (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(reg.HeldBy(1, 6), 1);
  EXPECT_EQ(reg.TotalUsed(), 1u);
  EXPECT_TRUE(reg.ReleaseSession(5).empty());
  EXPECT_EQ(reg.ReleaseSession(6), (std::vector<std::size_t>{1}));
  EXPECT_EQ(reg.TotalUsed(), 0u);
  reg.CheckInvariants();
}

TEST(DegreeRegistry, TotalsAndInvariants) {
  DegreeRegistry reg({2, 3});
  EXPECT_EQ(reg.TotalCapacity(), 5u);
  reg.Claim(0, 1, 1, false);
  reg.Claim(1, 1, 2, true);
  EXPECT_EQ(reg.TotalUsed(), 2u);
  reg.CheckInvariants();
}

TEST(DegreeRegistry, ZeroBoundNodeUnclaimable) {
  DegreeRegistry reg({0});
  EXPECT_FALSE(reg.Claim(0, 1, 1, true).ok);
  EXPECT_EQ(reg.AvailableFor(0, 1, true), 0);
}

TEST(DegreeRegistry, NodesWithBoundAtLeastListsAscendingNodes) {
  DegreeRegistry reg({4, 2, 9, 0, 4, 3});
  EXPECT_EQ(reg.NodesWithBoundAtLeast(4),
            (std::vector<std::size_t>{0, 2, 4}));
  EXPECT_EQ(reg.NodesWithBoundAtLeast(9), (std::vector<std::size_t>{2}));
  EXPECT_TRUE(reg.NodesWithBoundAtLeast(10).empty());
  EXPECT_EQ(reg.NodesWithBoundAtLeast(0).size(), 6u);
  // The static bound, not the current availability: claims change nothing.
  for (int k = 0; k < 4; ++k) reg.Claim(0, 1, 1, true);
  EXPECT_EQ(reg.NodesWithBoundAtLeast(4),
            (std::vector<std::size_t>{0, 2, 4}));
  EXPECT_EQ(reg.AvailableFor(0, 1, true), 0);
  // Built once per threshold: later calls return the same list.
  EXPECT_EQ(&reg.NodesWithBoundAtLeast(4), &reg.NodesWithBoundAtLeast(4));
}

TEST(DegreeRegistry, TableViewMirrorsSlots) {
  DegreeRegistry reg({3});
  reg.Claim(0, 4, 2, false);
  reg.Claim(0, 9, 3, false);
  const auto& t = reg.table(0);
  EXPECT_EQ(t.total, 3);
  ASSERT_EQ(t.taken.size(), 2u);
  EXPECT_EQ(t.HeldBy(4), 1);
  EXPECT_EQ(t.UsedAt(3), 1);
  EXPECT_EQ(t.AvailableFor(1), 3);
}

}  // namespace
}  // namespace p2p::pool
