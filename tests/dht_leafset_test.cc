#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "dht/leafset.h"
#include "reference/leafset_refill_ref.h"
#include "util/rng.h"

namespace p2p::dht {
namespace {

TEST(Leafset, InsertKeepsRClosestPerSide) {
  Leafset ls(/*owner=*/100, /*r=*/2);
  ls.Insert(110, 1);
  ls.Insert(120, 2);
  ls.Insert(105, 3);  // closer successor than 120
  ASSERT_EQ(ls.successors().size(), 2u);
  EXPECT_EQ(ls.successors()[0].id, 105u);
  EXPECT_EQ(ls.successors()[1].id, 110u);
}

TEST(Leafset, OwnerIsNeverInserted) {
  Leafset ls(100, 2);
  EXPECT_FALSE(ls.Insert(100, 0));
  EXPECT_EQ(ls.size(), 0u);
}

TEST(Leafset, SameNodeAppearsOnBothSidesInTinyRings) {
  // With two nodes, each is the other's successor AND predecessor.
  Leafset ls(100, 2);
  ls.Insert(200, 1);
  EXPECT_EQ(ls.successor(), 1u);
  EXPECT_EQ(ls.predecessor(), 1u);
  EXPECT_EQ(ls.Members().size(), 1u);  // deduplicated view
}

TEST(Leafset, ForEachMemberVisitsMembersInOrder) {
  // Successors, then each predecessor not already listed as a successor:
  // the rule Members() always had, checked on rings small enough to put
  // nodes on both sides and on rings too large to.
  util::Rng rng(5);
  for (const std::size_t r : {1u, 2u, 4u}) {
    for (std::size_t n = 1; n <= 2 * r + 4; ++n) {
      Leafset ls(rng(), r);
      for (NodeIndex i = 1; i < n; ++i) ls.Insert(rng(), i);
      if (n % 3 == 0 && ls.size() > 0) ls.Remove(ls.successors().back().id);
      std::vector<LeafsetEntry> expected = ls.successors();
      for (const LeafsetEntry& e : ls.predecessors()) {
        if (std::none_of(ls.successors().begin(), ls.successors().end(),
                         [&](const LeafsetEntry& x) { return x.id == e.id; }))
          expected.push_back(e);
      }
      std::vector<LeafsetEntry> visited;
      ls.ForEachMember([&](const LeafsetEntry& e) { visited.push_back(e); });
      const std::vector<LeafsetEntry> members = ls.Members();
      ASSERT_EQ(visited.size(), expected.size()) << "r " << r << " n " << n;
      ASSERT_EQ(members.size(), expected.size()) << "r " << r << " n " << n;
      for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(visited[i].id, expected[i].id);
        EXPECT_EQ(visited[i].node, expected[i].node);
        EXPECT_EQ(members[i].id, expected[i].id);
      }
    }
  }
}

TEST(Leafset, RemoveDropsBothSides) {
  Leafset ls(100, 2);
  ls.Insert(200, 1);
  EXPECT_TRUE(ls.Remove(200));
  EXPECT_EQ(ls.size(), 0u);
  EXPECT_FALSE(ls.Remove(200));
}

TEST(Leafset, PredecessorOrderingIsCounterClockwise) {
  Leafset ls(100, 3);
  ls.Insert(90, 1);
  ls.Insert(80, 2);
  ls.Insert(95, 3);
  ASSERT_EQ(ls.predecessors().size(), 3u);
  EXPECT_EQ(ls.predecessors()[0].id, 95u);  // nearest first
  EXPECT_EQ(ls.predecessors()[1].id, 90u);
  EXPECT_EQ(ls.predecessors()[2].id, 80u);
}

TEST(Leafset, ContainsAndRefresh) {
  Leafset ls(0, 2);
  ls.Insert(10, 1);
  EXPECT_TRUE(ls.Contains(10));
  ls.Insert(10, 99);  // refresh node index
  EXPECT_EQ(ls.successors()[0].node, 99u);
}

TEST(Leafset, ClosestToPicksBestProgress) {
  Leafset ls(0, 3);
  ls.Insert(10, 1);
  ls.Insert(20, 2);
  ls.Insert(30, 3);
  EXPECT_EQ(ls.ClosestTo(25), 2u);   // 20 is closest without overshoot
  EXPECT_EQ(ls.ClosestTo(30), 3u);   // exact member
  EXPECT_EQ(ls.ClosestTo(5), kNoNode);  // no member in (0, 5]
}

TEST(Leafset, CoversArcBetweenFarthestMembers) {
  Leafset ls(100, 2);
  ls.Insert(110, 1);
  ls.Insert(120, 2);
  ls.Insert(90, 3);
  ls.Insert(80, 4);
  EXPECT_TRUE(ls.Covers(115));
  EXPECT_TRUE(ls.Covers(85));
  EXPECT_TRUE(ls.Covers(100));
  EXPECT_FALSE(ls.Covers(500));
}

TEST(Leafset, WrapAroundZeroInsertsCorrectSides) {
  const NodeId owner = 5;
  Leafset ls(owner, 2);
  ls.Insert(~0ull - 3, 1);  // just behind 0 → close predecessor
  ls.Insert(10, 2);
  EXPECT_EQ(ls.predecessor(), 1u);
  EXPECT_EQ(ls.successor(), 2u);
}

TEST(Leafset, ClearEmptiesBothSides) {
  Leafset ls(0, 2);
  ls.Insert(1, 1);
  ls.Insert(2, 2);
  ls.Clear();
  EXPECT_EQ(ls.size(), 0u);
  EXPECT_EQ(ls.successor(), kNoNode);
}

TEST(Leafset, RefillMatchesInsertSequence) {
  // Every position of rings from one node up to past the wrap-around
  // sizes (2r+1 nodes or fewer put a node on both sides), and of a large
  // ring, for several leafset widths. Each refill starts from a fresh
  // leafset, from one a few random inserts left at another capacity, and
  // from the state the same refill left, as when a neighbour's join
  // refills a converged node again.
  util::Rng rng(17);
  std::size_t cases = 0;
  const auto expect_same_side = [](const std::vector<LeafsetEntry>& got,
                                   const std::vector<LeafsetEntry>& want) {
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, want[i].id) << "entry " << i;
      EXPECT_EQ(got[i].node, want[i].node) << "entry " << i;
    }
  };
  for (const std::size_t r : {1u, 2u, 3u, 5u, 16u}) {
    std::vector<std::size_t> sizes;
    for (std::size_t m = 1; m <= 2 * r + 4; ++m) sizes.push_back(m);
    sizes.push_back(500);
    for (const std::size_t m : sizes) {
      std::vector<LeafsetEntry> sorted(m);
      for (std::size_t i = 0; i < m; ++i) sorted[i] = {rng(), 1000 + i};
      std::sort(sorted.begin(), sorted.end(),
                [](const LeafsetEntry& a, const LeafsetEntry& b) {
                  return a.id < b.id;
                });
      for (std::size_t pos = 0; pos < m; ++pos) {
        for (const int start : {0, 1, 2}) {
          SCOPED_TRACE(::testing::Message() << "r " << r << " m " << m
                                            << " pos " << pos << " start "
                                            << start);
          Leafset got(sorted[pos].id, r);
          Leafset want(sorted[pos].id, r);
          if (start == 1) {
            const std::size_t extra = rng.NextBounded(2 * r + 3);
            for (std::size_t i = 0; i < extra; ++i) {
              const NodeId id = rng();
              got.Insert(id, i);
              want.Insert(id, i);
            }
          } else if (start == 2) {
            got.Refill(sorted, pos);
            leafsetref::RefillByInserts(want, sorted, pos);
          }
          got.Refill(sorted, pos);
          leafsetref::RefillByInserts(want, sorted, pos);
          expect_same_side(got.successors(), want.successors());
          expect_same_side(got.predecessors(), want.predecessors());
          ASSERT_EQ(got.HeapBytes(), want.HeapBytes());
          ++cases;
        }
      }
    }
  }
  EXPECT_EQ(cases, 3u * (883u + 5u * 500u));
}

}  // namespace
}  // namespace p2p::dht
