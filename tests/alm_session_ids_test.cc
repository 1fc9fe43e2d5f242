// Planning in a session's own id space: plan-input rejection of duplicate
// members, MulticastTree's member-sized storage, and a footprint check that
// a plan's tree does not grow with the caller's id space.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "alm/planner.h"
#include "net/latency_oracle.h"
#include "net/transit_stub.h"
#include "util/check.h"
#include "util/rng.h"

namespace p2p::alm {
namespace {

std::string CheckMessage(const std::function<void()>& f) {
  try {
    f();
  } catch (const util::CheckError& e) {
    return e.what();
  }
  return "";
}

TEST(TreePlanner, DuplicateMemberRejectedBeforeAnyLatencyQuery) {
  // Members {1, 2, 2, 3}: node 2 could never be placed twice. The input
  // check refuses it, naming the id, before a matrix is filled.
  for (const Strategy strategy :
       {Strategy::kAmcast, Strategy::kCriticalAdjust,
        Strategy::kLeafsetAdjust}) {
    SCOPED_TRACE(StrategyName(strategy));
    std::size_t queries = 0;
    const LatencyFn counted = [&queries](ParticipantId a, ParticipantId b) {
      ++queries;
      return 1.0 + std::abs(static_cast<double>(a) - static_cast<double>(b));
    };
    PlanInput in;
    in.degree_bounds.assign(10, 4);
    in.root = 0;
    in.members = {1, 2, 2, 3};
    in.helper_candidates = {5, 6, 7};
    in.true_latency = counted;
    in.estimated_latency = counted;
    TreePlanner planner(OptionsForStrategy(strategy));
    const std::string msg = CheckMessage([&] { planner.Plan(in); });
    EXPECT_NE(msg.find("duplicate member id 2"), std::string::npos) << msg;
    EXPECT_EQ(queries, 0u);

    in.members = {1, 0, 2};  // the root listed as a member
    const std::string root_msg = CheckMessage([&] { planner.Plan(in); });
    EXPECT_NE(root_msg.find("duplicate member id 0"), std::string::npos)
        << root_msg;
    EXPECT_EQ(queries, 0u);
  }
}

MulticastTree SmallTree() {
  // 40 → {7, 12}; 7 → 3
  MulticastTree t(100);
  t.SetRoot(40);
  t.AddChild(40, 7);
  t.AddChild(40, 12);
  t.AddChild(7, 3);
  return t;
}

TEST(MulticastTree, IndexStopsAtTheLargestMember) {
  const MulticastTree t = SmallTree();
  EXPECT_EQ(t.participant_space(), 100u);
  EXPECT_FALSE(t.Contains(99));  // inside the space, above every member
  EXPECT_THROW(t.Contains(100), util::CheckError);
  // Four records and a 41-entry index, nothing per id above 40.
  EXPECT_LE(t.MemoryBytes(), sizeof(MulticastTree) + 41 * 4 + 4 * 128);
  EXPECT_EQ(MulticastTree(1'000'000).MemoryBytes(), sizeof(MulticastTree));
}

TEST(MulticastTree, RelabelKeepsOrderAndStructure) {
  MulticastTree r = SmallTree();
  std::vector<ParticipantId> ids(41, kNoParticipant);
  ids[40] = 900;
  ids[7] = 5;
  ids[12] = 600;
  ids[3] = 2;
  r.Relabel(1000, ids);
  EXPECT_EQ(r.participant_space(), 1000u);
  EXPECT_EQ(r.root(), 900u);
  EXPECT_EQ(r.members(), (std::vector<ParticipantId>{900, 5, 600, 2}));
  EXPECT_EQ(r.children(900), (std::vector<ParticipantId>{5, 600}));
  EXPECT_EQ(r.parent(2), 5u);
  EXPECT_EQ(r.parent(900), kNoParticipant);
  EXPECT_FALSE(r.Contains(40));
  r.Validate(std::vector<int>(1000, 3));
  // Two members mapped to one id, or an id outside the space, is refused
  // and leaves the tree as it was.
  MulticastTree t = SmallTree();
  ids[12] = 5;
  EXPECT_THROW(t.Relabel(1000, ids), util::CheckError);
  ids[12] = 1000;
  EXPECT_THROW(t.Relabel(1000, ids), util::CheckError);
  EXPECT_EQ(t.members(), (std::vector<ParticipantId>{40, 7, 12, 3}));
  EXPECT_EQ(t.participant_space(), 100u);
  t.Validate(std::vector<int>(100, 3));
}

TEST(PlanFootprint, TreeDoesNotGrowWithTheIdSpace) {
  // One 20-member critical+adj session over the 1200-host oracle, planned
  // with 1,200 degree bounds and again with the same bounds padded with
  // 2s to 2,000,000 ids. The plan is the same, and the padded plan's tree
  // holds at most a 4 B index per id plus a constant per member.
  util::Rng topo_rng(1);
  const net::TransitStubTopology topo = net::GenerateTransitStub(
      net::PresetParams(net::TopologyPreset::kPaper1200), topo_rng);
  const net::LatencyOracle oracle(topo);
  util::Rng rng(7);
  PlanInput in;
  in.degree_bounds.resize(topo.host_count());
  for (int& b : in.degree_bounds) b = static_cast<int>(rng.UniformInt(2, 9));
  const std::vector<std::size_t> idx = rng.SampleIndices(topo.host_count(), 20);
  in.root = idx[0];
  in.members.assign(idx.begin() + 1, idx.end());
  for (std::size_t v = 0; v < topo.host_count(); ++v) {
    if (std::find(idx.begin(), idx.end(), v) == idx.end() &&
        in.degree_bounds[v] >= 4)
      in.helper_candidates.push_back(v);
  }
  in.oracle = &oracle;
  TreePlanner planner(OptionsForStrategy(Strategy::kCriticalAdjust));
  const PlanResult small = planner.Plan(in);
  in.degree_bounds.resize(2'000'000, 2);
  const PlanResult padded = planner.Plan(in);

  EXPECT_EQ(padded.height_true, small.height_true);
  EXPECT_EQ(padded.height_planning, small.height_planning);
  EXPECT_EQ(padded.helpers_used, small.helpers_used);
  ASSERT_EQ(padded.tree.members(), small.tree.members());
  for (const ParticipantId v : small.tree.members()) {
    EXPECT_EQ(padded.tree.parent(v), small.tree.parent(v)) << v;
    EXPECT_EQ(padded.tree.children(v), small.tree.children(v)) << v;
  }
  EXPECT_GT(small.helpers_used, 0u);
  EXPECT_EQ(padded.tree.participant_space(), 2'000'000u);
  constexpr std::size_t kPerMember = 128;
  EXPECT_LE(padded.tree.MemoryBytes(),
            4 * padded.tree.participant_space() +
                kPerMember * (padded.tree.size() + 1));
  EXPECT_EQ(padded.tree.MemoryBytes(), small.tree.MemoryBytes());
}

}  // namespace
}  // namespace p2p::alm
