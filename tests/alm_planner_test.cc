// Planner-interface tests, in three layers:
//
//   1. Shim equivalence: a verbatim copy of the pre-interface PlanSession
//      implementation is retained here as the reference; for every Strategy
//      the PlanSession shim AND the CreatePlanner-made planner must
//      reproduce its PlanResult exactly — including the metric-registry
//      snapshot bytes — so routing the six paper strategies through
//      alm::Planner is provably a pure refactor.
//   2. Conformance battery: every name in PlannerNames() (tree, mesh and
//      the six strategy spellings) is run through one parameterized suite:
//      determinism across repeats, all-members-covered, root-is-source,
//      degree-table respected, and a Repair() that reconnects exactly the
//      survivors.
//   3. Factory/options plumbing: name lookups, the planner_metrics opt-in
//      namespace, and the option-cube mapping.
//   4. Row fills: matrices and plans built through the oracle's and the
//      Leafset hybrid's row kernels equal the per-pair reference bit for
//      bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "alm/critical.h"
#include "alm/latency_matrix.h"
#include "alm/mesh.h"
#include "obs/metrics.h"
#include "obs/scope_timer.h"
#include "pool/resource_pool.h"
#include "test_support.h"
#include "util/check.h"
#include "util/rng.h"

namespace p2p::alm {
namespace {

// Symmetric pseudo-random latency in [1, 101), 0 on the diagonal (same
// shape as alm_equivalence_test.cc).
LatencyFn HashLatency(std::uint64_t seed) {
  return [seed](ParticipantId a, ParticipantId b) {
    if (a == b) return 0.0;
    if (a > b) std::swap(a, b);
    const std::uint64_t h =
        util::Mix64(seed ^ (static_cast<std::uint64_t>(a) * 1000003ULL + b));
    return 1.0 + static_cast<double>(h % 10000) / 100.0;
  };
}

PlanInput MakeInput(std::uint64_t seed, std::size_t min_members = 3) {
  util::Rng rng(seed);
  PlanInput in;
  const auto members = static_cast<std::size_t>(
      rng.UniformInt(static_cast<std::int64_t>(min_members), 40));
  const auto helpers = static_cast<std::size_t>(rng.UniformInt(5, 60));
  const std::size_t space = members + helpers + 1;

  in.degree_bounds.resize(space);
  for (auto& d : in.degree_bounds)
    d = static_cast<int>(rng.UniformInt(2, 6));

  std::vector<ParticipantId> ids(space);
  for (ParticipantId v = 0; v < space; ++v) ids[v] = v;
  rng.Shuffle(ids);
  in.root = ids[0];
  for (std::size_t k = 1; k <= members; ++k) in.members.push_back(ids[k]);
  for (std::size_t k = members + 1; k < space; ++k)
    in.helper_candidates.push_back(ids[k]);

  in.true_latency = HashLatency(seed * 0x9e3779b97f4a7c15ULL + 1);
  // A plausible-but-wrong estimate (what coordinates would produce).
  in.estimated_latency = HashLatency(seed * 0x9e3779b97f4a7c15ULL + 2);
  in.amcast.helper_radius = rng.Uniform(20.0, 120.0);
  return in;
}

// The reference's Leafset planning latency, per pair: truth between two
// session members, the estimate for any pair touching a non-member.
LatencyFn ReferenceLeafsetHybrid(const PlanInput& input,
                                 const LatencyFn& truth) {
  std::vector<char> is_member(input.degree_bounds.size(), 0);
  is_member[input.root] = 1;
  for (const ParticipantId m : input.members) is_member[m] = 1;
  return [is_member = std::move(is_member), truth,
          est = input.estimated_latency](ParticipantId a, ParticipantId b) {
    return (is_member[a] && is_member[b]) ? truth(a, b) : est(a, b);
  };
}

// ---------------------------------------------------------------------------
// Verbatim copy of the pre-interface alm/critical.cc PlanSession body (its
// Leafset hybrid is ReferenceLeafsetHybrid above). Do not "improve" it: its
// only job is to pin the refactored path to the old behavior bit for bit,
// metric emission included.
PlanResult PlanSessionReference(const PlanInput& input, Strategy strategy) {
  obs::ScopeTimer plan_timer(
      input.metrics != nullptr ? &input.metrics->profile("alm.plan_ms")
                               : nullptr);
  P2P_CHECK_MSG(input.true_latency != nullptr || input.oracle != nullptr,
                "PlanSession needs a true latency fn or an oracle");
  P2P_CHECK_MSG(!StrategyUsesEstimates(strategy) ||
                    input.estimated_latency != nullptr,
                "Leafset strategies need an estimated latency");
  const net::LatencyOracle* oracle = input.oracle;
  LatencyFn truth = input.true_latency;
  if (truth == nullptr) {
    truth = [oracle](ParticipantId a, ParticipantId b) {
      return oracle->Latency(a, b);
    };
  }

  LatencyFn planning = truth;
  if (StrategyUsesEstimates(strategy))
    planning = ReferenceLeafsetHybrid(input, truth);

  AmcastInput ain;
  ain.degree_bounds = input.degree_bounds;
  ain.root = input.root;
  ain.members = input.members;
  if (StrategyUsesHelpers(strategy))
    ain.helper_candidates = input.helper_candidates;

  AmcastOptions aopt = input.amcast;
  aopt.selection = StrategyUsesHelpers(strategy)
                       ? (input.amcast.selection == HelperSelection::kNone
                              ? HelperSelection::kMinimaxHeuristic
                              : input.amcast.selection)
                       : HelperSelection::kNone;

  std::vector<ParticipantId> core_ids;
  core_ids.reserve(1 + ain.members.size());
  core_ids.push_back(ain.root);
  core_ids.insert(core_ids.end(), ain.members.begin(), ain.members.end());
  const bool oracle_direct =
      oracle != nullptr && input.true_latency == nullptr &&
      !StrategyUsesEstimates(strategy);
  const std::vector<ParticipantId> satellite_ids =
      aopt.selection != HelperSelection::kNone ? ain.helper_candidates
                                               : std::vector<ParticipantId>{};
  const LatencyMatrix planning_matrix =
      oracle_direct ? LatencyMatrix(input.degree_bounds.size(), core_ids,
                                    satellite_ids, OracleLatency(*oracle))
                    : LatencyMatrix(input.degree_bounds.size(), core_ids,
                                    satellite_ids, planning);

  AmcastResult built = BuildAmcastTree(ain, planning_matrix, aopt);

  PlanResult result{std::move(built.tree), 0.0, 0.0, built.helpers_used,
                    {}, 0};
  if (StrategyUsesAdjust(strategy)) {
    const LatencyMatrix true_matrix =
        oracle != nullptr && input.true_latency == nullptr
            ? LatencyMatrix(input.degree_bounds.size(), result.tree.members(),
                            OracleLatency(*oracle))
            : LatencyMatrix(input.degree_bounds.size(), result.tree.members(),
                            truth);
    result.adjust_stats = AdjustTree(result.tree, input.degree_bounds,
                                     true_matrix, input.adjust);
    result.height_true = result.tree.Height(true_matrix);
  } else {
    result.height_true = result.tree.Height(truth);
  }
  result.height_planning = result.tree.Height(planning_matrix);
  if (input.metrics != nullptr) {
    input.metrics->counter("alm.sessions.planned").Inc();
    if (StrategyUsesAdjust(strategy))
      input.metrics->counter("alm.sessions.adjusted").Inc();
    input.metrics->histogram("alm.plan.height_ms").Add(result.height_true);
    input.metrics->histogram("alm.plan.helpers")
        .Add(static_cast<double>(result.helpers_used));
  }
  return result;
}
// ---------------------------------------------------------------------------

constexpr Strategy kAllStrategies[] = {
    Strategy::kAmcast,   Strategy::kAmcastAdjust,  Strategy::kCritical,
    Strategy::kCriticalAdjust, Strategy::kLeafset, Strategy::kLeafsetAdjust,
};

const char* PlannerSpelling(Strategy s) {
  switch (s) {
    case Strategy::kAmcast: return "amcast";
    case Strategy::kAmcastAdjust: return "amcast+adj";
    case Strategy::kCritical: return "critical";
    case Strategy::kCriticalAdjust: return "critical+adj";
    case Strategy::kLeafset: return "leafset";
    case Strategy::kLeafsetAdjust: return "leafset+adj";
  }
  return "?";
}

// Exact equality throughout — the contract is byte-identical, not "close".
void ExpectIdenticalPlans(const PlanResult& a, const PlanResult& b) {
  ASSERT_EQ(a.height_true, b.height_true);
  ASSERT_EQ(a.height_planning, b.height_planning);
  ASSERT_EQ(a.helpers_used, b.helpers_used);
  ASSERT_EQ(a.maintenance_messages, b.maintenance_messages);
  ASSERT_EQ(a.adjust_stats.reparent_moves, b.adjust_stats.reparent_moves);
  ASSERT_EQ(a.adjust_stats.leaf_swaps, b.adjust_stats.leaf_swaps);
  ASSERT_EQ(a.adjust_stats.subtree_swaps, b.adjust_stats.subtree_swaps);
  ASSERT_EQ(a.tree.members(), b.tree.members());
  for (const ParticipantId v : a.tree.members())
    ASSERT_EQ(a.tree.parent(v), b.tree.parent(v)) << "node " << v;
}

TEST(PlannerShim, AllStrategiesByteIdenticalToPreInterfacePlanSession) {
  for (const Strategy s : kAllStrategies) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      SCOPED_TRACE(StrategyName(s) + " seed " + std::to_string(seed));
      const PlanInput base = MakeInput(seed);

      obs::MetricsRegistry ref_reg, shim_reg, factory_reg;
      PlanInput ref_in = base;
      ref_in.metrics = &ref_reg;
      const PlanResult ref = PlanSessionReference(ref_in, s);

      PlanInput shim_in = base;
      shim_in.metrics = &shim_reg;
      const PlanResult shim = PlanSession(shim_in, s);

      PlanInput factory_in = base;
      factory_in.metrics = &factory_reg;
      const PlanResult factory =
          CreatePlanner(PlannerSpelling(s), Strategy::kCriticalAdjust, {})
              ->Plan(factory_in);

      ExpectIdenticalPlans(shim, ref);
      ExpectIdenticalPlans(factory, ref);
      // Metric snapshots too: same counters, same histogram buckets, same
      // bytes. (planner_metrics defaults off, so the legacy namespace is
      // all there is.)
      EXPECT_EQ(shim_reg.SnapshotJson(), ref_reg.SnapshotJson());
      EXPECT_EQ(factory_reg.SnapshotJson(), ref_reg.SnapshotJson());
    }
  }
}

TEST(PlannerInput, OutOfRangeIdsThrowBeforeAnyWrite) {
  // Checked before the Leafset strategies index their member table by id;
  // under the sanitizers an unchecked id is a heap overflow, not a throw.
  for (const Strategy s : kAllStrategies) {
    SCOPED_TRACE(StrategyName(s));
    const PlanInput base = MakeInput(3);
    const ParticipantId past = base.degree_bounds.size() + 64;
    PlanInput bad_root = base;
    bad_root.root = past;
    EXPECT_THROW(PlanSession(bad_root, s), util::CheckError);
    PlanInput bad_member = base;
    bad_member.members.push_back(past);
    EXPECT_THROW(PlanSession(bad_member, s), util::CheckError);
    PlanInput bad_helper = base;
    bad_helper.helper_candidates.push_back(past);
    EXPECT_THROW(PlanSession(bad_helper, s), util::CheckError);
    EXPECT_NO_THROW(PlanSession(base, s));
  }
}

// ---------------------------------------------------------------------------
// Row fills: a LatencyMatrix filled through a source's row kernel holds the
// doubles a per-pair fill holds, bit for bit, and answers satellite↔
// satellite queries (per pair, or a column at a time) identically too.

// Every pair of `ids` through operator(), and every column through Column()
// (the helper search's batched queries), against the per-pair matrix.
void ExpectIdenticalMatrices(const LatencyMatrix& rows,
                             const LatencyMatrix& pairs,
                             const std::vector<ParticipantId>& ids) {
  ASSERT_EQ(rows.size(), pairs.size());
  ASSERT_EQ(rows.core_size(), pairs.core_size());
  std::vector<double> column(ids.size());
  for (const ParticipantId b : ids) {
    rows.Column(b, ids, column.data());
    for (std::size_t k = 0; k < ids.size(); ++k) {
      const ParticipantId a = ids[k];
      if (rows(a, b) != pairs(a, b) || column[k] != pairs(a, b)) {
        EXPECT_EQ(rows(a, b), pairs(a, b)) << "pair " << a << "," << b;
        EXPECT_EQ(column[k], pairs(a, b)) << "column " << b << " at " << a;
        return;
      }
    }
  }
}

// A session over the shared small pool: root + 15 members as the core, 40
// other hosts as satellites.
struct PoolSession {
  std::vector<ParticipantId> core, satellites, all;
  PlanInput input;
};

PoolSession MakePoolSession(const pool::ResourcePool& pool,
                            std::uint64_t seed) {
  util::Rng rng(seed);
  const auto idx = rng.SampleIndices(pool.size(), 56);
  PoolSession s;
  s.all.assign(idx.begin(), idx.end());
  s.core.assign(s.all.begin(), s.all.begin() + 16);
  s.satellites.assign(s.all.begin() + 16, s.all.end());
  s.input.degree_bounds = pool.degree_bounds();
  s.input.root = s.core[0];
  s.input.members.assign(s.core.begin() + 1, s.core.end());
  s.input.helper_candidates = s.satellites;
  s.input.estimated_latency = pool.EstimatedLatencyFn();
  return s;
}

TEST(RowFill, OracleRowsMatchPerPairFill) {
  const pool::ResourcePool& pool = p2p::testing::SharedSmallPool();
  const net::LatencyOracle hier(
      pool.topology(),
      net::OracleOptions{.kind = net::OracleKind::kHierarchical});
  for (const net::LatencyOracle* oracle : {&pool.oracle(), &hier}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const PoolSession s = MakePoolSession(pool, seed);
      const LatencyFn per_pair = [oracle](ParticipantId a, ParticipantId b) {
        return oracle->Latency(a, b);
      };
      ExpectIdenticalMatrices(
          LatencyMatrix(pool.size(), s.core, s.satellites,
                        OracleLatency(*oracle)),
          LatencyMatrix(pool.size(), s.core, s.satellites, per_pair), s.all);
    }
  }
}

TEST(RowFill, LeafsetHybridRowsMatchReferenceHybrid) {
  const pool::ResourcePool& pool = p2p::testing::SharedSmallPool();
  const LatencyFn truth = [&pool](ParticipantId a, ParticipantId b) {
    return pool.oracle().Latency(a, b);
  };
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const PoolSession s = MakePoolSession(pool, seed);
    std::vector<ParticipantId> members = s.core;
    std::sort(members.begin(), members.end());
    const LatencySource hybrid =
        LeafsetHybridLatency(std::move(members), OracleLatency(pool.oracle()),
                             pool.EstimatedLatencyFn());
    const LatencyFn reference = ReferenceLeafsetHybrid(s.input, truth);
    ExpectIdenticalMatrices(
        LatencyMatrix(pool.size(), s.core, s.satellites, hybrid),
        LatencyMatrix(pool.size(), s.core, s.satellites, reference), s.all);
    // A planning fill only ever gives a member row member columns; the
    // kernels still take any mix, member rows and columns included.
    std::vector<double> row(s.all.size()), column(s.all.size());
    for (const ParticipantId x : s.all) {
      hybrid.Row(x, s.all, row.data());
      hybrid.Column(x, s.all, column.data());
      for (std::size_t k = 0; k < s.all.size(); ++k) {
        ASSERT_EQ(row[k], reference(x, s.all[k])) << x << "," << s.all[k];
        ASSERT_EQ(column[k], reference(s.all[k], x)) << s.all[k] << "," << x;
      }
    }
  }
}

TEST(RowFill, LeafsetPlanWithRowSourcesMatchesReference) {
  // The pool's oracle and row-kernel estimates, as TaskManager passes them,
  // against the reference planner fed plain per-pair functions.
  const pool::ResourcePool& pool = p2p::testing::SharedSmallPool();
  for (const Strategy strategy :
       {Strategy::kLeafset, Strategy::kLeafsetAdjust,
        Strategy::kCriticalAdjust}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      SCOPED_TRACE(StrategyName(strategy) + " seed " + std::to_string(seed));
      PlanInput rows = MakePoolSession(pool, seed).input;
      rows.oracle = &pool.oracle();
      PlanInput pairs = rows;
      pairs.oracle = nullptr;
      pairs.true_latency = pool.TrueLatencyFn();
      pairs.estimated_latency = [&pool](ParticipantId a, ParticipantId b) {
        return pool.EstimatedLatency(a, b);
      };
      ExpectIdenticalPlans(PlanSession(rows, strategy),
                           PlanSessionReference(pairs, strategy));
    }
  }
}

TEST(PlannerOptions, StrategyMapsToOptionCubeCorner) {
  for (const Strategy s : kAllStrategies) {
    const TreePlannerOptions opt = OptionsForStrategy(s);
    EXPECT_EQ(opt.use_helpers, StrategyUsesHelpers(s)) << StrategyName(s);
    EXPECT_EQ(opt.use_adjust, StrategyUsesAdjust(s)) << StrategyName(s);
    EXPECT_EQ(opt.use_estimates, StrategyUsesEstimates(s))
        << StrategyName(s);
    TreePlanner planner(opt);
    EXPECT_EQ(planner.NeedsEstimates(), StrategyUsesEstimates(s));
    EXPECT_EQ(planner.name(), "tree");
  }
}

TEST(PlannerFactory, BuiltinsPresentAndUnknownThrows) {
  const std::vector<std::string> names = PlannerNames();
  EXPECT_EQ(names.size(), 8u);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  const auto named = [&names](const std::string& name) {
    return std::binary_search(names.begin(), names.end(), name);
  };
  EXPECT_TRUE(named("tree"));
  EXPECT_TRUE(named("mesh"));
  EXPECT_FALSE(named("no-such-planner"));
  EXPECT_THROW(CreatePlanner("no-such-planner", Strategy::kCriticalAdjust, {}),
               util::UsageError);
  // "tree" takes the strategy argument; a strategy spelling names its own
  // corner of the option cube whatever the argument says.
  for (const Strategy s : kAllStrategies) {
    EXPECT_TRUE(named(PlannerSpelling(s))) << PlannerSpelling(s);
    const auto tree = CreatePlanner("tree", s, {});
    const auto spelled =
        CreatePlanner(PlannerSpelling(s), Strategy::kAmcast, {});
    for (const Planner* p : {tree.get(), spelled.get()}) {
      const auto* t = dynamic_cast<const TreePlanner*>(p);
      ASSERT_NE(t, nullptr) << PlannerSpelling(s);
      EXPECT_EQ(t->options().use_helpers, StrategyUsesHelpers(s));
      EXPECT_EQ(t->options().use_adjust, StrategyUsesAdjust(s));
      EXPECT_EQ(t->options().use_estimates, StrategyUsesEstimates(s));
    }
  }
  MeshOptions tuned;
  tuned.target_degree = 3;
  const auto mesh = CreatePlanner("mesh", Strategy::kCriticalAdjust, tuned);
  EXPECT_EQ(mesh->name(), "mesh");
  EXPECT_EQ(dynamic_cast<const MeshPlanner&>(*mesh).options().target_degree,
            3u);
}

TEST(PlannerMetrics, OptInNamespaceRecordedOnlyWhenRequested) {
  PlanInput in = MakeInput(5);
  obs::MetricsRegistry quiet, loud;

  in.metrics = &quiet;
  in.planner_metrics = false;
  TreePlanner().Plan(in);
  EXPECT_EQ(quiet.SnapshotJson().find("alm.planner."), std::string::npos);

  in.metrics = &loud;
  in.planner_metrics = true;
  TreePlanner().Plan(in);
  EXPECT_EQ(loud.Value("alm.planner.tree.plans"), 1.0);
  MeshPlanner().Plan(in);
  EXPECT_EQ(loud.Value("alm.planner.mesh.plans"), 1.0);
  EXPECT_GT(loud.Value("alm.planner.mesh.maintenance_msgs"), 0.0);
}

TEST(PlannerMaxFanout, CountsWidestNode) {
  MulticastTree tree(5);
  tree.SetRoot(0);
  tree.AddChild(0, 1);
  tree.AddChild(0, 2);
  tree.AddChild(0, 3);
  tree.AddChild(1, 4);
  EXPECT_EQ(MaxFanout(tree), 3u);
}

TEST(SessionSpecAllMembers, AppendVariantMatchesAndAppends) {
  SessionSpec spec;
  spec.root = 7;
  spec.members = {3, 9, 1};
  EXPECT_EQ(spec.AllMembers(),
            (std::vector<ParticipantId>{7, 3, 9, 1}));
  std::vector<ParticipantId> scratch{42};
  spec.AppendAllMembers(scratch);
  EXPECT_EQ(scratch, (std::vector<ParticipantId>{42, 7, 3, 9, 1}));
}

// ------------------------------------------------- conformance battery --

class PlannerConformance : public ::testing::TestWithParam<std::string> {
 protected:
  std::unique_ptr<Planner> Make() const {
    return CreatePlanner(GetParam(), Strategy::kCriticalAdjust, {});
  }
};

TEST_P(PlannerConformance, DeterministicAcrossRepeatsAndInstances) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    const PlanInput in = MakeInput(seed);
    const PlanResult a = Make()->Plan(in);
    const PlanResult b = Make()->Plan(in);
    ExpectIdenticalPlans(a, b);
  }
}

TEST_P(PlannerConformance, CoversAllMembersWithRootAsSource) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    const PlanInput in = MakeInput(seed);
    const PlanResult r = Make()->Plan(in);
    EXPECT_EQ(r.tree.root(), in.root);
    ASSERT_TRUE(r.tree.Contains(in.root));
    for (const ParticipantId m : in.members)
      EXPECT_TRUE(r.tree.Contains(m)) << "member " << m;
    EXPECT_GE(r.tree.size(), 1 + in.members.size());
    EXPECT_GT(r.height_true, 0.0);
  }
}

TEST_P(PlannerConformance, RespectsDegreeTable) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    const PlanInput in = MakeInput(seed);
    const PlanResult r = Make()->Plan(in);
    // Validate = structural invariants + per-node degree vs the table.
    ASSERT_NO_THROW(r.tree.Validate(in.degree_bounds));
    for (const ParticipantId v : r.tree.members())
      EXPECT_LE(r.tree.Degree(v), in.degree_bounds[v]) << "node " << v;
  }
}

TEST_P(PlannerConformance, RepairReconnectsExactlyTheSurvivors) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(seed);
    const PlanInput in = MakeInput(seed, /*min_members=*/8);
    // Fail a deterministic sample of members (never the root).
    const std::vector<ParticipantId> failed = {in.members[1], in.members[4],
                                               in.members[6]};
    const RepairOutcome out = Make()->Repair(in, failed);
    const RepairOutcome again = Make()->Repair(in, failed);
    ExpectIdenticalPlans(out.plan, again.plan);
    EXPECT_EQ(out.disrupted, again.disrupted);
    EXPECT_EQ(out.repair_messages, again.repair_messages);
    EXPECT_EQ(out.repair_latency_ms, again.repair_latency_ms);

    EXPECT_EQ(out.plan.tree.root(), in.root);
    for (const ParticipantId f : failed)
      EXPECT_FALSE(out.plan.tree.Contains(f)) << "failed node " << f;
    for (const ParticipantId m : in.members) {
      const bool is_failed =
          std::find(failed.begin(), failed.end(), m) != failed.end();
      if (!is_failed) {
        EXPECT_TRUE(out.plan.tree.Contains(m)) << "survivor " << m;
      }
    }
    ASSERT_NO_THROW(out.plan.tree.Validate(in.degree_bounds));
    EXPECT_LE(out.disrupted, in.members.size());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllRegistered, PlannerConformance, ::testing::ValuesIn(PlannerNames()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (auto& c : name)
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      return name;
    });

// ------------------------------------------------------- mesh specifics --

TEST(MeshPlanner, PaysMaintenanceAndUsesNoHelpers) {
  const PlanInput in = MakeInput(11);
  MeshPlanner mesh;
  const PlanResult r = mesh.Plan(in);
  EXPECT_GT(r.maintenance_messages, in.members.size());  // joins + probes
  EXPECT_EQ(r.helpers_used, 0u);
  EXPECT_EQ(r.height_planning, r.height_true);  // plans on truth
}

TEST(MeshPlanner, RefinementLowersOrKeepsHeight) {
  // More refinement rounds must not make the extracted tree worse on
  // average; check a mild aggregate over seeds (individual instances may
  // tie — refinement only rewires when strictly better).
  double rough_total = 0.0, refined_total = 0.0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const PlanInput in = MakeInput(seed);
    MeshOptions rough;
    rough.refine_rounds = 0;
    MeshOptions refined;
    refined.refine_rounds = 24;
    rough_total += MeshPlanner(rough).Plan(in).height_true;
    refined_total += MeshPlanner(refined).Plan(in).height_true;
  }
  EXPECT_LT(refined_total, rough_total);
}

TEST(MeshPlanner, SingleMemberSessionIsRootOnlyPlusOne) {
  PlanInput in;
  in.degree_bounds = {2, 2};
  in.root = 0;
  in.members = {1};
  in.true_latency = HashLatency(3);
  const PlanResult r = MeshPlanner().Plan(in);
  EXPECT_EQ(r.tree.size(), 2u);
  EXPECT_EQ(r.tree.parent(1), 0u);
}

TEST(MeshPlanner, InfeasibleDegreeOneEverywhereThrows) {
  PlanInput in;
  in.degree_bounds = {1, 1, 1, 1};
  in.root = 0;
  in.members = {1, 2, 3};
  in.true_latency = HashLatency(4);
  EXPECT_THROW(MeshPlanner().Plan(in), util::CheckError);
}

}  // namespace
}  // namespace p2p::alm
