// Differential test of the level-scheduled leafset-coordinate passes
// against the retained serial implementation (reference/
// leafset_coords_ref.h): the same ring, options and seed must give the
// same coordinates bit for bit, the same update count and the same RNG
// stream afterwards, at any pool width. Rings cover the converged case,
// crashed-but-undetected members, later per-host joins (on their own and
// after crashes), leafsets that list a node which does not list them back,
// and a ring smaller than one leafset. The default objective runs at the
// default 5 dimensions on every shape. Every objective also runs at 5
// dimensions (the fit's compile-time width) and at 1, 2, 3 and 8 (its
// run-time width) on rings where odd peer counts leave the fit kernel's
// second lane padded.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "coord/leafset_coords.h"
#include "net/latency_oracle.h"
#include "net/transit_stub.h"
#include "reference/leafset_coords_ref.h"
#include "test_support.h"
#include "util/thread_pool.h"

namespace p2p::coord {
namespace {

constexpr std::size_t kHosts = 240;
constexpr std::uint64_t kSeed = 77;

enum class Shape {
  kConverged,
  kCrashed,
  kGrown,
  kCrashedThenGrown,
  kOneSided,
  kTiny,
};

const char* ShapeName(Shape s) {
  switch (s) {
    case Shape::kConverged: return "converged";
    case Shape::kCrashed: return "crashed";
    case Shape::kGrown: return "grown";
    case Shape::kCrashedThenGrown: return "crashed_then_grown";
    case Shape::kOneSided: return "one_sided";
    case Shape::kTiny: return "tiny";
  }
  return "";
}

const net::LatencyOracle& SharedOracle() {
  static const net::TransitStubTopology* topo = [] {
    util::Rng rng(5);
    return new net::TransitStubTopology(net::GenerateTransitStub(
        p2p::testing::SmallTopologyParams(kHosts), rng));
  }();
  static const net::LatencyOracle* oracle = new net::LatencyOracle(*topo);
  return *oracle;
}

std::unique_ptr<dht::Ring> MakeRing(Shape shape) {
  const net::LatencyOracle& oracle = SharedOracle();
  if (shape == Shape::kTiny) {
    // 12 nodes, 16 per side: every leafset wraps onto both sides.
    auto ring = std::make_unique<dht::Ring>(32, &oracle);
    for (std::size_t h = 0; h < 12; ++h) ring->JoinHashed(h);
    return ring;
  }
  auto ring = std::make_unique<dht::Ring>(16, &oracle);
  const bool grown =
      shape == Shape::kGrown || shape == Shape::kCrashedThenGrown;
  const std::size_t first_wave = grown ? 180 : kHosts;
  for (std::size_t h = 0; h < first_wave; ++h) ring->JoinHashed(h);
  ring->StabilizeAll();
  if (shape == Shape::kCrashed || shape == Shape::kCrashedThenGrown) {
    for (dht::NodeIndex n = 3; n < first_wave; n += 9) ring->Fail(n);
  }
  if (grown) {
    for (std::size_t h = first_wave; h < kHosts; ++h) ring->JoinHashed(h);
  }
  if (shape == Shape::kOneSided) {
    // Every third node forgets its farthest successor, which still lists
    // it: the pair's fits must keep sweep order although only one of them
    // reads the other.
    for (dht::NodeIndex n = 0; n < ring->size(); n += 3) {
      dht::Leafset& ls = ring->node(n).leafset();
      ls.Remove(ls.successors().back().id);
    }
  }
  return ring;
}

void ExpectBitIdentical(const dht::Ring& ring, const LeafsetCoordSystem& got,
                        const coordref::LeafsetCoordSystem& want) {
  ASSERT_EQ(got.updates_performed(), want.updates_performed());
  for (dht::NodeIndex n = 0; n < ring.size(); ++n) {
    const Vec& a = got.coord(n);
    const Vec& b = want.coord(n);
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
        << "node " << n << " coordinate differs";
  }
}

const char* ObjectiveName(CoordObjective o) {
  switch (o) {
    case CoordObjective::kAbsoluteL1: return "abs_l1";
    case CoordObjective::kRelativeL1: return "rel_l1";
    case CoordObjective::kSquaredRelative: return "sq_rel";
  }
  return "";
}

// (pool threads, 0 = no pool; measurement noise; incremental bootstrap;
// ring shape; objective; dimensions)
using Case =
    std::tuple<std::size_t, double, bool, Shape, CoordObjective, std::size_t>;

class CoordDifferential : public ::testing::TestWithParam<Case> {};

TEST_P(CoordDifferential, LevelledPassesMatchSerialReference) {
  const auto [threads, noise, bootstrap, shape, objective, dimensions] =
      GetParam();
  const std::unique_ptr<dht::Ring> ring = MakeRing(shape);
  std::unique_ptr<util::ThreadPool> pool;
  if (threads > 0) pool = std::make_unique<util::ThreadPool>(threads);
  ring->set_thread_pool(pool.get());

  LeafsetCoordOptions opt;
  opt.measurement_noise = noise;
  opt.incremental_bootstrap = bootstrap;
  opt.objective = objective;
  opt.dimensions = dimensions;
  opt.nm.max_iterations = 60;
  util::Rng got_rng(kSeed);
  util::Rng want_rng(kSeed);
  LeafsetCoordSystem got(*ring, opt, got_rng);
  coordref::LeafsetCoordSystem want(*ring, opt, want_rng);

  got.RunRounds(2);
  want.RunRounds(2);
  ExpectBitIdentical(*ring, got, want);
  // A later call continues the same streams (and bootstraps only once).
  got.RunRounds(1);
  want.RunRounds(1);
  ExpectBitIdentical(*ring, got, want);
  EXPECT_EQ(got_rng(), want_rng()) << "RNG streams diverged";
}

TEST(CoordDifferential, ExplicitBootstrapMatchesSerialReference) {
  const std::unique_ptr<dht::Ring> ring = MakeRing(Shape::kCrashedThenGrown);
  util::ThreadPool pool(3);
  ring->set_thread_pool(&pool);
  LeafsetCoordOptions opt;
  opt.measurement_noise = 0.2;
  opt.nm.max_iterations = 60;
  util::Rng got_rng(kSeed);
  util::Rng want_rng(kSeed);
  LeafsetCoordSystem got(*ring, opt, got_rng);
  coordref::LeafsetCoordSystem want(*ring, opt, want_rng);
  got.Bootstrap();
  want.Bootstrap();
  ExpectBitIdentical(*ring, got, want);
}

// One random L1 fit of width d, run by the simplex and by the reference
// from the same start, compared to the bit. Quantised targets make equal
// simplex values (ties) common; with `nans` the objective also answers NaN
// at some points, which no order by value ranks.
void ExpectSimplexMatchesReference(util::Rng& rng, std::size_t d, bool nans) {
  std::vector<Vec> anchors(3 + rng.NextBounded(12), Vec(d));
  std::vector<double> targets(anchors.size());
  for (std::size_t i = 0; i < anchors.size(); ++i) {
    for (double& v : anchors[i]) v = rng.Uniform(0.0, 300.0);
    targets[i] = std::floor(rng.Uniform(1.0, 200.0));
  }
  const auto f = [&](const Vec& x) {
    double err = 0.0;
    for (std::size_t i = 0; i < anchors.size(); ++i)
      err += std::abs(Distance(x, anchors[i]) - targets[i]);
    const double v = std::floor(err);
    return nans && std::fmod(v, 5.0) == 0.0
               ? std::numeric_limits<double>::quiet_NaN()
               : v;
  };
  Vec start(d);
  for (double& v : start) v = rng.Uniform(0.0, 300.0);
  NelderMeadOptions opt;
  opt.max_iterations = 1 + rng.NextBounded(200);
  Vec a = start;
  Vec b = start;
  const NelderMeadResult ra = Minimize(f, a, opt);
  const NelderMeadResult rb = coordref::Minimize(f, b, opt);
  ASSERT_EQ(std::memcmp(a.data(), b.data(), d * sizeof(double)), 0);
  ASSERT_EQ(ra.iterations, rb.iterations);
  ASSERT_EQ(ra.converged, rb.converged);
  ASSERT_EQ(std::memcmp(&ra.best_value, &rb.best_value, sizeof(double)), 0);
}

TEST(CoordDifferential, SimplexMatchesSerialReference) {
  // The allocation-free simplex keeps the reference's arithmetic, order of
  // evaluation and tie-breaking, so random L1 fits agree to the bit.
  util::Rng rng(123);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t d = 1 + rng.NextBounded(6);
    ASSERT_NO_FATAL_FAILURE(ExpectSimplexMatchesReference(rng, d, false))
        << "trial " << trial;
  }
  // Up to 16 vertices (d <= 15) std::sort orders them stably, so the
  // simplex re-inserts only a replaced vertex; above that it sorts every
  // step. Every d from 1 to 17 crosses that boundary, and every third
  // trial answers NaN at some points: there the order must still be
  // std::sort's.
  for (std::size_t trial = 0; trial < 17 * 20; ++trial) {
    const std::size_t d = 1 + trial % 17;
    ASSERT_NO_FATAL_FAILURE(
        ExpectSimplexMatchesReference(rng, d, trial % 3 == 2))
        << "sweep trial " << trial << ", d = " << d;
  }
}

std::string CaseName(const ::testing::TestParamInfo<Case>& info) {
  const auto [threads, noise, bootstrap, shape, objective, dimensions] =
      info.param;
  std::string name = (threads == 0 ? std::string("serial")
                                   : "t" + std::to_string(threads)) +
                     (noise > 0.0 ? "_noisy" : "_exact") +
                     (bootstrap ? "_bootstrap_" : "_nobootstrap_") +
                     ShapeName(shape);
  if (objective != CoordObjective::kSquaredRelative || dimensions != 5) {
    name += std::string("_") + ObjectiveName(objective) + "_d" +
            std::to_string(dimensions);
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllCases, CoordDifferential,
    ::testing::Combine(::testing::Values<std::size_t>(0, 1, 2, 4),
                       ::testing::Values(0.0, 0.3), ::testing::Bool(),
                       ::testing::Values(Shape::kConverged, Shape::kCrashed,
                                         Shape::kGrown,
                                         Shape::kCrashedThenGrown,
                                         Shape::kOneSided, Shape::kTiny),
                       ::testing::Values(CoordObjective::kSquaredRelative),
                       ::testing::Values<std::size_t>(5)),
    CaseName);

INSTANTIATE_TEST_SUITE_P(
    Objectives, CoordDifferential,
    ::testing::Combine(::testing::Values<std::size_t>(0, 3),
                       ::testing::Values(0.3), ::testing::Values(true),
                       ::testing::Values(Shape::kCrashedThenGrown,
                                         Shape::kOneSided, Shape::kTiny),
                       ::testing::Values(CoordObjective::kAbsoluteL1,
                                         CoordObjective::kRelativeL1,
                                         CoordObjective::kSquaredRelative),
                       ::testing::Values<std::size_t>(1, 2, 3, 5, 8)),
    CaseName);

}  // namespace
}  // namespace p2p::coord
