#include <gtest/gtest.h>

#include <cmath>

#include "coord/gnp.h"
#include "coord/leafset_coords.h"
#include "coord/nelder_mead.h"
#include "coord/vec.h"
#include "test_support.h"
#include "util/stats.h"

namespace p2p::coord {
namespace {

// ------------------------------------------------------------------ vec --

TEST(Vec, DistanceAndArithmetic) {
  const Vec a{0.0, 3.0};
  const Vec b{4.0, 0.0};
  EXPECT_DOUBLE_EQ(Distance(a, b), 5.0);
  EXPECT_DOUBLE_EQ(SquaredDistance(a, b), 25.0);
  EXPECT_EQ(Add(a, b), (Vec{4.0, 3.0}));
  EXPECT_EQ(Sub(a, b), (Vec{-4.0, 3.0}));
  EXPECT_EQ(Scale(a, 2.0), (Vec{0.0, 6.0}));
}

TEST(Vec, LerpEndpointsAndMidpoint) {
  const Vec a{0.0, 0.0};
  const Vec b{10.0, 20.0};
  EXPECT_EQ(Lerp(a, b, 0.0), a);
  EXPECT_EQ(Lerp(a, b, 1.0), b);
  EXPECT_EQ(Lerp(a, b, 0.5), (Vec{5.0, 10.0}));
}

// ---------------------------------------------------------- Nelder–Mead --

TEST(NelderMead, MinimizesQuadraticBowl) {
  auto f = [](const Vec& x) {
    return (x[0] - 3.0) * (x[0] - 3.0) + (x[1] + 2.0) * (x[1] + 2.0);
  };
  Vec x{0.0, 0.0};
  NelderMeadOptions opt;
  opt.max_iterations = 500;
  const auto r = Minimize(f, x, opt);
  EXPECT_NEAR(x[0], 3.0, 1e-3);
  EXPECT_NEAR(x[1], -2.0, 1e-3);
  EXPECT_LT(r.best_value, 1e-6);
}

TEST(NelderMead, MinimizesRosenbrock2d) {
  auto f = [](const Vec& x) {
    const double a = 1.0 - x[0];
    const double b = x[1] - x[0] * x[0];
    return a * a + 100.0 * b * b;
  };
  Vec x{-1.2, 1.0};
  NelderMeadOptions opt;
  opt.max_iterations = 5000;
  opt.initial_step = 0.5;
  opt.f_tolerance = 1e-14;
  Minimize(f, x, opt);
  EXPECT_NEAR(x[0], 1.0, 0.05);
  EXPECT_NEAR(x[1], 1.0, 0.1);
}

TEST(NelderMead, HandlesNonSmoothL1Objective) {
  auto f = [](const Vec& x) {
    return std::abs(x[0] - 5.0) + std::abs(x[1] - 7.0);
  };
  Vec x{0.0, 0.0};
  NelderMeadOptions opt;
  opt.max_iterations = 1000;
  Minimize(f, x, opt);
  EXPECT_NEAR(x[0], 5.0, 0.05);
  EXPECT_NEAR(x[1], 7.0, 0.05);
}

TEST(NelderMead, RespectsIterationBudget) {
  auto f = [](const Vec& x) { return x[0] * x[0]; };
  Vec x{100.0};
  NelderMeadOptions opt;
  opt.max_iterations = 3;
  const auto r = Minimize(f, x, opt);
  EXPECT_LE(r.iterations, 3u);
}

TEST(NelderMead, EmptyStartThrows) {
  Vec x;
  EXPECT_THROW(Minimize([](const Vec&) { return 0.0; }, x),
               util::CheckError);
}

TEST(NelderMead, ConvergedFlagSetOnEasyProblem) {
  auto f = [](const Vec& x) { return x[0] * x[0]; };
  Vec x{1.0};
  NelderMeadOptions opt;
  opt.max_iterations = 10000;
  const auto r = Minimize(f, x, opt);
  EXPECT_TRUE(r.converged);
}

// ------------------------------------------------------------------ GNP --

class GnpTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    util::Rng rng(77);
    topo_ = new net::TransitStubTopology(net::GenerateTransitStub(
        p2p::testing::SmallTopologyParams(150), rng));
    oracle_ = new net::LatencyOracle(*topo_);
  }
  static void TearDownTestSuite() {
    delete oracle_;
    delete topo_;
    oracle_ = nullptr;
    topo_ = nullptr;
  }
  static std::vector<net::HostIdx> AllHosts() {
    std::vector<net::HostIdx> hosts(topo_->host_count());
    for (std::size_t i = 0; i < hosts.size(); ++i) hosts[i] = i;
    return hosts;
  }
  static net::TransitStubTopology* topo_;
  static net::LatencyOracle* oracle_;
};
net::TransitStubTopology* GnpTest::topo_ = nullptr;
net::LatencyOracle* GnpTest::oracle_ = nullptr;

TEST_F(GnpTest, RequiresEnoughLandmarks) {
  util::Rng rng(1);
  GnpOptions opt;
  opt.dimensions = 5;
  opt.landmark_count = 4;  // < d+1
  EXPECT_THROW(GnpSystem(*oracle_, AllHosts(), opt, rng),
               util::CheckError);
}

TEST_F(GnpTest, LandmarksAreDistinct) {
  util::Rng rng(2);
  GnpOptions opt;
  GnpSystem gnp(*oracle_, AllHosts(), opt, rng);
  auto lm = gnp.landmarks();
  std::sort(lm.begin(), lm.end());
  EXPECT_EQ(std::unique(lm.begin(), lm.end()), lm.end());
  EXPECT_EQ(lm.size(), opt.landmark_count);
}

TEST_F(GnpTest, GreedySelectionSpreadsLandmarks) {
  util::Rng rng(3);
  GnpOptions opt;
  opt.landmark_count = 8;
  GnpSystem gnp(*oracle_, AllHosts(), opt, rng);
  // Pairwise landmark distances should all be non-trivial.
  const auto& lm = gnp.landmarks();
  for (std::size_t i = 0; i < lm.size(); ++i)
    for (std::size_t j = i + 1; j < lm.size(); ++j)
      EXPECT_GT(gnp.Measured(lm[i], lm[j]), 10.0);
}

TEST_F(GnpTest, SolvedEmbeddingHasLowRelativeError) {
  util::Rng rng(4);
  GnpOptions opt;
  opt.landmark_count = 16;
  GnpSystem gnp(*oracle_, AllHosts(), opt, rng);
  gnp.Solve();
  util::Rng prng(5);
  util::Accumulator err;
  for (int i = 0; i < 2000; ++i) {
    const auto a = prng.NextBounded(gnp.host_count());
    const auto b = prng.NextBounded(gnp.host_count());
    if (a == b) continue;
    err.Add(RelativeError(gnp.Predict(a, b), gnp.Measured(a, b)));
  }
  EXPECT_LT(err.mean(), 0.25);
}

TEST_F(GnpTest, MoreLandmarksDoNotHurt) {
  auto run = [&](std::size_t k) {
    util::Rng rng(6);
    GnpOptions opt;
    opt.landmark_count = k;
    GnpSystem gnp(*oracle_, AllHosts(), opt, rng);
    gnp.Solve();
    util::Rng prng(7);
    util::Accumulator err;
    for (int i = 0; i < 1500; ++i) {
      const auto a = prng.NextBounded(gnp.host_count());
      const auto b = prng.NextBounded(gnp.host_count());
      if (a == b) continue;
      err.Add(RelativeError(gnp.Predict(a, b), gnp.Measured(a, b)));
    }
    return err.mean();
  };
  // 32 landmarks should be at least roughly as good as 8 (paper Figure 4:
  // GNP is not very sensitive, so allow generous slack).
  EXPECT_LT(run(32), run(8) + 0.1);
}

TEST(RelativeErrorFn, Definition) {
  EXPECT_DOUBLE_EQ(RelativeError(150.0, 100.0), 0.5);
  EXPECT_DOUBLE_EQ(RelativeError(50.0, 100.0), 0.5);
  EXPECT_THROW(RelativeError(1.0, 0.0), util::CheckError);
}

// --------------------------------------------------------- LeafsetCoord --

TEST(LeafsetCoords, RequiresOracle) {
  dht::Ring ring(8);  // no oracle
  ring.JoinHashed(0);
  util::Rng rng(1);
  EXPECT_THROW(LeafsetCoordSystem(ring, LeafsetCoordOptions{}, rng),
               util::CheckError);
}

TEST(LeafsetCoords, SetCoordRejectsWrongDimension) {
  // Every fit reads its peers' coordinates at a stride of `dimensions`.
  util::Rng trng(3);
  const auto topo =
      net::GenerateTransitStub(p2p::testing::SmallTopologyParams(16), trng);
  const net::LatencyOracle oracle(topo);
  dht::Ring ring(8, &oracle);
  for (std::size_t h = 0; h < 16; ++h) ring.JoinHashed(h);
  util::Rng crng(4);
  LeafsetCoordSystem cs(ring, LeafsetCoordOptions{}, crng);
  EXPECT_THROW(cs.SetCoord(0, Vec(3, 1.0)), util::CheckError);
  cs.SetCoord(0, Vec(LeafsetCoordOptions{}.dimensions, 1.0));
  EXPECT_EQ(cs.coord(0), Vec(LeafsetCoordOptions{}.dimensions, 1.0));
}

TEST(LeafsetCoords, ConvergesCloseToGnpAccuracy) {
  auto& pool = p2p::testing::SharedSmallPool();
  // Pool built coordinates already (4 rounds); measure random-pair error.
  util::Rng prng(8);
  util::Accumulator err;
  for (int i = 0; i < 2000; ++i) {
    const auto a = prng.NextBounded(pool.size());
    const auto b = prng.NextBounded(pool.size());
    if (a == b) continue;
    err.Add(RelativeError(pool.EstimatedLatency(a, b),
                          pool.TrueLatency(a, b)));
  }
  EXPECT_LT(err.mean(), 0.35);
}

TEST(LeafsetCoords, PredictIsSymmetricAndNonNegative) {
  auto& pool = p2p::testing::SharedSmallPool();
  const auto& cs = pool.coords();
  for (std::size_t a = 0; a < 20; ++a)
    for (std::size_t b = 0; b < 20; ++b) {
      EXPECT_DOUBLE_EQ(cs.Predict(a, b), cs.Predict(b, a));
      EXPECT_GE(cs.Predict(a, b), 0.0);
    }
}

TEST(LeafsetCoords, EventDrivenModeConverges) {
  util::Rng trng(31);
  const auto topo =
      net::GenerateTransitStub(p2p::testing::SmallTopologyParams(64), trng);
  const net::LatencyOracle oracle(topo);
  sim::Simulation sim(9);
  dht::Ring ring(16, &oracle);
  for (std::size_t h = 0; h < 64; ++h) ring.JoinHashed(h);
  ring.StabilizeAll();
  dht::HeartbeatProtocol hb(sim, ring);
  LeafsetCoordOptions copt;
  copt.nm.max_iterations = 60;
  util::Rng crng(10);
  LeafsetCoordSystem cs(ring, copt, crng);
  cs.Bootstrap();  // join-time placement
  cs.AttachTo(hb);
  hb.Start();
  sim.RunUntil(30000.0);  // 30 heartbeat rounds
  EXPECT_GT(cs.updates_performed(), 64u);
  util::Rng prng(11);
  util::Accumulator err;
  for (int i = 0; i < 1000; ++i) {
    const auto a = prng.NextBounded(64);
    const auto b = prng.NextBounded(64);
    if (a == b) continue;
    err.Add(RelativeError(cs.Predict(a, b), oracle.Latency(a, b)));
  }
  EXPECT_LT(err.mean(), 0.5);
}

TEST(LeafsetCoords, NoiseDegradesGracefully) {
  util::Rng trng(33);
  const auto topo =
      net::GenerateTransitStub(p2p::testing::SmallTopologyParams(80), trng);
  const net::LatencyOracle oracle(topo);
  dht::Ring ring(16, &oracle);
  for (std::size_t h = 0; h < 80; ++h) ring.JoinHashed(h);
  ring.StabilizeAll();

  auto run = [&](double noise) {
    LeafsetCoordOptions copt;
    copt.measurement_noise = noise;
    copt.nm.max_iterations = 60;
    util::Rng crng(12);
    LeafsetCoordSystem cs(ring, copt, crng);
    cs.RunRounds(4);
    util::Rng prng(13);
    util::Accumulator err;
    for (int i = 0; i < 1000; ++i) {
      const auto a = prng.NextBounded(80);
      const auto b = prng.NextBounded(80);
      if (a == b) continue;
      err.Add(RelativeError(cs.Predict(a, b), oracle.Latency(a, b)));
    }
    return err.mean();
  };
  const double clean = run(0.0);
  const double noisy = run(0.3);
  EXPECT_LT(clean, noisy + 0.25);  // noise should not *improve* much
  EXPECT_LT(noisy, 1.0);           // and the system still works
}

}  // namespace
}  // namespace p2p::coord
