// Google-benchmark micro-benchmarks for the hot paths: DHT routing,
// AMCast planning, adjustment, SOMO tree construction, Nelder–Mead, leafset
// coordinate rounds, and the latency oracle build. These are engineering
// benchmarks (wall-clock of the implementation), not paper figures.
#include <benchmark/benchmark.h>

#include <map>
#include <memory>

#include "alm/adjust.h"
#include "pool/resource_pool.h"
#include "alm/critical.h"
#include "coord/leafset_coords.h"
#include "coord/nelder_mead.h"
#include "dht/ring.h"
#include "net/latency_oracle.h"
#include "net/transit_stub.h"
#include "somo/logical_tree.h"
#include "util/rng.h"

namespace p2p {
namespace {

dht::Ring& SharedRing(std::size_t n, dht::RoutingGeometry geometry =
                                         dht::RoutingGeometry::kChordFingers) {
  static std::map<std::pair<std::size_t, int>,
                  std::unique_ptr<dht::Ring>>
      rings;
  auto& slot = rings[{n, static_cast<int>(geometry)}];
  if (!slot) {
    slot = std::make_unique<dht::Ring>(16, nullptr, geometry);
    for (std::size_t i = 0; i < n; ++i) slot->JoinHashed(i);
    slot->StabilizeAll();
  }
  return *slot;
}

void BM_RingJoin(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    dht::Ring ring(16);
    for (std::size_t i = 0; i < n; ++i) ring.JoinHashed(i);
    benchmark::DoNotOptimize(ring.alive_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_RingJoin)->Arg(256)->Arg(1024);

void BM_RingRoute(benchmark::State& state) {
  auto& ring = SharedRing(static_cast<std::size_t>(state.range(0)));
  util::Rng rng(7);
  std::size_t hops = 0;
  for (auto _ : state) {
    const auto r = ring.Route(rng.NextBounded(ring.size()), rng());
    hops += r.hops;
    benchmark::DoNotOptimize(r.destination);
  }
  state.counters["avg_hops"] = benchmark::Counter(
      static_cast<double>(hops) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_RingRoute)->Arg(256)->Arg(1024)->Arg(4096);

void BM_RingRoutePastry(benchmark::State& state) {
  auto& ring = SharedRing(static_cast<std::size_t>(state.range(0)),
                          dht::RoutingGeometry::kPastryPrefix);
  util::Rng rng(7);
  std::size_t hops = 0;
  for (auto _ : state) {
    const auto r = ring.Route(rng.NextBounded(ring.size()), rng());
    hops += r.hops;
    benchmark::DoNotOptimize(r.destination);
  }
  state.counters["avg_hops"] = benchmark::Counter(
      static_cast<double>(hops) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_RingRoutePastry)->Arg(256)->Arg(1024)->Arg(4096);

void BM_LogicalTreeBuild(benchmark::State& state) {
  auto& ring = SharedRing(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    somo::LogicalTree tree(ring, 8);
    benchmark::DoNotOptimize(tree.size());
  }
}
BENCHMARK(BM_LogicalTreeBuild)->Arg(256)->Arg(1024)->Arg(4096);

void BM_LatencyOracleBuild(benchmark::State& state) {
  util::Rng rng(5);
  const auto topo = net::GenerateTransitStub(net::TransitStubParams{}, rng);
  for (auto _ : state) {
    net::LatencyOracle oracle(topo);
    benchmark::DoNotOptimize(oracle.Latency(0, 1));
  }
}
BENCHMARK(BM_LatencyOracleBuild)->Unit(benchmark::kMillisecond);

struct PlanFixture {
  net::TransitStubTopology topo;
  net::LatencyOracle oracle;
  std::vector<int> bounds;

  explicit PlanFixture(std::uint64_t seed) : topo([&] {
          util::Rng rng(seed);
          return net::GenerateTransitStub(net::TransitStubParams{}, rng);
        }()),
        oracle(topo) {
    util::Rng rng(seed + 1);
    for (std::size_t i = 0; i < topo.host_count(); ++i)
      bounds.push_back(pool::SamplePaperDegreeBound(rng));
  }
};

void BM_AmcastPlan(benchmark::State& state) {
  static PlanFixture fx(9);
  const auto group = static_cast<std::size_t>(state.range(0));
  util::Rng rng(11);
  const auto idx = rng.SampleIndices(fx.topo.host_count(), group);
  alm::AmcastInput in;
  in.degree_bounds = fx.bounds;
  in.root = idx[0];
  in.members.assign(idx.begin() + 1, idx.end());
  auto latency = [&](std::size_t a, std::size_t b) {
    return fx.oracle.Latency(a, b);
  };
  for (auto _ : state) {
    const auto r = BuildAmcastTree(in, latency);
    benchmark::DoNotOptimize(r.height);
  }
}
BENCHMARK(BM_AmcastPlan)->Arg(20)->Arg(100)->Arg(400)
    ->Unit(benchmark::kMillisecond);

void BM_AmcastPlanWithHelpers(benchmark::State& state) {
  static PlanFixture fx(13);
  const auto group = static_cast<std::size_t>(state.range(0));
  util::Rng rng(15);
  const auto idx = rng.SampleIndices(fx.topo.host_count(), group);
  alm::AmcastInput in;
  in.degree_bounds = fx.bounds;
  in.root = idx[0];
  in.members.assign(idx.begin() + 1, idx.end());
  std::vector<char> is_member(fx.topo.host_count(), 0);
  for (const auto v : idx) is_member[v] = 1;
  for (std::size_t v = 0; v < fx.topo.host_count(); ++v) {
    if (!is_member[v] && fx.bounds[v] >= 4) in.helper_candidates.push_back(v);
  }
  auto latency = [&](std::size_t a, std::size_t b) {
    return fx.oracle.Latency(a, b);
  };
  alm::AmcastOptions opt;
  opt.selection = alm::HelperSelection::kMinimaxHeuristic;
  for (auto _ : state) {
    const auto r = BuildAmcastTree(in, latency, opt);
    benchmark::DoNotOptimize(r.height);
  }
}
BENCHMARK(BM_AmcastPlanWithHelpers)->Arg(20)->Arg(100)
    ->Unit(benchmark::kMillisecond);

void BM_AdjustTree(benchmark::State& state) {
  static PlanFixture fx(17);
  const auto group = static_cast<std::size_t>(state.range(0));
  util::Rng rng(19);
  const auto idx = rng.SampleIndices(fx.topo.host_count(), group);
  alm::AmcastInput in;
  in.degree_bounds = fx.bounds;
  in.root = idx[0];
  in.members.assign(idx.begin() + 1, idx.end());
  auto latency = [&](std::size_t a, std::size_t b) {
    return fx.oracle.Latency(a, b);
  };
  const auto built = BuildAmcastTree(in, latency);
  for (auto _ : state) {
    auto tree = built.tree;
    const auto stats = AdjustTree(tree, fx.bounds, latency);
    benchmark::DoNotOptimize(stats.final_height);
  }
}
BENCHMARK(BM_AdjustTree)->Arg(20)->Arg(100)->Unit(benchmark::kMillisecond);

void BM_NelderMead5d(benchmark::State& state) {
  auto f = [](const coord::Vec& x) {
    double s = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i)
      s += (x[i] - static_cast<double>(i)) * (x[i] - static_cast<double>(i));
    return s;
  };
  for (auto _ : state) {
    coord::Vec x(5, 100.0);
    const auto r = coord::Minimize(f, x);
    benchmark::DoNotOptimize(r.best_value);
  }
}
BENCHMARK(BM_NelderMead5d);

// One damped leafset-coordinate round, serial, with a ResourcePool's
// settings (32-entry leafsets, 5 dimensions, 120 simplex iterations) on a
// ring of range(0) hosts of the 1200-host topology. The bootstrap runs
// once before timing; every iteration is one more round.
void BM_LeafsetCoordRound(benchmark::State& state) {
  static const PlanFixture fx(11);
  const auto n = static_cast<std::size_t>(state.range(0));
  dht::Ring ring(32, &fx.oracle);
  for (std::size_t i = 0; i < n; ++i) ring.JoinHashed(i);
  ring.StabilizeAll();
  coord::LeafsetCoordOptions opt;
  opt.nm.max_iterations = 120;
  util::Rng rng(3);
  coord::LeafsetCoordSystem coords(ring, opt, rng);
  coords.Bootstrap();
  for (auto _ : state) {
    coords.RunRounds(1);
    benchmark::DoNotOptimize(coords.coord(0).data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_LeafsetCoordRound)->Arg(1024)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace p2p

BENCHMARK_MAIN();
