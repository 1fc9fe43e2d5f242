// Bench-regression harness for the ALM planning fast path.
//
// Runs the heap+matrix planner against the linear-scan reference
// (amcastref::BuildAmcastTree, tests/reference/amcast_ref.h) on the same
// instances, so one JSON file captures the speedup ratio at every size.
// Unlike bench_micro this binary defaults to machine-readable output: with
// no flags it writes BENCH_alm.json (google-benchmark JSON schema) to the
// working directory — tools/run_benches.sh runs it from the repo root.
// Pass your own --benchmark_out=... to override.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <cmath>

#include "alm/adjust.h"
#include "alm/amcast.h"
#include "dht/ring.h"
#include "obs/alert.h"
#include "somo/somo.h"
#include "alm/critical.h"
#include "alm/latency_matrix.h"
#include "alm/mesh.h"
#include "net/latency_oracle.h"
#include "net/transit_stub.h"
#include "obs/metrics.h"
#include "pool/resource_pool.h"
#include "reference/amcast_ref.h"
#include "sim/simulation.h"
#include "sim/transport.h"
#include "util/rng.h"

namespace p2p {
namespace {

struct PlanFixture {
  net::TransitStubTopology topo;
  net::LatencyOracle oracle;
  std::vector<int> bounds;

  explicit PlanFixture(std::uint64_t seed)
      : topo([&] {
          util::Rng rng(seed);
          return net::GenerateTransitStub(net::TransitStubParams{}, rng);
        }()),
        oracle(topo) {
    util::Rng rng(seed + 1);
    for (std::size_t i = 0; i < topo.host_count(); ++i)
      bounds.push_back(pool::SamplePaperDegreeBound(rng));
  }
};

PlanFixture& SharedFixture() {
  static PlanFixture fx(9);
  return fx;
}

// The new planner and the reference run on identical instances (same
// fixture, same sampling seed) so the per-size ratio is the speedup.
alm::AmcastInput MakeInput(const PlanFixture& fx, std::size_t group,
                           bool with_helpers) {
  util::Rng rng(11);
  const auto idx = rng.SampleIndices(fx.topo.host_count(), group);
  alm::AmcastInput in;
  in.degree_bounds = fx.bounds;
  in.root = idx[0];
  in.members.assign(idx.begin() + 1, idx.end());
  if (with_helpers) {
    std::vector<char> is_member(fx.topo.host_count(), 0);
    for (const auto v : idx) is_member[v] = 1;
    for (std::size_t v = 0; v < fx.topo.host_count(); ++v)
      if (!is_member[v] && fx.bounds[v] >= 4)
        in.helper_candidates.push_back(v);
  }
  return in;
}

alm::LatencyFn OracleFn(const PlanFixture& fx) {
  return [&fx](std::size_t a, std::size_t b) {
    return fx.oracle.Latency(a, b);
  };
}

// ------------------------------------------------- members-only planning --

void BM_AmcastPlan(benchmark::State& state) {
  auto& fx = SharedFixture();
  const auto in =
      MakeInput(fx, static_cast<std::size_t>(state.range(0)), false);
  const auto latency = OracleFn(fx);
  for (auto _ : state) {
    const auto r = BuildAmcastTree(in, latency);
    benchmark::DoNotOptimize(r.height);
  }
}
BENCHMARK(BM_AmcastPlan)->Arg(20)->Arg(100)->Arg(400)->Arg(512)
    ->Unit(benchmark::kMillisecond);

void BM_AmcastPlanReference(benchmark::State& state) {
  auto& fx = SharedFixture();
  const auto in =
      MakeInput(fx, static_cast<std::size_t>(state.range(0)), false);
  const auto latency = OracleFn(fx);
  for (auto _ : state) {
    const auto r = amcastref::BuildAmcastTree(in, latency);
    benchmark::DoNotOptimize(r.height);
  }
}
BENCHMARK(BM_AmcastPlanReference)->Arg(20)->Arg(100)->Arg(400)->Arg(512)
    ->Unit(benchmark::kMillisecond);

// Matrix built once outside the loop: the planner's cost with the fill
// amortised away, e.g. when several strategies plan the same session.
void BM_AmcastPlanPrebuiltMatrix(benchmark::State& state) {
  auto& fx = SharedFixture();
  const auto in =
      MakeInput(fx, static_cast<std::size_t>(state.range(0)), false);
  std::vector<alm::ParticipantId> core;
  core.push_back(in.root);
  core.insert(core.end(), in.members.begin(), in.members.end());
  const alm::LatencyMatrix matrix(in.degree_bounds.size(), core,
                                  OracleFn(fx));
  for (auto _ : state) {
    const auto r = BuildAmcastTree(in, matrix);
    benchmark::DoNotOptimize(r.height);
  }
}
BENCHMARK(BM_AmcastPlanPrebuiltMatrix)->Arg(20)->Arg(100)->Arg(400)->Arg(512)
    ->Unit(benchmark::kMillisecond);

// --------------------------------------------------- helper-aware planning --

void BM_AmcastPlanWithHelpers(benchmark::State& state) {
  auto& fx = SharedFixture();
  const auto in =
      MakeInput(fx, static_cast<std::size_t>(state.range(0)), true);
  const auto latency = OracleFn(fx);
  alm::AmcastOptions opt;
  opt.selection = alm::HelperSelection::kMinimaxHeuristic;
  for (auto _ : state) {
    const auto r = BuildAmcastTree(in, latency, opt);
    benchmark::DoNotOptimize(r.height);
  }
}
BENCHMARK(BM_AmcastPlanWithHelpers)->Arg(20)->Arg(100)
    ->Unit(benchmark::kMillisecond);

void BM_AmcastPlanWithHelpersReference(benchmark::State& state) {
  auto& fx = SharedFixture();
  const auto in =
      MakeInput(fx, static_cast<std::size_t>(state.range(0)), true);
  const auto latency = OracleFn(fx);
  alm::AmcastOptions opt;
  opt.selection = alm::HelperSelection::kMinimaxHeuristic;
  for (auto _ : state) {
    const auto r = amcastref::BuildAmcastTree(in, latency, opt);
    benchmark::DoNotOptimize(r.height);
  }
}
BENCHMARK(BM_AmcastPlanWithHelpersReference)->Arg(20)->Arg(100)
    ->Unit(benchmark::kMillisecond);

// ------------------------------------------------------------- adjustment --

void BM_AdjustTree(benchmark::State& state) {
  auto& fx = SharedFixture();
  const auto in =
      MakeInput(fx, static_cast<std::size_t>(state.range(0)), false);
  const auto latency = OracleFn(fx);
  const auto built = BuildAmcastTree(in, latency);
  for (auto _ : state) {
    auto tree = built.tree;
    const auto stats = AdjustTree(tree, fx.bounds, latency);
    benchmark::DoNotOptimize(stats.final_height);
  }
}
BENCHMARK(BM_AdjustTree)->Arg(20)->Arg(100)->Arg(400)
    ->Unit(benchmark::kMillisecond);

// ----------------------------------------------------------- matrix fill --

void BM_LatencyMatrixBuild(benchmark::State& state) {
  auto& fx = SharedFixture();
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(11);
  const auto idx = rng.SampleIndices(fx.topo.host_count(), n);
  const std::vector<alm::ParticipantId> ids(idx.begin(), idx.end());
  const auto latency = OracleFn(fx);
  for (auto _ : state) {
    const alm::LatencyMatrix matrix(fx.topo.host_count(), ids, latency);
    benchmark::DoNotOptimize(matrix.size());
  }
}
BENCHMARK(BM_LatencyMatrixBuild)->Arg(100)->Arg(512)
    ->Unit(benchmark::kMillisecond);

// The same fill straight from the oracle: one LatencyRow call per matrix
// row instead of a LatencyFn call per pair.
void BM_LatencyMatrixBuildOracle(benchmark::State& state) {
  auto& fx = SharedFixture();
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(11);
  const auto idx = rng.SampleIndices(fx.topo.host_count(), n);
  const std::vector<alm::ParticipantId> ids(idx.begin(), idx.end());
  for (auto _ : state) {
    const alm::LatencyMatrix matrix(fx.topo.host_count(), ids,
                                    alm::OracleLatency(fx.oracle));
    benchmark::DoNotOptimize(matrix.size());
  }
}
BENCHMARK(BM_LatencyMatrixBuildOracle)->Arg(100)->Arg(512)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------- transport overhead --

// Cost of one message through the bus: schedule + deliver, faults off.
// This is the per-message tax the unified transport adds over protocols
// scheduling their own callbacks; items_per_second is the bus throughput.
void BM_TransportThroughput(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  sim::Simulation sim(1);
  sim::Message msg;
  msg.src_host = 0;
  msg.dst_host = 1;
  msg.protocol = sim::Protocol::kOther;
  msg.bytes = 100;
  std::size_t delivered = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < batch; ++i)
      sim.transport().Send(msg, [&delivered] { ++delivered; });
    sim.Run();
    benchmark::DoNotOptimize(delivered);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_TransportThroughput)->Arg(1024)->Arg(16384)
    ->Unit(benchmark::kMillisecond);

// Same bus with the full fault pipeline on (loss draw + jitter draw +
// per-link table + a live trace sink): the worst-case per-message cost.
void BM_TransportThroughputFaults(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  sim::Simulation sim(1);
  sim.transport().faults().loss_probability = 0.01;
  sim.transport().faults().jitter_ms = 5.0;
  sim.transport().SetLinkLoss(2, 3, 0.5);  // non-empty per-link table
  sim::TraceSink trace(1 << 12);
  trace.set_clock([&sim] { return sim.now(); });
  sim.transport().set_trace(&trace);
  sim::Message msg;
  msg.src_host = 0;
  msg.dst_host = 1;
  msg.protocol = sim::Protocol::kOther;
  msg.bytes = 100;
  std::size_t delivered = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < batch; ++i)
      sim.transport().Send(msg, [&delivered] { ++delivered; });
    sim.Run();
    benchmark::DoNotOptimize(delivered);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_TransportThroughputFaults)->Arg(1024)->Arg(16384)
    ->Unit(benchmark::kMillisecond);

// ------------------------------------------------------ registry overhead --

// BM_TransportThroughput with the metrics registry attached: each send now
// bumps per-protocol counters and inflight gauges. The acceptance bar for
// the observability layer is <5% over the uninstrumented bus — compare the
// per-size real_time against BM_TransportThroughput.
void BM_TransportThroughputMetrics(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  sim::Simulation sim(1);
  sim.EnableMetrics();
  sim::Message msg;
  msg.src_host = 0;
  msg.dst_host = 1;
  msg.protocol = sim::Protocol::kOther;
  msg.bytes = 100;
  std::size_t delivered = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < batch; ++i)
      sim.transport().Send(msg, [&delivered] { ++delivered; });
    sim.Run();
    benchmark::DoNotOptimize(delivered);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_TransportThroughputMetrics)->Arg(1024)->Arg(16384)
    ->Unit(benchmark::kMillisecond);

// DB-MHT build (PlanSession) bare vs with a registry attached — the cost
// of the alm.plan_ms ScopeTimer plus the handful of end-of-plan records.
alm::PlanInput MakePlanInput(const PlanFixture& fx, std::size_t group) {
  const auto in = MakeInput(fx, group, false);
  alm::PlanInput pin;
  pin.degree_bounds = in.degree_bounds;
  pin.root = in.root;
  pin.members = in.members;
  pin.true_latency = OracleFn(fx);
  return pin;
}

void BM_PlanSession(benchmark::State& state) {
  auto& fx = SharedFixture();
  const auto pin =
      MakePlanInput(fx, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const auto r = PlanSession(pin, alm::Strategy::kAmcast);
    benchmark::DoNotOptimize(r.height_true);
  }
}
BENCHMARK(BM_PlanSession)->Arg(100)->Arg(400)
    ->Unit(benchmark::kMillisecond);

void BM_PlanSessionMetrics(benchmark::State& state) {
  auto& fx = SharedFixture();
  auto pin = MakePlanInput(fx, static_cast<std::size_t>(state.range(0)));
  obs::MetricsRegistry registry;
  pin.metrics = &registry;
  for (auto _ : state) {
    const auto r = PlanSession(pin, alm::Strategy::kAmcast);
    benchmark::DoNotOptimize(r.height_true);
  }
}
BENCHMARK(BM_PlanSessionMetrics)->Arg(100)->Arg(400)
    ->Unit(benchmark::kMillisecond);

// One fixed 50-member critical+adj plan over the 1200-host oracle, its
// degree bounds padded with 2s to `ids` entries: what a plan pays per id
// of the caller's id space. The plan itself works in the session's own
// ids; only the read-only non-negativity check over the bounds still
// grows with the id space.
void BM_PlanInPool(benchmark::State& state) {
  auto& fx = SharedFixture();
  const auto in = MakeInput(fx, 50, /*with_helpers=*/true);
  alm::PlanInput pin;
  pin.degree_bounds = in.degree_bounds;
  pin.degree_bounds.resize(static_cast<std::size_t>(state.range(0)), 2);
  pin.root = in.root;
  pin.members = in.members;
  pin.helper_candidates = in.helper_candidates;
  pin.oracle = &fx.oracle;
  alm::TreePlanner planner(
      alm::OptionsForStrategy(alm::Strategy::kCriticalAdjust));
  for (auto _ : state) {
    const auto r = planner.Plan(pin);
    benchmark::DoNotOptimize(r.height_true);
  }
}
BENCHMARK(BM_PlanInPool)->Arg(1200)->Arg(10000)->Arg(50000)->Arg(200000)
    ->Unit(benchmark::kMillisecond);

// SOMO gather + dissemination over a live ring, bare vs with an
// AlertEngine evaluating the `alert` experiment's two in-band rules every
// half cycle. The twin prices the whole alerting layer on the monitoring
// path — probe closures walking the disseminated view included — and
// tools/check_bench_overhead.py holds the ratio under the same 5% bar as
// the metrics registry.
void RunSomoGather(benchmark::State& state, bool with_alerts) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::Simulation sim(1);
  dht::Ring ring(8);
  for (std::size_t i = 0; i < n; ++i) ring.JoinHashed(i);
  ring.StabilizeAll();
  somo::SomoConfig cfg;
  cfg.fanout = 8;
  cfg.report_interval_ms = 1000.0;
  cfg.disseminate = true;
  somo::SomoProtocol somo(sim, ring, cfg, [&](dht::NodeIndex node) {
    somo::NodeReport r;
    r.node = node;
    r.host = ring.node(node).host();
    r.generated_at = sim.now();
    r.telemetry.msgs_sent = node;
    r.telemetry.sampled_at = sim.now();
    return r;
  });

  obs::AlertEngine engine;
  const dht::NodeIndex observer = ring.size() - 1;
  if (with_alerts) {
    obs::AlertRule stale;
    stale.name = "view.stale";
    stale.threshold = 1e12;  // never fires: we price evaluation, not repair
    stale.probe = [&somo, observer] {
      const double v = somo.ViewStalenessMs(observer);
      return std::isfinite(v) ? v : 0.0;
    };
    engine.AddRule(std::move(stale));
    obs::AlertRule susp;
    susp.name = "suspect.rate";
    susp.threshold = 1e12;
    susp.probe = [&somo, observer] {
      const auto& v = somo.ViewAt(observer);
      if (!v.valid() || v.view->empty()) return 0.0;
      double total = 0.0;
      for (std::size_t i = 0; i < v.view->size(); ++i) {
        if (const auto* tel = v.view->telemetry(i))
          total += static_cast<double>(tel->suspects);
      }
      return total / static_cast<double>(v.view->size());
    };
    engine.AddRule(std::move(susp));
    sim.Every(500.0, 500.0, [&engine, &sim] { engine.Evaluate(sim.now()); });
  }

  somo.Start();
  double horizon = 0.0;
  for (auto _ : state) {
    horizon += 10000.0;  // ten reporting cycles per iteration
    sim.RunUntil(horizon);
    benchmark::DoNotOptimize(somo.gathers_completed());
  }
  somo.Stop();
}

void BM_SomoGather(benchmark::State& state) {
  RunSomoGather(state, /*with_alerts=*/false);
}
BENCHMARK(BM_SomoGather)->Arg(256)->Arg(1024)->Unit(benchmark::kMillisecond);

void BM_SomoGatherAlerts(benchmark::State& state) {
  RunSomoGather(state, /*with_alerts=*/true);
}
BENCHMARK(BM_SomoGatherAlerts)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMillisecond);

// The mesh planner on the same instances: build + refine + extract. Not a
// like-for-like race against BM_PlanSession (different overlay, different
// robustness story — see docs/PROTOCOLS.md) but the rows pin the cost of
// the self-organizing baseline so `compare` runs stay predictable.
void BM_PlanSessionMesh(benchmark::State& state) {
  auto& fx = SharedFixture();
  const auto pin =
      MakePlanInput(fx, static_cast<std::size_t>(state.range(0)));
  alm::MeshPlanner planner;
  for (auto _ : state) {
    const auto r = planner.Plan(pin);
    benchmark::DoNotOptimize(r.height_true);
  }
}
BENCHMARK(BM_PlanSessionMesh)->Arg(100)->Arg(400)
    ->Unit(benchmark::kMillisecond);

// After the benchmarks, run a short fully-instrumented workload and write
// its registry snapshot next to the benchmark JSON, so every bench run
// ships an example p2pmetrics/v1 artifact (and a quick smoke check that
// the instrumented transport still behaves).
void WriteMetricsSnapshot(const char* path) {
  sim::Simulation sim(1);
  sim.EnableMetrics();
  sim::Message msg;
  msg.src_host = 0;
  msg.dst_host = 1;
  msg.protocol = sim::Protocol::kOther;
  msg.bytes = 100;
  for (std::size_t i = 0; i < 10000; ++i) sim.transport().Send(msg, [] {});
  sim.Run();
  auto& fx = SharedFixture();
  auto pin = MakePlanInput(fx, 100);
  pin.metrics = &sim.metrics();
  PlanSession(pin, alm::Strategy::kAmcast);
  const std::string json = sim.metrics().SnapshotJson(/*include_profile=*/true);
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::fprintf(stderr, "wrote %s\n", path);
}

}  // namespace
}  // namespace p2p

int main(int argc, char** argv) {
  // Default to JSON-on-disk so `bench_to_json` with no arguments produces
  // BENCH_alm.json; explicit --benchmark_out wins.
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i)
    if (std::strncmp(argv[i], "--benchmark_out", 15) == 0) has_out = true;
  static std::string out_flag = "--benchmark_out=BENCH_alm.json";
  static std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int out_argc = static_cast<int>(args.size());
  benchmark::Initialize(&out_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(out_argc, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  p2p::WriteMetricsSnapshot("BENCH_metrics_snapshot.json");
  return 0;
}
