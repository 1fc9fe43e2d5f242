// Sharded-kernel tests (all suites prefixed "Shard" so the ThreadSanitizer
// stage in tools/run_tests.sh can select them with --gtest_filter=Shard*):
//  * ShardSeed stream splitting (serial identity at one shard),
//  * net::PlanShards placement properties and the structural lookahead,
//  * mailbox exchange in the canonical (time, src_shard, seq) order and the
//    per-message lookahead CHECK,
//  * the 1-shard differential against the serial kernel (event count,
//    metrics snapshot, trace bytes),
//  * same-seed multi-shard byte-identity, independent of the thread count,
//  * bound SOMO instances: one shared logical tree, node state partitioned
//    by ownership (not replicated per shard), a complete root view, and
//    peers over another ring or fanout rejected at BindShard,
//  * exchange edge cases (empty outboxes, one active pair, everything in
//    one window),
//  * the wall-clock barrier profile: no phase timer before the first
//    window, then one sample of each per window,
//  * per-pair lookahead matrices: byte-identity against the fixed-window
//    baseline with fewer barriers, per-message rejection of unsound
//    entries, and ExtractLookahead's exactness/soundness against the
//    brute-force oracle minimum on randomized multihomed topologies,
//  * the allocation guard: warm heartbeat windows on one and two shards
//    make fewer than one heap allocation per 1000 delivered heartbeats
//    (this binary counts every global operator new).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <new>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "dht/heartbeat.h"
#include "dht/ring.h"
#include "net/latency_oracle.h"
#include "net/shard_plan.h"
#include "net/transit_stub.h"
#include "obs/metrics.h"
#include "sim/sharded.h"
#include "sim/simulation.h"
#include "sim/trace.h"
#include "sim/transport.h"
#include "somo/somo.h"
#include "test_support.h"
#include "util/check.h"
#include "util/rng.h"

// Every heap allocation through the global operator new, on any thread.
namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

// GCC inlines these deletes into `new T` sites and flags the malloc/free
// pairing it then sees, which is exactly what the replacement intends.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t bytes) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t bytes) { return ::operator new(bytes); }
// The nothrow forms too (std::stable_sort's buffer uses one): a sanitizer
// runtime would otherwise serve them and see our deletes free its memory.
void* operator new(std::size_t bytes, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(bytes == 0 ? 1 : bytes);
}
void* operator new[](std::size_t bytes, const std::nothrow_t& tag) noexcept {
  return ::operator new(bytes, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace p2p::sim {
namespace {

// ------------------------------------------------------------ ShardSeed --

TEST(ShardSeed, OneShardRunsOnTheMasterSeed) {
  // The serial-equivalence contract: a 1-shard ShardedSimulation must draw
  // the exact RNG stream of Simulation(seed).
  for (std::uint64_t seed : {0ULL, 1ULL, 321ULL, 0xdeadbeefULL}) {
    EXPECT_EQ(ShardSeed(seed, 0, 1), seed);
  }
}

TEST(ShardSeed, SplitsDistinctStreams) {
  const std::uint64_t seed = 4242;
  std::set<std::uint64_t> seen;
  for (std::size_t s = 0; s < 8; ++s) {
    seen.insert(ShardSeed(seed, s, 8));
  }
  EXPECT_EQ(seen.size(), 8u);
  // The split also keys on the shard count, so resharding reshuffles every
  // stream instead of giving shard 0 the same history at every count.
  EXPECT_NE(ShardSeed(seed, 1, 2), ShardSeed(seed, 1, 4));
}

// ------------------------------------------------------------ ShardPlan --

net::TransitStubTopology SmallTopo() {
  util::Rng rng(99);
  return net::GenerateTransitStub(p2p::testing::SmallTopologyParams(), rng);
}

TEST(ShardPlan, LookaheadIsTheStructuralBound) {
  const net::TransitStubTopology topo = SmallTopo();
  // 2 * (last_hop_min_ms + stub_transit_link_ms) = 2 * (3 + 25).
  EXPECT_DOUBLE_EQ(net::ShardLookaheadMs(topo.params), 56.0);
  EXPECT_DOUBLE_EQ(net::PlanShards(topo, 1).lookahead_ms, 56.0);
  EXPECT_DOUBLE_EQ(net::PlanShards(topo, 4).lookahead_ms, 56.0);
}

TEST(ShardPlan, PartitionsAlongWholeStubDomains) {
  const net::TransitStubTopology topo = SmallTopo();
  const net::ShardPlan plan = net::PlanShards(topo, 4);
  ASSERT_EQ(plan.shard_of_host.size(), topo.host_count());
  // Every host of a stub domain lands on the same shard — the property the
  // lookahead bound rests on (any cross-shard path crosses two
  // stub-transit links).
  std::vector<int> domain_shard(topo.params.total_stub_domains(), -1);
  for (std::size_t h = 0; h < topo.host_count(); ++h) {
    const std::size_t d = topo.domain_of[topo.host_router[h]];
    const int s = static_cast<int>(plan.shard_of_host[h]);
    if (domain_shard[d] < 0) domain_shard[d] = s;
    EXPECT_EQ(domain_shard[d], s) << "host " << h << " splits domain " << d;
  }
}

TEST(ShardPlan, CoversAllHostsAndBalances) {
  const net::TransitStubTopology topo = SmallTopo();
  const net::ShardPlan plan = net::PlanShards(topo, 4);
  ASSERT_EQ(plan.hosts_per_shard.size(), 4u);
  std::size_t total = 0;
  std::vector<std::size_t> counted(4, 0);
  for (std::uint32_t s : plan.shard_of_host) {
    ASSERT_LT(s, 4u);
    ++counted[s];
  }
  std::size_t largest_domain = 0;
  std::vector<std::size_t> domain_hosts(topo.params.total_stub_domains(), 0);
  for (std::size_t h = 0; h < topo.host_count(); ++h) {
    const std::size_t d = topo.domain_of[topo.host_router[h]];
    largest_domain = std::max(largest_domain, ++domain_hosts[d]);
  }
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(plan.hosts_per_shard[s], counted[s]);
    total += plan.hosts_per_shard[s];
    EXPECT_GT(plan.hosts_per_shard[s], 0u);
  }
  EXPECT_EQ(total, topo.host_count());
  // Greedy bin-packing of whole domains balances to within one domain.
  const auto [lo, hi] = std::minmax_element(plan.hosts_per_shard.begin(),
                                            plan.hosts_per_shard.end());
  EXPECT_LE(*hi - *lo, largest_domain);
}

TEST(ShardPlan, IsDeterministic) {
  const net::TransitStubTopology topo = SmallTopo();
  const net::ShardPlan a = net::PlanShards(topo, 6);
  const net::ShardPlan b = net::PlanShards(topo, 6);
  EXPECT_EQ(a.shard_of_host, b.shard_of_host);
  EXPECT_EQ(a.hosts_per_shard, b.hosts_per_shard);
}

TEST(ShardPlan, RejectsMoreShardsThanPopulatedDomains) {
  const net::TransitStubTopology topo = SmallTopo();
  EXPECT_THROW(net::PlanShards(topo, topo.host_count() + 1),
               util::CheckError);
}

// --------------------------------------------------------- ShardMailbox --

TEST(ShardMailbox, DrainsInCanonicalOrder) {
  ShardedOptions opts;
  opts.shards = 3;
  opts.lookahead_ms = 10.0;
  opts.seed = 7;
  opts.threads = 1;
  ShardedSimulation ssim(opts);

  // Post cross-shard events in scrambled call order; the exchange must
  // deliver them in (time, src_shard, per-src send order), independent of
  // who posted first.
  std::vector<int> order;
  const auto tag = [&order](int t) {
    return [&order, t] { order.push_back(t); };
  };
  ssim.Post(2, 0, 15.0, tag(20));
  ssim.Post(0, 0, 25.0, tag(3));
  ssim.Post(1, 0, 15.0, tag(10));
  ssim.Post(0, 0, 15.0, tag(1));
  ssim.Post(0, 0, 15.0, tag(2));
  ssim.Post(2, 0, 25.0, tag(23));

  EXPECT_EQ(ssim.RunUntil(40.0), 6u);
  const std::vector<int> want = {1, 2, 10, 20, 3, 23};
  EXPECT_EQ(order, want);
  EXPECT_EQ(ssim.cross_shard_messages(), 6u);
  EXPECT_GE(ssim.windows(), 1u);
  EXPECT_DOUBLE_EQ(ssim.now(), 40.0);
}

TEST(ShardMailbox, ChecksTheLookaheadContract) {
  // A cross-shard transport send whose delay undershoots the lookahead is
  // a correctness bug (it would land inside the receiver's current
  // window); the kernel rejects it loudly instead of delivering late.
  ShardedOptions opts;
  opts.shards = 2;
  opts.lookahead_ms = 10.0;
  opts.threads = 1;
  ShardedSimulation ssim(opts);
  ssim.SetHostShards({0, 1});

  ssim.shard(0).At(5.0, [&ssim] {
    Message m;
    m.src_host = 0;
    m.dst_host = 1;
    m.bytes = 8;
    Transport::SendOptions so;
    so.delay_override_ms = 1.0;  // deliver at 6 < window end 10
    ssim.shard(0).transport().Send(m, [] {}, so);
  });
  EXPECT_THROW(ssim.RunUntil(20.0), util::CheckError);
}

TEST(ShardMailbox, AcceptsDelaysAtTheBound) {
  ShardedOptions opts;
  opts.shards = 2;
  opts.lookahead_ms = 10.0;
  opts.threads = 1;
  ShardedSimulation ssim(opts);
  ssim.SetHostShards({0, 1});

  bool delivered = false;
  ssim.shard(0).At(0.0, [&ssim, &delivered] {
    Message m;
    m.src_host = 0;
    m.dst_host = 1;
    m.bytes = 8;
    Transport::SendOptions so;
    so.delay_override_ms = 10.0;  // deliver exactly at the window end
    ssim.shard(0).transport().Send(m, [&delivered] { delivered = true; }, so);
  });
  ssim.RunUntil(30.0);
  EXPECT_TRUE(delivered);
  EXPECT_EQ(ssim.cross_shard_messages(), 1u);
  // The receiving shard accounted the delivery.
  EXPECT_EQ(ssim.MergedTransportStats().Total().delivered, 1u);
  EXPECT_EQ(ssim.MergedTransportStats().Total().sent, 1u);
}

// -------------------------------------------------- ShardSerialIdentity --

struct StackRunLog {
  std::string metrics_json;
  std::string trace_text;
  std::size_t fired = 0;
};

std::string ReadAll(std::FILE* f) {
  std::rewind(f);
  std::string out;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  return out;
}

// A protocol-stack workload in the shard-compatible configuration
// (unsynchronised SOMO gather, no dissemination): DHT heartbeats + SOMO
// over the shared transport with jitter fault injection. `sharded` runs it
// on a 1-shard ShardedSimulation with BindShard wired (the bound
// single-instance path must equal the unbound serial path byte for byte).
StackRunLog RunStack(bool sharded) {
  constexpr std::uint64_t kSeed = 321;
  constexpr std::size_t kHosts = 24;
  StackRunLog log;

  std::unique_ptr<ShardedSimulation> ssim;
  std::unique_ptr<Simulation> serial;
  if (sharded) {
    ShardedOptions opts;
    opts.shards = 1;
    opts.seed = kSeed;
    ssim = std::make_unique<ShardedSimulation>(opts);
    ssim->SetHostShards(std::vector<std::uint32_t>(kHosts, 0));
  } else {
    serial = std::make_unique<Simulation>(kSeed);
  }
  Simulation& sim = sharded ? ssim->shard(0) : *serial;
  sim.EnableMetrics();
  TraceSink trace;
  sim.transport().set_trace(&trace);
  sim.transport().faults().jitter_ms = 2.0;

  dht::Ring ring(8);
  for (std::size_t i = 0; i < kHosts; ++i) ring.JoinHashed(i);
  ring.StabilizeAll();

  dht::HeartbeatProtocol hb(sim, ring);
  somo::SomoConfig cfg;
  cfg.fanout = 4;
  cfg.report_interval_ms = 1000.0;
  somo::SomoProtocol somo(sim, ring, cfg, [&](dht::NodeIndex n) {
    somo::NodeReport r;
    r.node = n;
    r.host = ring.node(n).host();
    r.generated_at = sim.now();
    r.degrees.total = 4;
    return r;
  });
  if (sharded) {
    hb.BindShard(0, &ssim->host_shards(), {&hb});
    somo.BindShard(0, &ssim->host_shards(), {&somo});
  }
  hb.Start();
  somo.Start();

  log.fired = sharded ? ssim->RunUntil(15000.0)
                      : (sim.RunUntil(15000.0), sim.fired_events());
  log.metrics_json = sim.metrics().SnapshotJson();

  std::FILE* f = std::tmpfile();
  P2P_CHECK(f != nullptr);
  trace.WriteText(f);
  log.trace_text = ReadAll(f);
  std::fclose(f);
  return log;
}

TEST(ShardSerialIdentity, OneShardMatchesSerialKernelByteForByte) {
  const StackRunLog serial = RunStack(/*sharded=*/false);
  const StackRunLog one_shard = RunStack(/*sharded=*/true);
  EXPECT_GT(serial.fired, 0u);
  EXPECT_EQ(serial.fired, one_shard.fired);
  EXPECT_EQ(serial.metrics_json, one_shard.metrics_json);
  EXPECT_EQ(serial.trace_text, one_shard.trace_text);
  // Non-vacuous: the stack actually ran.
  EXPECT_NE(serial.metrics_json.find("dht.heartbeat.sent"), std::string::npos);
  EXPECT_NE(serial.metrics_json.find("somo.messages"), std::string::npos);
}

// ------------------------------------------------------ ShardDeterminism --

struct ShardedRunLog {
  std::string merged_json;
  std::vector<std::string> shard_json;
  std::size_t fired = 0;
  std::size_t windows = 0;
  std::size_t cross = 0;
};

// A bound two-shard protocol run over a synthetic host split. The
// lookahead (10 ms) underruns every oracle-less delay in play (heartbeat
// fallback 50 ms, SOMO hop 200 ms; jitter only adds), so the contract
// holds without a topology — as does any `matrix` (2x2 per-pair
// lookahead; empty = the uniform 10 ms path) whose entries stay below
// the 50 ms heartbeat floor.
ShardedRunLog RunTwoShards(std::uint64_t seed, std::size_t threads,
                           std::vector<double> matrix = {}) {
  constexpr std::size_t kHosts = 24;
  ShardedRunLog log;

  ShardedOptions opts;
  opts.shards = 2;
  opts.lookahead_ms = 10.0;
  opts.lookahead_matrix = std::move(matrix);
  opts.seed = seed;
  opts.threads = threads;
  ShardedSimulation ssim(opts);
  std::vector<std::uint32_t> shard_of_host(kHosts);
  for (std::size_t h = 0; h < kHosts; ++h)
    shard_of_host[h] = static_cast<std::uint32_t>(h % 2);
  ssim.SetHostShards(std::move(shard_of_host));

  dht::Ring ring(8);
  for (std::size_t i = 0; i < kHosts; ++i) ring.JoinHashed(i);
  ring.StabilizeAll();

  std::vector<std::unique_ptr<dht::HeartbeatProtocol>> hbs;
  std::vector<std::unique_ptr<somo::SomoProtocol>> somos;
  for (std::size_t s = 0; s < 2; ++s) {
    Simulation& ssh = ssim.shard(s);
    ssh.EnableMetrics();
    ssh.transport().faults().jitter_ms = 2.0;
    hbs.push_back(std::make_unique<dht::HeartbeatProtocol>(ssh, ring));
    somo::SomoConfig cfg;
    cfg.fanout = 4;
    cfg.report_interval_ms = 1000.0;
    somos.push_back(std::make_unique<somo::SomoProtocol>(
        ssh, ring, cfg, [&ring, &ssh](dht::NodeIndex n) {
          somo::NodeReport r;
          r.node = n;
          r.host = ring.node(n).host();
          r.generated_at = ssh.now();
          r.degrees.total = 4;
          return r;
        }));
  }
  for (std::size_t s = 0; s < 2; ++s) {
    hbs[s]->BindShard(static_cast<std::uint32_t>(s), &ssim.host_shards(),
                      {hbs[0].get(), hbs[1].get()});
    somos[s]->BindShard(static_cast<std::uint32_t>(s), &ssim.host_shards(),
                        {somos[0].get(), somos[1].get()});
  }
  for (auto& hb : hbs) hb->Start();
  for (auto& somo : somos) somo->Start();

  log.fired = ssim.RunUntil(15000.0);
  log.windows = ssim.windows();
  log.cross = ssim.cross_shard_messages();
  obs::MetricsRegistry merged;
  ssim.MergeMetrics(merged);
  log.merged_json = merged.SnapshotJson();
  for (std::size_t s = 0; s < 2; ++s)
    log.shard_json.push_back(ssim.shard(s).metrics().SnapshotJson());
  return log;
}

TEST(ShardDeterminism, SameSeedIsByteIdenticalAcrossThreadCounts) {
  const ShardedRunLog a = RunTwoShards(99, /*threads=*/1);
  const ShardedRunLog b = RunTwoShards(99, /*threads=*/2);
  const ShardedRunLog c = RunTwoShards(99, /*threads=*/2);
  const ShardedRunLog d = RunTwoShards(99, /*threads=*/8);
  // The run exercised the barrier for real.
  EXPECT_GT(a.cross, 0u);
  EXPECT_GT(a.windows, 100u);  // 15000 ms / 10 ms windows, minus idle skip
  // Thread schedule is unobservable: serialised and threaded runs agree...
  EXPECT_EQ(a.fired, b.fired);
  EXPECT_EQ(a.windows, b.windows);
  EXPECT_EQ(a.cross, b.cross);
  EXPECT_EQ(a.merged_json, b.merged_json);
  EXPECT_EQ(a.shard_json, b.shard_json);
  // ...and so do two threaded runs...
  EXPECT_EQ(b.fired, c.fired);
  EXPECT_EQ(b.merged_json, c.merged_json);
  EXPECT_EQ(b.shard_json, c.shard_json);
  // ...and an oversubscribed run (more threads than shards or cores).
  EXPECT_EQ(a.fired, d.fired);
  EXPECT_EQ(a.merged_json, d.merged_json);
  EXPECT_EQ(a.shard_json, d.shard_json);
  EXPECT_NE(a.merged_json.find("dht.heartbeat.delivered"), std::string::npos);
  EXPECT_NE(a.merged_json.find("somo.messages"), std::string::npos);
}

TEST(ShardDeterminism, DifferentSeedsDiverge) {
  // Guard against vacuous equality above: reseeding reshuffles jitter and
  // timer phases, which must show up in the merged counters.
  const ShardedRunLog a = RunTwoShards(99, /*threads=*/1);
  const ShardedRunLog b = RunTwoShards(100, /*threads=*/1);
  EXPECT_NE(a.merged_json, b.merged_json);
}

// ------------------------------------------------------------ ShardSomo --

std::unique_ptr<somo::SomoProtocol> MakeSomo(Simulation& sim, dht::Ring& ring,
                                             std::size_t fanout = 4) {
  somo::SomoConfig cfg;
  cfg.fanout = fanout;
  cfg.report_interval_ms = 1000.0;
  return std::make_unique<somo::SomoProtocol>(
      sim, ring, cfg, [&ring, &sim](dht::NodeIndex n) {
        somo::NodeReport r;
        r.node = n;
        r.host = ring.node(n).host();
        r.generated_at = sim.now();
        return r;
      });
}

// `shards` SOMO instances over one ring of a few hundred hosts (host h on
// shard h % shards), constructed unbound; Bind() wires them the way the
// CLI's fullstack does. No oracle: every hop costs the 200 ms SOMO
// default, well above the 10 ms lookahead.
struct ShardSomoRun {
  static constexpr std::size_t kHosts = 300;
  dht::Ring ring{8};
  std::unique_ptr<ShardedSimulation> ssim;
  std::vector<std::unique_ptr<somo::SomoProtocol>> somos;

  explicit ShardSomoRun(std::size_t shards) {
    for (std::size_t i = 0; i < kHosts; ++i) ring.JoinHashed(i);
    ring.StabilizeAll();
    ShardedOptions opts;
    opts.shards = shards;
    opts.lookahead_ms = 10.0;
    opts.seed = 77;
    opts.threads = 2;
    ssim = std::make_unique<ShardedSimulation>(opts);
    std::vector<std::uint32_t> shard_of_host(kHosts);
    for (std::size_t h = 0; h < kHosts; ++h)
      shard_of_host[h] = static_cast<std::uint32_t>(h % shards);
    ssim->SetHostShards(std::move(shard_of_host));
    for (std::size_t s = 0; s < shards; ++s)
      somos.push_back(MakeSomo(ssim->shard(s), ring));
  }

  void Bind() {
    std::vector<somo::SomoProtocol*> peers;
    for (auto& so : somos) peers.push_back(so.get());
    for (std::size_t s = 0; s < somos.size(); ++s)
      somos[s]->BindShard(static_cast<std::uint32_t>(s), &ssim->host_shards(),
                          peers);
  }
  void Start() {
    for (auto& so : somos) so->Start();
  }
};

TEST(ShardSomo, BoundInstancesShareOneTree) {
  for (const std::size_t shards : {2UL, 4UL}) {
    SCOPED_TRACE(shards);
    ShardSomoRun run(shards);
    // A tree read before binding gives way to the shared one (the freed
    // copy's address may be reused, so only the sharing is asserted).
    EXPECT_GT(run.somos.back()->tree().size(), 0u);
    run.Bind();
    // First read through the last peer: the shared tree is still the one
    // every instance returns.
    const somo::LogicalTree* tree = &run.somos.back()->tree();
    for (const auto& so : run.somos) EXPECT_EQ(&so->tree(), tree);
    run.Start();
    for (const auto& so : run.somos) EXPECT_EQ(&so->tree(), tree);
    tree->CheckInvariants(run.ring);
  }
}

TEST(ShardSomo, BoundStateIsPartitionedNotReplicated) {
  for (const std::size_t shards : {2UL, 4UL}) {
    SCOPED_TRACE(shards);
    ShardSomoRun run(shards);
    run.Bind();
    run.Start();
    std::size_t bound = 0;
    for (const auto& so : run.somos) bound += so->MemoryBytes();
    Simulation serial(77);
    const auto unbound = MakeSomo(serial, run.ring);
    unbound->Start();
    const std::size_t one = unbound->MemoryBytes();
    // Each logical node's state lives on exactly one instance: the bound
    // total is one unbound instance plus the slot indexes, not S copies.
    EXPECT_GE(bound, one);
    EXPECT_LE(bound * 100, one * 105);
  }
}

TEST(ShardSomo, RootOwnerGathersCompleteView) {
  for (const std::size_t shards : {2UL, 4UL}) {
    SCOPED_TRACE(shards);
    ShardSomoRun run(shards);
    run.Bind();
    const somo::LogicalTree& tree = run.somos[0]->tree();
    const somo::SomoProtocol& root = *run.somos[run.ssim->ShardOfHost(
        run.ring.node(tree.node(tree.root()).owner).host())];
    run.Start();
    // depth·T lets every report climb the hierarchy, plus hop slack.
    run.ssim->RunUntil((static_cast<double>(tree.depth()) + 2.0) * 1000.0 +
                       1000.0);
    EXPECT_GT(run.ssim->cross_shard_messages(), 0u);
    EXPECT_TRUE(root.RootViewComplete());
    EXPECT_EQ(root.RootReport().size(), ShardSomoRun::kHosts);
  }
}

TEST(ShardSomo, BindShardRejectsPeersOverAnotherRingOrFanout) {
  ShardSomoRun run(2);
  somo::SomoProtocol& first = *run.somos[0];
  const auto wider = MakeSomo(run.ssim->shard(1), run.ring, /*fanout=*/8);
  EXPECT_THROW(
      first.BindShard(0, &run.ssim->host_shards(), {&first, wider.get()}),
      util::CheckError);
  dht::Ring other(8);
  for (std::size_t i = 0; i < ShardSomoRun::kHosts; ++i) other.JoinHashed(i);
  other.StabilizeAll();
  const auto elsewhere = MakeSomo(run.ssim->shard(1), other);
  EXPECT_THROW(
      first.BindShard(0, &run.ssim->host_shards(), {&first, elsewhere.get()}),
      util::CheckError);
  // The matching peer binds.
  EXPECT_NO_THROW(first.BindShard(0, &run.ssim->host_shards(),
                                  {&first, run.somos[1].get()}));
}

// -------------------------------------------------------- ShardExchange --

TEST(ShardExchange, LocalOnlyWindowsExchangeNothing) {
  // Every outbox column stays empty: the barrier must cope with windows
  // that move no messages at all and still advance virtual time.
  ShardedOptions opts;
  opts.shards = 3;
  opts.lookahead_ms = 10.0;
  opts.seed = 11;
  opts.threads = 2;
  ShardedSimulation ssim(opts);
  std::size_t fired[3] = {0, 0, 0};
  for (std::size_t s = 0; s < 3; ++s) {
    for (int k = 0; k < 10; ++k) {
      ssim.shard(s).At(5.0 + 10.0 * k, [&fired, s] { ++fired[s]; });
    }
  }
  EXPECT_EQ(ssim.RunUntil(200.0), 30u);
  EXPECT_EQ(ssim.cross_shard_messages(), 0u);
  EXPECT_GE(ssim.windows(), 1u);
  for (std::size_t s = 0; s < 3; ++s) EXPECT_EQ(fired[s], 10u);
}

TEST(ShardExchange, SingleActivePairDrainsSorted) {
  // Only one (src, dst) column ever fills; posts arrive time-descending
  // and must still deliver ascending.
  ShardedOptions opts;
  opts.shards = 4;
  opts.lookahead_ms = 10.0;
  opts.seed = 12;
  opts.threads = 2;
  ShardedSimulation ssim(opts);
  std::vector<int> order;
  const auto tag = [&order](int t) {
    return [&order, t] { order.push_back(t); };
  };
  for (int k = 9; k >= 0; --k) {
    ssim.Post(2, 1, 15.0 + 10.0 * k, tag(k));
  }
  EXPECT_EQ(ssim.RunUntil(150.0), 10u);
  EXPECT_EQ(ssim.cross_shard_messages(), 10u);
  const std::vector<int> want = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  EXPECT_EQ(order, want);
}

TEST(ShardExchange, AllMessagesInOneWindowDrainInCanonicalOrder) {
  // Both senders dump everything into the same lockstep window, with a
  // deliberate cross-source tie at every delivery time: the merge must
  // order ties by src shard, then per-src send order — one window, one
  // barrier, 32 messages.
  ShardedOptions opts;
  opts.shards = 2;
  opts.lookahead_ms = 1000.0;
  opts.seed = 13;
  opts.threads = 1;
  ShardedSimulation ssim(opts);
  std::vector<int> order;
  const auto tag = [&order](int t) {
    return [&order, t] { order.push_back(t); };
  };
  for (int k = 0; k < 16; ++k) {
    const int slot = (k * 5) % 16;  // scrambled emission order
    const double t = 1100.0 + 50.0 * slot;
    ssim.Post(1, 0, t, tag(1000 + slot));
    ssim.Post(0, 0, t, tag(slot));  // same time: src 0 must precede src 1
  }
  EXPECT_EQ(ssim.RunUntil(2000.0), 32u);
  ASSERT_EQ(order.size(), 32u);
  for (int slot = 0; slot < 16; ++slot) {
    EXPECT_EQ(order[2 * slot], slot);
    EXPECT_EQ(order[2 * slot + 1], 1000 + slot);
  }
}

// --------------------------------------------------------- ShardProfile --

TEST(ShardProfile, PhaseTimersAppearWithTheFirstWindow) {
  // A RunUntil call that runs no window adds no profile keys; once windows
  // run, each adds one sample to each of the four phase timers.
  ShardedOptions opts;
  opts.shards = 2;
  opts.lookahead_ms = 10.0;
  opts.seed = 14;
  opts.threads = 1;
  ShardedSimulation ssim(opts);
  EXPECT_EQ(ssim.RunUntil(100.0), 0u);  // idle: fast-forwards, no window
  EXPECT_EQ(ssim.windows(), 0u);
  EXPECT_TRUE(ssim.kernel_profile().profiles().empty());

  for (std::size_t s = 0; s < 2; ++s) ssim.shard(s).At(150.0 + s, [] {});
  EXPECT_EQ(ssim.RunUntil(300.0), 2u);
  ASSERT_GE(ssim.windows(), 1u);
  const auto& profiles = ssim.kernel_profile().profiles();
  EXPECT_EQ(profiles.size(), 4u);
  for (const char* name : {"shard.drain_ms", "shard.window_ms",
                           "shard.sort_ms", "shard.exchange_ms"}) {
    const auto it = profiles.find(name);
    ASSERT_NE(it, profiles.end()) << name;
    EXPECT_EQ(it->second.count(), ssim.windows()) << name;
  }
}

// ------------------------------------------------- ShardLookaheadMatrix --

TEST(ShardLookaheadMatrix, MatrixRunMatchesFixedRunWithFewerWindows) {
  // A sound non-uniform matrix (every entry under the 50 ms heartbeat
  // floor) must reproduce the fixed-lookahead schedule byte for byte while
  // advancing in fewer, larger windows — the tentpole's whole point.
  const ShardedRunLog fixed = RunTwoShards(99, /*threads=*/2);
  const ShardedRunLog matrix =
      RunTwoShards(99, /*threads=*/2, {0.0, 30.0, 15.0, 0.0});
  EXPECT_EQ(fixed.fired, matrix.fired);
  EXPECT_EQ(fixed.cross, matrix.cross);
  EXPECT_EQ(fixed.merged_json, matrix.merged_json);
  EXPECT_EQ(fixed.shard_json, matrix.shard_json);
  // >= 1.5x fewer barriers (the bounded-lag recurrence alternates 15/30 ms
  // advances against the uniform 10 ms).
  EXPECT_LE(matrix.windows * 3, fixed.windows * 2);
}

TEST(ShardLookaheadMatrix, UnsoundMatrixEntryIsRejectedPerMessage) {
  // An overclaimed pair bound (60 ms > the true 50 ms heartbeat delay)
  // must trip the per-message extraction validation, not deliver late.
  EXPECT_THROW(
      RunTwoShards(99, /*threads=*/1, {0.0, 60.0, 60.0, 0.0}),
      util::CheckError);
}

TEST(ShardLookaheadMatrix, RejectsMalformedMatrices) {
  ShardedOptions opts;
  opts.shards = 2;
  opts.lookahead_ms = 10.0;
  opts.lookahead_matrix = {0.0, 10.0, 10.0};  // 3 cells for 2 shards
  EXPECT_THROW(ShardedSimulation{opts}, util::CheckError);
  opts.lookahead_matrix = {0.0, 10.0, 0.0, 0.0};  // zero off-diagonal
  EXPECT_THROW(ShardedSimulation{opts}, util::CheckError);
}

// --------------------------------------------- ShardLookaheadExtraction --

net::TransitStubTopology MultihomedTopo(std::uint64_t seed,
                                        std::size_t hosts = 120) {
  net::TransitStubParams p = p2p::testing::SmallTopologyParams(hosts);
  // Multi-homed stub domains give every domain up to two gateways — the
  // configuration that makes the extraction's gateway reduction earn its
  // keep (and the one the 10k+ presets run with).
  p.stub_multihome_prob = 0.5;
  util::Rng rng(seed);
  return net::GenerateTransitStub(p, rng);
}

TEST(ShardLookaheadExtraction, MatchesBruteForceOnSmallTopology) {
  const net::TransitStubTopology topo = MultihomedTopo(301);
  const net::LatencyOracle oracle(topo);
  net::ShardPlan plan = net::PlanShards(topo, 3);
  net::ExtractLookahead(topo, oracle, plan);
  ASSERT_EQ(plan.lookahead_matrix.size(), 9u);

  // The gateway reduction claims exactness: matrix[i][j] == min over
  // cross-shard host pairs of oracle latency (floored at the structural
  // bound). Check against the O(hosts^2) brute force.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> brute(9, kInf);
  for (std::size_t a = 0; a < topo.host_count(); ++a) {
    for (std::size_t b = 0; b < topo.host_count(); ++b) {
      const std::uint32_t sa = plan.shard_of_host[a];
      const std::uint32_t sb = plan.shard_of_host[b];
      if (sa == sb) continue;
      double& cell = brute[sa * 3 + sb];
      cell = std::min(cell, oracle.Latency(a, b));
    }
  }
  double min_off_diag = kInf;
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      if (i == j) continue;
      const double expect = std::max(brute[i * 3 + j], plan.lookahead_ms);
      EXPECT_NEAR(plan.PairLookaheadMs(i, j), expect, 1e-9)
          << "pair (" << i << "," << j << ")";
      min_off_diag = std::min(min_off_diag, plan.PairLookaheadMs(i, j));
    }
  }
  EXPECT_DOUBLE_EQ(plan.extracted_lookahead_ms, min_off_diag);
  EXPECT_GE(plan.extracted_lookahead_ms, plan.lookahead_ms);
}

TEST(ShardLookaheadExtraction, SoundForRandomizedMultihomedPresets) {
  // The property the kernel's per-message CHECK rests on: for every
  // topology seed and shard count, each matrix entry is a lower bound on
  // every cross-shard host-pair latency the oracle can produce.
  for (const std::uint64_t seed : {401ULL, 402ULL, 403ULL}) {
    const net::TransitStubTopology topo = MultihomedTopo(seed, 90);
    const net::LatencyOracle oracle(topo);
    for (const std::size_t shards : {2UL, 4UL}) {
      net::ShardPlan plan = net::PlanShards(topo, shards);
      net::ExtractLookahead(topo, oracle, plan);
      for (std::size_t a = 0; a < topo.host_count(); ++a) {
        for (std::size_t b = 0; b < topo.host_count(); ++b) {
          const std::uint32_t sa = plan.shard_of_host[a];
          const std::uint32_t sb = plan.shard_of_host[b];
          if (sa == sb) continue;
          ASSERT_LE(plan.PairLookaheadMs(sa, sb),
                    oracle.Latency(a, b) + 1e-9)
              << "seed " << seed << " shards " << shards << " hosts " << a
              << "->" << b;
        }
      }
      // And it never loosens the structural bound.
      EXPECT_GE(plan.extracted_lookahead_ms, plan.lookahead_ms);
    }
  }
}

// ------------------------------------------------------- ShardAllocation --

// Heap allocations per 1000 delivered heartbeats over two warm seconds of
// a heartbeat-only run: 1024 hosts split h % shards, leafsets of 16, a beat
// every 20 ms, so ~820k deliveries a second. Heartbeats take the 50 ms
// oracle-less delay and the lookahead is as long. What still allocates is
// per window or per wheel bucket, not per message — the thread pool's
// tasks, a wheel bucket or mailbox column growing past its largest load so
// far — and stays well under the bound (~0.1 on one shard, ~0.5 on two),
// which one allocation per beat (a leafset copy, ~60) or per cross-shard
// message (a wrapper closure past the inline buffer, ~500) breaks.
double AllocationsPerThousandHeartbeats(std::size_t shards) {
  constexpr std::size_t kHosts = 1024;
  ShardedOptions opts;
  opts.shards = shards;
  opts.lookahead_ms = 50.0;
  opts.seed = 17;
  opts.threads = shards;
  ShardedSimulation ssim(opts);
  std::vector<std::uint32_t> shard_of_host(kHosts);
  for (std::size_t h = 0; h < kHosts; ++h)
    shard_of_host[h] = static_cast<std::uint32_t>(h % shards);
  ssim.SetHostShards(std::move(shard_of_host));

  dht::Ring ring(16);
  ring.JoinBatchHashed(0, kHosts);
  dht::HeartbeatConfig cfg;
  cfg.period_ms = 20.0;
  cfg.timeout_ms = 70.0;
  std::vector<std::unique_ptr<dht::HeartbeatProtocol>> hbs;
  std::vector<dht::HeartbeatProtocol*> peers;
  for (std::size_t s = 0; s < shards; ++s) {
    hbs.push_back(
        std::make_unique<dht::HeartbeatProtocol>(ssim.shard(s), ring, cfg));
    peers.push_back(hbs.back().get());
  }
  for (std::size_t s = 0; s < shards; ++s)
    hbs[s]->BindShard(static_cast<std::uint32_t>(s), &ssim.host_shards(),
                      peers);
  for (auto& hb : hbs) hb->Start();

  const auto delivered = [&hbs] {
    std::size_t total = 0;
    for (const auto& hb : hbs) total += hb->heartbeats_delivered();
    return total;
  };
  ssim.RunUntil(1000.0);  // warm: slabs, wheel buckets, mailboxes, blocks
  const std::size_t delivered_before = delivered();
  const std::size_t allocations_before = g_allocations.load();
  ssim.RunUntil(3000.0);
  const std::size_t allocations = g_allocations.load() - allocations_before;
  const std::size_t heartbeats = delivered() - delivered_before;
  EXPECT_GT(heartbeats, 1000000u);
  if (shards > 1) {
    EXPECT_GT(ssim.cross_shard_messages(), 0u);
  }
  return 1000.0 * static_cast<double>(allocations) /
         static_cast<double>(heartbeats);
}

TEST(ShardAllocation, WarmHeartbeatsAllocateUnderOncePerThousandDeliveries) {
  for (const std::size_t shards : {1, 2}) {
    EXPECT_LT(AllocationsPerThousandHeartbeats(shards), 1.0)
        << shards << " shard(s)";
  }
}

}  // namespace
}  // namespace p2p::sim
