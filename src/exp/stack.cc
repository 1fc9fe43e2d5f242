#include "exp/stack.h"

#include <cstdio>

#include "obs/scope_timer.h"
#include "util/check.h"

namespace p2p::exp {
namespace {

net::TransitStubParams TopologyParams(const StackConfig& c) {
  if (!c.preset.empty())
    return net::PresetParams(net::ParseTopologyPreset(c.preset));
  net::TransitStubParams params;
  params.end_hosts = c.hosts;
  return params;
}

net::TransitStubTopology Generate(const StackConfig& c, Network& net,
                                  std::FILE* progress) {
  if (progress != nullptr)
    std::fprintf(progress, "generating %s topology (seed %llu) ...\n",
                 c.preset.empty() ? "custom" : c.preset.c_str(),
                 static_cast<unsigned long long>(c.seed));
  util::Rng rng(c.seed);
  const obs::ScopeTimer timer(&net.setup.profile("fullstack.setup.topo_ms"));
  return net::GenerateTransitStub(net.params, rng, &net.workers);
}

net::LatencyOracle BuildOracle(const StackConfig& c, Network& net,
                               std::FILE* progress) {
  net::OracleOptions opts;
  opts.kind = ParseOracleKind(c.oracle);
  opts.precision =
      c.f32 ? net::OraclePrecision::kF32 : net::OraclePrecision::kF64;
  opts.pool = &net.workers;
  opts.metrics = &net.setup;
  if (progress != nullptr)
    std::fprintf(progress, "building %s oracle over %zu routers ...\n",
                 OracleName(opts.kind), net.topo.router_count());
  return net::LatencyOracle(net.topo, opts);
}

}  // namespace

void CheckStack(const StackConfig& c) {
  if (!c.preset.empty()) net::ParseTopologyPreset(c.preset);
  ParseOracleKind(c.oracle);
  if (c.shards == 0) throw util::UsageError("--shards must be at least 1");
  if (c.shards > 1 && c.preset.empty())
    throw util::UsageError("sharding needs a topology preset");
}

net::OracleKind ParseOracleKind(const std::string& name) {
  if (name == "flat") return net::OracleKind::kFlat;
  if (name == "hier" || name == "hierarchical")
    return net::OracleKind::kHierarchical;
  throw util::UsageError("unknown oracle '" + name + "' (flat|hier)");
}

const char* OracleName(net::OracleKind kind) {
  return kind == net::OracleKind::kFlat ? "flat" : "hier";
}

Network::Network(const StackConfig& c, std::FILE* progress)
    : workers(c.jobs),
      params(TopologyParams(c)),
      topo(Generate(c, *this, progress)),
      oracle(BuildOracle(c, *this, progress)) {}

Stack::~Stack() = default;

Stack::Stack(const StackConfig& c, Network* net, std::FILE* progress)
    : owned_(net == nullptr && !c.preset.empty()
                 ? std::make_unique<Network>(c, progress)
                 : nullptr),
      net_(owned_ ? owned_.get() : net) {
  P2P_CHECK(!c.telemetry || (c.heartbeat && c.somo));
  const std::size_t hosts = net_ != nullptr ? net_->topo.host_count() : c.hosts;
  sim::ShardedOptions opts;
  opts.shards = c.shards;
  opts.seed = c.seed;
  opts.threads = c.threads;
  if (net_ != nullptr) {
    // Host -> shard placement along whole stub domains with the structural
    // lookahead bound, sharpened above one shard into the measured per-pair
    // matrix (exact and deterministic: same seed, same matrix).
    plan_ = net::PlanShards(net_->topo, c.shards);
    if (c.shards > 1) {
      const obs::ScopeTimer timer(
          owned_ ? &owned_->setup.profile("fullstack.setup.extract_ms")
                 : nullptr);
      net::ExtractLookahead(net_->topo, net_->oracle, plan_);
    }
    opts.lookahead_ms = plan_.lookahead_ms;
    opts.lookahead_matrix = plan_.lookahead_matrix;
  }
  kernel_ = std::make_unique<sim::ShardedSimulation>(opts);
  for (std::size_t s = 0; s < c.shards; ++s) {
    kernel_->shard(s).EnableMetrics();
    if (c.telemetry) kernel_->shard(s).transport().EnablePerHostStats(hosts);
  }
  obs::MetricsRegistry& metrics0 = kernel_->shard(0).metrics();
  if (owned_) metrics0.MergeFrom(owned_->setup);

  if (progress != nullptr)
    std::fprintf(progress, "joining %zu hosts into the DHT ...\n", hosts);
  ring_ = std::make_unique<dht::Ring>(
      c.leafset, net_ != nullptr ? &net_->oracle : nullptr);
  if (net_ != nullptr) ring_->set_thread_pool(&net_->workers);
  {
    const obs::ScopeTimer timer(
        owned_ ? &metrics0.profile("fullstack.setup.join_ms") : nullptr);
    const dht::NodeIndex first = ring_->JoinBatchHashed(0, hosts);
    P2P_CHECK(first == 0 && ring_->size() == hosts);
  }
  if (c.ring_metrics) ring_->set_metrics(&metrics0);
  if (net_ != nullptr) kernel_->SetHostShards(plan_.shard_of_host);

  for (std::size_t s = 0; s < c.shards; ++s) {
    sim::Simulation& sim = kernel_->shard(s);
    if (c.heartbeat)
      heartbeats_.push_back(
          std::make_unique<dht::HeartbeatProtocol>(sim, *ring_, *c.heartbeat));
    if (!c.somo) continue;
    const dht::HeartbeatProtocol* hb =
        c.telemetry ? heartbeats_.back().get() : nullptr;
    somos_.push_back(std::make_unique<somo::SomoProtocol>(
        sim, *ring_, *c.somo, [this, &sim, hb](dht::NodeIndex n) {
          somo::NodeReport r;
          r.node = n;
          r.host = ring_->node(n).host();
          r.generated_at = sim.now();
          if (hb != nullptr) {
            // This host's transport counters ride its report (within the
            // measured 40-byte record budget).
            const sim::HostStats& hs = sim.transport().host_stats(r.host);
            r.telemetry.msgs_sent = hs.sent;
            r.telemetry.msgs_delivered = hs.delivered;
            r.telemetry.msgs_dropped = hs.dropped;
            r.telemetry.bytes_sent = hs.bytes;
            r.telemetry.suspects = hb->suspected_count(n);
            r.telemetry.sampled_at = sim.now();
          }
          return r;
        }));
  }
  if (c.shards > 1) {
    std::vector<dht::HeartbeatProtocol*> hb_peers;
    std::vector<somo::SomoProtocol*> somo_peers;
    for (const auto& hb : heartbeats_) hb_peers.push_back(hb.get());
    for (const auto& so : somos_) somo_peers.push_back(so.get());
    for (std::size_t s = 0; s < c.shards; ++s) {
      const auto shard = static_cast<std::uint32_t>(s);
      if (c.heartbeat)
        heartbeats_[s]->BindShard(shard, &kernel_->host_shards(), hb_peers);
      if (c.somo)
        somos_[s]->BindShard(shard, &kernel_->host_shards(), somo_peers);
    }
  }
}

std::size_t Stack::root_shard() const {
  // Bound instances share one tree, so any of them can name the root.
  const somo::LogicalTree& tree = somos_.at(0)->tree();
  return kernel_->ShardOfHost(ring_->node(tree.node(tree.root()).owner).host());
}

void Stack::Start() {
  for (auto& hb : heartbeats_) hb->Start();
  for (auto& so : somos_) so->Start();
}

std::size_t Stack::MemoryBytes() const {
  std::size_t bytes = ring_->MemoryBytes();
  for (const auto& hb : heartbeats_) bytes += hb->MemoryBytes();
  for (const auto& so : somos_) bytes += so->MemoryBytes();
  for (std::size_t s = 0; s < kernel_->shard_count(); ++s)
    bytes += kernel_->shard(s).transport().MemoryBytes();
  return bytes;
}

void Stack::AttachMetrics(obs::RunReport& report) const {
  if (kernel_->shard_count() == 1) {
    report.AttachMetrics(&kernel_->shard(0).metrics());
    return;
  }
  obs::MetricsRegistry merged;
  kernel_->MergeMetrics(merged);
  merged.MergeFrom(kernel_->kernel_profile());
  report.AttachMetrics(&merged);
}

}  // namespace p2p::exp
