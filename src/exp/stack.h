// The experiment stack, built in one place: transit-stub topology ->
// latency oracle -> shard plan and lookahead -> sharded kernel -> batch-
// joined DHT ring -> per-shard heartbeat and SOMO (paper §3.1, §3.2). The
// CLI's experiments and the tests assemble it from a StackConfig instead
// of wiring the layers by hand, so the ordering rules live here:
//   * the oracle exists before the kernel (the measured lookahead matrix
//     feeds sim::ShardedOptions);
//   * a stack that builds its own network merges that setup registry
//     (oracle gauges, build timers) into shard 0 and times its join there;
//   * protocol instances bind to their shards only above one shard — at
//     one shard they stay unbound, the exact serial code path;
//   * the SOMO root view lives on the shard owning the root point's host;
//   * shard registries merge in shard order (reproducible float sums).
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dht/heartbeat.h"
#include "net/latency_oracle.h"
#include "net/shard_plan.h"
#include "net/transit_stub.h"
#include "obs/run_report.h"
#include "sim/sharded.h"
#include "somo/somo.h"
#include "util/thread_pool.h"

namespace p2p::exp {

struct StackConfig {
  std::uint64_t seed = 1;  // topology and kernel seed
  // Transit-stub preset (1200|10k|50k|100k|250k). Without one, a Stack is
  // an oracle-less ring of `hosts` nodes and a Network is a custom
  // transit-stub topology of `hosts` end systems.
  std::string preset{};
  std::size_t hosts = 0;
  std::string oracle = "flat";  // flat|hier
  bool f32 = false;             // float32 oracle distance storage
  std::size_t jobs = 0;         // network build threads (0 = hardware)
  std::size_t shards = 1;       // kernel shards (1 = the serial kernel)
  std::size_t threads = 0;      // shard worker threads (0 = min(shards, hw))
  std::size_t leafset = 32;     // ring leafset capacity
  bool ring_metrics = true;     // dht.route.* / dht.leafset.* into shard 0
  std::optional<dht::HeartbeatConfig> heartbeat{};  // one per shard
  std::optional<somo::SomoConfig> somo{};           // one per shard
  // In-band self-monitoring: every SOMO report carries its host's transport
  // counters and heartbeat suspects (needs heartbeat and somo).
  bool telemetry = false;
};

// Throws util::UsageError naming the first value a stack cannot be built
// from: an unknown preset or oracle, zero shards, or shards without a
// network.
void CheckStack(const StackConfig& c);

// "flat" | "hier" (or "hierarchical"); throws util::UsageError otherwise.
net::OracleKind ParseOracleKind(const std::string& name);
const char* OracleName(net::OracleKind kind);

// The topology and its oracle, generated once per seed; several stacks
// may run over one network. `setup` holds the net.oracle.* gauges and the
// wall-clock build timers (fullstack.setup.topo_ms, net.oracle.build_ms).
struct Network {
  Network(const StackConfig& c, std::FILE* progress = nullptr);

  util::ThreadPool workers;
  obs::MetricsRegistry setup;
  net::TransitStubParams params;
  net::TransitStubTopology topo;
  net::LatencyOracle oracle;
};

class Stack {
 public:
  // Runs over `net` when given (it must outlive the stack), recording no
  // setup. Otherwise builds its own network from c.preset and records its
  // setup, or, without a preset, is an oracle-less ring of c.hosts nodes.
  explicit Stack(const StackConfig& c, Network* net = nullptr,
                 std::FILE* progress = nullptr);
  ~Stack();

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  const Network* network() const { return net_; }
  const net::ShardPlan& shard_plan() const { return plan_; }
  sim::ShardedSimulation& kernel() { return *kernel_; }
  sim::Simulation& sim(std::size_t shard = 0) { return kernel_->shard(shard); }
  dht::Ring& ring() { return *ring_; }
  dht::HeartbeatProtocol& heartbeat(std::size_t shard = 0) {
    return *heartbeats_.at(shard);
  }
  somo::SomoProtocol& somo(std::size_t shard = 0) { return *somos_.at(shard); }
  // The shard whose instance holds the SOMO root view.
  std::size_t root_shard() const;

  // Heartbeats, then SOMO, in shard order.
  void Start();

  // Resident protocol-state bytes: ring tables plus every shard's
  // heartbeat, SOMO and transport state (element counts, not allocator
  // state, so same-seed runs agree).
  std::size_t MemoryBytes() const;

  // Shard 0's registry at one shard; otherwise every shard's, merged in
  // shard order, plus the barrier machinery's wall-clock profile.
  void AttachMetrics(obs::RunReport& report) const;

 private:
  std::unique_ptr<Network> owned_;
  Network* net_;
  net::ShardPlan plan_;
  std::unique_ptr<sim::ShardedSimulation> kernel_;
  std::unique_ptr<dht::Ring> ring_;
  std::vector<std::unique_ptr<dht::HeartbeatProtocol>> heartbeats_;
  std::vector<std::unique_ptr<somo::SomoProtocol>> somos_;
};

}  // namespace p2p::exp
