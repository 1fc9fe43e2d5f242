// Unified simulated transport: the one message bus every protocol layer
// sends through (DHT heartbeats, maintenance lookups, SOMO gather and
// dissemination, packet-pair probes).
//
// Delivery delay comes from the net::LatencyOracle when one is configured,
// falling back to a per-send or bus-wide default; delivery order is the
// event queue's deterministic (time, seq) order, so with fault injection
// disabled routing traffic through the bus is bit-identical to the
// protocols scheduling their own delayed callbacks. The bus adds three
// things the per-protocol schedulers could not offer:
//   * a FaultInjector — per-link loss probability, delay jitter and
//     host-set partitions, all drawn from the simulation's deterministic
//     RNG stream (and consuming none of it while disabled, so seeded runs
//     are unchanged until a scenario opts in);
//   * per-protocol accounting (messages, simulated bytes, drops) via a
//     TransportStats snapshot;
//   * an optional bounded TraceSink recording every send for post-hoc
//     analysis (tools/trace_to_csv).
//
// Each message is one event: Send builds a Transport::Delivery closure (the
// accounting fields, then the protocol's closure) and schedules it, or hands
// it unchanged to the destination shard's mailbox on a sharded run. Protocol
// closures of up to 24 bytes keep that event inline, so a heartbeat costs
// no allocation on either path.
#pragma once

#include <array>
#include <cstdint>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/latency_oracle.h"
#include "obs/metrics.h"
#include "sim/event_queue.h"
#include "sim/trace.h"
#include "util/inline_fn.h"

namespace p2p::sim {

class ShardedSimulation;
class Simulation;

// A typed inter-host message. Protocols address by host (the transport
// models the wire, not the overlay); the payload itself stays in the
// sender's closure — the simulation shares memory, only timing and loss
// are modelled.
struct Message {
  std::size_t src_host = 0;
  std::size_t dst_host = 0;
  Protocol protocol = Protocol::kOther;
  std::uint16_t kind = 0;  // protocol-defined discriminator (see TraceRecord)
  std::size_t bytes = 0;   // modelled wire size
};

// Bus-wide fault knobs. All default to "off"; while off the transport
// consumes no RNG, keeping pre-fault seeded runs bit-identical.
struct FaultConfig {
  // Probability each message is dropped at send time (per-link overrides
  // via Transport::SetLinkLoss take precedence).
  double loss_probability = 0.0;
  // Extra delivery delay, uniform in [0, jitter_ms), added per message.
  double jitter_ms = 0.0;
};

struct ProtocolStats {
  std::size_t sent = 0;       // admitted to the bus (includes drops)
  std::size_t delivered = 0;  // delivery callback actually ran
  std::size_t dropped = 0;    // killed by fault injection at send time
  // Drop breakdown by cause; dropped == dropped_loss + dropped_partition.
  std::size_t dropped_loss = 0;
  std::size_t dropped_partition = 0;
  std::size_t bytes = 0;      // modelled wire bytes of all sends
};

struct TransportStats {
  std::array<ProtocolStats, kProtocolCount> by_protocol;

  const ProtocolStats& protocol(Protocol p) const {
    return by_protocol[static_cast<std::size_t>(p)];
  }
  ProtocolStats Total() const {
    ProtocolStats t;
    for (const auto& s : by_protocol) {
      t.sent += s.sent;
      t.delivered += s.delivered;
      t.dropped += s.dropped;
      t.dropped_loss += s.dropped_loss;
      t.dropped_partition += s.dropped_partition;
      t.bytes += s.bytes;
    }
    return t;
  }
};

// Per-source-host accounting, enabled on demand (observe experiments): the
// ground truth each host's in-band SOMO telemetry is compared against.
struct HostStats {
  std::size_t sent = 0;
  std::size_t delivered = 0;  // deliveries of this host's sends
  std::size_t dropped = 0;
  std::size_t bytes = 0;
};

// Namespace-scope (not nested in Transport) so it can serve as a defaulted
// argument — GCC rejects brace-defaulting a nested aggregate with default
// member initializers inside its enclosing class.
struct SendOptions {
  // Delay when no oracle is configured and src != dst; < 0 means use the
  // bus default. Lets protocols keep their historical oracle-less delays
  // (heartbeat 50 ms vs SOMO hop 200 ms) without private delay paths.
  double fallback_delay_ms = -1.0;
  // Explicit base delay (>= 0) overriding the oracle/fallback entirely —
  // for traffic whose path cost was computed elsewhere (a multi-hop
  // overlay lookup's accumulated route latency). Jitter still applies.
  double delay_override_ms = -1.0;
  // Run the delivery callback inside Send() instead of scheduling an
  // event. For measurements that piggyback on already-delivered traffic
  // (packet-pair probes): loss/partition/accounting still apply, timing
  // is the caller's problem.
  bool inline_delivery = false;
};

class Transport {
 public:
  using SendOptions = sim::SendOptions;

  // The event one send schedules: the delivery's accounting fields, then
  // the protocol's closure `fn`. The fields take 24 bytes, so a closure of
  // up to 24 bytes keeps the event inside util::InlineFn's 48-byte buffer
  // (a heartbeat's [peer, from, to, send_time] is exactly that). `bus` is
  // the bus that counts the delivery: this one, or on a cross-shard send
  // the destination shard's.
  template <typename F>
  struct Delivery {
    Transport* bus;
    std::uint32_t src;
    std::uint32_t bytes;
    Protocol protocol;
    bool scheduled;  // on this bus's queue, so in its in-flight gauges
    F fn;

    void operator()() {
      bus->FinishDelivery(protocol, src, bytes, scheduled);
      fn();
    }
  };

  explicit Transport(Simulation& sim) : sim_(sim) {}

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  // --- delay model --------------------------------------------------------

  void set_oracle(const net::LatencyOracle* oracle) { oracle_ = oracle; }
  const net::LatencyOracle* oracle() const { return oracle_; }

  // Oracle-less one-way delay between distinct hosts. SOMO's deprecated
  // SomoConfig::default_hop_delay_ms forwards here.
  void set_default_delay_ms(double ms) { default_delay_ms_ = ms; }
  double default_delay_ms() const { return default_delay_ms_; }

  // Base one-way delay src → dst (no jitter): 0 for src == dst, else the
  // oracle latency, else `fallback` (when >= 0), else the bus default.
  double BaseDelayMs(std::size_t src, std::size_t dst,
                     double fallback = -1.0) const;

  // --- fault injection ----------------------------------------------------

  FaultConfig& faults() { return faults_; }
  const FaultConfig& faults() const { return faults_; }

  // Per-link (directed) loss probability, overriding the global one.
  void SetLinkLoss(std::size_t src, std::size_t dst, double p);
  // Both directions at once.
  void SetLinkLossBoth(std::size_t a, std::size_t b, double p);
  void ClearLinkLoss() { link_loss_.clear(); }

  // Isolate a host set: messages with exactly one endpoint inside any
  // partitioned set are dropped (traffic within a set, and among the
  // remainder, flows normally). Multiple sets may coexist.
  void Partition(std::vector<std::size_t> hosts);
  void HealPartitions() { partitions_.clear(); }
  bool Partitioned(std::size_t a, std::size_t b) const;

  // --- tracing ------------------------------------------------------------

  void set_trace(TraceSink* sink) { trace_ = sink; }
  TraceSink* trace() const { return trace_; }

  // --- metrics ------------------------------------------------------------

  // Attach a registry: per-protocol transport.* counters (sent, delivered,
  // dropped by cause, bytes) plus in-flight gauges are updated on every
  // send. Opt-in so the no-metrics hot path stays one null check; the
  // handles are resolved once here, not per message (the <5% overhead
  // budget is bench-enforced, BM_TransportThroughputMetrics).
  void set_metrics(obs::MetricsRegistry* registry);
  obs::MetricsRegistry* metrics() const { return metrics_; }

  // Per-source-host accounting for hosts [0, host_count). Cheap (vector
  // index per send); off until enabled.
  void EnablePerHostStats(std::size_t host_count);
  bool per_host_enabled() const { return !host_stats_.empty(); }
  const HostStats& host_stats(std::size_t host) const {
    return host_stats_.at(host);
  }

  // Messages scheduled on the bus whose delivery callback has not run yet
  // (inline deliveries never count). The queue-depth/in-flight-bytes load
  // signal the timeseries sampler records.
  std::size_t inflight_messages() const { return inflight_msgs_; }
  std::size_t inflight_bytes() const { return inflight_bytes_; }

  // --- sharding -----------------------------------------------------------

  // Route sends to hosts of other shards into `owner`'s mailboxes
  // (ShardedSimulation::SetHostShards installs this on every shard's bus).
  // `shard_of_host` (host -> owning shard, immutable while installed,
  // `host_count` entries) makes the remote test one array load per send; a
  // host index at or past `host_count` is treated as local. A null owner
  // (the default) keeps every delivery local.
  void set_sharding(ShardedSimulation* owner, std::uint32_t own_shard,
                    const std::uint32_t* shard_of_host = nullptr,
                    std::size_t host_count = 0) {
    sharded_ = owner;
    own_shard_ = own_shard;
    shard_of_host_map_ = owner == nullptr ? nullptr : shard_of_host;
    shard_host_count_ = owner == nullptr ? 0 : host_count;
    P2P_CHECK_MSG(owner == nullptr || shard_of_host_map_ != nullptr,
                  "sharding needs the host -> shard map");
  }

  // --- sending ------------------------------------------------------------

  // Admit `msg` to the bus. Returns false when fault injection dropped it
  // (`deliver` will never run); otherwise schedules one event at now + base
  // delay + jitter that counts the delivery and runs `deliver` (or runs
  // both inline, see SendOptions). A send to a host of another shard gets
  // the same accounting and trace treatment, and its event goes to that
  // shard's mailbox as it is.
  template <typename F>
  bool Send(const Message& msg, F&& deliver, SendOptions opts = {}) {
    const Admission a = Admit(msg, opts);
    if (a.bus == nullptr) return false;
    if (opts.inline_delivery) {
      FinishDelivery(msg.protocol, msg.src_host, msg.bytes,
                     /*scheduled=*/false);
      deliver();
      return true;
    }
    Delivery<std::decay_t<F>> event{a.bus,
                                    static_cast<std::uint32_t>(msg.src_host),
                                    static_cast<std::uint32_t>(msg.bytes),
                                    msg.protocol,
                                    /*scheduled=*/a.bus == this,
                                    std::forward<F>(deliver)};
    Dispatch(*a.bus, a.delay, std::move(event));
    return true;
  }

  TransportStats stats() const { return stats_; }
  void ResetStats() { stats_ = TransportStats{}; }

  // Resident bytes of the bus's tables: per-host stats (zero until
  // EnablePerHostStats), link-loss overrides and partition sets, plus this
  // object; messages in flight live in their events, not here. Feeds the
  // mem.bytes_per_host gauge.
  std::size_t MemoryBytes() const;

 private:
  static std::uint64_t LinkKey(std::size_t src, std::size_t dst) {
    return (static_cast<std::uint64_t>(src) << 32) ^
           static_cast<std::uint64_t>(dst);
  }
  double LossFor(std::size_t src, std::size_t dst) const;

  // Everything of a send but its event: the sent/bytes accounting, the
  // fault decisions and their RNG draws, the delay, the trace record and,
  // for a send scheduled on this bus, the in-flight gauges. `bus` is the
  // bus that will count the delivery, null when the message was dropped.
  struct Admission {
    Transport* bus;
    double delay;
  };
  Admission Admit(const Message& msg, const SendOptions& opts);
  // Schedule `event` `delay` ms from now: on this bus's queue when `bus` is
  // this bus, else in the mailbox to `bus`'s shard.
  void Dispatch(Transport& bus, double delay, util::InlineFn event);
  void FinishDelivery(Protocol protocol, std::size_t src, std::size_t bytes,
                      bool scheduled);

  // Registry handles cached at set_metrics time, one set per protocol.
  struct ProtoMetricHandles {
    obs::Counter* sent = nullptr;
    obs::Counter* delivered = nullptr;
    obs::Counter* dropped_loss = nullptr;
    obs::Counter* dropped_partition = nullptr;
    obs::Counter* bytes = nullptr;
  };

  Simulation& sim_;
  // Sharding (see set_sharding): null/empty on a serial run.
  ShardedSimulation* sharded_ = nullptr;
  const std::uint32_t* shard_of_host_map_ = nullptr;
  std::size_t shard_host_count_ = 0;
  std::uint32_t own_shard_ = 0;
  const net::LatencyOracle* oracle_ = nullptr;
  // Matches HeartbeatConfig's historical oracle-less delay.
  double default_delay_ms_ = 50.0;
  FaultConfig faults_;
  std::unordered_map<std::uint64_t, double> link_loss_;
  std::vector<std::unordered_set<std::size_t>> partitions_;
  TraceSink* trace_ = nullptr;
  TransportStats stats_;
  std::vector<HostStats> host_stats_;  // empty until EnablePerHostStats
  std::size_t inflight_msgs_ = 0;
  std::size_t inflight_bytes_ = 0;
  obs::MetricsRegistry* metrics_ = nullptr;
  std::array<ProtoMetricHandles, kProtocolCount> handles_;
  obs::Gauge* inflight_msgs_gauge_ = nullptr;
  obs::Gauge* inflight_bytes_gauge_ = nullptr;
};

}  // namespace p2p::sim
