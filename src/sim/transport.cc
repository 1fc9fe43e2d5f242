#include "sim/transport.h"

#include <string>
#include <utility>

#include "sim/sharded.h"
#include "sim/simulation.h"
#include "util/check.h"

namespace p2p::sim {

double Transport::BaseDelayMs(std::size_t src, std::size_t dst,
                              double fallback) const {
  if (src == dst) return 0.0;
  if (oracle_ != nullptr) return oracle_->Latency(src, dst);
  if (fallback >= 0.0) return fallback;
  return default_delay_ms_;
}

void Transport::SetLinkLoss(std::size_t src, std::size_t dst, double p) {
  P2P_CHECK(p >= 0.0 && p <= 1.0);
  P2P_CHECK_MSG(src < (1ULL << 32) && dst < (1ULL << 32),
                "host indices must fit the packed link key");
  link_loss_[LinkKey(src, dst)] = p;
}

void Transport::SetLinkLossBoth(std::size_t a, std::size_t b, double p) {
  SetLinkLoss(a, b, p);
  SetLinkLoss(b, a, p);
}

void Transport::Partition(std::vector<std::size_t> hosts) {
  partitions_.emplace_back(hosts.begin(), hosts.end());
}

bool Transport::Partitioned(std::size_t a, std::size_t b) const {
  for (const auto& set : partitions_) {
    const bool a_in = set.count(a) > 0;
    const bool b_in = set.count(b) > 0;
    if (a_in != b_in) return true;
  }
  return false;
}

double Transport::LossFor(std::size_t src, std::size_t dst) const {
  if (!link_loss_.empty()) {
    const auto it = link_loss_.find(LinkKey(src, dst));
    if (it != link_loss_.end()) return it->second;
  }
  return faults_.loss_probability;
}

void Transport::set_metrics(obs::MetricsRegistry* registry) {
  metrics_ = registry;
  if (registry == nullptr) {
    handles_ = {};
    inflight_msgs_gauge_ = nullptr;
    inflight_bytes_gauge_ = nullptr;
    return;
  }
  for (std::size_t i = 0; i < kProtocolCount; ++i) {
    const std::string prefix =
        std::string("transport.") + ProtocolName(static_cast<Protocol>(i));
    handles_[i].sent = &registry->counter(prefix + ".sent");
    handles_[i].delivered = &registry->counter(prefix + ".delivered");
    handles_[i].dropped_loss = &registry->counter(prefix + ".dropped.loss");
    handles_[i].dropped_partition =
        &registry->counter(prefix + ".dropped.partition");
    handles_[i].bytes = &registry->counter(prefix + ".bytes");
  }
  inflight_msgs_gauge_ = &registry->gauge("transport.inflight.messages");
  inflight_bytes_gauge_ = &registry->gauge("transport.inflight.bytes");
}

void Transport::EnablePerHostStats(std::size_t host_count) {
  if (host_stats_.size() < host_count) host_stats_.resize(host_count);
}

void Transport::FinishDelivery(Protocol protocol, std::size_t src,
                               std::size_t bytes, bool scheduled) {
  const auto pi = static_cast<std::size_t>(protocol);
  ++stats_.by_protocol[pi].delivered;
  if (src < host_stats_.size()) ++host_stats_[src].delivered;
  if (scheduled) {
    --inflight_msgs_;
    inflight_bytes_ -= bytes;
  }
  if (metrics_ != nullptr) {
    handles_[pi].delivered->Inc();
    inflight_msgs_gauge_->Set(static_cast<double>(inflight_msgs_));
    inflight_bytes_gauge_->Set(static_cast<double>(inflight_bytes_));
  }
}

Transport::Admission Transport::Admit(const Message& msg,
                                     const SendOptions& opts) {
  // The event carries the source host and the byte count in 32 bits each.
  P2P_CHECK_MSG(msg.src_host <= 0xffffffffu && msg.bytes <= 0xffffffffu,
                "host index or message size past 32 bits");
  const auto pi = static_cast<std::size_t>(msg.protocol);
  auto& ps = stats_.by_protocol[pi];
  ++ps.sent;
  ps.bytes += msg.bytes;
  HostStats* hs = msg.src_host < host_stats_.size()
                      ? &host_stats_[msg.src_host]
                      : nullptr;
  if (hs != nullptr) {
    ++hs->sent;
    hs->bytes += msg.bytes;
  }
  if (metrics_ != nullptr) {
    handles_[pi].sent->Inc();
    handles_[pi].bytes->Inc(static_cast<double>(msg.bytes));
  }

  // Fault decisions, in a fixed order so seeded runs reproduce: partition
  // (no RNG), then loss (one Bernoulli draw only when the link is lossy),
  // then jitter (one uniform draw only when enabled). With every fault off
  // this path consumes no RNG at all.
  DropCause cause = DropCause::kNone;
  if (!partitions_.empty() && Partitioned(msg.src_host, msg.dst_host))
    cause = DropCause::kPartition;
  if (cause == DropCause::kNone) {
    const double loss = LossFor(msg.src_host, msg.dst_host);
    if (loss > 0.0 && sim_.rng().Bernoulli(loss)) cause = DropCause::kLoss;
  }
  const bool dropped = cause != DropCause::kNone;
  double delay = 0.0;
  if (!dropped) {
    delay = opts.delay_override_ms >= 0.0
                ? opts.delay_override_ms
                : BaseDelayMs(msg.src_host, msg.dst_host,
                              opts.fallback_delay_ms);
    if (faults_.jitter_ms > 0.0)
      delay += sim_.rng().Uniform(0.0, faults_.jitter_ms);
  }

  if (trace_ != nullptr) {
    trace_->Append(TraceRecord{sim_.now(), msg.src_host, msg.dst_host,
                               msg.protocol, msg.kind, msg.bytes, dropped,
                               cause});
  }
  if (dropped) {
    ++ps.dropped;
    if (cause == DropCause::kLoss) {
      ++ps.dropped_loss;
    } else {
      ++ps.dropped_partition;
    }
    if (hs != nullptr) ++hs->dropped;
    if (metrics_ != nullptr) {
      (cause == DropCause::kLoss ? handles_[pi].dropped_loss
                                 : handles_[pi].dropped_partition)
          ->Inc();
    }
    return {nullptr, 0.0};
  }
  if (sharded_ != nullptr && msg.dst_host < shard_host_count_ &&
      shard_of_host_map_[msg.dst_host] != own_shard_) {
    // Cross-shard: the destination shard runs the event after the next
    // lookahead barrier, and its bus counts the delivery. The event never
    // enters this shard's queue, so the in-flight gauges (a per-shard
    // queue-depth signal) skip it.
    P2P_CHECK_MSG(!opts.inline_delivery,
                  "inline delivery cannot cross shards");
    return {&sharded_->shard(shard_of_host_map_[msg.dst_host]).transport(),
            delay};
  }
  if (!opts.inline_delivery) {
    ++inflight_msgs_;
    inflight_bytes_ += msg.bytes;
    if (metrics_ != nullptr) {
      inflight_msgs_gauge_->Set(static_cast<double>(inflight_msgs_));
      inflight_bytes_gauge_->Set(static_cast<double>(inflight_bytes_));
    }
  }
  return {this, delay};
}

void Transport::Dispatch(Transport& bus, double delay, util::InlineFn event) {
  if (&bus == this) {
    sim_.After(delay, std::move(event));
  } else {
    sharded_->Post(own_shard_, bus.own_shard_, sim_.now() + delay,
                   std::move(event));
  }
}

std::size_t Transport::MemoryBytes() const {
  std::size_t bytes = sizeof(*this);
  bytes += host_stats_.capacity() * sizeof(HostStats);
  bytes += link_loss_.bucket_count() * sizeof(void*) +
           link_loss_.size() *
               (sizeof(std::pair<const std::uint64_t, double>) +
                2 * sizeof(void*));
  bytes += partitions_.capacity() * sizeof(std::unordered_set<std::size_t>);
  for (const auto& set : partitions_) {
    bytes += set.bucket_count() * sizeof(void*) +
             set.size() * (sizeof(std::size_t) + 2 * sizeof(void*));
  }
  return bytes;
}

}  // namespace p2p::sim
