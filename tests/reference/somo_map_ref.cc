// Retained pre-SoA SOMO implementation — see somo_map_ref.h. The function
// bodies below are the pre-refactor src/somo/report.cc and src/somo/somo.cc
// verbatim (namespace and #include lines aside); resist "improving" them,
// their only job is to behave exactly like the code they replaced.
#include "reference/somo_map_ref.h"

#include <algorithm>
#include <string>
#include <unordered_map>

#include "obs/telemetry_codec.h"
#include "util/check.h"

namespace p2p::somoref {

using somo::DegreeSlot;
using somo::HostTelemetry;
using somo::kNoLogical;
using somo::kReportHeaderBytes;

void AggregateReport::Add(NodeReport r) {
  oldest = std::min(oldest, r.generated_at);
  newest = std::max(newest, r.generated_at);
  if (r.capacity > best_capacity) {
    best_capacity = r.capacity;
    best_capacity_node = r.node;
  }
  members.push_back(std::move(r));
}

void AggregateReport::Merge(const AggregateReport& other) {
  if (other.empty()) return;
  oldest = std::min(oldest, other.oldest);
  newest = std::max(newest, other.newest);
  if (other.best_capacity > best_capacity) {
    best_capacity = other.best_capacity;
    best_capacity_node = other.best_capacity_node;
  }
  members.insert(members.end(), other.members.begin(), other.members.end());
}

void AggregateReport::MergeKeepFreshest(const AggregateReport& other) {
  if (other.empty()) return;
  // Index existing members; replace with fresher duplicates, append new.
  std::unordered_map<dht::NodeIndex, std::size_t> index;
  index.reserve(members.size());
  for (std::size_t i = 0; i < members.size(); ++i)
    index.emplace(members[i].node, i);
  for (const NodeReport& r : other.members) {
    const auto it = index.find(r.node);
    if (it == index.end()) {
      index.emplace(r.node, members.size());
      members.push_back(r);
    } else if (r.generated_at > members[it->second].generated_at) {
      members[it->second] = r;
    }
  }
  oldest = std::numeric_limits<double>::infinity();
  newest = -std::numeric_limits<double>::infinity();
  best_capacity = -std::numeric_limits<double>::infinity();
  best_capacity_node = dht::kNoNode;
  for (const NodeReport& r : members) {
    oldest = std::min(oldest, r.generated_at);
    newest = std::max(newest, r.generated_at);
    if (r.capacity > best_capacity) {
      best_capacity = r.capacity;
      best_capacity_node = r.node;
    }
  }
}

void AggregateReport::Clear() {
  members.clear();
  oldest = std::numeric_limits<double>::infinity();
  newest = -std::numeric_limits<double>::infinity();
  best_capacity = -std::numeric_limits<double>::infinity();
  best_capacity_node = dht::kNoNode;
}

std::size_t AggregateReport::MemoryBytes() const {
  std::size_t heap = members.capacity() * sizeof(NodeReport);
  for (const NodeReport& r : members) {
    heap += r.coordinates.capacity() * sizeof(double);
    heap += r.degrees.taken.capacity() * sizeof(DegreeSlot);
  }
  return sizeof(*this) + heap;
}

namespace {

constexpr std::uint8_t kWireVersion = 1;
constexpr std::uint8_t kTelemetryValid = 0x01;

inline std::int64_t AsI64(std::size_t v) { return static_cast<std::int64_t>(v); }

template <typename Sink>
void EncodeTo(const AggregateReport& agg, Sink& sink) {
  sink.Byte(kWireVersion);
  sink.Varint(agg.members.size());
  if (agg.members.empty()) return;
  const std::uint64_t base = obs::QuantizeTicks(agg.newest);
  sink.Varint(base);
  sink.Varint(agg.best_capacity_node == dht::kNoNode
                  ? 0
                  : static_cast<std::uint64_t>(agg.best_capacity_node) + 1);
  std::int64_t prev_node = 0;
  HostTelemetry prev_tel;
  for (const NodeReport& r : agg.members) {
    const std::int64_t node = AsI64(r.node);
    sink.Zigzag(node - prev_node);
    prev_node = node;
    sink.Zigzag(static_cast<std::int64_t>(r.host) - node);
    const std::uint64_t gen = obs::QuantizeTicks(r.generated_at);
    P2P_DCHECK(gen <= base);
    sink.Varint(base - gen);
    sink.Varint(r.coordinates.size());
    for (const double c : r.coordinates) sink.F16(c);
    sink.F16(r.up_kbps);
    sink.F16(r.down_kbps);
    sink.F16(r.capacity);
    sink.Zigzag(r.degrees.total);
    sink.Varint(r.degrees.taken.size());
    for (const DegreeSlot& s : r.degrees.taken) {
      sink.Varint((static_cast<std::uint64_t>(s.session + 1) << 2) |
                  static_cast<std::uint64_t>(s.priority & 3));
    }
    if (!r.telemetry.valid()) {
      sink.Byte(0);
      continue;
    }
    sink.Byte(kTelemetryValid);
    sink.Zigzag(static_cast<std::int64_t>(gen) -
                static_cast<std::int64_t>(obs::QuantizeTicks(r.telemetry.sampled_at)));
    sink.Zigzag(AsI64(r.telemetry.msgs_sent) - AsI64(prev_tel.msgs_sent));
    sink.Zigzag(AsI64(r.telemetry.msgs_delivered) -
                AsI64(prev_tel.msgs_delivered));
    sink.Zigzag(AsI64(r.telemetry.msgs_dropped) -
                AsI64(prev_tel.msgs_dropped));
    sink.Zigzag(AsI64(r.telemetry.bytes_sent) - AsI64(prev_tel.bytes_sent));
    sink.Zigzag(AsI64(r.telemetry.suspects) - AsI64(prev_tel.suspects));
    prev_tel = r.telemetry;
  }
}

}  // namespace

std::vector<std::uint8_t> EncodeAggregate(const AggregateReport& agg) {
  obs::WireWriter w;
  EncodeTo(agg, w);
  return w.Take();
}

std::size_t EncodedSize(const AggregateReport& agg) {
  obs::WireCounter c;
  EncodeTo(agg, c);
  return c.size();
}

std::size_t AggregateReport::SerializedBytes() const {
  return EncodedSize(*this);
}

SomoProtocol::SomoProtocol(sim::Simulation& sim, dht::Ring& ring,
                           SomoConfig config, ReportProvider provider)
    : sim_(sim), ring_(ring), config_(config), provider_(std::move(provider)) {
  P2P_CHECK(config_.report_interval_ms > 0.0);
  P2P_CHECK(provider_ != nullptr);
  sim_.transport().set_default_delay_ms(config_.default_hop_delay_ms);
  if (ring_.oracle() != nullptr) sim_.transport().set_oracle(ring_.oracle());
  tree_ = std::make_unique<LogicalTree>(ring_, config_.fanout);
  state_.resize(tree_->size());
  for (LogicalIndex l = 0; l < tree_->size(); ++l)
    state_[l].from_children.resize(tree_->node(l).children.size());
  auto& reg = sim_.metrics();
  m_gathers_ = &reg.counter("somo.gathers");
  m_messages_ = &reg.counter("somo.messages");
  m_bytes_ = &reg.counter("somo.bytes");
  m_redundant_ = &reg.counter("somo.redundant_pushes");
  m_root_staleness_ = &reg.gauge("somo.root.staleness_ms");
  m_root_members_ = &reg.gauge("somo.root.members");
  m_gather_latency_ = &reg.histogram("somo.gather.latency_ms");
  m_report_age_ = &reg.histogram("somo.report.age_ms");
}

bool SomoProtocol::SendBetween(dht::NodeIndex from, dht::NodeIndex to,
                               SomoMessageKind kind, std::size_t bytes,
                               util::InlineFn deliver) {
  ++messages_;
  bytes_ += bytes;
  m_messages_->Inc();
  m_bytes_->Inc(static_cast<double>(bytes));
  sim::Message msg;
  msg.src_host = ring_.node(from).host();
  msg.dst_host = ring_.node(to).host();
  msg.protocol = sim::Protocol::kSomo;
  msg.kind = kind;
  msg.bytes = bytes;
  return sim_.transport().Send(msg, std::move(deliver));
}

void SomoProtocol::Start() {
  P2P_CHECK_MSG(!running_, "SOMO already running");
  running_ = true;
  ScheduleLogicalTimers();
}

void SomoProtocol::Stop() {
  running_ = false;
  for (auto& t : timers_) sim::Simulation::CancelPeriodic(t);
  timers_.clear();
}

void SomoProtocol::ScheduleLogicalTimers() {
  for (auto& t : timers_) sim::Simulation::CancelPeriodic(t);
  timers_.clear();
  if (config_.synchronized_gather) {
    timers_.push_back(sim_.Every(config_.report_interval_ms, 0.0,
                                 [this] { StartSyncGather(); }));
    return;
  }
  timers_.reserve(tree_->size());
  for (LogicalIndex l = 0; l < tree_->size(); ++l) {
    const sim::Time phase =
        sim_.rng().Uniform(0.0, config_.report_interval_ms);
    timers_.push_back(sim_.Every(config_.report_interval_ms, phase,
                                 [this, l] { FireLogical(l); }));
  }
}

AggregateReport SomoProtocol::ComputeAggregate(LogicalIndex l) const {
  const LogicalNode& ln = tree_->node(l);
  AggregateReport agg;
  if (ln.is_leaf()) {
    if (ring_.node(ln.owner).alive()) {
      for (const dht::NodeIndex n : ln.reported) {
        if (ring_.node(n).alive()) agg.Add(provider_(n));
      }
    }
    return agg;
  }
  for (const auto& child_agg : state_[l].from_children)
    agg.MergeKeepFreshest(child_agg);
  for (const auto& [src, adopted_agg] : state_[l].adopted)
    agg.MergeKeepFreshest(adopted_agg);
  return agg;
}

void SomoProtocol::FireLogical(LogicalIndex l) {
  if (!running_) return;
  if (l >= tree_->size()) return;
  const LogicalNode& ln = tree_->node(l);
  if (!ring_.node(ln.owner).alive()) return;
  state_[l].own = ComputeAggregate(l);
  if (ln.is_root()) {
    root_view_ = state_[l].own;
    if (!root_view_.empty()) {
      ++gathers_completed_;
      m_gathers_->Inc();
      RecordRootMetrics(0);
      OnRootViewRefreshed();
    }
    return;
  }
  PushToParent(l);
}

void SomoProtocol::PushToParent(LogicalIndex l) {
  const LogicalNode& ln = tree_->node(l);
  const LogicalIndex parent = ln.parent;
  const LogicalNode& pn = tree_->node(parent);

  if (config_.redundant_links && !ring_.node(pn.owner).alive() &&
      !pn.is_root()) {
    const LogicalNode& gp = tree_->node(pn.parent);
    std::vector<LogicalIndex> uncles;
    for (const LogicalIndex u : gp.children) {
      if (u != parent && ring_.node(tree_->node(u).owner).alive())
        uncles.push_back(u);
    }
    if (!uncles.empty()) {
      const LogicalIndex uncle =
          uncles[sim_.rng().NextBounded(uncles.size())];
      ++redundant_pushes_;
      m_redundant_->Inc();
      AggregateReport payload = state_[l].own;
      const std::size_t wire = payload.SerializedBytes();
      SendBetween(ln.owner, tree_->node(uncle).owner, somo::kMsgRedundantPush,
                  wire, [this, uncle, l, payload = std::move(payload)] {
                    if (!running_ || uncle >= state_.size()) return;
                    state_[uncle].adopted[l] = payload;
                  });
      return;
    }
  }

  std::size_t slot = 0;
  for (; slot < pn.children.size(); ++slot) {
    if (pn.children[slot] == l) break;
  }
  P2P_CHECK(slot < pn.children.size());
  AggregateReport payload = state_[l].own;
  const std::size_t wire = payload.SerializedBytes();
  SendBetween(ln.owner, pn.owner, somo::kMsgPush, wire,
              [this, parent, slot, l, payload = std::move(payload)] {
                ReceivePush(parent, slot, l, payload);
              });
}

void SomoProtocol::ReceivePush(LogicalIndex parent, std::size_t slot,
                               LogicalIndex from,
                               const AggregateReport& payload) {
  if (!running_) return;
  if (parent >= state_.size()) return;
  if (slot >= state_[parent].from_children.size()) return;
  state_[parent].from_children[slot] = payload;
  state_[parent].adopted.erase(from);
}

void SomoProtocol::StartSyncGather() {
  if (!running_) return;
  const std::uint64_t round = ++sync_round_counter_;
  sync_started_[round] = sim_.now();
  SyncDescend(tree_->root(), sim_.now(), round);
}

void SomoProtocol::SyncDescend(LogicalIndex l, sim::Time arrival,
                               std::uint64_t round) {
  const LogicalNode& ln = tree_->node(l);
  if (ln.is_leaf()) {
    AggregateReport agg;
    if (ring_.node(ln.owner).alive()) {
      for (const dht::NodeIndex n : ln.reported) {
        if (ring_.node(n).alive()) agg.Add(provider_(n));
      }
    }
    const LogicalIndex parent = ln.parent;
    if (parent == kNoLogical) {
      sim_.At(arrival, [this, round, agg = std::move(agg)] {
        root_view_ = agg;
        ++gathers_completed_;
        m_gathers_->Inc();
        RecordRootMetrics(round);
        OnRootViewRefreshed();
      });
      return;
    }
    const std::size_t wire = agg.SerializedBytes();
    SendBetween(ln.owner, tree_->node(parent).owner, somo::kMsgSyncReply, wire,
                [this, parent, round, agg = std::move(agg)] {
                  SyncReplyArrived(parent, agg, round);
                });
    return;
  }
  state_[l].sync[round] = PendingGather{ln.children.size(), {}};
  for (const LogicalIndex c : ln.children) {
    SendBetween(ln.owner, tree_->node(c).owner, somo::kMsgSyncCall,
                kReportHeaderBytes, [this, c, round] {
                  if (!running_) return;
                  if (c >= tree_->size()) return;
                  SyncDescend(c, sim_.now(), round);
                });
  }
}

void SomoProtocol::SyncReplyArrived(LogicalIndex l,
                                    const AggregateReport& child_agg,
                                    std::uint64_t round) {
  if (!running_ || l >= state_.size()) return;
  LogicalState& st = state_[l];
  const auto it = st.sync.find(round);
  if (it == st.sync.end()) return;
  it->second.agg.Merge(child_agg);
  P2P_DCHECK(it->second.pending > 0);
  if (--it->second.pending > 0) return;
  AggregateReport complete = std::move(it->second.agg);
  st.sync.erase(it);
  const LogicalNode& ln = tree_->node(l);
  if (ln.is_root()) {
    root_view_ = std::move(complete);
    ++gathers_completed_;
    m_gathers_->Inc();
    RecordRootMetrics(round);
    OnRootViewRefreshed();
    return;
  }
  const LogicalIndex parent = ln.parent;
  const std::size_t wire = complete.SerializedBytes();
  SendBetween(ln.owner, tree_->node(parent).owner, somo::kMsgSyncReply, wire,
              [this, parent, round, payload = std::move(complete)] {
                SyncReplyArrived(parent, payload, round);
              });
}

void SomoProtocol::RecordRootMetrics(std::uint64_t round) {
  const sim::Time now = sim_.now();
  m_root_members_->Set(static_cast<double>(root_view_.size()));
  if (!root_view_.empty()) m_root_staleness_->Set(now - root_view_.oldest);
  for (const auto& r : root_view_.members)
    m_report_age_->Add(now - r.generated_at);
  if (round != 0) {
    const auto it = sync_started_.find(round);
    if (it != sync_started_.end()) {
      m_gather_latency_->Add(now - it->second);
      sync_started_.erase(it);
    }
  }
  std::vector<double> level_age;
  for (LogicalIndex l = 0; l < tree_->size(); ++l) {
    const AggregateReport& agg = state_[l].own;
    if (agg.empty()) continue;
    const std::size_t level = tree_->node(l).level;
    if (level_age.size() <= level) level_age.resize(level + 1, -1.0);
    level_age[level] = std::max(level_age[level], now - agg.oldest);
  }
  for (std::size_t k = 0; k < level_age.size(); ++k) {
    if (level_age[k] < 0.0) continue;
    sim_.metrics()
        .gauge("somo.level" + std::to_string(k) + ".age_ms")
        .Set(level_age[k]);
  }
}

void SomoProtocol::OnRootViewRefreshed() {
  if (!config_.disseminate) return;
  auto snapshot = std::make_shared<const AggregateReport>(root_view_);
  const std::size_t wire = snapshot->SerializedBytes();
  Disseminate(tree_->root(), std::move(snapshot), wire, sim_.now());
}

void SomoProtocol::Disseminate(LogicalIndex l,
                               std::shared_ptr<const AggregateReport> view,
                               std::size_t wire, sim::Time arrival) {
  if (node_views_.size() < ring_.size()) node_views_.resize(ring_.size());
  const LogicalNode& ln = tree_->node(l);
  auto adopt = [this, view](dht::NodeIndex n) {
    if (n >= node_views_.size()) return;
    const sim::Time when = sim_.now();
    if (node_views_[n].received_at >= when && node_views_[n].valid())
      return;
    node_views_[n] = NodeView{view, when};
  };
  sim_.At(arrival, [adopt, owner = ln.owner] { adopt(owner); });
  if (ln.is_leaf()) {
    for (const dht::NodeIndex n : ln.reported) {
      if (n == ln.owner || !ring_.node(n).alive()) continue;
      SendBetween(ln.owner, n, somo::kMsgDisseminate, wire,
                  [adopt, n] { adopt(n); });
    }
    return;
  }
  for (const LogicalIndex c : ln.children) {
    SendBetween(ln.owner, tree_->node(c).owner, somo::kMsgDisseminate, wire,
                [this, c, view, wire] {
                  if (!running_ || c >= tree_->size()) return;
                  Disseminate(c, view, wire, sim_.now());
                });
  }
}

const SomoProtocol::NodeView& SomoProtocol::ViewAt(dht::NodeIndex n) const {
  static const NodeView kEmpty;
  if (n >= node_views_.size()) return kEmpty;
  return node_views_[n];
}

double SomoProtocol::ViewStalenessMs(dht::NodeIndex n) const {
  const NodeView& v = ViewAt(n);
  if (!v.valid() || v.view->empty())
    return std::numeric_limits<double>::infinity();
  return sim_.now() - v.view->oldest;
}

std::size_t SomoProtocol::nodes_with_view() const {
  std::size_t n = 0;
  for (const auto& v : node_views_) n += v.valid();
  return n;
}

void SomoProtocol::Rebuild() {
  tree_ = std::make_unique<LogicalTree>(ring_, config_.fanout);
  state_.assign(tree_->size(), LogicalState{});
  for (LogicalIndex l = 0; l < tree_->size(); ++l)
    state_[l].from_children.resize(tree_->node(l).children.size());
  if (running_) ScheduleLogicalTimers();
}

double SomoProtocol::RootStalenessMs() const {
  if (root_view_.empty())
    return std::numeric_limits<double>::infinity();
  return sim_.now() - root_view_.oldest;
}

double SomoProtocol::RootAliveStalenessMs() const {
  sim::Time oldest = std::numeric_limits<double>::infinity();
  for (const auto& r : root_view_.members) {
    if (r.node >= ring_.size() || !ring_.node(r.node).alive()) continue;
    oldest = std::min(oldest, r.generated_at);
  }
  if (oldest == std::numeric_limits<double>::infinity())
    return std::numeric_limits<double>::infinity();
  return sim_.now() - oldest;
}

bool SomoProtocol::RootViewComplete() const {
  if (root_view_.empty()) return false;
  std::vector<char> seen(ring_.size(), 0);
  for (const auto& r : root_view_.members) {
    if (r.node < seen.size()) seen[r.node] = 1;
  }
  for (const dht::NodeIndex n : ring_.SortedAlive()) {
    if (!seen[n]) return false;
  }
  return true;
}

}  // namespace p2p::somoref
