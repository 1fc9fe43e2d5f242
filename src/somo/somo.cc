#include "somo/somo.h"

#include <algorithm>
#include <memory>
#include <string>

#include "util/check.h"

namespace p2p::somo {

SomoProtocol::SomoProtocol(sim::Simulation& sim, dht::Ring& ring,
                           SomoConfig config, ReportProvider provider)
    : sim_(sim), ring_(ring), config_(config), provider_(std::move(provider)) {
  P2P_CHECK(config_.report_interval_ms > 0.0);
  P2P_CHECK(provider_ != nullptr);
  // The deprecated per-SOMO hop-delay knob becomes the bus-wide oracle-less
  // fallback, so every gather discipline prices hops identically.
  sim_.transport().set_default_delay_ms(config_.default_hop_delay_ms);
  if (ring_.oracle() != nullptr) sim_.transport().set_oracle(ring_.oracle());
  // The tree and the per-logical-node state wait for first use and Start:
  // a bound instance keeps only the state of the nodes it owns, which is
  // unknown until BindShard.
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
                               sim::Transport::DeliverFn deliver) {
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

const LogicalTree& SomoProtocol::tree() const {
  const SomoProtocol& home = peers_.empty() ? *this : *peers_[0];
  if (home.tree_ == nullptr)
    home.tree_ = std::make_unique<LogicalTree>(ring_, config_.fanout);
  return *home.tree_;
}

void SomoProtocol::Start() {
  P2P_CHECK_MSG(!running_, "SOMO already running");
  running_ = true;
  // State survives Stop/Start; it is sized once per tree (an instance that
  // owns no logical node sizes nothing again).
  if (state_.empty()) AllocateState();
  ScheduleLogicalTimers();
}

void SomoProtocol::AllocateState() {
  const LogicalTree& t = tree();
  if (shard_of_host_ == nullptr) {
    state_.assign(t.size(), LogicalState{});
  } else {
    std::vector<std::uint32_t>& table = peers_[0]->owners_;
    if (table.size() != t.size()) {
      // Slots count up per shard in LogicalIndex order.
      std::vector<std::uint32_t> next(peers_.size(), 0);
      table.resize(t.size());
      for (LogicalIndex l = 0; l < t.size(); ++l) {
        const std::uint32_t shard =
            (*shard_of_host_)[ring_.node(t.node(l).owner).host()];
        P2P_CHECK(next[shard] < (1u << (32 - kShardBits)));
        table[l] = next[shard]++ << kShardBits | shard;
      }
    }
    std::uint32_t owned = 0;
    for (const std::uint32_t o : table) owned += (o & kShardMask) == shard_;
    state_.assign(owned, LogicalState{});
  }
  for (LogicalIndex l = 0; l < t.size(); ++l) {
    if (LogicalState* st = StateOf(l))
      st->from_children.resize(t.node(l).children.size());
  }
}

void SomoProtocol::BindShard(std::uint32_t shard,
                             const std::vector<std::uint32_t>* shard_of_host,
                             std::vector<SomoProtocol*> peers) {
  P2P_CHECK_MSG(!running_, "bind before Start");
  P2P_CHECK(shard_of_host != nullptr);
  P2P_CHECK_MSG(shard < peers.size(), "shard index outside the peer table");
  P2P_CHECK_MSG(peers.size() <= kShardMask + 1, "too many SOMO peers");
  P2P_CHECK_MSG(peers[shard] == this, "peer table must map this shard here");
  // The synchronised cascade, dissemination and redundant links capture
  // `this` in downward closures that would mutate another shard's state.
  P2P_CHECK_MSG(peers.size() <= 1 || (!config_.synchronized_gather &&
                                      !config_.disseminate &&
                                      !config_.redundant_links),
                "multi-shard SOMO supports the unsynchronised gather only");
  // One tree serves every peer, so every peer must derive the same one.
  for (const SomoProtocol* p : peers) {
    P2P_CHECK_MSG(p != nullptr && &p->ring_ == &ring_ &&
                      p->config_.fanout == config_.fanout,
                  "SOMO peers must share the ring and the fanout");
  }
  shard_ = shard;
  shard_of_host_ = shard_of_host;
  peers_ = std::move(peers);
  // Ownership changed: a tree built before binding gives way to the shared
  // one, and Start sizes the state for the owned nodes only.
  if (peers_[0] != this) tree_.reset();
  state_ = std::vector<LogicalState>();
  owners_ = std::vector<std::uint32_t>();
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
    // Only the root keeps a timer; everything below reacts to the cascade.
    timers_.push_back(sim_.Every(config_.report_interval_ms, 0.0,
                                 [this] { StartSyncGather(); }));
    return;
  }
  // Unsynchronised: one independent timer per logical node, random phase.
  // A bound instance draws phases only for its own logical nodes — each
  // phase comes from the owner shard's RNG stream, so the draw order is
  // shard-count-dependent but schedule-independent (and identical to the
  // serial order at one shard).
  const std::size_t size = tree().size();
  timers_.reserve(state_.size());  // one timer per kept logical node
  for (LogicalIndex l = 0; l < size; ++l) {
    if (StateOf(l) == nullptr) continue;
    const sim::Time phase =
        sim_.rng().Uniform(0.0, config_.report_interval_ms);
    timers_.push_back(sim_.Every(config_.report_interval_ms, phase,
                                 [this, l] { FireLogical(l); }));
  }
}

AggregateReport SomoProtocol::ComputeAggregate(
    LogicalIndex l, const LogicalState& st) const {
  const LogicalNode& ln = tree().node(l);
  AggregateReport agg;
  if (ln.is_leaf()) {
    // A leaf collects the reports of the machines whose ids fall in its
    // region (each alive node is reported by exactly one leaf).
    if (ring_.node(ln.owner).alive()) {
      for (const dht::NodeIndex n : ln.reported) {
        if (ring_.node(n).alive()) agg.Add(provider_(n));
      }
    }
    return agg;
  }
  // Children's aggregates are region-disjoint, but adopted copies (from
  // redundant links) can overlap with a recovered parent path — merge
  // keeping the freshest report per node.
  for (const auto& child_agg : st.from_children)
    agg.MergeKeepFreshest(child_agg);
  for (const AdoptedEntry& a : st.adopted) agg.MergeKeepFreshest(a.agg);
  return agg;
}

void SomoProtocol::FireLogical(LogicalIndex l) {
  if (!running_) return;
  LogicalState* st = StateOf(l);
  if (st == nullptr) return;  // tree shrank in a Rebuild
  const LogicalNode& ln = tree().node(l);
  if (!ring_.node(ln.owner).alive()) return;  // will be repaired by Rebuild
  AggregateReport agg = ComputeAggregate(l, *st);
  st->oldest = agg.oldest;  // +inf when empty
  if (ln.is_root()) {
    root_view_ = std::move(agg);
    if (!root_view_.empty()) {
      ++gathers_completed_;
      m_gathers_->Inc();
      RecordRootMetrics(0);
      OnRootViewRefreshed();
    }
    return;
  }
  PushToParent(l, std::move(agg));
}

void SomoProtocol::PushToParent(LogicalIndex l, AggregateReport agg) {
  const LogicalTree& t = tree();
  const LogicalNode& ln = t.node(l);
  const LogicalIndex parent = ln.parent;
  const LogicalNode& pn = t.node(parent);

  // Redundant links (§3.2): a dead parent host would swallow the push;
  // hand the aggregate to a random alive parent-sibling instead, which
  // adopts it into its own upward aggregate.
  if (config_.redundant_links && !ring_.node(pn.owner).alive() &&
      !pn.is_root()) {
    const LogicalNode& gp = t.node(pn.parent);
    std::vector<LogicalIndex> uncles;
    for (const LogicalIndex u : gp.children) {
      if (u != parent && ring_.node(t.node(u).owner).alive())
        uncles.push_back(u);
    }
    if (!uncles.empty()) {
      const LogicalIndex uncle =
          uncles[sim_.rng().NextBounded(uncles.size())];
      ++redundant_pushes_;
      m_redundant_->Inc();
      const std::size_t wire = agg.SerializedBytes();
      SendBetween(ln.owner, t.node(uncle).owner, kMsgRedundantPush, wire,
                  [this, uncle, l, payload = std::move(agg)]() mutable {
                    LogicalState* ust = StateOf(uncle);
                    if (!running_ || ust == nullptr) return;
                    auto& adopted = ust->adopted;
                    const auto it = std::lower_bound(
                        adopted.begin(), adopted.end(), l,
                        [](const AdoptedEntry& a, LogicalIndex v) {
                          return a.from < v;
                        });
                    if (it != adopted.end() && it->from == l)
                      it->agg = std::move(payload);
                    else
                      adopted.insert(it, {l, std::move(payload)});
                  });
      return;
    }
  }

  // Position of l among its parent's children.
  std::size_t slot = 0;
  for (; slot < pn.children.size(); ++slot) {
    if (pn.children[slot] == l) break;
  }
  P2P_CHECK(slot < pn.children.size());
  const std::size_t wire = agg.SerializedBytes();
  // The parent's owning instance records the push (== this when unbound),
  // so from_children rows are only written on their owner's shard.
  SomoProtocol* target = PeerForLogical(parent);
  SendBetween(ln.owner, pn.owner, kMsgPush, wire,
              [target, parent, slot, l, payload = std::move(agg)]() mutable {
                target->ReceivePush(parent, slot, l, std::move(payload));
              });
}

void SomoProtocol::ReceivePush(LogicalIndex parent, std::size_t slot,
                               LogicalIndex from, AggregateReport payload) {
  if (!running_) return;
  LogicalState* st = StateOf(parent);
  if (st == nullptr || slot >= st->from_children.size()) return;
  st->from_children[slot] = std::move(payload);
  // A direct push supersedes any adopted detour copy of this child.
  auto& adopted = st->adopted;
  const auto it = std::lower_bound(
      adopted.begin(), adopted.end(), from,
      [](const AdoptedEntry& a, LogicalIndex v) { return a.from < v; });
  if (it != adopted.end() && it->from == from) adopted.erase(it);
}

void SomoProtocol::StartSyncGather() {
  if (!running_) return;
  const std::uint64_t round = ++sync_round_counter_;
  sync_started_.push_back({round, sim_.now()});
  SyncDescend(tree().root(), sim_.now(), round);
}

void SomoProtocol::SyncDescend(LogicalIndex l, sim::Time arrival,
                               std::uint64_t round) {
  const LogicalTree& t = tree();
  const LogicalNode& ln = t.node(l);
  if (ln.is_leaf()) {
    // Fresh reports travel straight back up.
    AggregateReport agg;
    if (ring_.node(ln.owner).alive()) {
      for (const dht::NodeIndex n : ln.reported) {
        if (ring_.node(n).alive()) agg.Add(provider_(n));
      }
    }
    const LogicalIndex parent = ln.parent;
    if (parent == kNoLogical) {
      // Root is itself a leaf: intra-host hand-off, not bus traffic.
      sim_.At(arrival, [this, round, agg = std::move(agg)]() mutable {
        root_view_ = std::move(agg);
        ++gathers_completed_;
        m_gathers_->Inc();
        RecordRootMetrics(round);
        OnRootViewRefreshed();
      });
      return;
    }
    const std::size_t wire = agg.SerializedBytes();
    SendBetween(ln.owner, t.node(parent).owner, kMsgSyncReply, wire,
                [this, parent, round, agg = std::move(agg)] {
                  SyncReplyArrived(parent, agg, round);
                });
    return;
  }
  LogicalState* st = StateOf(l);
  P2P_CHECK(st != nullptr);
  auto& sync = st->sync;
  const auto it = std::find_if(
      sync.begin(), sync.end(),
      [round](const SyncRound& s) { return s.round == round; });
  if (it == sync.end())
    sync.push_back({round, PendingGather{ln.children.size(), {}}});
  else
    it->gather = PendingGather{ln.children.size(), {}};
  for (const LogicalIndex c : ln.children) {
    // The "call for reports" is tiny.
    SendBetween(ln.owner, t.node(c).owner, kMsgSyncCall,
                kReportHeaderBytes, [this, c, round] {
                  if (!running_) return;
                  if (c >= tree().size()) return;  // tree rebuilt meanwhile
                  SyncDescend(c, sim_.now(), round);
                });
  }
}

void SomoProtocol::SyncReplyArrived(LogicalIndex l,
                                    const AggregateReport& child_agg,
                                    std::uint64_t round) {
  LogicalState* st = StateOf(l);
  if (!running_ || st == nullptr) return;
  const auto it = std::find_if(
      st->sync.begin(), st->sync.end(),
      [round](const SyncRound& s) { return s.round == round; });
  if (it == st->sync.end()) return;  // stale round (tree rebuilt, etc.)
  it->gather.agg.Merge(child_agg);
  P2P_DCHECK(it->gather.pending > 0);
  if (--it->gather.pending > 0) return;
  AggregateReport complete = std::move(it->gather.agg);
  st->sync.erase(it);
  const LogicalTree& t = tree();
  const LogicalNode& ln = t.node(l);
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
  SendBetween(ln.owner, t.node(parent).owner, kMsgSyncReply, wire,
              [this, parent, round, payload = std::move(complete)] {
                SyncReplyArrived(parent, payload, round);
              });
}

void SomoProtocol::RecordRootMetrics(std::uint64_t round) {
  const sim::Time now = sim_.now();
  m_root_members_->Set(static_cast<double>(root_view_.size()));
  if (!root_view_.empty()) m_root_staleness_->Set(now - root_view_.oldest);
  for (std::size_t i = 0; i < root_view_.size(); ++i)
    m_report_age_->Add(now - root_view_.generated_at(i));
  if (round != 0) {
    // Synchronized gather: the cascade round-trip, call to complete view.
    const auto it = std::find_if(
        sync_started_.begin(), sync_started_.end(),
        [round](const auto& s) { return s.first == round; });
    if (it != sync_started_.end()) {
      m_gather_latency_->Add(now - it->second);
      sync_started_.erase(it);
    }
  }
  // Per-level freshness: the oldest report inside any non-empty aggregate
  // last computed at each tree level (unsync gather only — internal caches
  // are the source of the paper's ~log_k(N)·T root-staleness bound, and
  // watching the age climb level by level makes that bound visible).
  // A bound root owner sees only the nodes it owns.
  const LogicalTree& t = tree();
  std::vector<double> level_age;
  for (LogicalIndex l = 0; l < t.size(); ++l) {
    const LogicalState* st = StateOf(l);
    if (st == nullptr || st->oldest == std::numeric_limits<double>::infinity())
      continue;
    const std::size_t level = t.node(l).level;
    if (level_age.size() <= level) level_age.resize(level + 1, -1.0);
    level_age[level] = std::max(level_age[level], now - st->oldest);
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
  Disseminate(tree().root(), std::move(snapshot), wire, sim_.now());
}

void SomoProtocol::Disseminate(LogicalIndex l,
                               std::shared_ptr<const AggregateReport> view,
                               std::size_t wire, sim::Time arrival) {
  if (node_views_.size() < ring_.size()) node_views_.resize(ring_.size());
  const LogicalTree& t = tree();
  const LogicalNode& ln = t.node(l);
  // A node adopts the copy unless a fresher one already arrived.
  auto adopt = [this, view](dht::NodeIndex n) {
    if (n >= node_views_.size()) return;
    const sim::Time when = sim_.now();
    if (node_views_[n].received_at >= when && node_views_[n].valid())
      return;  // a fresher copy already arrived
    node_views_[n] = NodeView{view, when};
  };
  // The hosting machine's own copy is an intra-host hand-off.
  sim_.At(arrival, [adopt, owner = ln.owner] { adopt(owner); });
  if (ln.is_leaf()) {
    // The machines the leaf reports for hear the newscast from the leaf's
    // owner.
    for (const dht::NodeIndex n : ln.reported) {
      if (n == ln.owner || !ring_.node(n).alive()) continue;
      SendBetween(ln.owner, n, kMsgDisseminate, wire,
                  [adopt, n] { adopt(n); });
    }
    return;
  }
  for (const LogicalIndex c : ln.children) {
    SendBetween(ln.owner, t.node(c).owner, kMsgDisseminate, wire,
                [this, c, view, wire] {
                  if (!running_ || c >= tree().size()) return;
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
  // A rebuild changes logical-node ownership; bound instances would need a
  // coordinated re-bind across shards, which nothing drives yet.
  P2P_CHECK_MSG(peers_.size() <= 1,
                "Rebuild is unsupported in multi-shard runs");
  tree_ = std::make_unique<LogicalTree>(ring_, config_.fanout);
  owners_.clear();  // at most one peer (this), whose table the tree outdated
  AllocateState();
  if (running_) ScheduleLogicalTimers();
}

double SomoProtocol::RootStalenessMs() const {
  if (root_view_.empty())
    return std::numeric_limits<double>::infinity();
  return sim_.now() - root_view_.oldest;
}

double SomoProtocol::RootAliveStalenessMs() const {
  sim::Time oldest = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < root_view_.size(); ++i) {
    const dht::NodeIndex n = root_view_.node(i);
    if (n >= ring_.size() || !ring_.node(n).alive()) continue;
    oldest = std::min(oldest, root_view_.generated_at(i));
  }
  if (oldest == std::numeric_limits<double>::infinity())
    return std::numeric_limits<double>::infinity();
  return sim_.now() - oldest;
}

bool SomoProtocol::RootViewComplete() const {
  if (root_view_.empty()) return false;
  std::vector<char> seen(ring_.size(), 0);
  for (std::size_t i = 0; i < root_view_.size(); ++i) {
    const dht::NodeIndex n = root_view_.node(i);
    if (n < seen.size()) seen[n] = 1;
  }
  for (const dht::NodeIndex n : ring_.SortedAlive()) {
    if (!seen[n]) return false;
  }
  return true;
}

SomoProtocol::QueryResult SomoProtocol::QueryFromNode(
    dht::NodeIndex n) const {
  QueryResult qr;
  const dht::NodeIndex root_owner = tree().node(tree().root()).owner;
  qr.route = ring_.Route(n, ring_.node(root_owner).id());
  qr.view = &root_view_;
  return qr;
}

dht::NodeIndex SomoProtocol::OptimizeRootFromView() {
  if (root_view_.empty() || root_view_.best_capacity_node == dht::kNoNode)
    return dht::kNoNode;
  const dht::NodeIndex best = root_view_.best_capacity_node;
  if (best >= ring_.size() || !ring_.node(best).alive())
    return dht::kNoNode;  // stale advert: the champion died
  const dht::NodeIndex root_owner = tree().node(tree().root()).owner;
  if (best != root_owner) {
    ring_.SwapNodeIds(best, root_owner);
    Rebuild();
  }
  return tree().node(tree().root()).owner;
}

std::size_t SomoProtocol::MemoryBytes() const {
  std::size_t total = sizeof(*this);
  total += state_.capacity() * sizeof(LogicalState);
  total += owners_.capacity() * sizeof(std::uint32_t);
  for (const LogicalState& st : state_) {
    total += st.from_children.capacity() * sizeof(AggregateReport);
    for (const auto& c : st.from_children)
      total += c.MemoryBytes() - sizeof(AggregateReport);
    total += st.adopted.capacity() * sizeof(AdoptedEntry);
    for (const auto& a : st.adopted)
      total += a.agg.MemoryBytes() - sizeof(AggregateReport);
    total += st.sync.capacity() * sizeof(SyncRound);
    for (const auto& s : st.sync)
      total += s.gather.agg.MemoryBytes() - sizeof(AggregateReport);
  }
  total += root_view_.MemoryBytes() - sizeof(AggregateReport);
  total += node_views_.capacity() * sizeof(NodeView);
  // Disseminated snapshots are shared (one per refresh); charge the live
  // one once rather than per holder.
  for (const auto& v : node_views_) {
    if (v.valid()) {
      total += v.view->MemoryBytes();
      break;
    }
  }
  total += timers_.capacity() * sizeof(sim::Simulation::PeriodicToken);
  total += sync_started_.capacity() * sizeof(sync_started_[0]);
  return total;
}

dht::NodeIndex SomoProtocol::OptimizeRoot(
    const std::function<double(dht::NodeIndex)>& capacity) {
  // Upward merge-sort through SOMO, condensed: find the most capable alive
  // node, then swap its id with the current root-point owner's.
  const auto alive = ring_.SortedAlive();
  P2P_CHECK(!alive.empty());
  dht::NodeIndex best = alive.front();
  for (const dht::NodeIndex n : alive) {
    if (capacity(n) > capacity(best)) best = n;
  }
  const dht::NodeIndex root_owner = tree().node(tree().root()).owner;
  if (best != root_owner) {
    ring_.SwapNodeIds(best, root_owner);
    Rebuild();
  }
  return tree().node(tree().root()).owner;
}

}  // namespace p2p::somo
