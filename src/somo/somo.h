// SOMO protocol (paper §3.2): gathers per-machine reports up a fanout-k
// logical tree mapped onto the DHT, producing the root's "global view".
//
// Two gather disciplines, matching the paper's latency analysis:
//  * Unsynchronised: every logical node runs an independent periodic timer
//    (period T, random phase). Leaves refresh their machine's report;
//    internal nodes merge the child aggregates they have received and push
//    the result to their parent. Freshness at the root is bounded by
//    ~log_k(N)·T.
//  * Synchronised: the root's timer triggers a cascade — the "call for
//    reports" propagates down with per-hop latency, leaves answer with
//    fresh reports, and aggregates flow back up as soon as each parent has
//    heard from all children. Freshness is bounded by ~2·t_hop·log_k(N),
//    i.e. T-dominated in practice.
//
// The tree self-repairs: Rebuild() recomputes the logical tree against
// current ring membership (hooked to failure detection by the harnesses),
// standing in for each brick independently re-deriving its representation.
#pragma once

#include <functional>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "dht/heartbeat.h"
#include "dht/ring.h"
#include "sim/simulation.h"
#include "somo/logical_tree.h"
#include "somo/report.h"

namespace p2p::somo {

struct SomoConfig {
  std::size_t fanout = 8;
  sim::Time report_interval_ms = 5000.0;  // the paper's LiquidEye cycle: 5 s
  bool synchronized_gather = false;
  // DEPRECATED alias: forwarded to Transport::set_default_delay_ms at
  // construction, so the bus prices every oracle-less hop — synchronized
  // and unsynchronized gather alike — with this one number. SOMO no longer
  // keeps a private hop-delay path; prefer configuring the transport
  // directly. (Last SomoProtocol constructed wins if several share a sim.)
  sim::Time default_hop_delay_ms = 200.0;
  // Disseminate each completed root view back down the hierarchy, giving
  // every node a recent copy of the global "newscast" (§3.2: SOMO both
  // gathers AND disseminates metadata in O(log_k N) time). A real
  // deployment would delta-compress the downward copies; the simulation
  // shares one immutable snapshot.
  bool disseminate = false;
  // §3.2: "redundant links should be added to increase the robustness;
  // this can be easily accomplished by letting the representative virtual
  // node connect to a random set of parent siblings." When on, a logical
  // node whose parent's host is dead pushes its aggregate to a random
  // alive parent-sibling instead, so gathering survives internal-node
  // failures even before the tree is rebuilt.
  bool redundant_links = false;
};

// Message kinds SOMO puts on the transport bus (TraceRecord::kind).
enum SomoMessageKind : std::uint16_t {
  kMsgPush = 0,           // unsync child → parent aggregate
  kMsgRedundantPush = 1,  // detour push to a parent-sibling (§3.2)
  kMsgSyncCall = 2,       // synchronized "call for reports", downward
  kMsgSyncReply = 3,      // synchronized aggregate, upward
  kMsgDisseminate = 4,    // root view broadcast, downward
};

class SomoProtocol {
 public:
  // Produces the local machine report for a DHT node (coordinates,
  // bandwidth, degree table come from the measurement/pool layers).
  using ReportProvider = std::function<NodeReport(dht::NodeIndex)>;

  SomoProtocol(sim::Simulation& sim, dht::Ring& ring, SomoConfig config,
               ReportProvider provider);

  void Start();
  void Stop();

  // Recompute the logical tree for current membership (after churn). Every
  // logical node's state starts over empty (its child aggregates and
  // adopted detour copies are dropped), so until the next gather climbs
  // the new tree only the root view survives.
  void Rebuild();

  // --- sharding -----------------------------------------------------------

  // Bind this instance to one shard of a sim::ShardedSimulation run (same
  // shape as HeartbeatProtocol::BindShard: one instance per shard over the
  // shared ring, `shard_of_host` owned by the caller). Bound instances
  // share one read-only LogicalTree (see tree()) and partition the
  // per-logical-node state: each keeps state, and runs timers, only for
  // the logical nodes whose owner host it owns, allocated at Start once
  // ownership is known. Upward pushes land on the parent's owning instance
  // (ReceivePush), so all mutable per-logical-node state stays
  // shard-local. Every peer must run over this ring with this fanout.
  // Multi-shard runs support the unsynchronised gather only: the
  // synchronised cascade, dissemination and redundant links thread `this`
  // through downward closures and are CHECK-rejected.
  void BindShard(std::uint32_t shard,
                 const std::vector<std::uint32_t>* shard_of_host,
                 std::vector<SomoProtocol*> peers);

  // Delivery of a child's upward push: runs on the parent's owning
  // instance (== this instance when unbound) and moves `payload` into the
  // parent's `from_children[slot]`, replacing the child's previous one.
  void ReceivePush(LogicalIndex parent, std::size_t slot, LogicalIndex from,
                   AggregateReport payload);

  // The logical tree over the ring's alive membership, built on first use
  // (at the latest by Start). Bound instances all return the one tree held
  // by the shard-0 peer; Start builds it before any window runs, so shard
  // threads only ever read it.
  const LogicalTree& tree() const;
  const SomoConfig& config() const { return config_; }

  // The root owner's current global view.
  const AggregateReport& RootReport() const { return root_view_; }

  // now − oldest member report at the root (∞ until the first gather
  // completes, i.e. while some machine has never been represented).
  double RootStalenessMs() const;

  // Same, but only over members that are currently alive. A crashed
  // machine's final report lingers in cached aggregates until a Rebuild,
  // which pins RootStalenessMs to the crash time; this variant measures how
  // well gathering tracks the live membership through failures instead.
  double RootAliveStalenessMs() const;

  // True once the root view contains a report from every alive node.
  bool RootViewComplete() const;

  // Query the global view from an arbitrary node: routes to the root owner
  // over the DHT and returns the routing cost alongside the view.
  struct QueryResult {
    dht::RouteResult route;
    const AggregateReport* view = nullptr;
  };
  QueryResult QueryFromNode(dht::NodeIndex n) const;

  // Dissemination (requires config.disseminate): the latest global view
  // received by DHT node `n`, or null if none arrived yet.
  struct NodeView {
    std::shared_ptr<const AggregateReport> view;
    sim::Time received_at = -1.0;
    bool valid() const { return view != nullptr; }
  };
  const NodeView& ViewAt(dht::NodeIndex n) const;
  // now − the oldest member report in n's copy of the view (∞ if none).
  double ViewStalenessMs(dht::NodeIndex n) const;
  // Nodes holding a valid view.
  std::size_t nodes_with_view() const;

  // §3.2 self-optimisation: swap ids so the node maximising `capacity`
  // hosts the root logical point. Returns the new root owner.
  dht::NodeIndex OptimizeRoot(
      const std::function<double(dht::NodeIndex)>& capacity);

  // The fully in-band variant: the capacity argmax was merge-sorted up the
  // tree inside the aggregates (NodeReport::capacity); swap the root to
  // the advertised best node. Returns the new root owner, or kNoNode when
  // the view is empty or carries no capacities.
  dht::NodeIndex OptimizeRootFromView();

  std::size_t gathers_completed() const { return gathers_completed_; }
  std::size_t messages_sent() const { return messages_; }
  // Modelled wire bytes of all gather/dissemination traffic so far.
  std::size_t bytes_sent() const { return bytes_; }
  std::size_t redundant_pushes() const { return redundant_pushes_; }

 private:
  struct LogicalState;

  // Size the per-logical-node state for the current tree and ownership.
  void AllocateState();
  void ScheduleLogicalTimers();
  void FireLogical(LogicalIndex l);
  // Send l's freshly computed aggregate up the tree. The message carries
  // `agg` itself: it lands in the parent's from_children slot (or, on a
  // redundant-link detour, an uncle's adopted table) without a copy.
  void PushToParent(LogicalIndex l, AggregateReport agg);
  AggregateReport ComputeAggregate(LogicalIndex l,
                                   const LogicalState& st) const;
  void OnRootViewRefreshed();
  // `wire` is the view's encoded size, measured once per snapshot at the
  // root and carried down — re-measuring per downward hop would cost
  // O(members) per send now that SerializedBytes is a real encoding pass.
  void Disseminate(LogicalIndex l,
                   std::shared_ptr<const AggregateReport> view,
                   std::size_t wire, sim::Time arrival);
  void StartSyncGather();
  void SyncDescend(LogicalIndex l, sim::Time arrival, std::uint64_t round);
  void SyncReplyArrived(LogicalIndex l, const AggregateReport& child_agg,
                        std::uint64_t round);
  // Metrics recorded on every root-view refresh: somo.root.* gauges,
  // somo.report.age_ms member ages, per-level somo.level<k>.age_ms gauges
  // (unsync gather only — sync keeps no per-level caches). For sync rounds
  // `round` keys the start time so somo.gather.latency_ms can be measured.
  void RecordRootMetrics(std::uint64_t round);
  // Inter-host send between two logical-node owners over the bus. A
  // template, so a closure of up to 24 bytes reaches Transport::Send as it
  // is and its event stays inline.
  template <typename F>
  bool SendBetween(dht::NodeIndex from, dht::NodeIndex to,
                   SomoMessageKind kind, std::size_t bytes, F&& deliver) {
    return sim_.transport().Send(CountedMessage(from, to, kind, bytes),
                                 std::forward<F>(deliver));
  }
  // Counts one SOMO message and addresses it from `from`'s host to `to`'s.
  sim::Message CountedMessage(dht::NodeIndex from, dht::NodeIndex to,
                              SomoMessageKind kind, std::size_t bytes);

  // The instance owning logical node l (this, when unbound).
  SomoProtocol* PeerForLogical(LogicalIndex l) {
    if (shard_of_host_ == nullptr) return this;
    return peers_[owners().at(l) & kShardMask];
  }

  sim::Simulation& sim_;
  dht::Ring& ring_;
  SomoConfig config_;
  ReportProvider provider_;
  // Built lazily by tree(); on a bound instance only the shard-0 peer's
  // copy is ever built (the others read through peers_[0]).
  mutable std::unique_ptr<LogicalTree> tree_;
  bool running_ = false;

  // Sharding (empty/null when unbound — see BindShard).
  std::uint32_t shard_ = 0;
  const std::vector<std::uint32_t>* shard_of_host_ = nullptr;
  std::vector<SomoProtocol*> peers_;

  // In-flight synchronised gather at one logical node; rounds may overlap
  // when the cascade round-trip exceeds the reporting interval, so each
  // round keeps its own accumulator.
  struct PendingGather {
    std::size_t pending = 0;
    AggregateReport agg;
  };
  // Flat, index-keyed per-logical-node state. The adopted/sync tables used
  // to be unordered_maps; both hold a handful of entries (≤ fanout uncles,
  // ≤ a few overlapping sync rounds), so sorted/linear vectors beat hash
  // tables on both bytes and lookup time — and iteration order becomes
  // deterministic by construction.
  struct AdoptedEntry {
    LogicalIndex from;
    AggregateReport agg;
  };
  struct SyncRound {
    std::uint64_t round;
    PendingGather gather;
  };
  // Per logical node: the latest aggregate received from each child (by
  // position in the node's children vector) and the age of its own last
  // output. A node keeps no copy of what it computes: the aggregate moves
  // on to its parent (or into root_view_ at the root), and only its oldest
  // report time stays behind for the somo.level<k>.age_ms gauges.
  struct LogicalState {
    // Oldest report in the last aggregate this node computed; +inf until
    // it computes one, and whenever the last one was empty.
    sim::Time oldest = std::numeric_limits<double>::infinity();
    std::vector<AggregateReport> from_children;
    // Aggregates adopted from "nephews" whose parent's host is dead
    // (redundant-links mode), keyed by the pushing logical node; sorted by
    // `from` (ComputeAggregate merges in that order).
    std::vector<AdoptedEntry> adopted;
    std::vector<SyncRound> sync;  // in-flight rounds, insertion order
  };
  // A bound run keeps logical node l's state on one instance, at one slot
  // of its state_: owners()[l] packs them as slot << kShardBits | shard.
  static constexpr std::uint32_t kShardBits = 8;
  static constexpr std::uint32_t kShardMask = (1u << kShardBits) - 1;
  // The bound peers' one owner table, by LogicalIndex, held by the shard-0
  // peer like the tree. The first peer to allocate its state fills it for
  // every shard, so it is complete before any Start writes state.
  const std::vector<std::uint32_t>& owners() const {
    return peers_[0]->owners_;
  }

  // Logical node l's state, or null when this instance keeps none for it
  // (not owned, not allocated yet, or l is past a shrunken tree).
  LogicalState* StateOf(LogicalIndex l) {
    if (shard_of_host_ == nullptr)
      return l < state_.size() ? &state_[l] : nullptr;
    const std::vector<std::uint32_t>& table = owners();
    if (l >= table.size() || (table[l] & kShardMask) != shard_) return nullptr;
    const std::uint32_t slot = table[l] >> kShardBits;
    return slot < state_.size() ? &state_[slot] : nullptr;
  }

  // Unbound: one entry per logical node, indexed by LogicalIndex. Bound:
  // one entry per owned logical node, at its owner-table slot. Empty until
  // Start (or a Rebuild) sizes it.
  std::vector<LogicalState> state_;
  std::vector<std::uint32_t> owners_;  // the shard-0 peer's, when bound
  std::vector<sim::Simulation::PeriodicToken> timers_;
  AggregateReport root_view_;
  std::vector<NodeView> node_views_;  // dissemination targets, by NodeIndex

  std::size_t gathers_completed_ = 0;
  std::size_t messages_ = 0;
  std::size_t bytes_ = 0;
  std::size_t redundant_pushes_ = 0;
  std::uint64_t sync_round_counter_ = 0;

  // somo.* instrumentation, cached from the simulation's registry at
  // construction.
  obs::Counter* m_gathers_;
  obs::Counter* m_messages_;
  obs::Counter* m_bytes_;
  obs::Counter* m_redundant_;
  obs::Gauge* m_root_staleness_;
  obs::Gauge* m_root_members_;
  obs::Histogram* m_gather_latency_;  // sync rounds only
  obs::Histogram* m_report_age_;
  // Launch time of each in-flight synchronized round (somo.gather.latency).
  // Few rounds overlap, so a flat vector with linear probes suffices.
  std::vector<std::pair<std::uint64_t, sim::Time>> sync_started_;

 public:
  // Resident bytes of this protocol instance's per-logical-node state
  // (child and adopted aggregates, in-flight sync rounds, the root view,
  // the bound owner table on the shard-0 peer, dissemination views,
  // timers; not the logical tree). Feeds the mem.bytes_per_host gauge.
  std::size_t MemoryBytes() const;
};

}  // namespace p2p::somo
