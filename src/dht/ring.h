// The base-ring DHT (paper §3.1): consistent-hashing zones, leafsets of r
// neighbours per side, Chord-style fingers for O(log N) routing.
//
// The Ring is a passive structure — it does not schedule events itself.
// Time-driven behaviour (heartbeats, failure detection, repair jitter) is
// layered on top by HeartbeatProtocol; experiment harnesses that don't need
// timing call the synchronous maintenance entry points directly.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "dht/node.h"
#include "net/latency_oracle.h"
#include "obs/metrics.h"
#include "sim/trace.h"
#include "util/thread_pool.h"

namespace p2p::dht {

// Modelled wire size of one overlay routing hop (lookup request forward).
inline constexpr std::size_t kRouteHopBytes = 48;

struct RouteResult {
  NodeIndex destination = kNoNode;
  std::size_t hops = 0;       // overlay hops taken (0 when from owns key)
  double latency_ms = 0.0;    // sum of per-hop latencies (0 without oracle)
  bool success = false;
};

// Long-range routing geometry: Chord-style fingers (keys at power-of-two
// offsets) or Pastry/Tapestry-style prefix correction (2^b-ary digits).
// Both fall back to the leafset for the last mile; the choice only affects
// which long-range table Route() consults (paper §3.1 treats them as
// interchangeable O(log N) designs, which this lets us demonstrate).
enum class RoutingGeometry {
  kChordFingers,
  kPastryPrefix,
};

class Ring {
 public:
  // `leafset_size` is the total leafset capacity (Pastry convention:
  // size 32 means 16 neighbours per side). Oracle may be null; routing then
  // reports hop counts only.
  explicit Ring(std::size_t leafset_size = 32,
                const net::LatencyOracle* oracle = nullptr,
                RoutingGeometry geometry = RoutingGeometry::kChordFingers);

  RoutingGeometry geometry() const { return geometry_; }

  std::size_t leafset_size() const { return 2 * per_side_; }
  std::size_t per_side() const { return per_side_; }

  // --- membership -------------------------------------------------------

  // Join with an explicit id (ids must be unique). Leafsets of the joiner
  // and its 2r ring neighbours are brought to converged state; the joiner's
  // fingers are built. Other nodes' fingers go stale until the next
  // maintenance pass — routing remains correct via leafsets.
  NodeIndex Join(net::HostIdx host, NodeId id);
  // Join with id = hash(host, salt).
  NodeIndex JoinHashed(net::HostIdx host, std::uint64_t salt = 0);

  // Bulk bootstrap: join hosts [first_host, first_host + count) with hashed
  // ids and run ONE stabilisation pass at the end, instead of the per-join
  // incremental leafset repair (which rewrites each joiner's 2r-
  // neighbourhood, touching every node O(r) times across a bootstrap).
  // The end state — ids, leafsets, fingers, prefix tables — is identical
  // to `count` JoinHashed calls followed by StabilizeAll; the collision
  // probe sequence matches JoinHashed's exactly. Returns the index of the
  // first joined node (the batch is contiguous).
  NodeIndex JoinBatchHashed(net::HostIdx first_host, std::size_t count,
                            std::uint64_t salt = 0);

  // Graceful departure: neighbours drop the node immediately.
  void Leave(NodeIndex n);
  // Crash: the node stops responding but neighbours keep stale entries
  // until DetectFailure (heartbeat timeout) or RepairAll.
  void Fail(NodeIndex n);
  // Neighbour-side cleanup after a failure has been detected: removes the
  // dead node from all leafsets/fingers that reference it and refills the
  // affected leafsets.
  void DetectFailure(NodeIndex n);

  // --- lookup & routing ---------------------------------------------------

  // The alive node whose zone (pred, id] contains `key`.
  NodeIndex ResponsibleFor(NodeId key) const;

  // Greedy routing from `from` using fingers + leafset, skipping dead
  // entries. Counts overlay hops; accumulates per-hop latency when an
  // oracle is present.
  RouteResult Route(NodeIndex from, NodeId key) const;

  // --- maintenance --------------------------------------------------------

  // Recompute every alive node's leafset and fingers from the alive set
  // (the state a converged maintenance protocol reaches). With a thread
  // pool attached (set_thread_pool), per-node rebuilds fan out across the
  // pool — each node writes only its own tables against the shared sorted
  // snapshot, so the result is schedule-invariant and identical to the
  // serial pass.
  void StabilizeAll();
  // Rebuild one node's fingers against current membership.
  void BuildFingers(NodeIndex n);
  // Rebuild one node's prefix table against current membership.
  void BuildPrefixTable(NodeIndex n);

  // Exchange the ids of two alive nodes and repair routing state around
  // them (SOMO root-swap self-optimisation, §3.2).
  void SwapNodeIds(NodeIndex a, NodeIndex b);

  // --- accessors ----------------------------------------------------------

  std::size_t size() const { return nodes_.size(); }
  std::size_t alive_count() const { return alive_count_; }

  // Optional worker pool for the bulk paths (StabilizeAll, batch-join
  // hashing). Null (the default) keeps everything on the calling thread;
  // results are byte-identical either way.
  void set_thread_pool(util::ThreadPool* pool) { pool_ = pool; }
  util::ThreadPool* thread_pool() const { return pool_; }

  // Total heap + inline bytes of the ring's routing state: nodes (leafset,
  // fingers, prefix tables) plus the sorted-membership cache. Feeds the
  // mem.bytes_per_host gauge.
  std::size_t MemoryBytes() const;
  Node& node(NodeIndex n) { return nodes_.at(n); }
  const Node& node(NodeIndex n) const { return nodes_.at(n); }
  const net::LatencyOracle* oracle() const { return oracle_; }

  // Optional per-hop route tracing: when set, Route() appends one kRouting
  // record per overlay hop taken (kind = hop ordinal within the route).
  // Timestamps come from the sink's clock — bind it to a simulation for
  // sim time, or leave unbound for -1 stamps on offline lookups.
  void set_trace_sink(sim::TraceSink* sink) { trace_ = sink; }
  sim::TraceSink* trace_sink() const { return trace_; }

  // Optional instrumentation: dht.route.hops / dht.route.latency_ms
  // histograms per Route() call (latency only with an oracle) and the
  // dht.leafset.repairs counter (leafset refills in DetectFailure).
  void set_metrics(obs::MetricsRegistry* registry);
  obs::MetricsRegistry* metrics() const { return metrics_; }

  // Alive node indices sorted by id (ascending).
  std::vector<NodeIndex> SortedAlive() const;

  // Latency between the hosts of two nodes (requires oracle).
  double LatencyBetween(NodeIndex a, NodeIndex b) const;

  // Verify ring invariants (unique ids, leafset symmetry vs sorted order
  // for converged rings). Used by tests; throws CheckError on violation.
  void CheckInvariants() const;

 private:
  void RefreshSorted() const;
  // Converged leafset of node n given the current alive membership.
  void FillLeafsetFromSorted(NodeIndex n);
  // The same for the node at sorted_[pos]; sorted_ must be current.
  void FillLeafsetAt(std::size_t pos);

  std::size_t per_side_;
  util::ThreadPool* pool_ = nullptr;
  const net::LatencyOracle* oracle_;
  sim::TraceSink* trace_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Histogram* route_hops_ = nullptr;
  obs::Histogram* route_latency_ = nullptr;
  obs::Counter* leafset_repairs_ = nullptr;
  RoutingGeometry geometry_;
  std::vector<Node> nodes_;
  std::size_t alive_count_ = 0;
  // Cache of alive (id, index) sorted by id. Join keeps it valid with an
  // ordered insertion; every other membership change invalidates it.
  mutable std::vector<LeafsetEntry> sorted_;
  mutable bool sorted_dirty_ = true;
};

}  // namespace p2p::dht
