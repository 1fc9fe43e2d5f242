// Retained pre-SoA SOMO implementation (PR 9), kept verbatim for the
// differential test the way PR 4 retained the reference scheduler and PR 7
// the old PlanSession: `somoref::SomoProtocol` is the map-based protocol —
// array-of-structs AggregateReport (std::vector<NodeReport> members),
// unordered_map adopted/sync tables — exactly as it shipped before the
// struct-of-arrays refactor. tests/somo_soa_differential_test.cc runs it
// against the production protocol on identical seeded simulations and pins
// event logs, wire bytes and metric snapshots.
//
// Shared leaf types (NodeReport, DegreeTable, HostTelemetry, SomoConfig,
// SomoMessageKind, LogicalTree) are reused from src/somo — only the
// aggregate container and the protocol, the things the refactor touched,
// are duplicated here.
#pragma once

#include <functional>
#include <limits>
#include <memory>
#include <unordered_map>
#include <vector>

#include "dht/ring.h"
#include "sim/simulation.h"
#include "somo/logical_tree.h"
#include "somo/somo.h"

namespace p2p::somoref {

using somo::LogicalIndex;
using somo::LogicalNode;
using somo::LogicalTree;
using somo::NodeReport;
using somo::SomoConfig;
using somo::SomoMessageKind;

// Array-of-structs aggregate, as before the SoA refactor.
struct AggregateReport {
  std::vector<NodeReport> members;
  sim::Time oldest = std::numeric_limits<double>::infinity();
  sim::Time newest = -std::numeric_limits<double>::infinity();
  dht::NodeIndex best_capacity_node = dht::kNoNode;
  double best_capacity = -std::numeric_limits<double>::infinity();

  bool empty() const { return members.empty(); }
  std::size_t size() const { return members.size(); }

  void Add(NodeReport r);
  void Merge(const AggregateReport& other);
  void MergeKeepFreshest(const AggregateReport& other);
  void Clear();
  std::size_t SerializedBytes() const;

  // Pre-SoA in-memory footprint of this aggregate (AoS layout): the
  // recorded baseline the PR 9 memory-regression test compares against.
  std::size_t MemoryBytes() const;
};

std::vector<std::uint8_t> EncodeAggregate(const AggregateReport& agg);
std::size_t EncodedSize(const AggregateReport& agg);

// Verbatim pre-SoA protocol (modulo the AggregateReport type).
class SomoProtocol {
 public:
  using ReportProvider = std::function<NodeReport(dht::NodeIndex)>;

  SomoProtocol(sim::Simulation& sim, dht::Ring& ring, SomoConfig config,
               ReportProvider provider);

  void Start();
  void Stop();
  void Rebuild();

  void ReceivePush(LogicalIndex parent, std::size_t slot, LogicalIndex from,
                   const AggregateReport& payload);

  const LogicalTree& tree() const { return *tree_; }
  const SomoConfig& config() const { return config_; }
  const AggregateReport& RootReport() const { return root_view_; }
  double RootStalenessMs() const;
  double RootAliveStalenessMs() const;
  bool RootViewComplete() const;

  struct NodeView {
    std::shared_ptr<const AggregateReport> view;
    sim::Time received_at = -1.0;
    bool valid() const { return view != nullptr; }
  };
  const NodeView& ViewAt(dht::NodeIndex n) const;
  double ViewStalenessMs(dht::NodeIndex n) const;
  std::size_t nodes_with_view() const;

  std::size_t gathers_completed() const { return gathers_completed_; }
  std::size_t messages_sent() const { return messages_; }
  std::size_t bytes_sent() const { return bytes_; }
  std::size_t redundant_pushes() const { return redundant_pushes_; }

 private:
  void ScheduleLogicalTimers();
  void FireLogical(LogicalIndex l);
  void PushToParent(LogicalIndex l);
  AggregateReport ComputeAggregate(LogicalIndex l) const;
  void OnRootViewRefreshed();
  void Disseminate(LogicalIndex l, std::shared_ptr<const AggregateReport> view,
                   std::size_t wire, sim::Time arrival);
  void StartSyncGather();
  void SyncDescend(LogicalIndex l, sim::Time arrival, std::uint64_t round);
  void SyncReplyArrived(LogicalIndex l, const AggregateReport& child_agg,
                        std::uint64_t round);
  void RecordRootMetrics(std::uint64_t round);
  bool SendBetween(dht::NodeIndex from, dht::NodeIndex to,
                   SomoMessageKind kind, std::size_t bytes,
                   util::InlineFn deliver);

  sim::Simulation& sim_;
  dht::Ring& ring_;
  SomoConfig config_;
  ReportProvider provider_;
  std::unique_ptr<LogicalTree> tree_;
  bool running_ = false;

  struct PendingGather {
    std::size_t pending = 0;
    AggregateReport agg;
  };
  struct LogicalState {
    AggregateReport own;
    std::vector<AggregateReport> from_children;
    std::unordered_map<LogicalIndex, AggregateReport> adopted;
    std::unordered_map<std::uint64_t, PendingGather> sync;  // by round
  };
  std::vector<LogicalState> state_;
  std::vector<sim::Simulation::PeriodicToken> timers_;
  AggregateReport root_view_;
  std::vector<NodeView> node_views_;

  std::size_t gathers_completed_ = 0;
  std::size_t messages_ = 0;
  std::size_t bytes_ = 0;
  std::size_t redundant_pushes_ = 0;
  std::uint64_t sync_round_counter_ = 0;

  obs::Counter* m_gathers_;
  obs::Counter* m_messages_;
  obs::Counter* m_bytes_;
  obs::Counter* m_redundant_;
  obs::Gauge* m_root_staleness_;
  obs::Gauge* m_root_members_;
  obs::Histogram* m_gather_latency_;
  obs::Histogram* m_report_age_;
  std::unordered_map<std::uint64_t, sim::Time> sync_started_;
};

}  // namespace p2p::somoref
