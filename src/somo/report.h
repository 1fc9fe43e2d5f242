// SOMO report schema for scheduling ALM (paper Figures 7 and 9): each node
// publishes its network coordinates, its estimated up/down bottleneck
// bandwidth, and its degree table — total degree plus which sessions (and
// at what priority) currently hold each degree. The aggregate report that
// flows up the SOMO tree is the concatenation of member reports plus
// freshness bookkeeping; the root's aggregate is the "dynamic system status
// database" task managers query.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "coord/vec.h"
#include "dht/leafset.h"
#include "net/transit_stub.h"
#include "sim/event_queue.h"

namespace p2p::somo {

// Paper §5.3: integer priorities 1..3, 1 highest.
inline constexpr int kHighestPriority = 1;
inline constexpr int kLowestPriority = 3;

using SessionId = std::int64_t;
inline constexpr SessionId kNoSession = -1;

// One taken degree: which session holds it and at what (effective) priority.
struct DegreeSlot {
  SessionId session = kNoSession;
  int priority = kLowestPriority;
};

// Figure 9's degree table: a node's total degree bound and its partition
// among active sessions.
struct DegreeTable {
  int total = 0;
  std::vector<DegreeSlot> taken;

  int used() const { return static_cast<int>(taken.size()); }
  int free() const { return total - used(); }

  // Degrees a session of priority `prio` could claim: free degrees plus
  // degrees held at strictly lower priority classes (numerically larger),
  // which it may preempt (paper §5.3: "any resources that are occupied by
  // tasks with lower priorities than L are considered available").
  int AvailableFor(int prio) const {
    int n = free();
    for (const auto& s : taken) {
      if (s.priority > prio) ++n;
    }
    return n;
  }

  // Degrees used by `prio` exactly.
  int UsedAt(int prio) const {
    return static_cast<int>(
        std::count_if(taken.begin(), taken.end(),
                      [prio](const DegreeSlot& s) { return s.priority == prio; }));
  }

  // Degrees held by a given session.
  int HeldBy(SessionId s) const {
    return static_cast<int>(
        std::count_if(taken.begin(), taken.end(),
                      [s](const DegreeSlot& d) { return d.session == s; }));
  }
};

// Wire-size budget (§3.2: "the leaf SOMO report is 40 bytes"): since the
// telemetry codec landed these are *budgets the real encoding must fit*,
// not the sizes themselves — SerializedBytes() measures the actual
// EncodeAggregate output (delta-encoded indices and counters, quantized
// ages, 16-bit floats), and tests/somo_report_codec_test.cc enforces that
// realistic aggregates stay at or under kPerRecordBytes per record and
// kReportHeaderBytes of header. kReportHeaderBytes also still prices the
// tiny synchronized "call for reports" control message.
inline constexpr std::size_t kReportHeaderBytes = 16;
inline constexpr std::size_t kPerRecordBytes = 40;

// In-band self-monitoring (the "SOMO monitors itself" loop): a snapshot of
// the host's own transport counters folded into its NodeReport, so the
// telemetry of the whole system flows up the gather tree alongside the
// scheduling metadata. The root's aggregate then doubles as a monitoring
// database whose accuracy can be compared against the simulator's ground
// truth (Transport::host_stats).
struct HostTelemetry {
  std::size_t msgs_sent = 0;
  std::size_t msgs_delivered = 0;
  std::size_t msgs_dropped = 0;
  std::size_t bytes_sent = 0;
  // Leafset members this host's node currently suspects (heartbeat
  // suspect_alive mode) — the in-band failure signal the alert engine's
  // suspicion-rate rule aggregates over a disseminated view.
  std::size_t suspects = 0;
  sim::Time sampled_at = -1.0;  // < 0 until a sample is taken

  bool valid() const { return sampled_at >= 0.0; }
};

// Per-machine report (Figure 7), stamped with generation time so staleness
// at the root can be measured.
struct NodeReport {
  dht::NodeIndex node = dht::kNoNode;
  net::HostIdx host = 0;
  sim::Time generated_at = 0.0;
  coord::Vec coordinates;
  double up_kbps = 0.0;
  double down_kbps = 0.0;
  DegreeTable degrees;
  // Generic capability metric for the §3.2 root-swap self-optimisation;
  // the maximum is "merge-sorted" upward inside AggregateReport.
  double capacity = 0.0;
  // Self-monitoring counters (invalid unless the provider fills them).
  HostTelemetry telemetry;
};

// Aggregate flowing up the SOMO hierarchy.
//
// Struct-of-arrays storage: member records live in dense per-field columns
// (plus shared pools for the variable-length coordinate/degree/telemetry
// payloads) instead of a vector of 150-byte NodeReport structs, roughly
// halving the resident bytes per represented host across the cached
// aggregates of the gather tree. Record order is preserved exactly as the
// old vector-of-structs kept it, and the wire codec walks records in that
// order — encoded bytes are identical to the AoS layout's (the retained
// pre-SoA implementation in tests/reference/ pins this differentially).
// NodeReport remains the interchange type at the edges: providers hand one
// in via Add, and Member(i) materialises one back out.
//
// The columns live in one block allocated on the first record, so an
// aggregate that never held one is the four scalars and a null pointer
// (40 B): a SOMO tree caches one per logical node and one per child slot,
// most of them empty until reports flow. Copies deep-copy the block (an
// empty source copies as no block); moves hand it over and leave the
// source empty, with its scalars reset.
class AggregateReport {
 public:
  sim::Time oldest = std::numeric_limits<double>::infinity();
  sim::Time newest = -std::numeric_limits<double>::infinity();
  // Running argmax of member capacity (the upward merge-sort, condensed
  // to the only value the root swap needs).
  dht::NodeIndex best_capacity_node = dht::kNoNode;
  double best_capacity = -std::numeric_limits<double>::infinity();

  AggregateReport() = default;
  AggregateReport(const AggregateReport& other);
  AggregateReport& operator=(const AggregateReport& other);
  AggregateReport(AggregateReport&& other) noexcept;
  AggregateReport& operator=(AggregateReport&& other) noexcept;

  bool empty() const { return size() == 0; }
  std::size_t size() const {
    return cols_ == nullptr ? 0 : cols_->node.size();
  }

  // --- per-record column accessors (i < size()) ---------------------------
  dht::NodeIndex node(std::size_t i) const {
    return cols_->node[i] == kNone32
               ? dht::kNoNode
               : static_cast<dht::NodeIndex>(cols_->node[i]);
  }
  net::HostIdx host(std::size_t i) const {
    return static_cast<net::HostIdx>(cols_->host[i]);
  }
  sim::Time generated_at(std::size_t i) const { return cols_->generated[i]; }
  double up_kbps(std::size_t i) const { return cols_->up[i]; }
  double down_kbps(std::size_t i) const { return cols_->down[i]; }
  double capacity(std::size_t i) const { return cols_->capacity[i]; }
  int degrees_total(std::size_t i) const { return cols_->deg_total[i]; }
  std::span<const double> coordinates(std::size_t i) const {
    return {cols_->coord_pool.data() + cols_->coord_off[i],
            cols_->coord_dim[i]};
  }
  std::span<const DegreeSlot> degree_slots(std::size_t i) const {
    return {cols_->deg_pool.data() + cols_->deg_off[i], cols_->deg_used[i]};
  }
  // Null when the record carries no (valid) telemetry sample.
  const HostTelemetry* telemetry(std::size_t i) const {
    return cols_->tel_off[i] == kNone32 ? nullptr
                                        : &cols_->tel_pool[cols_->tel_off[i]];
  }

  // Materialise record i as a full NodeReport (edge interchange only — hot
  // paths should read the columns directly).
  NodeReport Member(std::size_t i) const;

  void Add(const NodeReport& r);
  void Merge(const AggregateReport& other);
  // Merge keeping only the freshest report per node — used when redundant
  // SOMO links may deliver overlapping aggregates.
  void MergeKeepFreshest(const AggregateReport& other);
  // Drops every record; an allocated block keeps its capacity.
  void Clear();

  // Measured wire size of this aggregate: EncodedSize(*this). Honest —
  // the overhead accounting charges what EncodeAggregate would emit.
  std::size_t SerializedBytes() const;

  // Resident bytes of this aggregate (this, plus the column block and its
  // capacity when allocated). The SoA counterpart of the retained AoS
  // reference's accounting; the memory regression test compares the two
  // at the 10k preset.
  std::size_t MemoryBytes() const;

 private:
  static constexpr std::uint32_t kNone32 = 0xffffffffu;

  struct Columns {
    // One entry per record, in insertion order (== the old members order).
    std::vector<std::uint32_t> node;
    std::vector<std::uint32_t> host;
    std::vector<double> generated;
    std::vector<double> up;
    std::vector<double> down;
    std::vector<double> capacity;
    std::vector<std::int32_t> deg_total;
    // Variable-length payloads: (offset, count) per record into shared
    // pools. Replacements reuse the span in place when the shape matches
    // and append otherwise; aggregates are rebuilt every gather round, so
    // abandoned spans never accumulate beyond a round.
    std::vector<std::uint32_t> coord_off;
    std::vector<std::uint16_t> coord_dim;
    std::vector<double> coord_pool;
    std::vector<std::uint32_t> deg_off;
    std::vector<std::uint16_t> deg_used;
    std::vector<DegreeSlot> deg_pool;
    std::vector<std::uint32_t> tel_off;  // kNone32 = no telemetry
    std::vector<HostTelemetry> tel_pool;

    void Clear();
    std::size_t HeapBytes() const;
  };

  // The column block, allocated on first use.
  Columns& Cols();
  // Append record j of `other` (column-wise copy).
  void AppendFrom(const AggregateReport& other, std::size_t j);
  // Overwrite record i with record j of `other` (fresher duplicate).
  void ReplaceFrom(std::size_t i, const AggregateReport& other,
                   std::size_t j);
  void ResetExtrema();
  void RecomputeExtrema();

  template <typename Sink>
  friend void EncodeTo(const AggregateReport& agg, Sink& sink);

  std::unique_ptr<Columns> cols_;  // null until the first record
};

// --- wire codec -----------------------------------------------------------
//
// Compressed aggregate encoding (format documented in docs/OBSERVABILITY.md
// "Telemetry wire format"; primitives in obs/telemetry_codec.h):
//
//   header:  u8 version (=1); varint member count M; if M > 0:
//            varint base ticks (newest, quantized to obs::kAgeTickMs) and
//            varint best-capacity node (+1; 0 = none).
//   record:  node index (zigzag delta vs previous record), host (zigzag
//            delta vs node), report age in ticks vs base (varint),
//            coordinates (varint dim + F16 components), up/down kbps and
//            capacity (F16), degree table (zigzag total, varint used,
//            one varint per slot packing (session+1)<<2 | priority),
//            telemetry flag byte; valid telemetry adds the sample age
//            (zigzag ticks vs the record timestamp) and five counters,
//            each zigzag delta-encoded against the previous record's
//            telemetry.
//
// Round-trip guarantees (test-enforced): integer fields are exact;
// timestamps within obs::kAgeTickMs; F16 fields within obs::kF16RelError
// relative error (values below 2^-30 flush to zero). oldest/newest and the
// best-capacity value are recomputed from the decoded members.

std::vector<std::uint8_t> EncodeAggregate(const AggregateReport& agg);

// Decode into *out (replacing its contents). False on truncated or
// malformed input; *out is unspecified after a failure.
bool DecodeAggregate(const std::uint8_t* data, std::size_t size,
                     AggregateReport* out);

// Exact byte count EncodeAggregate(agg).size() would return, without
// materialising the buffer (same templated encoder, counting sink).
std::size_t EncodedSize(const AggregateReport& agg);

}  // namespace p2p::somo
