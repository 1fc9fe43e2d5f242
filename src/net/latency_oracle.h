// Host-to-host latency oracle over a transit-stub topology.
//
// Two exact backends answer the same queries:
//
//   * kFlat — all-pairs shortest-path distances between routers (one
//     Dijkstra per router, optionally parallelised across a thread pool)
//     stored as a packed upper triangle. O(R²/2) doubles and R full
//     Dijkstras: fine at the paper's 600 routers, the wall at the router
//     counts a 10k–50k-host topology needs.
//   * kHierarchical — exploits the transit-stub structure GT-ITM graphs
//     have: every path between stub domains is forced through the domain's
//     gateway routers (the only routers with links leaving the domain).
//     The build computes (a) per-stub-domain all-pairs over the tiny
//     domain subgraphs, embarrassingly parallel, and (b) a dense all-pairs
//     core over transit routers + stub gateways only, where same-domain
//     gateway pairs are bridged by their intra-domain distance. Queries
//     compose last_hop + intra_stub_to_gateway + core + gateway_to_stub +
//     last_hop, minimised over gateway pairs (single-gateway domains — the
//     common case — take a branch-free fast path). docs/NET.md carries the
//     exactness argument; tests/net_oracle_diff_test.cc pins both backends
//     to each other across randomized topology seeds.
//
// Host queries are
//   latency(a, b) = last_hop(a) + dist(router(a), router(b)) + last_hop(b)
// with latency(a, a) == 0. This is the "oracle" pairwise latency the
// paper's `Critical` algorithm assumes; the `Leafset` algorithm instead
// uses coordinate estimates derived from this oracle's measurements.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "net/transit_stub.h"
#include "obs/metrics.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace p2p::net {

enum class OracleKind {
  kFlat,          // packed all-pairs router triangle (reference)
  kHierarchical,  // per-stub-domain all-pairs + gateway/transit core
};

enum class OraclePrecision {
  kF64,  // double distance storage (reference)
  kF32,  // float storage: halves the core-matrix memory, ≤1e-3 ms error
};

struct OracleOptions {
  OracleKind kind = OracleKind::kFlat;
  OraclePrecision precision = OraclePrecision::kF64;
  // Parallelises the per-source Dijkstra fills when non-null.
  util::ThreadPool* pool = nullptr;
  // Optional build instrumentation: net.oracle.* gauges (deterministic:
  // structure sizes, bytes) and net.oracle.phase.*_ms wall-clock profiles.
  obs::MetricsRegistry* metrics = nullptr;
};

class LatencyOracle {
 public:
  // Builds the flat router distance matrix sequentially.
  explicit LatencyOracle(const TransitStubTopology& topo)
      : LatencyOracle(topo, OracleOptions{}) {}

  // Flat build using `pool` if non-null (one Dijkstra task per router).
  LatencyOracle(const TransitStubTopology& topo, util::ThreadPool* pool)
      : LatencyOracle(topo, OracleOptions{.pool = pool}) {}

  LatencyOracle(const TransitStubTopology& topo, const OracleOptions& opts);

  OracleKind kind() const { return kind_; }
  bool uses_float_storage() const { return use_float_; }

  std::size_t host_count() const { return host_router_.size(); }

  // End-to-end latency between hosts, in ms. Symmetric; 0 on the diagonal.
  double Latency(HostIdx a, HostIdx b) const;

  // Row kernel: out[k] = Latency(a, bs[k]) for every k, bit for bit. The
  // row host's router, last hop and portals are looked up once per call,
  // not once per pair. `a` stays the first operand of every sum, so each
  // value rounds exactly as Latency(a, b) does (Latency(b, a) may differ
  // in the last bit). Throws like Latency on an out-of-range id.
  void LatencyRow(HostIdx a, std::span<const HostIdx> bs, double* out) const;

  // Router-level distance (ms) between two routers.
  double RouterDistance(NodeIdx a, NodeIdx b) const;

  double last_hop_ms(HostIdx h) const { return host_last_hop_[h]; }

  // Bytes held by the distance structures (matrices, portals, index maps,
  // host attachment arrays). Deterministic — derived from element counts,
  // not allocator state — so it can be asserted on and diffed in benches.
  std::size_t MemoryBytes() const;

  // Hierarchical-structure introspection (0 for the flat backend).
  std::size_t core_node_count() const { return core_count_; }
  std::size_t stub_domain_count() const { return domain_count_; }
  std::size_t gateway_count() const { return gateway_count_; }

 private:
  // Distances live in either a double or a float vector; queries widen
  // floats back to double. Keeping both layouts behind one accessor pair
  // lets every matrix (flat triangle, core triangle, intra blocks) switch
  // precision with the same OraclePrecision knob.
  struct DistStore {
    std::vector<double> d64;
    std::vector<float> f32;
    bool use_float = false;

    void Assign(std::size_t n, double v) {
      if (use_float) {
        f32.assign(n, static_cast<float>(v));
      } else {
        d64.assign(n, v);
      }
    }
    void Set(std::size_t i, double v) {
      if (use_float) {
        f32[i] = static_cast<float>(v);
      } else {
        d64[i] = v;
      }
    }
    double Get(std::size_t i) const {
      return use_float ? static_cast<double>(f32[i]) : d64[i];
    }
    std::size_t size() const { return use_float ? f32.size() : d64.size(); }
    // The storage as T (double or float): row kernels hoist the precision
    // branch out of their loops and widen each element as Get does.
    template <typename T>
    const T* data() const {
      if constexpr (std::is_same_v<T, float>) {
        return f32.data();
      } else {
        return d64.data();
      }
    }
    std::size_t bytes() const {
      return d64.size() * sizeof(double) + f32.size() * sizeof(float);
    }
  };

  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  // Packed upper-triangle index for i <= j over an n×n symmetric matrix.
  static std::size_t TriIndex(std::size_t i, std::size_t j, std::size_t n) {
    return i * n - i * (i - 1) / 2 + (j - i);
  }

  void BuildFlat(const TransitStubTopology& topo, const OracleOptions& opts);
  void BuildHierarchical(const TransitStubTopology& topo,
                         const OracleOptions& opts);
  void RecordBuildMetrics(obs::MetricsRegistry* metrics) const;

  double CoreDistance(std::uint32_t ca, std::uint32_t cb) const {
    return ca <= cb ? core_.Get(TriIndex(ca, cb, core_count_))
                    : core_.Get(TriIndex(cb, ca, core_count_));
  }
  double IntraDistance(std::uint32_t domain, std::uint32_t la,
                       std::uint32_t lb) const {
    const std::size_t m = domain_size_[domain];
    const std::size_t base = intra_offset_[domain];
    return la <= lb ? intra_.Get(base + TriIndex(la, lb, m))
                    : intra_.Get(base + TriIndex(lb, la, m));
  }
  double HierRouterDistance(NodeIdx a, NodeIdx b) const;
  // LatencyRow's loops, per backend and storage type T.
  template <typename T>
  void FlatRow(HostIdx a, std::span<const HostIdx> bs, double* out) const;
  template <typename T>
  void HierRow(HostIdx a, std::span<const HostIdx> bs, double* out) const;

  OracleKind kind_ = OracleKind::kFlat;
  bool use_float_ = false;
  std::size_t router_count_ = 0;

  // --- flat backend: packed upper triangle (b >= a) over all routers ----
  DistStore flat_;

  // --- hierarchical backend ---------------------------------------------
  std::size_t core_count_ = 0;
  std::size_t domain_count_ = 0;
  std::size_t gateway_count_ = 0;
  DistStore core_;                          // packed triangle over core nodes
  std::vector<std::uint32_t> core_index_;   // router -> core idx or kNone
  std::vector<std::uint32_t> stub_domain_;  // router -> stub domain or kNone
  std::vector<std::uint32_t> local_of_;     // stub router -> idx in domain
  std::vector<std::uint32_t> domain_size_;  // stub domain -> member count
  std::vector<std::size_t> intra_offset_;   // stub domain -> intra_ base
  DistStore intra_;  // per-domain packed triangles, concatenated
  // Portals of a router: the core nodes its traffic can enter the core
  // through, with the intra-domain distance to each. Core routers have the
  // single portal (self, 0); stub routers list their domain's gateways.
  std::vector<std::uint32_t> portal_offset_;  // router -> [begin, end)
  std::vector<std::uint32_t> portal_core_;
  std::vector<double> portal_dist_;

  // --- hosts -------------------------------------------------------------
  std::vector<NodeIdx> host_router_;
  std::vector<double> host_last_hop_;
};

}  // namespace p2p::net
