// ResourcePool: the assembled P2P resource pool — transit-stub network,
// latency oracle, bandwidth population, the DHT ring (one node per end
// system), leafset network coordinates, bandwidth estimates, and the
// degree registry. Participant id == host index == DHT node index
// throughout, which keeps the ALM planner, the registry, and the DHT in
// one index space.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "alm/tree.h"
#include "bwest/estimator.h"
#include "coord/leafset_coords.h"
#include "dht/ring.h"
#include "net/bandwidth_model.h"
#include "net/latency_oracle.h"
#include "net/transit_stub.h"
#include "pool/degree_table.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace p2p::pool {

struct PoolConfig {
  net::TransitStubParams topology;  // paper defaults: 600 routers, 1200 hosts
  std::size_t leafset_size = 32;
  std::uint64_t seed = 1;

  // Latency-oracle backend. Flat (all-pairs Dijkstra) is the reference and
  // default; hierarchical is exact too (diff-tested) and is what makes the
  // 10k/50k-host presets buildable. Both answer the same TrueLatency().
  net::OracleKind oracle_kind = net::OracleKind::kFlat;
  net::OraclePrecision oracle_precision = net::OraclePrecision::kF64;

  // Degree bounds follow the paper's distribution: P(d)=2^-(d-1) for
  // d=2..8 and the remaining 2^-7 mass on d=9.
  bool paper_degree_distribution = true;
  int uniform_degree_bound = 4;  // used when the flag above is false

  // Network coordinates (Leafset variant). Rounds × simplex iterations
  // trade accuracy for setup time.
  bool build_coordinates = true;
  std::size_t coord_dimensions = 5;
  std::size_t coord_rounds = 8;
  std::size_t coord_nm_iterations = 120;

  // Bandwidth estimation (leafset packet pair).
  bool build_bandwidth_estimates = true;

  // Session planner the pool's task managers fall back to when
  // TaskManagerOptions::planner is empty: an alm::PlannerRegistry name.
  // "tree" is the paper's DB-MHT pipeline (configured per task manager by
  // TaskManagerOptions::strategy); "mesh" the self-organizing mesh.
  std::string default_planner = "tree";
};

// Sample one degree bound from the paper's 2^-i distribution.
int SamplePaperDegreeBound(util::Rng& rng);

class ResourcePool {
 public:
  // `threads` (may be null) parallelises construction: topology wiring,
  // the latency-oracle Dijkstras, ring stabilisation and the coordinate
  // fits. The pool is identical at any thread count, and `threads` is not
  // retained once the constructor returns.
  explicit ResourcePool(const PoolConfig& config,
                        util::ThreadPool* threads = nullptr);

  std::size_t size() const { return topology_.host_count(); }

  const PoolConfig& config() const { return config_; }
  const net::TransitStubTopology& topology() const { return topology_; }
  const net::LatencyOracle& oracle() const { return *oracle_; }
  const net::BandwidthModel& bandwidths() const { return *bandwidths_; }
  dht::Ring& ring() { return *ring_; }
  const dht::Ring& ring() const { return *ring_; }
  DegreeRegistry& registry() { return *registry_; }
  const DegreeRegistry& registry() const { return *registry_; }
  const coord::LeafsetCoordSystem& coords() const { return *coords_; }
  const bwest::BandwidthEstimator& bandwidth_estimates() const {
    return *bw_estimator_;
  }

  int degree_bound(std::size_t participant) const {
    return degree_bounds_.at(participant);
  }
  const std::vector<int>& degree_bounds() const { return degree_bounds_; }

  // True pairwise latency (the oracle view).
  double TrueLatency(std::size_t a, std::size_t b) const;
  // Coordinate-estimated latency (requires build_coordinates).
  double EstimatedLatency(std::size_t a, std::size_t b) const;

  alm::LatencyFn TrueLatencyFn() const;
  alm::LatencyFn EstimatedLatencyFn() const;

  util::Rng& rng() { return rng_; }

 private:
  PoolConfig config_;
  util::Rng rng_;
  net::TransitStubTopology topology_;
  std::unique_ptr<net::LatencyOracle> oracle_;
  std::unique_ptr<net::BandwidthModel> bandwidths_;
  std::unique_ptr<dht::Ring> ring_;
  std::unique_ptr<coord::LeafsetCoordSystem> coords_;
  std::unique_ptr<util::Rng> coord_rng_;  // owned stream for coords
  std::unique_ptr<util::Rng> bw_rng_;
  std::unique_ptr<bwest::BandwidthEstimator> bw_estimator_;
  std::vector<int> degree_bounds_;
  std::unique_ptr<DegreeRegistry> registry_;
};

}  // namespace p2p::pool
