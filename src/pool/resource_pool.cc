#include "pool/resource_pool.h"

#include "util/check.h"

namespace p2p::pool {

int SamplePaperDegreeBound(util::Rng& rng) {
  // P(d) = 2^-(d-1) for d = 2..8; the remaining 2^-7 mass on d = 9.
  const double u = rng.NextDouble();
  double acc = 0.0;
  double p = 0.5;
  for (int d = 2; d <= 8; ++d) {
    acc += p;
    if (u < acc) return d;
    p *= 0.5;
  }
  return 9;
}

ResourcePool::ResourcePool(const PoolConfig& config,
                           util::ThreadPool* threads)
    : config_(config), rng_(config.seed) {
  // Substrates are seeded from independent substreams so that toggling one
  // feature (e.g. coordinates) does not reshuffle another's randomness.
  util::Rng topo_rng = rng_.Substream(1);
  util::Rng bw_model_rng = rng_.Substream(2);
  util::Rng degree_rng = rng_.Substream(3);
  coord_rng_ = std::make_unique<util::Rng>(rng_.Substream(4));
  bw_rng_ = std::make_unique<util::Rng>(rng_.Substream(5));

  topology_ = net::GenerateTransitStub(config_.topology, topo_rng, threads);
  oracle_ = std::make_unique<net::LatencyOracle>(
      topology_, net::OracleOptions{.kind = config_.oracle_kind,
                                    .precision = config_.oracle_precision,
                                    .pool = threads});
  bandwidths_ = std::make_unique<net::BandwidthModel>(
      net::GnutellaAccessClasses(), topology_.host_count(), bw_model_rng);

  // One DHT node per end system, joined in host order so that
  // participant id == host index == node index.
  ring_ = std::make_unique<dht::Ring>(config_.leafset_size, oracle_.get());
  ring_->set_thread_pool(threads);
  for (net::HostIdx h = 0; h < topology_.host_count(); ++h) {
    const dht::NodeIndex n = ring_->JoinHashed(h);
    P2P_CHECK(n == h);
  }
  ring_->StabilizeAll();

  degree_bounds_.reserve(size());
  for (std::size_t i = 0; i < size(); ++i) {
    degree_bounds_.push_back(config_.paper_degree_distribution
                                 ? SamplePaperDegreeBound(degree_rng)
                                 : config_.uniform_degree_bound);
  }
  registry_ = std::make_unique<DegreeRegistry>(degree_bounds_);

  if (config_.build_coordinates) {
    coord::LeafsetCoordOptions copt;
    copt.dimensions = config_.coord_dimensions;
    copt.nm.max_iterations = config_.coord_nm_iterations;
    coords_ = std::make_unique<coord::LeafsetCoordSystem>(*ring_, copt,
                                                          *coord_rng_);
    coords_->RunRounds(config_.coord_rounds);
  }

  if (config_.build_bandwidth_estimates) {
    bw_estimator_ = std::make_unique<bwest::BandwidthEstimator>(
        *ring_, *bandwidths_, bwest::PacketPairOptions{}, *bw_rng_);
    bw_estimator_->EstimateAll();
  }
  // The caller's pool may not outlive this object, so the ring drops it.
  ring_->set_thread_pool(nullptr);
}

double ResourcePool::TrueLatency(std::size_t a, std::size_t b) const {
  return oracle_->Latency(a, b);
}

double ResourcePool::EstimatedLatency(std::size_t a, std::size_t b) const {
  P2P_CHECK_MSG(coords_ != nullptr, "coordinates were not built");
  if (a == b) return 0.0;
  return coords_->Predict(a, b);
}

void ResourcePool::EstimatedLatencyRow(std::size_t a,
                                       std::span<const std::size_t> bs,
                                       double* out) const {
  P2P_CHECK_MSG(coords_ != nullptr, "coordinates were not built");
  coords_->PredictRow(a, bs, out);
  for (std::size_t k = 0; k < bs.size(); ++k)
    if (bs[k] == a) out[k] = 0.0;
}

alm::LatencyFn ResourcePool::TrueLatencyFn() const {
  return [this](std::size_t a, std::size_t b) { return TrueLatency(a, b); };
}

alm::LatencySource ResourcePool::EstimatedLatencyFn() const {
  P2P_CHECK_MSG(coords_ != nullptr, "coordinates were not built");
  // The estimate is symmetric bit for bit: x − y is exactly −(y − x), so
  // every squared term, their in-order sum and its root are the same
  // doubles either way. The row kernel therefore serves as the column
  // kernel too.
  const alm::LatencyBatchFn row = [this](std::size_t a,
                                         std::span<const std::size_t> bs,
                                         double* out) {
    EstimatedLatencyRow(a, bs, out);
  };
  return alm::LatencySource(
      [this](std::size_t a, std::size_t b) { return EstimatedLatency(a, b); },
      row, row);
}

}  // namespace p2p::pool
