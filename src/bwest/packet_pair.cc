#include "bwest/packet_pair.h"

#include "util/check.h"

namespace p2p::bwest {

PacketPairProbe::PacketPairProbe(const net::BandwidthModel& model,
                                 PacketPairOptions options, util::Rng& rng)
    : model_(model), options_(options), rng_(rng) {
  P2P_CHECK(options_.packet_bytes > 0.0);
  P2P_CHECK(options_.dispersion_noise >= 0.0 &&
            options_.dispersion_noise < 1.0);
}

double PacketPairProbe::IdealDispersionMs(std::size_t from_host,
                                          std::size_t to_host) const {
  const double bottleneck_kbps =
      model_.PathBottleneckKbps(from_host, to_host);
  // S bits / (kbps * 1000 bits/s) seconds → ms. kbps = kilobit/s.
  const double bits = options_.packet_bytes * 8.0;
  return bits / (bottleneck_kbps * 1000.0) * 1000.0;
}

std::optional<double> PacketPairProbe::Probe(std::size_t from_host,
                                             std::size_t to_host) {
  if (transport_ != nullptr) {
    sim::Message msg;
    msg.src_host = from_host;
    msg.dst_host = to_host;
    msg.protocol = sim::Protocol::kBwest;
    msg.bytes = static_cast<std::size_t>(2.0 * options_.packet_bytes);
    sim::SendOptions opts;
    opts.inline_delivery = true;
    if (!transport_->Send(msg, [] {}, opts)) {
      ++probes_;
      ++dropped_;
      if (m_probes_ != nullptr) {
        m_probes_->Inc();
        m_dropped_->Inc();
      }
      return std::nullopt;
    }
  }
  return MeasureKbps(from_host, to_host);
}

void PacketPairProbe::set_metrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    m_probes_ = nullptr;
    m_dropped_ = nullptr;
    m_estimate_ = nullptr;
    return;
  }
  m_probes_ = &registry->counter("bwest.probes");
  m_dropped_ = &registry->counter("bwest.probes_dropped");
  m_estimate_ = &registry->histogram("bwest.estimate_kbps");
}

double PacketPairProbe::MeasureKbps(std::size_t from_host,
                                    std::size_t to_host) {
  ++probes_;
  double dispersion_ms = IdealDispersionMs(from_host, to_host);
  if (options_.dispersion_noise > 0.0) {
    dispersion_ms *= rng_.Uniform(1.0 - options_.dispersion_noise,
                                  1.0 + options_.dispersion_noise);
  }
  const double bits = options_.packet_bytes * 8.0;
  const double kbps = bits / (dispersion_ms / 1000.0) / 1000.0;
  if (m_probes_ != nullptr) {
    m_probes_->Inc();
    m_estimate_->Add(kbps);
  }
  return kbps;
}

}  // namespace p2p::bwest
