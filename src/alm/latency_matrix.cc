#include "alm/latency_matrix.h"

#include <algorithm>

namespace p2p::alm {

LatencySource OracleLatency(const net::LatencyOracle& oracle) {
  return LatencySource(
      [&oracle](ParticipantId a, ParticipantId b) {
        return oracle.Latency(a, b);
      },
      [&oracle](ParticipantId a, std::span<const ParticipantId> bs,
                double* out) { oracle.LatencyRow(a, bs, out); });
}

LatencyMatrix::LatencyMatrix(std::size_t participant_space,
                             const std::vector<ParticipantId>& core_ids,
                             const std::vector<ParticipantId>& satellite_ids,
                             const LatencySource& latency)
    : source_(latency) {
  Build(participant_space, core_ids, satellite_ids, {});
}

LatencyMatrix::LatencyMatrix(std::span<const ParticipantId> source_ids,
                             const std::vector<ParticipantId>& core_ids,
                             const std::vector<ParticipantId>& satellite_ids,
                             const LatencySource& latency)
    : source_(latency) {
  Build(source_ids.size(), core_ids, satellite_ids, source_ids);
}

void LatencyMatrix::Build(std::size_t participant_space,
                          const std::vector<ParticipantId>& core_ids,
                          const std::vector<ParticipantId>& satellite_ids,
                          std::span<const ParticipantId> source_ids) {
  P2P_CHECK_MSG(source_ != nullptr, "building a LatencyMatrix from a null fn");
  dense_.assign(participant_space, kAbsent);
  source_ids_.reserve(core_ids.size() + satellite_ids.size());
  const auto cover = [&](const std::vector<ParticipantId>& ids) {
    for (const ParticipantId v : ids) {
      P2P_CHECK_MSG(v < participant_space, "id " << v << " out of range");
      if (dense_[v] != kAbsent) continue;  // collapse duplicates
      dense_[v] = static_cast<std::uint32_t>(source_ids_.size());
      source_ids_.push_back(source_ids.empty() ? v : source_ids[v]);
    }
  };
  cover(core_ids);
  core_n_ = static_cast<std::uint32_t>(source_ids_.size());
  cover(satellite_ids);  // a satellite already covered as core stays core
  n_ = source_ids_.size();

  data_.assign(n_ * core_n_, 0.0);
  // Fill the strict lower triangle one row per source call — row i holds
  // latency(source_ids_[i], source_ids_[j]) for j < min(i, core_n_), every
  // write sequential — then mirror the core block with a blocked transpose so
  // neither side of the copy strides through cold cache lines.
  const std::span<const ParticipantId> columns(source_ids_);
  for (std::size_t i = 1; i < n_; ++i) {
    const std::size_t jmax = std::min<std::size_t>(i, core_n_);
    source_.Row(source_ids_[i], columns.first(jmax),
                data_.data() + i * core_n_);
  }
  constexpr std::size_t kTile = 32;
  for (std::size_t ib = 0; ib < core_n_; ib += kTile) {
    for (std::size_t jb = 0; jb <= ib; jb += kTile) {
      const std::size_t iend = std::min(ib + kTile, static_cast<std::size_t>(core_n_));
      for (std::size_t i = ib; i < iend; ++i) {
        const std::size_t jend = std::min(jb + kTile, i);
        for (std::size_t j = jb; j < jend; ++j)
          data_[j * core_n_ + i] = data_[i * core_n_ + j];
      }
    }
  }
}

void LatencyMatrix::Column(ParticipantId b, std::span<const ParticipantId> as,
                           double* out) const {
  P2P_DCHECK(Covers(b));
  const std::uint32_t ib = dense_[b];
  if (ib < core_n_) {
    for (std::size_t k = 0; k < as.size(); ++k)
      out[k] = data_[static_cast<std::size_t>(dense_[as[k]]) * core_n_ + ib];
    return;
  }
  std::vector<ParticipantId> source_as(as.size());
  for (std::size_t k = 0; k < as.size(); ++k)
    source_as[k] = source_ids_[dense_[as[k]]];
  source_.Column(source_ids_[ib], source_as, out);
  // Core entries come from b's own row, as operator() reads them.
  const double* row = data_.data() + static_cast<std::size_t>(ib) * core_n_;
  for (std::size_t k = 0; k < as.size(); ++k) {
    const std::uint32_t ia = dense_[as[k]];
    if (ia < core_n_) out[k] = row[ia];
  }
}

}  // namespace p2p::alm
