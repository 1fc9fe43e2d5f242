// Flat pairwise-latency view for the ALM planning hot path.
//
// Planning algorithms (AMCast build, adjustment, height evaluation) make
// O(N²)–O(N³) latency queries over a small, fixed participant set. Going
// through the `LatencyFn` std::function for each query costs an indirect
// call per pair; a LatencyMatrix instead evaluates pairs ONCE up front and
// serves all subsequent queries from a flat row-major array.
//
// Covered ids come in two tiers, remapped to a dense 0..n-1 space:
//   - core ids (session root + members): every pair touching a core id is
//     precomputed — these are the pairs the inner loops hammer;
//   - satellite ids (helper candidates): satellite↔satellite pairs are NOT
//     filled. The only such queries are candidate-vs-spliced-helper scores,
//     and eagerly filling the candidate block would cost O(H²) evaluations
//     for a pool-sized H. They go to the source, which the matrix retains:
//     per pair through operator(), or a column per call through Column().
// Latencies are assumed symmetric — each unordered pair is evaluated once
// and mirrored — and the diagonal is pinned to 0 (planning never queries
// self-latency; 0 keeps the view a metric). The public `LatencyFn` APIs
// remain: they build a matrix internally and delegate, so tests and
// callers with exotic latencies need no changes.
//
// The fill reads its source one matrix row per call: a LatencySource with
// a row kernel (the oracle's LatencyRow, the coordinates' PredictRow, the
// planner's Leafset hybrid) fills a row without a std::function call per
// pair; a plain LatencyFn is looped over pair by pair. Column() reads a
// source's column kernel the same way.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "alm/tree.h"
#include "net/latency_oracle.h"
#include "util/check.h"

namespace p2p::alm {

// Batch form of a latency function over one fixed id `x` and a span of
// others. A row kernel writes out[k] = latency(x, ys[k]); a column kernel
// writes out[k] = latency(ys[k], x). Either keeps the per-pair operand
// order, so it returns exactly the doubles the per-pair function would,
// rounding included.
using LatencyBatchFn = std::function<void(
    ParticipantId x, std::span<const ParticipantId> ys, double* out)>;

// A latency source for planning: the per-pair function, plus optional row
// and column kernels that matrix fills and LatencyMatrix::Column use in
// its place. Anything callable as a LatencyFn converts implicitly, so callers
// that only have a per-pair function pass it unchanged.
class LatencySource {
 public:
  LatencySource() = default;
  LatencySource(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)
  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, LatencySource> &&
             std::is_invocable_r_v<double, F&, ParticipantId, ParticipantId>)
  LatencySource(F pair)  // NOLINT(google-explicit-constructor)
      : pair_(std::move(pair)) {}
  LatencySource(LatencyFn pair, LatencyBatchFn row,
                LatencyBatchFn column = {})
      : pair_(std::move(pair)),
        row_(std::move(row)),
        column_(std::move(column)) {}

  double operator()(ParticipantId a, ParticipantId b) const {
    return pair_(a, b);
  }
  // out[k] = (*this)(a, bs[k]): one row-kernel call when the source has
  // one, else a per-pair loop.
  void Row(ParticipantId a, std::span<const ParticipantId> bs,
           double* out) const {
    if (row_ != nullptr) {
      row_(a, bs, out);
      return;
    }
    for (std::size_t k = 0; k < bs.size(); ++k) out[k] = pair_(a, bs[k]);
  }
  // out[k] = (*this)(as[k], b): one column-kernel call when the source has
  // one, else a per-pair loop.
  void Column(ParticipantId b, std::span<const ParticipantId> as,
              double* out) const {
    if (column_ != nullptr) {
      column_(b, as, out);
      return;
    }
    for (std::size_t k = 0; k < as.size(); ++k) out[k] = pair_(as[k], b);
  }

  const LatencyFn& pair() const { return pair_; }

  friend bool operator==(const LatencySource& s, std::nullptr_t) {
    return s.pair_ == nullptr;
  }

 private:
  LatencyFn pair_;
  LatencyBatchFn row_;
  LatencyBatchFn column_;
};

// The oracle as a latency source: Latency per pair, LatencyRow per row,
// and no column kernel (Latency(b, a) may round differently from
// Latency(a, b), so a row cannot stand in for a column). Participant ids
// must be host indices; `oracle` must outlive the source.
LatencySource OracleLatency(const net::LatencyOracle& oracle);

class LatencyMatrix {
 public:
  LatencyMatrix() = default;

  // Builds an all-core view over `ids` (duplicates tolerated and
  // collapsed) drawn from the participant space [0, participant_space).
  LatencyMatrix(std::size_t participant_space,
                const std::vector<ParticipantId>& ids,
                const LatencySource& latency)
      : LatencyMatrix(participant_space, ids, {}, latency) {}

  // Two-tier view: all pairs touching a core id are precomputed;
  // satellite↔satellite queries go through the source (which is
  // retained).
  LatencyMatrix(std::size_t participant_space,
                const std::vector<ParticipantId>& core_ids,
                const std::vector<ParticipantId>& satellite_ids,
                const LatencySource& latency);

  // Session-local view: participant v stands for source id
  // `source_ids[v]`, so the participant space is source_ids.size() and the
  // id map is sized by the session, not by the source's id space. The
  // fill, the satellite↔satellite fallback and Column() query the source
  // in its own ids (each dense index keeps its source id), so a row kernel
  // still fills each row in one call.
  LatencyMatrix(std::span<const ParticipantId> source_ids,
                const std::vector<ParticipantId>& core_ids,
                const std::vector<ParticipantId>& satellite_ids,
                const LatencySource& latency);

  // Number of distinct covered ids (core + satellite).
  std::size_t size() const { return n_; }
  std::size_t core_size() const { return core_n_; }
  std::size_t participant_space() const { return dense_.size(); }

  bool Covers(ParticipantId v) const {
    return v < dense_.size() && dense_[v] != kAbsent;
  }

  // Latency between two covered ids. Symmetric; 0 on the diagonal.
  double operator()(ParticipantId a, ParticipantId b) const {
    P2P_DCHECK(Covers(a) && Covers(b));
    std::uint32_t ia = dense_[a];
    std::uint32_t ib = dense_[b];
    if (ib >= core_n_) {
      if (ia >= core_n_)  // satellite↔satellite: rare
        return source_(source_ids_[ia], source_ids_[ib]);
      std::swap(ia, ib);
    }
    return data_[static_cast<std::size_t>(ia) * core_n_ + ib];
  }

  // out[k] = (*this)(as[k], b) for covered ids. When b is a satellite, its
  // satellite↔satellite entries take one source column call instead of a
  // per-pair fallback query each.
  void Column(ParticipantId b, std::span<const ParticipantId> as,
              double* out) const;

  // Dense index of a covered id; indices < core_size() are core.
  std::uint32_t DenseIndex(ParticipantId v) const {
    P2P_DCHECK(Covers(v));
    return dense_[v];
  }

  // Raw precomputed row of a covered id (core or satellite): entry
  // [DenseIndex(b)] holds the latency to core id b. The planner's
  // relaxation sweeps pin a row once per tree node and index it with
  // cached dense member indices, skipping both per-query id remaps.
  const double* CoreRow(ParticipantId v) const {
    P2P_DCHECK(Covers(v));
    return data_.data() + static_cast<std::size_t>(dense_[v]) * core_n_;
  }

 private:
  static constexpr std::uint32_t kAbsent = ~std::uint32_t{0};

  // `source_ids` empty: participant ids are the source's ids.
  void Build(std::size_t participant_space,
             const std::vector<ParticipantId>& core_ids,
             const std::vector<ParticipantId>& satellite_ids,
             std::span<const ParticipantId> source_ids);

  std::size_t n_ = 0;       // distinct covered ids
  std::uint32_t core_n_ = 0;
  std::vector<std::uint32_t> dense_;  // participant id -> dense index;
                                      // core ids occupy [0, core_n_)
  std::vector<ParticipantId> source_ids_;  // dense index -> source id
  std::vector<double> data_;               // n_ rows × core_n_ columns
  LatencySource source_;                   // satellite↔satellite fallback
};

}  // namespace p2p::alm
