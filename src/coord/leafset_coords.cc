#include "coord/leafset_coords.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "util/check.h"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace p2p::coord {
namespace {

// The error of one prediction under objective K.
template <CoordObjective K>
double Term(double predicted, double measured) {
  if constexpr (K == CoordObjective::kAbsoluteL1) {
    return std::abs(predicted - measured);
  } else if constexpr (K == CoordObjective::kRelativeL1) {
    return measured > 0.0 ? std::abs(predicted - measured) / measured : 0.0;
  } else {
    if (measured <= 0.0) return 0.0;
    const double rel = (predicted - measured) / measured;
    return rel * rel;
  }
}

#if defined(__SSE2__)
// Term for two peers at once: the same operations in the same order per
// lane, and a lane the scalar branch would zero is masked to +0.0.
template <CoordObjective K>
__m128d TermPair(__m128d predicted, __m128d measured) {
  const __m128d zero = _mm_setzero_pd();
  const __m128d diff = _mm_sub_pd(predicted, measured);
  const __m128d abs_diff = _mm_andnot_pd(_mm_set1_pd(-0.0), diff);
  if constexpr (K == CoordObjective::kAbsoluteL1) {
    return abs_diff;
  } else if constexpr (K == CoordObjective::kRelativeL1) {
    return _mm_and_pd(_mm_cmpgt_pd(measured, zero),
                      _mm_div_pd(abs_diff, measured));
  } else {
    const __m128d rel = _mm_div_pd(diff, measured);
    return _mm_and_pd(_mm_cmpnle_pd(measured, zero), _mm_mul_pd(rel, rel));
  }
}
#endif

// A fit's objective, sum_i Term(|p - q_i|, delay_i) over the peers, summed
// in peer order: the value the scalar loop over peers computes, bit for
// bit. Peer i's coordinate k is cols[k * stride + i]; stride is the peer
// count rounded up to even, and a pad peer fills the last pair's odd lane.
// A nonzero kDims fixes the width at compile time.
template <CoordObjective K, std::size_t kDims>
struct FitError {
  const double* cols;
  const double* delay;
  std::size_t count;
  std::size_t stride;
  std::size_t dims;

  double operator()(const double* p) const {
    const std::size_t d = kDims != 0 ? kDims : dims;
    double err = 0.0;
#if defined(__SSE2__)
    for (std::size_t i = 0; i < count; i += 2) {
      __m128d sq = _mm_setzero_pd();
      const double* q = cols + i;
      for (std::size_t k = 0; k < d; ++k, q += stride) {
        const __m128d diff = _mm_sub_pd(_mm_set1_pd(p[k]), _mm_loadu_pd(q));
        sq = _mm_add_pd(sq, _mm_mul_pd(diff, diff));
      }
      const __m128d t =
          TermPair<K>(_mm_sqrt_pd(sq), _mm_loadu_pd(delay + i));
      err += _mm_cvtsd_f64(t);
      if (i + 1 < count) err += _mm_cvtsd_f64(_mm_unpackhi_pd(t, t));
    }
#else
    for (std::size_t i = 0; i < count; ++i) {
      double sq = 0.0;
      for (std::size_t k = 0; k < d; ++k) {
        const double diff = p[k] - cols[k * stride + i];
        sq += diff * diff;
      }
      err += Term<K>(std::sqrt(sq), delay[i]);
    }
#endif
    return err;
  }
};

// Fits x under objective K. At the default width, the one every pool uses,
// the objective fixes its width at compile time, so its loop over the
// coordinates unrolls: about a fifth off a coordinate round
// (docs/REPRODUCING.md). The arithmetic is the same either way.
template <CoordObjective K>
void MinimizeFit(const double* cols, const double* delay, std::size_t count,
                 std::size_t stride, std::span<double> x,
                 const NelderMeadOptions& nm, SimplexScratch& simplex) {
  constexpr std::size_t kDefault = LeafsetCoordOptions{}.dimensions;
  if (x.size() == kDefault) {
    Minimize(FitError<K, kDefault>{cols, delay, count, stride, kDefault}, x,
             nm, simplex);
  } else {
    Minimize(FitError<K, 0>{cols, delay, count, stride, x.size()}, x, nm,
             simplex);
  }
}

}  // namespace

LeafsetCoordSystem::LeafsetCoordSystem(const dht::Ring& ring,
                                       LeafsetCoordOptions options,
                                       util::Rng& rng)
    : ring_(ring), options_(options), rng_(rng) {
  P2P_CHECK(options_.dimensions > 0);
  P2P_CHECK(options_.measurement_noise >= 0.0 &&
            options_.measurement_noise < 1.0);
  P2P_CHECK_MSG(ring_.oracle() != nullptr,
                "leafset coordinates need a latency oracle");
  coords_.resize(ring_.size());
  for (auto& c : coords_) {
    c.resize(options_.dimensions);
    for (double& v : c) v = rng_.Uniform(0.0, options_.init_range);
  }
  inbox_.resize(ring_.size());
  fresh_.assign(ring_.size(), 0);
}

void LeafsetCoordSystem::PredictRow(dht::NodeIndex a,
                                    std::span<const dht::NodeIndex> bs,
                                    double* out) const {
  const Vec& ca = coords_.at(a);
  const double* x = ca.data();
  const std::size_t d = ca.size();
  // Four estimates at a time: their sums are independent, so interleaving
  // them overlaps the add chains. Each sum still takes its d terms in
  // SquaredDistance's order, so every value is the double Predict returns.
  std::size_t k = 0;
  for (; k + 4 <= bs.size(); k += 4) {
    const double* q0 = coords_.at(bs[k]).data();
    const double* q1 = coords_.at(bs[k + 1]).data();
    const double* q2 = coords_.at(bs[k + 2]).data();
    const double* q3 = coords_.at(bs[k + 3]).data();
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    for (std::size_t i = 0; i < d; ++i) {
      const double d0 = x[i] - q0[i];
      const double d1 = x[i] - q1[i];
      const double d2 = x[i] - q2[i];
      const double d3 = x[i] - q3[i];
      s0 += d0 * d0;
      s1 += d1 * d1;
      s2 += d2 * d2;
      s3 += d3 * d3;
    }
    out[k] = std::sqrt(s0);
    out[k + 1] = std::sqrt(s1);
    out[k + 2] = std::sqrt(s2);
    out[k + 3] = std::sqrt(s3);
  }
  for (; k < bs.size(); ++k)
    out[k] = std::sqrt(SquaredDistance(x, coords_.at(bs[k]).data(), d));
}

double LeafsetCoordSystem::Measured(dht::NodeIndex a,
                                    dht::NodeIndex b) const {
  return ring_.LatencyBetween(a, b);
}

void LeafsetCoordSystem::Fit(dht::NodeIndex n,
                             std::span<const dht::NodeIndex> peers,
                             std::span<const double> noise,
                             FitScratch& s) const {
  // Snapshot the peers' coordinates, as a heartbeat payload would carry
  // them, one column per dimension: the objective reads them a few hundred
  // times per fit, two peers per step.
  const std::size_t d = options_.dimensions;
  const std::size_t count = peers.size();
  const std::size_t stride = count + count % 2;
  s.delay.resize(stride);
  s.cols.resize(stride * d);
  for (std::size_t i = 0; i < count; ++i) {
    s.delay[i] = Measured(n, peers[i]);
    if (!noise.empty()) s.delay[i] *= noise[i];
    const double* c = coords_[peers[i]].data();
    for (std::size_t k = 0; k < d; ++k) s.cols[k * stride + i] = c[k];
  }
  if (stride > count) {
    s.delay[count] = 1.0;
    for (std::size_t k = 0; k < d; ++k) s.cols[k * stride + count] = 0.0;
  }
  s.x = coords_[n];
  const auto fit = [&](auto minimize) {
    minimize(s.cols.data(), s.delay.data(), count, stride,
             std::span<double>(s.x), options_.nm, s.simplex);
  };
  switch (options_.objective) {
    case CoordObjective::kAbsoluteL1:
      return fit(MinimizeFit<CoordObjective::kAbsoluteL1>);
    case CoordObjective::kRelativeL1:
      return fit(MinimizeFit<CoordObjective::kRelativeL1>);
    case CoordObjective::kSquaredRelative:
      return fit(MinimizeFit<CoordObjective::kSquaredRelative>);
  }
}

void LeafsetCoordSystem::RunSweep(const Sweep& sweep, bool damped) {
  // Sweep positions grouped by level (-1: nothing to fit).
  std::vector<std::vector<std::size_t>> levels;
  for (std::size_t pos = 0; pos < sweep.level.size(); ++pos) {
    if (sweep.level[pos] < 0) continue;
    const auto l = static_cast<std::size_t>(sweep.level[pos]);
    if (l >= levels.size()) levels.resize(l + 1);
    levels[l].push_back(pos);
  }
  const bool noisy = options_.measurement_noise > 0.0;
  util::ThreadPool* pool = ring_.thread_pool();
  for (const std::vector<std::size_t>& positions : levels) {
    const auto run = [&](std::size_t begin, std::size_t end) {
      FitScratch s;
      for (std::size_t i = begin; i < end; ++i) {
        const std::size_t pos = positions[i];
        const dht::NodeIndex n = sweep.order[pos];
        const std::size_t first = sweep.peer_begin[pos];
        const std::size_t count = sweep.peer_begin[pos + 1] - first;
        Fit(n, std::span(sweep.peers).subspan(first, count),
            noisy ? std::span(sweep.noise).subspan(first, count)
                  : std::span<const double>(),
            s);
        Vec& c = coords_[n];
        if (!damped) {
          c = s.x;
          continue;
        }
        // Lerp(c, x, damping), in place.
        for (std::size_t k = 0; k < c.size(); ++k)
          c[k] = c[k] + options_.damping * (s.x[k] - c[k]);
      }
    };
    if (pool != nullptr) {
      pool->ParallelForRange(positions.size(), 2, run);
    } else {
      run(0, positions.size());
    }
  }
}

double LeafsetCoordSystem::ErrorTerm(double predicted, double measured) const {
  switch (options_.objective) {
    case CoordObjective::kAbsoluteL1:
      return Term<CoordObjective::kAbsoluteL1>(predicted, measured);
    case CoordObjective::kRelativeL1:
      return Term<CoordObjective::kRelativeL1>(predicted, measured);
    case CoordObjective::kSquaredRelative:
      return Term<CoordObjective::kSquaredRelative>(predicted, measured);
  }
  return 0.0;
}

void LeafsetCoordSystem::Bootstrap() {
  // Replays the incremental growth of a real deployment: nodes join one by
  // one (random order); each fits — undamped, it has no position yet —
  // against the leafset it *would have had at join time*, i.e. the
  // ring-closest already-placed nodes. While the ring is small, that
  // leafset spans every placed node, so the first joiners form a mutually
  // consistent scaffold (GNP's landmark solve arises as a special case);
  // every later joiner is constrained by a full, consistent leafset.
  //
  // A serial pass in join order picks each joiner's peers and draws their
  // measurement noise. A placed node never moves again, so a joiner's fit
  // only has to follow its peers' fits: its level is one above theirs.
  bootstrapped_ = true;
  const std::vector<dht::NodeIndex> sorted = ring_.SortedAlive();
  const std::size_t total = sorted.size();
  const std::size_t per_side = ring_.per_side();
  const bool noisy = options_.measurement_noise > 0.0;
  Sweep sweep;
  sweep.order = sorted;
  rng_.Shuffle(sweep.order);
  sweep.level.assign(total, -1);
  sweep.peer_begin.resize(total + 1);
  std::vector<std::size_t> rank(ring_.size());
  for (std::size_t q = 0; q < total; ++q) rank[sorted[q]] = q;
  std::vector<char> placed(total, 0);       // by ring rank
  std::vector<int> after(ring_.size(), 0);  // 1 + level of a placed node
  std::vector<dht::NodeIndex> cw, ccw;

  for (std::size_t pos = 0; pos < total; ++pos) {
    const dht::NodeIndex n = sweep.order[pos];
    const std::size_t first = sweep.peers.size();
    sweep.peer_begin[pos] = first;
    if (pos > 0) {  // the first node has nobody to fit against
      // The leafset this node would have on joining the placed-set ring
      // (`pos` others): `per_side` nearest on each side, nearest first,
      // alternating sides, each placed node once.
      const std::size_t take = std::min(per_side, pos);
      cw.clear();
      ccw.clear();
      for (std::size_t q = rank[n]; cw.size() < take;) {
        q = q + 1 == total ? 0 : q + 1;
        if (placed[q]) cw.push_back(sorted[q]);
      }
      for (std::size_t q = rank[n]; ccw.size() < take;) {
        q = (q == 0 ? total : q) - 1;
        if (placed[q]) ccw.push_back(sorted[q]);
      }
      // Both sides reach the same node only when they wrap into each other.
      const bool may_repeat = 2 * take > pos;
      int l = 0;
      for (std::size_t k = 0; k < take; ++k) {
        for (const dht::NodeIndex p : {cw[k], ccw[k]}) {
          if (may_repeat &&
              std::find(sweep.peers.begin() +
                            static_cast<std::ptrdiff_t>(first),
                        sweep.peers.end(), p) != sweep.peers.end()) {
            continue;
          }
          sweep.peers.push_back(p);
          if (noisy) {
            sweep.noise.push_back(
                rng_.Uniform(1.0 - options_.measurement_noise,
                             1.0 + options_.measurement_noise));
          }
          l = std::max(l, after[p]);
        }
      }
      sweep.level[pos] = l;
      after[n] = l + 1;
      ++updates_;
    }
    placed[rank[n]] = 1;
  }
  sweep.peer_begin[total] = sweep.peers.size();
  RunSweep(sweep, /*damped=*/false);
}

void LeafsetCoordSystem::RunRounds(std::size_t rounds) {
  if (options_.incremental_bootstrap && !bootstrapped_) Bootstrap();
  // Each sweep is a Gauss–Seidel pass in shuffled order: a node reads its
  // alive leafset members' latest coordinates and writes only its own. A
  // serial pass over the order draws the measurement noise in sweep order
  // and assigns levels: a node runs one level above every earlier node it
  // reads or that reads it, so any two nodes where one's leafset holds the
  // other keep their sweep order, and each level's fits are independent.
  const bool noisy = options_.measurement_noise > 0.0;
  Sweep sweep;
  sweep.order = ring_.SortedAlive();
  sweep.level.resize(sweep.order.size());
  sweep.peer_begin.resize(sweep.order.size() + 1);
  std::vector<int> after(ring_.size());       // 1 + level, once run
  std::vector<int> read_after(ring_.size());  // 1 + level of a reader
  for (std::size_t r = 0; r < rounds; ++r) {
    rng_.Shuffle(sweep.order);
    std::fill(after.begin(), after.end(), 0);
    std::fill(read_after.begin(), read_after.end(), 0);
    sweep.peers.clear();
    sweep.noise.clear();
    for (std::size_t pos = 0; pos < sweep.order.size(); ++pos) {
      const dht::NodeIndex n = sweep.order[pos];
      const std::size_t first = sweep.peers.size();
      sweep.peer_begin[pos] = first;
      ring_.node(n).leafset().ForEachMember([&](const dht::LeafsetEntry& e) {
        if (!ring_.node(e.node).alive()) return;
        sweep.peers.push_back(e.node);
        if (noisy) {
          sweep.noise.push_back(rng_.Uniform(1.0 - options_.measurement_noise,
                                             1.0 + options_.measurement_noise));
        }
      });
      const auto members = std::span(sweep.peers).subspan(first);
      if (members.empty()) {
        sweep.level[pos] = -1;
        continue;
      }
      int l = read_after[n];
      for (const dht::NodeIndex m : members) l = std::max(l, after[m]);
      sweep.level[pos] = l;
      after[n] = l + 1;
      for (const dht::NodeIndex m : members)
        read_after[m] = std::max(read_after[m], l + 1);
      ++updates_;
    }
    sweep.peer_begin[sweep.order.size()] = sweep.peers.size();
    RunSweep(sweep, /*damped=*/true);
  }
}

void LeafsetCoordSystem::AttachTo(dht::HeartbeatProtocol& heartbeat) {
  heartbeat.AddObserver(
      [this](dht::NodeIndex from, dht::NodeIndex to, sim::Time send_t,
             sim::Time recv_t) { OnHeartbeat(from, to, send_t, recv_t); });
}

void LeafsetCoordSystem::OnHeartbeat(dht::NodeIndex from, dht::NodeIndex to,
                                     sim::Time send_t, sim::Time recv_t) {
  if (inbox_.size() <= std::max(from, to)) {
    inbox_.resize(ring_.size());
    fresh_.resize(ring_.size(), 0);
    coords_.resize(ring_.size(), Vec(options_.dimensions, 0.0));
  }
  double delay = recv_t - send_t;  // one-way delay from message timestamps
  P2P_DCHECK(delay >= 0.0);
  if (options_.measurement_noise > 0.0) {
    delay *= rng_.Uniform(1.0 - options_.measurement_noise,
                          1.0 + options_.measurement_noise);
  }
  inbox_[to][from] = Observation{delay, coords_[from]};
  if (++fresh_[to] < options_.observations_per_update) return;
  fresh_[to] = 0;

  std::vector<std::pair<dht::NodeIndex, double>> meas;
  std::vector<Vec> sender_coords;
  meas.reserve(inbox_[to].size());
  for (const auto& [m, obs] : inbox_[to]) {
    meas.emplace_back(m, obs.delay_ms);
    sender_coords.push_back(obs.sender_coord);
  }
  // Optimise against the *advertised* coordinates captured in the inbox.
  auto objective = [&](const Vec& x) {
    double err = 0.0;
    for (std::size_t i = 0; i < meas.size(); ++i)
      err += ErrorTerm(Distance(x, sender_coords[i]), meas[i].second);
    return err;
  };
  Vec x = coords_[to];
  Minimize(objective, x, options_.nm);
  coords_[to] = Lerp(coords_[to], x, options_.damping);
  ++updates_;
}

}  // namespace p2p::coord
