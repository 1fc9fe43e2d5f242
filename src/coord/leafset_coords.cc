#include "coord/leafset_coords.h"

#include <algorithm>
#include <span>

#include "util/check.h"

namespace p2p::coord {

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

double LeafsetCoordSystem::Measured(dht::NodeIndex a,
                                    dht::NodeIndex b) const {
  return ring_.LatencyBetween(a, b);
}

void LeafsetCoordSystem::Fit(dht::NodeIndex n, FitScratch& s) const {
  // Snapshot the peers' coordinates, as a heartbeat payload would carry
  // them, into one contiguous buffer: the objective below reads it a few
  // hundred times per fit.
  const std::size_t d = options_.dimensions;
  s.peer_coords.resize(s.meas.size() * d);
  for (std::size_t i = 0; i < s.meas.size(); ++i) {
    const Vec& c = coords_[s.meas[i].first];
    std::copy(c.begin(), c.end(), s.peer_coords.begin() +
                                      static_cast<std::ptrdiff_t>(i * d));
  }
  const auto objective = [&](const Vec& p) {
    double err = 0.0;
    const double* q = s.peer_coords.data();
    for (const auto& m : s.meas) {
      err += ErrorTerm(std::sqrt(SquaredDistance(p.data(), q, d)), m.second);
      q += d;
    }
    return err;
  };
  s.x = coords_[n];
  Minimize(objective, s.x, options_.nm);
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
        s.meas.clear();
        for (std::size_t j = sweep.peer_begin[pos];
             j < sweep.peer_begin[pos + 1]; ++j) {
          double delay = Measured(n, sweep.peers[j]);
          if (noisy) delay *= sweep.noise[j];
          s.meas.emplace_back(sweep.peers[j], delay);
        }
        Fit(n, s);
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
      return std::abs(predicted - measured);
    case CoordObjective::kRelativeL1:
      return measured > 0.0 ? std::abs(predicted - measured) / measured : 0.0;
    case CoordObjective::kSquaredRelative: {
      if (measured <= 0.0) return 0.0;
      const double rel = (predicted - measured) / measured;
      return rel * rel;
    }
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
      for (const dht::LeafsetEntry& e : ring_.node(n).leafset().Members()) {
        if (!ring_.node(e.node).alive()) continue;
        sweep.peers.push_back(e.node);
        if (noisy) {
          sweep.noise.push_back(rng_.Uniform(1.0 - options_.measurement_noise,
                                             1.0 + options_.measurement_noise));
        }
      }
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
