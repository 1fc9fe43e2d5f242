#include "reference/leafset_coords_ref.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/check.h"

namespace p2p::coordref {

NelderMeadResult Minimize(const std::function<double(const Vec&)>& f, Vec& x,
                          const NelderMeadOptions& opt) {
  const std::size_t d = x.size();
  P2P_CHECK_MSG(d > 0, "empty start point");

  std::vector<Vec> pts(d + 1, x);
  for (std::size_t i = 0; i < d; ++i) pts[i + 1][i] += opt.initial_step;
  std::vector<double> vals(d + 1);
  for (std::size_t i = 0; i <= d; ++i) vals[i] = f(pts[i]);

  NelderMeadResult result;
  auto order = [&] {
    std::vector<std::size_t> idx(d + 1);
    std::iota(idx.begin(), idx.end(), 0);
    std::sort(idx.begin(), idx.end(),
              [&](std::size_t a, std::size_t b) { return vals[a] < vals[b]; });
    return idx;
  };

  for (std::size_t iter = 0; iter < opt.max_iterations; ++iter) {
    const auto idx = order();
    const std::size_t best = idx[0];
    const std::size_t worst = idx[d];
    const std::size_t second_worst = idx[d - 1];

    if (std::abs(vals[worst] - vals[best]) <= opt.f_tolerance) {
      result.converged = true;
      result.iterations = iter;
      break;
    }

    Vec centroid(d, 0.0);
    for (std::size_t i = 0; i <= d; ++i) {
      if (i == worst) continue;
      for (std::size_t k = 0; k < d; ++k) centroid[k] += pts[i][k];
    }
    for (double& c : centroid) c /= static_cast<double>(d);

    const Vec xr = coord::Lerp(pts[worst], centroid, 1.0 + opt.reflection);
    const double fr = f(xr);
    if (fr < vals[best]) {
      const Vec xe = coord::Lerp(pts[worst], centroid, 1.0 + opt.expansion);
      const double fe = f(xe);
      if (fe < fr) {
        pts[worst] = xe;
        vals[worst] = fe;
      } else {
        pts[worst] = xr;
        vals[worst] = fr;
      }
    } else if (fr < vals[second_worst]) {
      pts[worst] = xr;
      vals[worst] = fr;
    } else {
      const bool outside = fr < vals[worst];
      const Vec base = outside ? xr : pts[worst];
      const Vec xc = coord::Lerp(base, centroid, 1.0 - opt.contraction);
      const double fc = f(xc);
      if (fc < std::min(fr, vals[worst])) {
        pts[worst] = xc;
        vals[worst] = fc;
      } else {
        for (std::size_t i = 0; i <= d; ++i) {
          if (i == best) continue;
          pts[i] = coord::Lerp(pts[best], pts[i], opt.shrink);
          vals[i] = f(pts[i]);
        }
      }
    }
    result.iterations = iter + 1;
  }

  const auto idx = order();
  x = pts[idx[0]];
  result.best_value = vals[idx[0]];
  return result;
}

LeafsetCoordSystem::LeafsetCoordSystem(const dht::Ring& ring,
                                       LeafsetCoordOptions options,
                                       util::Rng& rng)
    : ring_(ring), options_(options), rng_(rng) {
  coords_.resize(ring_.size());
  for (auto& c : coords_) {
    c.resize(options_.dimensions);
    for (double& v : c) v = rng_.Uniform(0.0, options_.init_range);
  }
}

double LeafsetCoordSystem::ErrorTerm(double predicted, double measured) const {
  switch (options_.objective) {
    case coord::CoordObjective::kAbsoluteL1:
      return std::abs(predicted - measured);
    case coord::CoordObjective::kRelativeL1:
      return measured > 0.0 ? std::abs(predicted - measured) / measured : 0.0;
    case coord::CoordObjective::kSquaredRelative: {
      if (measured <= 0.0) return 0.0;
      const double rel = (predicted - measured) / measured;
      return rel * rel;
    }
  }
  return 0.0;
}

void LeafsetCoordSystem::OptimizeNode(
    dht::NodeIndex n,
    const std::vector<std::pair<dht::NodeIndex, double>>& measurements) {
  if (measurements.empty()) return;
  std::vector<Vec> neighbour_coords;
  neighbour_coords.reserve(measurements.size());
  for (const auto& [m, delay] : measurements) {
    (void)delay;
    neighbour_coords.push_back(coords_[m]);
  }
  auto objective = [&](const Vec& x) {
    double err = 0.0;
    for (std::size_t i = 0; i < measurements.size(); ++i) {
      const double pred = coord::Distance(x, neighbour_coords[i]);
      err += ErrorTerm(pred, measurements[i].second);
    }
    return err;
  };
  Vec x = coords_[n];
  coordref::Minimize(objective, x, options_.nm);
  coords_[n] = coord::Lerp(coords_[n], x, options_.damping);
  ++updates_;
}

void LeafsetCoordSystem::Bootstrap() {
  bootstrapped_ = true;
  std::vector<dht::NodeIndex> order = ring_.SortedAlive();
  rng_.Shuffle(order);

  std::vector<dht::LeafsetEntry> placed;
  placed.reserve(order.size());
  const std::size_t per_side = ring_.per_side();

  for (const dht::NodeIndex n : order) {
    const dht::NodeId id = ring_.node(n).id();
    if (!placed.empty()) {
      const auto it = std::lower_bound(
          placed.begin(), placed.end(), id,
          [](const dht::LeafsetEntry& e, dht::NodeId v) { return e.id < v; });
      const std::size_t pos = static_cast<std::size_t>(it - placed.begin());
      const std::size_t m = placed.size();
      const std::size_t take = std::min(per_side, m);
      std::vector<std::pair<dht::NodeIndex, double>> meas;
      std::vector<char> used(m, 0);
      for (std::size_t k = 0; k < take; ++k) {
        const std::size_t succ = (pos + k) % m;
        const std::size_t pred = (pos + m - 1 - k) % m;
        for (const std::size_t p : {succ, pred}) {
          if (used[p]) continue;
          used[p] = 1;
          double delay = Measured(n, placed[p].node);
          if (options_.measurement_noise > 0.0) {
            delay *= rng_.Uniform(1.0 - options_.measurement_noise,
                                  1.0 + options_.measurement_noise);
          }
          meas.emplace_back(placed[p].node, delay);
        }
      }
      auto objective = [&](const Vec& x) {
        double err = 0.0;
        for (const auto& [peer, d] : meas)
          err += ErrorTerm(coord::Distance(x, coords_[peer]), d);
        return err;
      };
      Vec x = coords_[n];
      coordref::Minimize(objective, x, options_.nm);
      coords_[n] = std::move(x);
      ++updates_;
      placed.insert(placed.begin() + static_cast<std::ptrdiff_t>(pos),
                    {id, n});
    } else {
      placed.push_back({id, n});
    }
  }
}

void LeafsetCoordSystem::RunRounds(std::size_t rounds) {
  if (options_.incremental_bootstrap && !bootstrapped_) Bootstrap();
  std::vector<dht::NodeIndex> order = ring_.SortedAlive();
  for (std::size_t r = 0; r < rounds; ++r) {
    rng_.Shuffle(order);
    for (const dht::NodeIndex n : order) {
      std::vector<std::pair<dht::NodeIndex, double>> meas;
      for (const auto& e : ring_.node(n).leafset().Members()) {
        if (!ring_.node(e.node).alive()) continue;
        double delay = Measured(n, e.node);
        if (options_.measurement_noise > 0.0) {
          delay *= rng_.Uniform(1.0 - options_.measurement_noise,
                                1.0 + options_.measurement_noise);
        }
        meas.emplace_back(e.node, delay);
      }
      OptimizeNode(n, meas);
    }
  }
}

}  // namespace p2p::coordref
