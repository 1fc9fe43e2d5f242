// Retained serial leafset-coordinate passes, kept for the differential test
// the way somo_map_ref keeps the map-based SOMO protocol:
// `coordref::LeafsetCoordSystem` is LeafsetCoordSystem's Bootstrap and
// RunRounds exactly as they shipped before the level-scheduled parallel
// fits — one fit at a time in sweep order, noise drawn inline, neighbour
// coordinates snapshotted per fit — and `coordref::Minimize` is the
// downhill simplex as it was, allocating fresh vectors every iteration.
// tests/coord_differential_test.cc runs both on identical rings and seeds
// and pins every coordinate bit for bit.
//
// Options and the objective enum are reused from src/coord; only the
// passes and the optimiser, the things the schedule touched, are
// duplicated here. The event-driven mode is not: it never changed.
#pragma once

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "coord/leafset_coords.h"
#include "coord/nelder_mead.h"
#include "coord/vec.h"
#include "dht/ring.h"
#include "util/rng.h"

namespace p2p::coordref {

using coord::LeafsetCoordOptions;
using coord::NelderMeadOptions;
using coord::NelderMeadResult;
using coord::Vec;

NelderMeadResult Minimize(const std::function<double(const Vec&)>& f, Vec& x,
                          const NelderMeadOptions& options = {});

class LeafsetCoordSystem {
 public:
  LeafsetCoordSystem(const dht::Ring& ring, LeafsetCoordOptions options,
                     util::Rng& rng);

  void RunRounds(std::size_t rounds);
  void Bootstrap();

  const Vec& coord(dht::NodeIndex n) const { return coords_.at(n); }
  std::size_t updates_performed() const { return updates_; }

 private:
  double Measured(dht::NodeIndex a, dht::NodeIndex b) const {
    return ring_.LatencyBetween(a, b);
  }
  double ErrorTerm(double predicted, double measured) const;
  void OptimizeNode(dht::NodeIndex n,
                    const std::vector<std::pair<dht::NodeIndex, double>>&
                        measurements);

  const dht::Ring& ring_;
  LeafsetCoordOptions options_;
  util::Rng& rng_;
  std::vector<Vec> coords_;
  std::size_t updates_ = 0;
  bool bootstrapped_ = false;
};

}  // namespace p2p::coordref
