// Leafset-based network coordinates (paper §4.1): the landmark-free variant
// where each DHT node measures delays to its leafset members over ordinary
// heartbeats, learns its neighbours' current coordinates from the same
// messages, and refines its own coordinate with downhill simplex minimising
//   E(x) = Σ_i |d_p(i) − d_m(i)|
// the paper's exact L1 objective.
//
// Two drive modes:
//  * RunRounds(n): synchronous sweeps (used by the Figure-4 harness, where
//    the protocol has converged and only the embedding quality matters);
//  * AttachTo(heartbeat): event-driven updates from real simulated
//    heartbeat deliveries (used by integration tests; converges to the
//    same embedding).
#pragma once

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "coord/nelder_mead.h"
#include "coord/vec.h"
#include "dht/heartbeat.h"
#include "dht/ring.h"
#include "util/rng.h"

namespace p2p::coord {

// Local-fit objective for the per-node simplex update.
//  * kAbsoluteL1 is the formula printed in the paper: E(x)=Σ|dp−dm|. It
//    fits long (inter-domain) links well but leaves large *relative* error
//    on short pairs.
//  * kSquaredRelative normalises each term by the measured delay, matching
//    the objective GNP itself optimises; this reproduces the accuracy the
//    paper reports for the leafset variant (Figure 4: leafset-32 ≈ GNP-16)
//    and is the default. See DESIGN.md §4 for the rationale.
enum class CoordObjective {
  kAbsoluteL1,
  kRelativeL1,
  kSquaredRelative,
};

struct LeafsetCoordOptions {
  std::size_t dimensions = 5;
  double init_range = 400.0;
  CoordObjective objective = CoordObjective::kSquaredRelative;
  // Multiplicative measurement noise: each measured delay is scaled by a
  // value uniform in [1-noise, 1+noise] (0 = perfect packet timestamps).
  double measurement_noise = 0.0;
  // Damping of each local update: the node moves this fraction of the way
  // from its current coordinate to the locally-optimal one. Full jumps
  // (1.0) against simultaneously-moving neighbours fold the embedding;
  // partial steps let a globally consistent solution emerge (the same
  // reason Vivaldi-style systems move in small increments).
  double damping = 0.5;
  // PIC-style incremental bootstrap (the paper builds on PIC/Lighthouse):
  // before the first refinement round, nodes are placed one at a time in
  // random order, each fitting only against already-placed leafset
  // members. Pure simultaneous best-response from random positions folds
  // the embedding (locally consistent, globally wrong); the incremental
  // pass gives the refinement rounds a globally consistent scaffold.
  bool incremental_bootstrap = true;
  // Event-driven mode: re-optimise after this many fresh observations.
  std::size_t observations_per_update = 8;
  NelderMeadOptions nm;
};

class LeafsetCoordSystem {
 public:
  // The ring must have a latency oracle (it provides the "measured" delays).
  LeafsetCoordSystem(const dht::Ring& ring, LeafsetCoordOptions options,
                     util::Rng& rng);

  // Synchronous mode: `rounds` full sweeps; within a sweep nodes update in
  // random order, each seeing neighbours' latest coordinates (Gauss–Seidel).
  // With a thread pool on the ring (Ring::set_thread_pool), the simplex
  // fits of this pass and of Bootstrap run as dependency levels across the
  // pool; the coordinates are bit-identical to the serial sweep at any
  // thread count (see docs/PROTOCOLS.md).
  void RunRounds(std::size_t rounds);

  // Event-driven mode: subscribe to heartbeat deliveries.
  void AttachTo(dht::HeartbeatProtocol& heartbeat);

  // PIC-style incremental placement pass (run automatically before the
  // first RunRounds when options.incremental_bootstrap is set).
  void Bootstrap();

  const Vec& coord(dht::NodeIndex n) const { return coords_.at(n); }
  // Override a node's coordinate (testing / warm-start).
  void SetCoord(dht::NodeIndex n, Vec c) {
    P2P_CHECK_MSG(c.size() == options_.dimensions,
                  "coordinate has " << c.size() << " dimensions, expected "
                                    << options_.dimensions);
    coords_.at(n) = std::move(c);
  }
  double Predict(dht::NodeIndex a, dht::NodeIndex b) const {
    return Distance(coords_.at(a), coords_.at(b));
  }
  double Measured(dht::NodeIndex a, dht::NodeIndex b) const;

  std::size_t updates_performed() const { return updates_; }

 private:
  // One synchronous pass, as its serial planning step leaves it: every RNG
  // draw made, every node's peers chosen and its dependency level set.
  struct Sweep {
    std::vector<dht::NodeIndex> order;    // nodes in sweep order
    std::vector<int> level;               // per position; -1: no fit
    std::vector<std::size_t> peer_begin;  // per position, into peers (+1)
    std::vector<dht::NodeIndex> peers;    // in measurement order
    std::vector<double> noise;            // per peer, when noisy
  };
  // One fit's working set, reused across the fits of a worker's chunk.
  struct FitScratch {
    std::vector<std::pair<dht::NodeIndex, double>> meas;  // (peer, delay)
    std::vector<double> peer_coords;  // meas' peers' coordinates, flat
    Vec x;                            // the fitted point
  };

  double ErrorTerm(double predicted, double measured) const;
  // Downhill-simplex fit of node n's coordinate against s.meas, predicting
  // from the peers' current coordinates. Leaves the fitted point in s.x
  // and writes no coordinate.
  void Fit(dht::NodeIndex n, FitScratch& s) const;
  // Fits every position of the sweep against its peers, one level after
  // another; a level's fits fan out across the ring's pool. Each node then
  // moves the damping fraction toward its fit, or onto it when !damped.
  void RunSweep(const Sweep& sweep, bool damped);
  void OnHeartbeat(dht::NodeIndex from, dht::NodeIndex to, sim::Time send_t,
                   sim::Time recv_t);

  const dht::Ring& ring_;
  LeafsetCoordOptions options_;
  util::Rng& rng_;
  std::vector<Vec> coords_;
  std::size_t updates_ = 0;
  bool bootstrapped_ = false;

  // Event-driven state: per node, the latest (delay, sender coordinate)
  // observation per leafset member, plus a counter of fresh observations.
  struct Observation {
    double delay_ms;
    Vec sender_coord;
  };
  std::vector<std::unordered_map<dht::NodeIndex, Observation>> inbox_;
  std::vector<std::size_t> fresh_;
};

}  // namespace p2p::coord
