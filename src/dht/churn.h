// Churn driver: Poisson join and failure processes over a Ring. Only the
// stress and heartbeat tests drive it; the SOMO self-healing experiment
// (E8, `p2ppool_cli somo-repair`) crashes one burst of nodes at once.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "dht/heartbeat.h"
#include "dht/ring.h"
#include "sim/simulation.h"

namespace p2p::dht {

class ChurnProcess {
 public:
  struct Config {
    // Mean inter-arrival times (ms) of the Poisson processes; a rate of 0
    // disables that process.
    double mean_join_interval_ms = 0.0;
    double mean_fail_interval_ms = 0.0;
    // Hosts available for joiners (cycled through round-robin).
    std::vector<net::HostIdx> join_hosts;
    // Never fail below this many alive nodes.
    std::size_t min_alive = 4;
  };

  // `heartbeat` may be null; when present, joiners are registered with it.
  ChurnProcess(sim::Simulation& sim, Ring& ring, Config config,
               HeartbeatProtocol* heartbeat = nullptr);

  void Start();
  void Stop();

  std::size_t joins() const { return joins_; }
  std::size_t failures() const { return failures_; }

  // Invoked after each join/failure with the affected node index.
  std::function<void(NodeIndex)> on_join;
  std::function<void(NodeIndex)> on_fail;

 private:
  void ScheduleJoin();
  void ScheduleFail();

  sim::Simulation& sim_;
  Ring& ring_;
  Config config_;
  HeartbeatProtocol* heartbeat_;
  bool running_ = false;
  std::size_t joins_ = 0;
  std::size_t failures_ = 0;
  std::size_t next_host_ = 0;
  std::uint64_t join_salt_ = 1;
};

}  // namespace p2p::dht
