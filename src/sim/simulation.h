// Simulation kernel: owns the virtual clock, the event queue, the per-run
// random stream, and the Transport message bus. Protocol objects (DHT
// heartbeats, SOMO gather, packet-pair probes) send inter-host messages
// through transport(); purely local timers still schedule callbacks
// directly against this kernel.
#pragma once

#include <cstdint>
#include <limits>

#include "obs/metrics.h"
#include "sim/event_queue.h"
#include "sim/transport.h"
#include "util/rng.h"

namespace p2p::sim {

class Simulation {
 public:
  explicit Simulation(std::uint64_t seed = 1) : rng_(seed) {
    run_profile_ = &metrics_.profile("event_loop.run_ms");
  }

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  Time now() const { return now_; }
  util::Rng& rng() { return rng_; }

  // The message bus all inter-host protocol traffic goes through.
  Transport& transport() { return transport_; }
  const Transport& transport() const { return transport_; }

  // Per-run metrics registry. Protocol layers instrument through it
  // unconditionally (counter bumps, no RNG — seeded runs stay
  // bit-identical); the transport's hot-path counters are opt-in via
  // EnableMetrics so the bus benchmark can price them.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  // Wire the transport's per-protocol counters into metrics().
  void EnableMetrics() { transport_.set_metrics(&metrics_); }

  // Schedule at absolute virtual time (>= now).
  EventId At(Time t, EventQueue::Callback cb);
  // Schedule `dt` ms from now (dt >= 0).
  EventId After(Time dt, EventQueue::Callback cb);
  // Schedule a repeating event every `period` ms, first firing after
  // `initial_delay`. Backed by a first-class periodic timer: one event
  // record lives for the timer's whole lifetime and each firing re-arms it
  // in place. Periodic callbacks receive no arguments; to stop from inside
  // the callback, call CancelPeriodic with the returned token.
  struct PeriodicToken {
    EventId id = kInvalidEventId;
    EventQueue* queue = nullptr;
  };
  PeriodicToken Every(Time period, Time initial_delay,
                      EventQueue::Callback cb);
  static void CancelPeriodic(PeriodicToken& token);

  bool Cancel(EventId id) { return queue_.Cancel(id); }
  // Move a pending event's deadline (>= now) in place — the
  // allocation-free replacement for Cancel + At.
  bool Rearm(EventId id, Time t);

  // Run a single event; returns false if the queue was empty.
  bool Step();
  // Run until the queue drains or virtual time would exceed `t_end`.
  // Events at exactly t_end still run. Returns the number of events fired.
  std::size_t RunUntil(Time t_end);
  // Drain the queue completely (use RunUntil for open-ended protocols that
  // reschedule themselves forever). `max_events` is a runaway backstop.
  std::size_t Run(std::size_t max_events =
                      std::numeric_limits<std::size_t>::max());

  std::size_t pending_events() const { return queue_.size(); }
  std::size_t fired_events() const { return fired_; }

 private:
  EventQueue queue_;
  Time now_ = 0.0;
  std::size_t fired_ = 0;
  util::Rng rng_;
  obs::MetricsRegistry metrics_;
  // Wall-clock cost of each RunUntil/Run batch (profile section).
  obs::Histogram* run_profile_ = nullptr;
  Transport transport_{*this};
};

}  // namespace p2p::sim
