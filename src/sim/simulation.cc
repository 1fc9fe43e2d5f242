#include "sim/simulation.h"

#include <utility>

#include "obs/scope_timer.h"

namespace p2p::sim {

EventId Simulation::At(Time t, EventQueue::Callback cb) {
  P2P_CHECK_MSG(t >= now_, "cannot schedule in the past: t=" << t << " now="
                                                             << now_);
  return queue_.Schedule(t, std::move(cb));
}

EventId Simulation::After(Time dt, EventQueue::Callback cb) {
  P2P_CHECK_MSG(dt >= 0.0, "negative delay " << dt);
  return At(now_ + dt, std::move(cb));
}

Simulation::PeriodicToken Simulation::Every(Time period, Time initial_delay,
                                            EventQueue::Callback cb) {
  P2P_CHECK(period > 0.0);
  P2P_CHECK(initial_delay >= 0.0);
  const EventId id =
      queue_.SchedulePeriodic(now_ + initial_delay, period, std::move(cb));
  return PeriodicToken{id, &queue_};
}

void Simulation::CancelPeriodic(PeriodicToken& token) {
  if (token.queue != nullptr) token.queue->Cancel(token.id);
  token.queue = nullptr;
}

bool Simulation::Rearm(EventId id, Time t) {
  P2P_CHECK_MSG(t >= now_, "cannot rearm into the past: t=" << t << " now="
                                                            << now_);
  return queue_.Rearm(id, t);
}

bool Simulation::Step() {
  if (queue_.empty()) return false;
  auto fired = queue_.Pop();
  P2P_DCHECK(fired.time >= now_);
  now_ = fired.time;
  ++fired_;
  if (fired.is_periodic()) {
    (*fired.periodic)();
    queue_.FinishPeriodic(fired.id);
  } else {
    fired.cb();
  }
  return true;
}

std::size_t Simulation::RunUntil(Time t_end) {
  obs::ScopeTimer timer(run_profile_);
  std::size_t n = 0;
  // One batched drain instead of a peek+pop round trip per event; the
  // queue re-arms periodic timers itself on this path.
  queue_.PopAllUpTo(t_end, [&](EventQueue::Fired& fired) {
    P2P_DCHECK(fired.time >= now_);
    now_ = fired.time;
    ++fired_;
    ++n;
    if (fired.is_periodic()) {
      (*fired.periodic)();
    } else {
      fired.cb();
    }
  });
  // Advance the clock to t_end even if no event lands exactly there, so
  // successive RunUntil calls observe monotonically increasing time.
  if (t_end > now_) now_ = t_end;
  // Deterministic slab telemetry: event populations are seed-driven, so
  // these gauges are comparable across same-seed runs.
  metrics_.gauge("kernel.slab_hwm")
      .Set(static_cast<double>(queue_.slab_high_water()));
  metrics_.gauge("kernel.slab_slots")
      .Set(static_cast<double>(queue_.slab_capacity()));
  return n;
}

std::size_t Simulation::Run(std::size_t max_events) {
  obs::ScopeTimer timer(run_profile_);
  std::size_t n = 0;
  while (n < max_events && Step()) ++n;
  return n;
}

}  // namespace p2p::sim
