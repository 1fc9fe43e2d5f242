// Minimal model of sim::EventQueue's ordering contract, kept for the
// randomized differential test the way somo_map_ref keeps the map-based
// SOMO protocol: an ordered set keyed by (time, seq) plus, per handle, the
// period and lifecycle state. No buckets, no cascades, no slab, no lazy
// compaction — every operation edits the set directly, so its pop order is
// the contract by construction. tests/sim_kernel_test.cc drives the timing
// wheel and this model through one random workload and compares pop order
// (by handle), the results of Cancel, Rearm and FinishPeriodic, and sizes.
//
// Handles number events in scheduling order (0, 1, 2, ...); the test keeps
// the handle -> EventId mapping. Seq consumption mirrors the queue: one
// per Schedule/SchedulePeriodic, per Rearm of a pending event, and per
// FinishPeriodic re-arm.
#pragma once

#include <cstddef>
#include <cstdint>
#include <set>
#include <tuple>
#include <vector>

#include "util/check.h"

namespace p2p::eventqref {

class EventQueueModel {
 public:
  using Handle = std::size_t;

  struct Fired {
    double time = 0.0;
    Handle handle = 0;
    bool periodic = false;
  };

  Handle Schedule(double t) { return Add(t, -1.0); }
  Handle SchedulePeriodic(double first, double period) {
    return Add(first, period);
  }

  bool Cancel(Handle h) {
    Event& e = events_.at(h);
    switch (e.state) {
      case State::kScheduled:
        order_.erase(Key(h));
        e.state = State::kDone;
        --live_;
        return true;
      case State::kFiring:  // a periodic inside its own callback
        e.state = State::kStopped;
        --live_;
        return true;
      case State::kStopped:
      case State::kDone:
        return false;
    }
    return false;
  }

  bool Rearm(Handle h, double t) {
    Event& e = events_.at(h);
    switch (e.state) {
      case State::kScheduled:
        order_.erase(Key(h));
        e.seq = next_seq_++;
        e.time = t;
        order_.insert(Key(h));
        return true;
      case State::kFiring:  // overrides the upcoming deadline + period
        e.time = t;
        e.rearmed = true;
        return true;
      case State::kStopped:
      case State::kDone:
        return false;
    }
    return false;
  }

  bool empty() const { return live_ == 0; }
  std::size_t size() const { return live_; }

  double PeekTime() const {
    P2P_CHECK(!order_.empty());
    return std::get<0>(*order_.begin());
  }

  // Pops the earliest (time, seq). A one-shot is done; a periodic stays
  // firing until FinishPeriodic.
  Fired Pop() {
    P2P_CHECK(!order_.empty());
    const Handle h = std::get<2>(*order_.begin());
    order_.erase(order_.begin());
    Event& e = events_[h];
    const bool periodic = e.period > 0.0;
    if (periodic) {
      e.state = State::kFiring;
    } else {
      e.state = State::kDone;
      --live_;
    }
    return Fired{e.time, h, periodic};
  }

  bool FinishPeriodic(Handle h) {
    Event& e = events_.at(h);
    if (e.state == State::kStopped) {
      e.state = State::kDone;
      return false;
    }
    P2P_CHECK(e.state == State::kFiring);
    if (!e.rearmed) e.time += e.period;
    e.rearmed = false;
    e.state = State::kScheduled;
    e.seq = next_seq_++;
    order_.insert(Key(h));
    return true;
  }

 private:
  enum class State { kScheduled, kFiring, kStopped, kDone };
  struct Event {
    double time = 0.0;
    std::uint64_t seq = 0;
    double period = -1.0;  // < 0: one-shot
    State state = State::kScheduled;
    bool rearmed = false;
  };
  using OrderKey = std::tuple<double, std::uint64_t, Handle>;

  Handle Add(double t, double period) {
    const Handle h = events_.size();
    events_.push_back(Event{t, next_seq_++, period});
    order_.insert(Key(h));
    ++live_;
    return h;
  }
  OrderKey Key(Handle h) const {
    return {events_[h].time, events_[h].seq, h};
  }

  std::vector<Event> events_;
  std::set<OrderKey> order_;
  std::uint64_t next_seq_ = 1;
  std::size_t live_ = 0;
};

}  // namespace p2p::eventqref
