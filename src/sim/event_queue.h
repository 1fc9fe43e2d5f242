// Discrete-event scheduler: the kernel hot path of every simulation.
//
// Events are (time, seq)-ordered; ties on time break by insertion order
// (seq), which makes simulations deterministic. The order is kept by a
// hierarchical timing wheel (Varghese & Lauck): three levels of 256
// power-of-two-millisecond buckets (1 ms / 256 ms / 65,536 ms per slot,
// ~4.7 h horizon), entries cascading down as the clock approaches, with a
// far-future overflow min-heap beyond the horizon. Schedule/cancel/pop are
// amortized O(1) for the timer-heavy workloads the protocol stack
// generates. tests/sim_kernel_test.cc pins the pop order against a
// minimal ordered-set model (tests/reference/event_queue_ref.h) with
// randomized differential runs.
//
// Event records live in a slab (stable storage, freelist-recycled) and
// callbacks are util::InlineFn, so steady-state scheduling performs no
// allocation for closures up to 48 bytes. Periodic timers are first-class:
// SchedulePeriodic keeps one record alive across firings and Rearm/
// FinishPeriodic move its deadline in place, replacing the historical
// cancel-and-reschedule churn that heap compaction existed to fight.
//
// Ordering contract: callers never schedule earlier than the time of the
// last popped event. The owning Simulation enforces t >= now; the raw
// queue CHECKs only t >= 0 and finiteness.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <type_traits>
#include <vector>

#include "util/check.h"
#include "util/inline_fn.h"

namespace p2p::sim {

// Simulated time in milliseconds. All paper parameters (link latencies,
// heartbeat periods, SOMO reporting intervals) are given in ms or s.
using Time = double;

using EventId = std::uint64_t;
inline constexpr EventId kInvalidEventId = 0;

class EventQueue {
 public:
  using Callback = util::InlineFn;

  EventQueue();
  ~EventQueue();

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Schedule `cb` at absolute time `t` (must be finite, >= 0, and >= the
  // last popped event's time — the owning Simulation enforces the
  // stronger t >= now). Returns an id usable with Cancel()/Rearm().
  EventId Schedule(Time t, Callback cb);

  // First-class periodic timer: fires at `first`, then every `period` ms.
  // The callback is stored once for the timer's whole lifetime; each
  // firing re-arms the same record in place (fresh seq, no reallocation).
  // Cancel(id) stops future firings; Rearm(id, t) moves the next deadline.
  EventId SchedulePeriodic(Time first, Time period, Callback cb);

  // Cancel a pending event (or stop a periodic timer, including from
  // inside its own callback). Returns false if the event already fired,
  // was already cancelled, or never existed.
  bool Cancel(EventId id);

  // Move a pending event's (or a periodic timer's next) deadline to `t`
  // in place: same id, same stored callback, fresh FIFO seq — the
  // allocation-free replacement for Cancel+Schedule. Also valid from
  // inside a periodic timer's own callback (overrides the deadline+period
  // re-arm). Returns false for unknown/already-fired ids.
  bool Rearm(EventId id, Time t);

  bool empty() const { return live_count_ == 0; }
  std::size_t size() const { return live_count_; }

  // Entries currently held by the wheel, live or cancelled. Bounded by
  // 2 * size() + 1: buckets cancel eagerly, and only the overflow heap
  // carries garbage, compacting at the half-full mark.
  std::size_t heap_footprint() const;

  // Time of the earliest live event. Requires !empty().
  Time PeekTime() const;

  // Pop the earliest live event. Requires !empty().
  //
  // One-shot events hand their callback out by move (`cb`). Periodic
  // events instead expose a pointer to the stored callback (`periodic`,
  // stable for the duration of the firing); after running it the driver
  // must call FinishPeriodic(id) to re-arm the timer.
  struct Fired {
    Time time = 0.0;
    EventId id = kInvalidEventId;
    Callback cb;
    Callback* periodic = nullptr;
    bool is_periodic() const { return periodic != nullptr; }
  };
  Fired Pop();

  // Complete a periodic firing: re-arms the timer at deadline + period
  // (or at the Rearm()ed time) unless it was cancelled from inside the
  // callback. Returns true when the timer is live again.
  bool FinishPeriodic(EventId id);

  // Drain every event with time <= t_end into `sink`, in (time, seq)
  // order — the wheel walks its due-run cursor inline instead of paying a
  // peek+pop round trip per event. EVERY firing — one-shot or
  // periodic — arrives with `periodic` pointing at the stored callback
  // (invoke-in-place: no 64-byte closure move per event); the sink runs
  // it through the pointer and must NOT call FinishPeriodic. One-shot
  // records are recycled after the sink returns (Cancel/Rearm on the
  // firing id report false, as if a Pop() driver had already freed it);
  // periodics are re-armed internally. Events the sink's callbacks
  // schedule at times <= t_end fire within the same drain, exactly as a
  // Pop() loop would.
  using SinkFn = void (*)(void* ctx, Fired& fired);
  void PopAllUpTo(Time t_end, void* ctx, SinkFn sink);

  template <typename F>
  void PopAllUpTo(Time t_end, F&& f) {
    PopAllUpTo(t_end, &f, [](void* ctx, Fired& fired) {
      (*static_cast<std::remove_reference_t<F>*>(ctx))(fired);
    });
  }

  // Slab footprint introspection: current record capacity, the most
  // records ever live at once, and the live count. Long simulations with
  // bursty phases (mass joins, churn storms) can watch slab_capacity()
  // fall back toward slab_high_water() / live after the burst drains —
  // FreeSlot opportunistically trims trailing free records.
  std::size_t slab_capacity() const { return slab_.size(); }
  std::size_t slab_high_water() const { return slab_hwm_; }

 private:
  enum class State : std::uint8_t {
    kFree,       // slab record on the freelist
    kScheduled,  // placed in the wheel
    kFiring,     // periodic popped, callback running, awaiting FinishPeriodic
    kStopped,    // periodic cancelled while firing; freed by FinishPeriodic
  };

  // Hot-field split, round two. Everything the queue machinery reads
  // about a pending event — ordering keys, generation, lifecycle state,
  // freelist link, and the wheel's location word — packs into one
  // 32-byte Key record (keys_ below), two per cache line, so serving a
  // wheel tick or recycling a fired record touches ONE line of metadata
  // instead of gathering time/seq/state/location from four parallel
  // arrays at random slot indices. What remains in the slab record is
  // exactly what the firing itself touches: the callback and its period,
  // packed into a single 64-byte line. Net: one fired one-shot costs two
  // cold lines (key + slab), and everything else it touches rides along
  // for free. The deque keeps callback addresses stable while they run
  // and schedule into a growing slab.
  struct alignas(64) Slot {
    Callback fn;
    Time period = -1.0;  // < 0: one-shot
  };
  static_assert(sizeof(Slot) == 64,
                "event slab record must stay one cache line");

  struct alignas(32) Key {
    Time time = 0.0;
    std::uint64_t seq = 0;
    // While scheduled: the wheel's location word (packed bucket/position).
    // While free: the freelist link.
    std::uint64_t loc = 0;
    std::uint32_t gen = 0;
    // State enum in the low bits, rearmed-while-firing flag in the top
    // bit (see kRearmedBit).
    std::uint8_t state = 0;
  };
  static_assert(sizeof(Key) == 32,
                "two key records per cache line, never straddling");

  class Wheel;

  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  // Slabs below this size are never trimmed — reclaiming a few KB is not
  // worth the freelist rebuild.
  static constexpr std::size_t kMinTrimSlots = 1024;

  // Ids pack (generation, slab index + 1); generation bumps on every free,
  // so a stale id can never cancel the record's next tenant. The +1 keeps
  // kInvalidEventId (0) unreachable.
  EventId IdOf(std::uint32_t slot) const {
    return (static_cast<EventId>(keys_[slot].gen) << 32) |
           (static_cast<EventId>(slot) + 1);
  }

  // Key::state packs the State enum in the low bits and the
  // rearmed-while-firing flag in the top bit, so a firing touches one
  // byte of metadata — in a line it has already pulled in.
  static constexpr std::uint8_t kRearmedBit = 0x80;
  State state(std::uint32_t slot) const {
    return static_cast<State>(keys_[slot].state & ~kRearmedBit);
  }
  void set_state(std::uint32_t slot, State s) {
    keys_[slot].state =
        static_cast<std::uint8_t>(s) | (keys_[slot].state & kRearmedBit);
  }
  bool rearmed_while_firing(std::uint32_t slot) const {
    return (keys_[slot].state & kRearmedBit) != 0;
  }
  void set_rearmed_while_firing(std::uint32_t slot, bool on) {
    if (on) {
      keys_[slot].state |= kRearmedBit;
    } else {
      keys_[slot].state &= static_cast<std::uint8_t>(~kRearmedBit);
    }
  }
  // Returns kNoSlot when the id does not name a current slab record.
  std::uint32_t SlotOf(EventId id) const;

  std::uint32_t AllocSlot();
  void FreeSlot(std::uint32_t slot);
  void MaybeTrimSlab();
  // Fire one already-popped slot through a PopAllUpTo sink.
  void EmitSlot(std::uint32_t slot, void* ctx, SinkFn sink);
  static void CheckTime(Time t);

  // std::deque: callbacks are invoked through pointers into the slab while
  // the callback itself schedules new events (growing the slab), so
  // records must never move.
  std::deque<Slot> slab_;
  // Slot-indexed record metadata (see Key above). Grown in lockstep with
  // slab_; accessed by index only, so vector reallocation on growth is
  // safe.
  std::vector<Key> keys_;
  std::unique_ptr<Wheel> wheel_;
  std::uint32_t free_head_ = kNoSlot;
  std::uint64_t next_seq_ = 1;
  std::size_t live_count_ = 0;
  std::size_t slab_hwm_ = 0;  // peak slab_.size()
  // Generations of trimmed trailing records, by absolute slot index. A
  // record that regrows at a trimmed index resumes from the retired
  // generation, so ids handed out to the pre-trim tenant still fail
  // SlotOf() against the new tenant.
  std::vector<std::uint32_t> retired_gen_;
  std::size_t frees_since_trim_ = 0;
};

}  // namespace p2p::sim
