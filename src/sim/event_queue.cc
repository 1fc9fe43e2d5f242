#include "sim/event_queue.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <utility>
#include <vector>

namespace p2p::sim {

// ---------------------------------------------------------------------------
// Wheel — the hierarchical timing wheel. It owns only the ORDER of
// scheduled slab records; the records themselves (time, seq, callback,
// state) live in the queue's slab.
//
// Three levels of 256 buckets cover ticks (whole milliseconds) relative to
// the wheel clock `current_tick_`:
//
//   level 0: ticks sharing current_tick_ >> 8   (1 ms per bucket)
//   level 1: ticks sharing current_tick_ >> 16  (256 ms per bucket)
//   level 2: ticks sharing current_tick_ >> 24  (65,536 ms per bucket)
//   beyond:  overflow min-heap (lazy cancellation, compacting)
//
// Window alignment gives a total order across the structures: every level-0
// tick precedes every level-1 bucket, which precedes every level-2 bucket,
// which precedes everything in overflow. Advancing therefore never needs a
// global comparison — serve level 0, else cascade the first level-1/2
// bucket down, else jump the clock to the overflow minimum and drain its
// 2^24-tick window back into the wheel. Each entry cascades at most once
// per level, so scheduling is amortized O(1).
//
// Sub-millisecond ordering: the bucket granularity is 1 ms but event times
// are doubles, so serving a tick first moves its bucket into `due_`, sorted
// by exact (time, seq); pops walk `due_` with a cursor. Same-tick events
// scheduled *while the tick is being served* binary-insert at or after the
// cursor (callers never schedule before the last popped time, so the sorted
// order is preserved).
//
// Cancellation in buckets and due_ is eager (per-slot location tracking),
// so only the overflow heap carries garbage — that keeps heap_footprint()
// within the documented 2 * live + 1 bound. Overflow entries are
// (slot, seq) pairs naming one occurrence of one event, so a stale entry
// can never resurrect a cancelled or re-armed record.
// ---------------------------------------------------------------------------

class EventQueue::Wheel {
 public:
  explicit Wheel(EventQueue& q) : q_(q) { occ_.fill(0); }

  Wheel(const Wheel&) = delete;
  Wheel& operator=(const Wheel&) = delete;

  // `slot` is kScheduled with its final (time, seq) when Add is called.
  void Add(std::uint32_t slot) {
    Place(slot);
    // Keep the cached minimum correct: a strictly earlier arrival takes
    // over; on a time tie the incumbent wins (its seq is smaller).
    if (cache_ != kNoSlot && time_of(slot) < cache_time_) {
      cache_ = slot;
      cache_time_ = time_of(slot);
    }
  }

  // Called once the occurrence is already dead (seq bumped or state
  // changed), so an overflow compaction inside drops it.
  void Remove(std::uint32_t slot) {
    if (slot == cache_) cache_ = kNoSlot;
    const std::uint64_t w = word_of(slot);
    switch (KindOf(w)) {
      case kInBucket: {
        std::vector<std::uint32_t>& b = buckets_[BucketOf(w)];
        const std::uint32_t pos = PosOf(w);
        b[pos] = b.back();
        word_of(b[pos]) = PackLoc(kInBucket, BucketOf(w), pos);
        b.pop_back();
        --bucket_entries_;
        if (b.empty()) ClearBit(BucketOf(w));
        break;
      }
      case kInDue: {
        due_.erase(due_.begin() + PosOf(w));
        for (std::size_t i = PosOf(w); i < due_.size(); ++i) {
          word_of(due_[i].slot) =
              PackLoc(kInDue, 0, static_cast<std::uint32_t>(i));
        }
        // Cancelling the last pending entry must leave due_ truly empty
        // (not a served prefix with cursor == size): ServeBucketAsDue
        // swaps the next tick's bucket into due_ and relies on it.
        if (due_cursor_ >= due_.size()) {
          due_.clear();
          due_cursor_ = 0;
        }
        break;
      }
      case kInOverflow:
        ++ov_garbage_;
        // Each compaction discards at least half the heap, so the cost
        // amortises to O(1) per cancellation.
        if (ov_garbage_ > overflow_.size() / 2) CompactOverflow();
        break;
      case kNowhere:
        break;
    }
    word_of(slot) = kNowhere;
  }

  std::uint32_t PeekMin() {
    if (cache_ != kNoSlot) return cache_;
    // Read-only min: the ordered-hierarchy invariant means the earliest
    // entry is in due_, else the first occupied bucket of the lowest
    // occupied level, else the overflow top. No cascading here — peeking
    // must not move the wheel clock, or a later Schedule at a time between
    // now and the peeked event would land behind the clock.
    std::uint32_t best = kNoSlot;
    if (due_cursor_ < due_.size()) {
      best = due_[due_cursor_].slot;
    } else {
      for (int level = 0; level < 3 && best == kNoSlot; ++level) {
        const int idx = FindFirst(level);
        if (idx >= 0) best = MinOfBucket(buckets_[level * 256 + idx]);
      }
      if (best == kNoSlot) {
        DropOverflowGarbage();
        P2P_CHECK(!overflow_.empty());
        best = overflow_.front().slot;
      }
    }
    cache_ = best;
    cache_time_ = time_of(best);
    return best;
  }

  std::uint32_t PopMin() {
    cache_ = kNoSlot;
    for (;;) {
      if (due_cursor_ < due_.size()) {
        const std::uint32_t slot = due_[due_cursor_++].slot;
        word_of(slot) = kNowhere;
        if (due_cursor_ == due_.size()) {
          due_.clear();
          due_cursor_ = 0;
        }
        return slot;
      }
      const int i0 = FindFirst(0);
      if (i0 >= 0) {
        current_tick_ = (current_tick_ & ~0xffull) |
                        static_cast<std::uint64_t>(i0);
        ServeBucketAsDue(i0);
        continue;
      }
      const int j1 = FindFirst(1);
      if (j1 >= 0) {
        current_tick_ = (current_tick_ & ~0xffffull) |
                        (static_cast<std::uint64_t>(j1) << 8);
        CascadeBucket(256 + j1);
        continue;
      }
      const int j2 = FindFirst(2);
      if (j2 >= 0) {
        current_tick_ = (current_tick_ & ~0xffffffull) |
                        (static_cast<std::uint64_t>(j2) << 16);
        CascadeBucket(512 + j2);
        continue;
      }
      // Wheel empty: jump the clock to the overflow minimum and pull
      // everything in its 2^24-tick window back into the wheel. Safe
      // because all wheel windows are empty and overflow entries are the
      // only events left.
      DropOverflowGarbage();
      P2P_CHECK(!overflow_.empty());
      current_tick_ = TickOf(overflow_.front().time);
      while (!overflow_.empty()) {
        const OvItem top = overflow_.front();
        if (!Live(top.slot, top.seq)) {
          PopOverflowTop();
          --ov_garbage_;
          continue;
        }
        if ((TickOf(top.time) >> 24) != (current_tick_ >> 24)) break;
        PopOverflowTop();
        Place(top.slot);
      }
    }
  }

  std::size_t footprint() const {
    return bucket_entries_ + (due_.size() - due_cursor_) + overflow_.size();
  }

  // Batched drain: walk the due-run cursor inline — no peek/pop per
  // event — falling back to PeekMin/PopMin only when the wheel has to
  // advance or cascade. Sink callbacks may schedule, cancel, or re-arm
  // freely: the inner loop re-reads due_/due_cursor_ after every emit, and
  // InsertDue/Remove keep the served prefix invariant.
  void PopAllUpTo(Time t_end, void* ctx, EventQueue::SinkFn sink) {
    while (!q_.empty()) {
      while (due_cursor_ < due_.size()) {
        const DueItem& it = due_[due_cursor_];
        if (it.time > t_end) return;
        const std::uint32_t slot = it.slot;
        if (slot == cache_) cache_ = kNoSlot;
        ++due_cursor_;
        word_of(slot) = kNowhere;
        if (due_cursor_ == due_.size()) {
          due_.clear();
          due_cursor_ = 0;
        }
        q_.EmitSlot(slot, ctx, sink);
      }
      if (q_.empty()) return;
      const std::uint32_t slot = PeekMin();
      if (time_of(slot) > t_end) return;
      PopMin();  // advances the wheel clock / cascades, then pops `slot`
      q_.EmitSlot(slot, ctx, sink);
    }
  }

 private:
  // Flat ordering keys — the hot reads of every compare/sort/min scan.
  Time time_of(std::uint32_t slot) const { return q_.keys_[slot].time; }
  std::uint64_t seq_of(std::uint32_t slot) const { return q_.keys_[slot].seq; }
  // The per-slot location word; valid only while the slot is scheduled.
  std::uint64_t& word_of(std::uint32_t slot) { return q_.keys_[slot].loc; }
  // Is occurrence `seq` of slab record `slot` still scheduled? The
  // overflow heap cancels lazily and filters its entries through this.
  bool Live(std::uint32_t slot, std::uint64_t seq) const {
    return slot < q_.slab_.size() && q_.state(slot) == State::kScheduled &&
           q_.keys_[slot].seq == seq;
  }

  // Per-slot location, packed into the Key record's loc word so it
  // travels on the cache line the queue already touches: bits 0-7 kind,
  // 8-23 global bucket index (level * 256 + slot), 32-63 position within
  // the bucket vector or due_. kNowhere is 0 — a freshly allocated key
  // word reads as "not placed".
  enum LocKind : std::uint8_t { kNowhere, kInBucket, kInDue, kInOverflow };
  static LocKind KindOf(std::uint64_t w) {
    return static_cast<LocKind>(w & 0xff);
  }
  static std::uint16_t BucketOf(std::uint64_t w) {
    return static_cast<std::uint16_t>((w >> 8) & 0xffff);
  }
  static std::uint32_t PosOf(std::uint64_t w) {
    return static_cast<std::uint32_t>(w >> 32);
  }
  static std::uint64_t PackLoc(LocKind kind, std::uint16_t bucket,
                               std::uint64_t pos) {
    return static_cast<std::uint64_t>(kind) |
           (static_cast<std::uint64_t>(bucket) << 8) | (pos << 32);
  }
  struct OvItem {
    Time time;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  // Strict (time, seq) "fires later" order. std::push_heap and friends
  // build a max-heap, so heaping with this comparator keeps the earliest
  // overflow entry at the front.
  static bool FiresLater(const OvItem& a, const OvItem& b) {
    return a.time > b.time || (a.time == b.time && a.seq > b.seq);
  }
  // Dense due-run entry: the ordering keys ride alongside the slot so the
  // per-tick sort and the pop scan read contiguous 24-byte records instead
  // of gathering time_/seq_ at random slab indices per comparison.
  using DueItem = OvItem;

  // Casting a double >= 2^63 to uint64 is UB; times this far out (~127
  // millennia of simulated ms) collapse into one sentinel tick and order
  // purely by exact (time, seq) in the due list.
  static constexpr std::uint64_t kHugeTick = std::uint64_t{1} << 62;
  static std::uint64_t TickOf(Time t) {
    if (t >= 4.0e15) return kHugeTick;
    return static_cast<std::uint64_t>(t);
  }

  void Place(std::uint32_t slot) {
    const Time t = time_of(slot);
    const std::uint64_t tick = TickOf(t);
    if (tick <= current_tick_) {
      // The tick being served right now (or the sentinel tick).
      InsertDue(slot);
      return;
    }
    int bucket = -1;
    if ((tick >> 8) == (current_tick_ >> 8)) {
      bucket = static_cast<int>(tick & 0xff);
    } else if ((tick >> 16) == (current_tick_ >> 16)) {
      bucket = 256 + static_cast<int>((tick >> 8) & 0xff);
    } else if ((tick >> 24) == (current_tick_ >> 24)) {
      bucket = 512 + static_cast<int>((tick >> 16) & 0xff);
    }
    if (bucket < 0) {
      overflow_.push_back(OvItem{t, seq_of(slot), slot});
      std::push_heap(overflow_.begin(), overflow_.end(), FiresLater);
      word_of(slot) = kInOverflow;
      return;
    }
    std::vector<std::uint32_t>& b = buckets_[bucket];
    word_of(slot) = PackLoc(kInBucket, static_cast<std::uint16_t>(bucket),
                            b.size());
    b.push_back(slot);
    ++bucket_entries_;
    SetBit(bucket);
  }

  void InsertDue(std::uint32_t slot) {
    const Time st = time_of(slot);
    const std::uint64_t ss = seq_of(slot);
    // Binary insert by (time, seq), clamped to at or after the cursor so
    // already-served positions are never disturbed.
    std::size_t lo = due_cursor_;
    std::size_t hi = due_.size();
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      const DueItem& m = due_[mid];
      if (m.time < st || (m.time == st && m.seq < ss)) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    due_.insert(due_.begin() + lo, DueItem{st, ss, slot});
    for (std::size_t i = lo; i < due_.size(); ++i) {
      word_of(due_[i].slot) =
          PackLoc(kInDue, 0, static_cast<std::uint32_t>(i));
    }
  }

  // Level-0 bucket `idx` holds exactly one tick; move it into due_ sorted
  // by exact (time, seq).
  void ServeBucketAsDue(int idx) {
    std::vector<std::uint32_t>& b = buckets_[idx];
    // due_ is empty and cursor 0 whenever the wheel advances; gather the
    // bucket's keys into dense records so the sort never leaves the run.
    due_.clear();
    due_.reserve(b.size());
    for (const std::uint32_t slot : b) {
      due_.push_back(DueItem{time_of(slot), seq_of(slot), slot});
    }
    bucket_entries_ -= b.size();
    b.clear();
    ClearBit(idx);
    std::sort(due_.begin(), due_.end(),
              [](const DueItem& x, const DueItem& y) {
                return x.time < y.time || (x.time == y.time && x.seq < y.seq);
              });
    due_cursor_ = 0;
    for (std::size_t i = 0; i < due_.size(); ++i) {
      word_of(due_[i].slot) =
          PackLoc(kInDue, 0, static_cast<std::uint32_t>(i));
    }
  }

  // Re-place every entry of a level-1/2 bucket after the clock advanced to
  // its base tick; entries land one level down (or in due_ for the base
  // tick itself).
  void CascadeBucket(int idx) {
    std::vector<std::uint32_t>& b = buckets_[idx];
    scratch_.clear();
    scratch_.swap(b);
    bucket_entries_ -= scratch_.size();
    ClearBit(idx);
    for (const std::uint32_t slot : scratch_) Place(slot);
  }

  std::uint32_t MinOfBucket(const std::vector<std::uint32_t>& b) const {
    std::uint32_t best = kNoSlot;
    for (const std::uint32_t slot : b) {
      if (best == kNoSlot) {
        best = slot;
        continue;
      }
      const Time ts = time_of(slot);
      const Time tb = time_of(best);
      if (ts < tb || (ts == tb && seq_of(slot) < seq_of(best))) best = slot;
    }
    return best;
  }

  void SetBit(int bucket) {
    occ_[static_cast<std::size_t>(bucket) >> 6] |=
        std::uint64_t{1} << (bucket & 63);
  }
  void ClearBit(int bucket) {
    occ_[static_cast<std::size_t>(bucket) >> 6] &=
        ~(std::uint64_t{1} << (bucket & 63));
  }
  // First occupied bucket of `level`, as an intra-level index, or -1.
  int FindFirst(int level) const {
    for (int w = 0; w < 4; ++w) {
      const std::uint64_t word = occ_[level * 4 + w];
      if (word != 0) return w * 64 + std::countr_zero(word);
    }
    return -1;
  }

  void PopOverflowTop() {
    std::pop_heap(overflow_.begin(), overflow_.end(), FiresLater);
    overflow_.pop_back();
  }
  void DropOverflowGarbage() {
    while (!overflow_.empty() &&
           !Live(overflow_.front().slot, overflow_.front().seq)) {
      PopOverflowTop();
      --ov_garbage_;
    }
  }
  void CompactOverflow() {
    std::erase_if(overflow_, [this](const OvItem& it) {
      return !Live(it.slot, it.seq);
    });
    std::make_heap(overflow_.begin(), overflow_.end(), FiresLater);
    ov_garbage_ = 0;
  }

  EventQueue& q_;
  std::uint64_t current_tick_ = 0;
  std::array<std::vector<std::uint32_t>, 768> buckets_;
  std::array<std::uint64_t, 12> occ_;  // 256-bit occupancy bitmap per level
  std::size_t bucket_entries_ = 0;
  std::vector<DueItem> due_;  // current tick, sorted by (time, seq)
  std::size_t due_cursor_ = 0;
  std::vector<OvItem> overflow_;  // beyond-horizon min-heap (lazy cancel)
  std::size_t ov_garbage_ = 0;
  std::vector<std::uint32_t> scratch_;
  // Cached result of PeekMin, invalidated by pops and by removal of the
  // cached slot; keeps RunUntil's peek-then-pop loop O(1) per event.
  std::uint32_t cache_ = kNoSlot;
  Time cache_time_ = 0.0;
};

// ---------------------------------------------------------------------------
// EventQueue: the slab, ids and record lifecycle around the wheel
// ---------------------------------------------------------------------------

EventQueue::EventQueue() : wheel_(std::make_unique<Wheel>(*this)) {}

EventQueue::~EventQueue() = default;

void EventQueue::CheckTime(Time t) {
  P2P_CHECK_MSG(std::isfinite(t), "non-finite event time " << t);
  P2P_CHECK_MSG(t >= 0.0, "negative event time " << t);
}

std::uint32_t EventQueue::AllocSlot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = static_cast<std::uint32_t>(keys_[slot].loc);
    return slot;
  }
  P2P_CHECK_MSG(slab_.size() < kNoSlot, "event slab exhausted");
  slab_.emplace_back();
  keys_.push_back(Key{});
  const std::uint32_t slot = static_cast<std::uint32_t>(slab_.size() - 1);
  // A record regrowing at a trimmed index resumes the retired generation:
  // ids issued to the pre-trim tenant must not name the new tenant.
  if (slot < retired_gen_.size()) keys_[slot].gen = retired_gen_[slot];
  slab_hwm_ = std::max(slab_hwm_, slab_.size());
  return slot;
}

void EventQueue::FreeSlot(std::uint32_t slot) {
  Slot& s = slab_[slot];
  s.fn = nullptr;
  s.period = -1.0;
  Key& k = keys_[slot];
  k.state = static_cast<std::uint8_t>(State::kFree);  // clears rearmed
  ++k.gen;  // invalidates every outstanding id for this slot
  k.loc = free_head_;  // freelist link while free
  free_head_ = slot;
  // Attempt a trim only after at least slab/4 frees since the last check,
  // keeping the O(slab) freelist rebuild amortised O(1) per free.
  if (++frees_since_trim_ >= kMinTrimSlots &&
      frees_since_trim_ * 4 >= slab_.size()) {
    MaybeTrimSlab();
  }
}

void EventQueue::MaybeTrimSlab() {
  frees_since_trim_ = 0;
  // Trim only when the slab is mostly dead air after a burst (mass join,
  // churn storm) drained: at least 4x over-provisioned and big enough to
  // matter. The rate limit in FreeSlot amortises the freelist rebuild to
  // O(1) per free.
  if (slab_.size() < kMinTrimSlots || live_count_ * 4 > slab_.size()) return;
  const std::size_t floor =
      std::max<std::size_t>(kMinTrimSlots, live_count_ * 2);
  bool trimmed = false;
  while (slab_.size() > floor &&
         state(static_cast<std::uint32_t>(slab_.size() - 1)) == State::kFree) {
    const std::size_t idx = slab_.size() - 1;
    if (retired_gen_.size() <= idx) retired_gen_.resize(idx + 1, 0);
    retired_gen_[idx] = keys_[idx].gen;
    slab_.pop_back();  // deque: surviving records do not move
    keys_.pop_back();
    trimmed = true;
  }
  if (!trimmed) return;
  // The freelist chain threads through the popped records; rebuild it from
  // the survivors. The overflow heap may still hold lazy (slot, seq)
  // entries for trimmed indices — Wheel::Live bound-checks against
  // slab_.size(), so they read as garbage and compact away.
  free_head_ = kNoSlot;
  for (std::size_t i = slab_.size(); i-- > 0;) {
    if (state(static_cast<std::uint32_t>(i)) == State::kFree) {
      keys_[i].loc = free_head_;
      free_head_ = static_cast<std::uint32_t>(i);
    }
  }
}

std::uint32_t EventQueue::SlotOf(EventId id) const {
  const std::uint64_t low = id & 0xffffffffull;
  if (low == 0) return kNoSlot;
  const std::uint32_t slot = static_cast<std::uint32_t>(low - 1);
  if (slot >= slab_.size()) return kNoSlot;
  if (keys_[slot].gen != static_cast<std::uint32_t>(id >> 32)) return kNoSlot;
  return slot;
}

EventId EventQueue::Schedule(Time t, Callback cb) {
  P2P_CHECK_MSG(static_cast<bool>(cb), "scheduling a null callback");
  CheckTime(t);
  const std::uint32_t slot = AllocSlot();
  Slot& s = slab_[slot];
  s.fn = std::move(cb);
  keys_[slot].time = t;
  s.period = -1.0;
  keys_[slot].seq = next_seq_++;
  set_state(slot, State::kScheduled);
  wheel_->Add(slot);
  ++live_count_;
  return IdOf(slot);
}

EventId EventQueue::SchedulePeriodic(Time first, Time period, Callback cb) {
  P2P_CHECK_MSG(static_cast<bool>(cb), "scheduling a null callback");
  CheckTime(first);
  P2P_CHECK_MSG(std::isfinite(period) && period > 0.0,
                "periodic timer needs a positive period, got " << period);
  const std::uint32_t slot = AllocSlot();
  Slot& s = slab_[slot];
  s.fn = std::move(cb);
  keys_[slot].time = first;
  s.period = period;
  keys_[slot].seq = next_seq_++;
  set_state(slot, State::kScheduled);
  wheel_->Add(slot);
  ++live_count_;
  return IdOf(slot);
}

bool EventQueue::Cancel(EventId id) {
  const std::uint32_t slot = SlotOf(id);
  if (slot == kNoSlot) return false;
  Slot& s = slab_[slot];
  switch (state(slot)) {
    case State::kScheduled:
      // Kill the occurrence before telling the wheel, so an overflow
      // compaction inside Remove sees it as garbage.
      set_state(slot, State::kStopped);
      wheel_->Remove(slot);
      --live_count_;
      FreeSlot(slot);
      return true;
    case State::kFiring:
      // A one-shot firing in place (batched drain) already left the live
      // count and frees itself when the callback returns — same answer a
      // Pop()-style driver gives for the already-recycled record.
      if (s.period < 0.0) return false;
      // Periodic cancelled from inside its own callback; FinishPeriodic
      // frees the record once the callback returns.
      set_state(slot, State::kStopped);
      --live_count_;
      return true;
    case State::kStopped:
    case State::kFree:
      return false;
  }
  return false;
}

bool EventQueue::Rearm(EventId id, Time t) {
  const std::uint32_t slot = SlotOf(id);
  if (slot == kNoSlot) return false;
  CheckTime(t);
  Slot& s = slab_[slot];
  switch (state(slot)) {
    case State::kScheduled:
      // Fresh seq first: the wheel's old entry must already read as dead
      // when Remove runs, in case the overflow heap compacts.
      keys_[slot].seq = next_seq_++;
      keys_[slot].time = t;
      wheel_->Remove(slot);
      wheel_->Add(slot);
      return true;
    case State::kFiring:
      // A firing one-shot reads as already fired (see Cancel above).
      if (s.period < 0.0) return false;
      // From inside the periodic's own callback: override the upcoming
      // deadline + period re-arm.
      keys_[slot].time = t;
      set_rearmed_while_firing(slot, true);
      return true;
    case State::kStopped:
    case State::kFree:
      return false;
  }
  return false;
}

Time EventQueue::PeekTime() const {
  P2P_CHECK(!empty());
  return keys_[wheel_->PeekMin()].time;
}

EventQueue::Fired EventQueue::Pop() {
  P2P_CHECK(!empty());
  const std::uint32_t slot = wheel_->PopMin();
  Slot& s = slab_[slot];
  Fired fired;
  fired.time = keys_[slot].time;
  fired.id = IdOf(slot);
  if (s.period < 0.0) {
    fired.cb = std::move(s.fn);
    --live_count_;
    FreeSlot(slot);
  } else {
    // Periodic: the record survives the firing; the driver runs *periodic
    // through the slab (stable storage) and then calls FinishPeriodic.
    set_state(slot, State::kFiring);
    fired.periodic = &s.fn;
  }
  return fired;
}

bool EventQueue::FinishPeriodic(EventId id) {
  const std::uint32_t slot = SlotOf(id);
  P2P_CHECK_MSG(slot != kNoSlot, "FinishPeriodic on an unknown event id");
  Slot& s = slab_[slot];
  if (state(slot) == State::kStopped) {
    FreeSlot(slot);
    return false;
  }
  P2P_CHECK_MSG(state(slot) == State::kFiring,
                "FinishPeriodic on an event that is not firing");
  // Deadline accumulates from the scheduled time, not from `now`, so
  // periodic timers do not drift. Seq is consumed *after* the callback ran
  // (the caller invokes the callback between Pop and FinishPeriodic),
  // matching the order a cancel-and-reschedule implementation would
  // consume it — same-seed runs stay byte-identical across the migration.
  Key& k = keys_[slot];
  if ((k.state & kRearmedBit) == 0) k.time += s.period;
  k.state = static_cast<std::uint8_t>(State::kScheduled);  // clears rearmed
  k.seq = next_seq_++;
  wheel_->Add(slot);
  return true;
}

void EventQueue::EmitSlot(std::uint32_t slot, void* ctx, SinkFn sink) {
  Slot& s = slab_[slot];
  Fired fired;
  fired.time = keys_[slot].time;
  fired.id = IdOf(slot);
  set_state(slot, State::kFiring);
  fired.periodic = &s.fn;
  if (s.period < 0.0) {
    // One-shots fire in place too on the batched path: the callback runs
    // straight out of the slab (stable deque storage) instead of paying a
    // 64-byte move into Fired, and the record is recycled after it
    // returns. Cancel/Rearm treat a firing one-shot as already gone
    // (period < 0 in the kFiring branches), exactly as if the record had
    // been freed before the callback like Pop() does, so the two drivers
    // stay observationally identical.
    --live_count_;
    sink(ctx, fired);
    FreeSlot(slot);
  } else {
    sink(ctx, fired);
    FinishPeriodic(fired.id);
  }
}

void EventQueue::PopAllUpTo(Time t_end, void* ctx, SinkFn sink) {
  CheckTime(t_end);
  wheel_->PopAllUpTo(t_end, ctx, sink);
}

std::size_t EventQueue::heap_footprint() const {
  return wheel_->footprint();
}

}  // namespace p2p::sim
