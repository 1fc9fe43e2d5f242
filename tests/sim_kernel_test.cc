// Kernel-scale scheduler tests: the timing wheel against a minimal
// ordered-set model of the queue contract (randomized differential +
// cascade boundaries), the InlineFn small-buffer callable, first-class
// periodic timers, batched drains and slab trimming.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <memory>
#include <unordered_map>
#include <vector>

#include "reference/event_queue_ref.h"
#include "sim/event_queue.h"
#include "sim/simulation.h"
#include "util/check.h"
#include "util/inline_fn.h"
#include "util/rng.h"

namespace p2p::sim {
namespace {

// ------------------------------------------------------------- InlineFn --

TEST(InlineFn, SmallCapturesStayInline) {
  int hits = 0;
  int* p = &hits;
  std::uint64_t a = 1, b = 2, c = 3, d = 4;  // 40 bytes with the pointer
  util::InlineFn fn([p, a, b, c, d] { *p += static_cast<int>(a + b + c + d); });
  EXPECT_TRUE(fn.stored_inline());
  fn();
  EXPECT_EQ(hits, 10);
}

TEST(InlineFn, LargeCapturesFallBackToHeap) {
  std::vector<int> payload(64, 7);
  int sum = 0;
  std::array<std::uint64_t, 8> big{};  // 64 bytes > kInlineBytes
  util::InlineFn fn([&sum, payload, big] {
    for (int v : payload) sum += v;
    sum += static_cast<int>(big[0]);
  });
  EXPECT_FALSE(fn.stored_inline());
  fn();
  EXPECT_EQ(sum, 64 * 7);
}

TEST(InlineFn, MoveTransfersOwnershipExactlyOnce) {
  auto counter = std::make_shared<int>(0);
  util::InlineFn fn([counter] { ++*counter; });
  EXPECT_EQ(counter.use_count(), 2);
  util::InlineFn moved(std::move(fn));
  EXPECT_FALSE(static_cast<bool>(fn));  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(static_cast<bool>(moved));
  EXPECT_EQ(counter.use_count(), 2);
  moved();
  EXPECT_EQ(*counter, 1);
  moved = nullptr;
  EXPECT_EQ(counter.use_count(), 1);  // destructor ran
}

TEST(InlineFn, InvokingEmptyThrows) {
  util::InlineFn fn;
  EXPECT_THROW(fn(), util::CheckError);
  util::InlineFn null_fn(nullptr);
  EXPECT_THROW(null_fn(), util::CheckError);
}

TEST(InlineFn, MoveAssignDestroysPreviousTarget) {
  auto first = std::make_shared<int>(0);
  auto second = std::make_shared<int>(0);
  util::InlineFn fn([first] { ++*first; });
  fn = util::InlineFn([second] { ++*second; });
  EXPECT_EQ(first.use_count(), 1);  // old callable destroyed
  fn();
  EXPECT_EQ(*second, 1);
}

// ------------------------------------------- Schedule argument hardening --

TEST(EventQueueKernel, RejectsNonFiniteTimes) {
  EventQueue q;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(q.Schedule(nan, [] {}), util::CheckError);
  EXPECT_THROW(q.Schedule(inf, [] {}), util::CheckError);
  EXPECT_THROW(q.Schedule(-inf, [] {}), util::CheckError);
  EXPECT_THROW(q.Schedule(-1.0, [] {}), util::CheckError);
  EXPECT_THROW(q.SchedulePeriodic(nan, 10.0, [] {}), util::CheckError);
  EXPECT_THROW(q.SchedulePeriodic(0.0, 0.0, [] {}), util::CheckError);
  EXPECT_THROW(q.SchedulePeriodic(0.0, -5.0, [] {}), util::CheckError);
  EXPECT_THROW(q.SchedulePeriodic(0.0, inf, [] {}), util::CheckError);
  EXPECT_TRUE(q.empty()) << "rejected schedules must not leak events";
  EXPECT_EQ(q.heap_footprint(), 0u);
}

TEST(EventQueueKernel, RearmRejectsNonFiniteTimes) {
  EventQueue q;
  const EventId id = q.Schedule(5.0, [] {});
  EXPECT_THROW(q.Rearm(id, std::numeric_limits<double>::quiet_NaN()),
               util::CheckError);
  EXPECT_THROW(q.Rearm(id, -2.0), util::CheckError);
  EXPECT_TRUE(q.Rearm(id, 7.0));
  EXPECT_DOUBLE_EQ(q.PeekTime(), 7.0);
}

// -------------------------------------------------- wheel cascade bounds --

// Times straddling every wheel-level boundary (level 0 holds 256 one-ms
// ticks, level 1 256-ms buckets, level 2 65,536-ms buckets, ~4.66 h
// horizon, then the overflow heap) must still pop in exact (time, seq)
// order.
TEST(EventQueueKernel, CascadeBoundaryTimesPopInOrder) {
  EventQueue q;
  const std::vector<double> times = {
      0.0,        0.25,        255.0,       255.999,     256.0,
      256.001,    511.5,       512.0,       65535.5,     65536.0,
      65536.25,   131071.9,    131072.0,    16777215.9,  16777216.0,
      16777217.5, 33554432.0,  1.0e8,       4.2e9,       1.0e12,
      5.0e15,     1.0e16,      1.0e16,      9.0e17};
  // Schedule in a scrambled order so placement exercises every level.
  std::vector<std::size_t> order(times.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  util::Rng rng(7);
  rng.Shuffle(order);
  std::vector<double> popped;
  for (const std::size_t i : order) {
    q.Schedule(times[i], [] {});
  }
  while (!q.empty()) {
    EXPECT_DOUBLE_EQ(q.PeekTime(), q.PeekTime());
    auto fired = q.Pop();
    popped.push_back(fired.time);
  }
  std::vector<double> expected = times;
  std::sort(expected.begin(), expected.end());
  ASSERT_EQ(popped.size(), expected.size());
  for (std::size_t i = 0; i < popped.size(); ++i)
    EXPECT_DOUBLE_EQ(popped[i], expected[i]) << "i=" << i;
}

TEST(EventQueueKernel, SameTickBurstKeepsFifoOrder) {
  EventQueue q;
  std::vector<int> log;
  // 100 events at the same sub-millisecond time: FIFO by seq.
  for (int i = 0; i < 100; ++i) {
    q.Schedule(1000.5, [&log, i] { log.push_back(i); });
  }
  while (!q.empty()) q.Pop().cb();
  ASSERT_EQ(log.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(log[i], i);
}

// Events scheduled at the tick currently being served must pop before
// later entries of the same tick — the due-list insert path.
TEST(EventQueueKernel, ArrivalsDuringServedTickSlotInByTime) {
  EventQueue q;
  q.Schedule(100.2, [] {});
  q.Schedule(100.8, [] {});
  auto first = q.Pop();
  EXPECT_DOUBLE_EQ(first.time, 100.2);
  // Same tick (100), between the two pending times.
  q.Schedule(100.5, [] {});
  // Same tick, same time as a pending event: FIFO puts it after.
  q.Schedule(100.8, [] {});
  EXPECT_DOUBLE_EQ(q.Pop().time, 100.5);
  EXPECT_DOUBLE_EQ(q.Pop().time, 100.8);
  EXPECT_DOUBLE_EQ(q.Pop().time, 100.8);
  EXPECT_TRUE(q.empty());
}

// ------------------------------------------------------ periodic timers --

TEST(EventQueueKernel, PeriodicFiresAndRearmsInPlace) {
  EventQueue q;
  int fires = 0;
  const EventId id = q.SchedulePeriodic(10.0, 25.0, [&fires] { ++fires; });
  std::vector<double> fire_times;
  for (int i = 0; i < 4; ++i) {
    auto fired = q.Pop();
    ASSERT_TRUE(fired.is_periodic());
    EXPECT_EQ(fired.id, id);
    fire_times.push_back(fired.time);
    (*fired.periodic)();
    EXPECT_TRUE(q.FinishPeriodic(fired.id));
  }
  EXPECT_EQ(fires, 4);
  EXPECT_EQ(q.size(), 1u) << "one record for the timer's whole lifetime";
  const std::vector<double> want = {10.0, 35.0, 60.0, 85.0};
  for (std::size_t i = 0; i < want.size(); ++i)
    EXPECT_DOUBLE_EQ(fire_times[i], want[i]);
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueKernel, RearmMovesDeadlineWithoutCancel) {
  EventQueue q;
  int fired = 0;
  const EventId id = q.Schedule(500.0, [&fired] { ++fired; });
  EXPECT_TRUE(q.Rearm(id, 50.0));
  q.Schedule(100.0, [] {});
  auto f = q.Pop();
  EXPECT_DOUBLE_EQ(f.time, 50.0);
  EXPECT_EQ(f.id, id);
  f.cb();
  EXPECT_EQ(fired, 1);
  // The id died with the firing.
  EXPECT_FALSE(q.Rearm(id, 700.0));
  EXPECT_FALSE(q.Cancel(id));
}

TEST(EventQueueKernel, RearmFromInsidePeriodicCallbackOverridesPeriod) {
  EventQueue q;
  const EventId id = q.SchedulePeriodic(10.0, 100.0, [] {});
  auto f = q.Pop();
  (*f.periodic)();
  EXPECT_TRUE(q.Rearm(id, 17.0));  // instead of 10 + 100
  EXPECT_TRUE(q.FinishPeriodic(id));
  EXPECT_DOUBLE_EQ(q.PeekTime(), 17.0);
  auto g = q.Pop();
  (*g.periodic)();
  EXPECT_TRUE(q.FinishPeriodic(id));
  EXPECT_DOUBLE_EQ(q.PeekTime(), 117.0) << "period resumes after the rearm";
}

TEST(EventQueueKernel, CancelInsidePeriodicCallbackStopsTimer) {
  EventQueue q;
  EventId id = kInvalidEventId;
  int fires = 0;
  id = q.SchedulePeriodic(5.0, 5.0, [&] {
    ++fires;
    if (fires == 3) {
      EXPECT_TRUE(q.Cancel(id));
    }
  });
  std::size_t steps = 0;
  while (!q.empty() && steps < 100) {
    auto f = q.Pop();
    if (f.is_periodic()) {
      (*f.periodic)();
      q.FinishPeriodic(f.id);
    } else {
      f.cb();
    }
    ++steps;
  }
  EXPECT_EQ(fires, 3);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueKernel, StaleIdsNeverCancelTheSlotsNextTenant) {
  EventQueue q;
  const EventId a = q.Schedule(1.0, [] {});
  q.Pop().cb();  // slot freed, generation bumped
  const EventId b = q.Schedule(2.0, [] {});
  EXPECT_NE(a, b);
  EXPECT_FALSE(q.Cancel(a)) << "stale id must not hit the reused slot";
  EXPECT_EQ(q.size(), 1u);
  EXPECT_TRUE(q.Cancel(b));
}

// -------------------------------------------- randomized differential --

// The wheel and the ordered-set model (tests/reference/event_queue_ref.h)
// must agree on every observable: pop order by handle, Cancel/Rearm/
// FinishPeriodic results, sizes. Drives both through an identical
// randomized schedule/cancel/rearm/pop/drain workload, including same-tick
// bursts, far-future times beyond the wheel horizon, periodic timers,
// stale handles, and pops interleaved with mutation.
TEST(EventQueueKernel, RandomizedDifferentialWheelVsModel) {
  using Model = eventqref::EventQueueModel;
  EventQueue wheel;
  Model model;
  util::Rng rng(0xC0FFEE);
  double now = 0.0;
  std::vector<EventId> id_of;  // model handle -> wheel id
  std::unordered_map<EventId, Model::Handle> handle_of;
  std::vector<Model::Handle> live;       // handles not yet known dead
  std::vector<Model::Handle> periodics;  // subset of live needing a stop

  const auto random_delay = [&]() -> double {
    switch (rng.UniformInt(0, 5)) {
      case 0:
        return rng.Uniform(0.0, 2.0);        // same/next tick
      case 1:
        return rng.Uniform(0.0, 300.0);      // level 0/1
      case 2:
        return rng.Uniform(0.0, 70000.0);    // level 1/2
      case 3:
        return rng.Uniform(0.0, 2.0e7);      // level 2 + overflow
      case 4:
        return std::floor(rng.Uniform(0.0, 8.0));  // exact time ties
      default:
        return 1.0e16 + rng.Uniform(0.0, 1.0);  // beyond-horizon sentinel
    }
  };
  const auto track = [&](EventId id, Model::Handle h) {
    ASSERT_EQ(h, id_of.size());
    id_of.push_back(id);
    handle_of.emplace(id, h);
    live.push_back(h);
  };
  // Live handles mostly; now and then any handle ever issued, so stale
  // ids exercise the false paths of Cancel and Rearm.
  const auto pick = [&]() -> Model::Handle {
    if (live.empty() || rng.UniformInt(0, 7) == 0)
      return static_cast<Model::Handle>(rng.UniformInt(0, id_of.size() - 1));
    return live[static_cast<std::size_t>(rng.UniformInt(0, live.size() - 1))];
  };
  const auto forget = [&](Model::Handle h) {
    std::erase(live, h);
    std::erase(periodics, h);
  };

  for (int step = 0; step < 20000; ++step) {
    const int op = static_cast<int>(rng.UniformInt(0, 10));
    if (op <= 3) {  // schedule one-shot
      const double t = now + random_delay();
      track(wheel.Schedule(t, [] {}), model.Schedule(t));
    } else if (op == 4) {  // schedule periodic
      const double t = now + rng.Uniform(0.0, 5000.0);
      const double period = rng.Uniform(0.5, 10000.0);
      track(wheel.SchedulePeriodic(t, period, [] {}),
            model.SchedulePeriodic(t, period));
      periodics.push_back(id_of.size() - 1);
    } else if (op == 5 && !id_of.empty()) {  // cancel
      const Model::Handle h = pick();
      ASSERT_EQ(wheel.Cancel(id_of[h]), model.Cancel(h)) << "handle " << h;
      forget(h);
    } else if (op == 6 && !id_of.empty()) {  // rearm
      const Model::Handle h = pick();
      const double t = now + random_delay();
      ASSERT_EQ(wheel.Rearm(id_of[h], t), model.Rearm(h, t)) << "handle " << h;
    } else if (op == 7 && !wheel.empty()) {  // batched drain of a short window
      const double t_end = now + rng.Uniform(0.0, 50.0);
      std::vector<std::pair<double, Model::Handle>> drained;
      wheel.PopAllUpTo(t_end, [&](EventQueue::Fired& f) {
        drained.emplace_back(f.time, handle_of.at(f.id));
      });
      std::size_t k = 0;
      while (!model.empty() && model.PeekTime() <= t_end) {
        const Model::Fired mf = model.Pop();
        ASSERT_LT(k, drained.size());
        ASSERT_EQ(drained[k].second, mf.handle) << "drain position " << k;
        ASSERT_EQ(drained[k].first, mf.time);
        ++k;
        if (mf.periodic) {
          ASSERT_TRUE(model.FinishPeriodic(mf.handle));
        } else {
          forget(mf.handle);
        }
      }
      ASSERT_EQ(k, drained.size());
      if (!drained.empty()) now = drained.back().first;
    } else {  // pop a few events
      const int pops = static_cast<int>(rng.UniformInt(1, 4));
      for (int p = 0; p < pops && !wheel.empty(); ++p) {
        ASSERT_FALSE(model.empty());
        ASSERT_EQ(wheel.PeekTime(), model.PeekTime());
        auto wf = wheel.Pop();
        const Model::Fired mf = model.Pop();
        ASSERT_EQ(handle_of.at(wf.id), mf.handle);
        ASSERT_EQ(wf.time, mf.time);
        ASSERT_EQ(wf.is_periodic(), mf.periodic);
        ASSERT_GE(wf.time, now);
        now = wf.time;
        if (wf.is_periodic()) {
          // Sometimes stop or move the timer from inside its own firing.
          const int inside = static_cast<int>(rng.UniformInt(0, 9));
          if (inside == 0) {
            ASSERT_EQ(wheel.Cancel(wf.id), model.Cancel(mf.handle));
            forget(mf.handle);
          } else if (inside == 1) {
            const double t = now + random_delay();
            ASSERT_EQ(wheel.Rearm(wf.id, t), model.Rearm(mf.handle, t));
          }
          ASSERT_EQ(wheel.FinishPeriodic(wf.id),
                    model.FinishPeriodic(mf.handle));
        } else {
          forget(mf.handle);
        }
      }
    }
    ASSERT_EQ(wheel.size(), model.size());
    ASSERT_EQ(wheel.empty(), model.empty());
    ASSERT_LE(wheel.heap_footprint(), 2 * wheel.size() + 1);
  }

  // Stop periodic timers so the drain below terminates.
  for (const Model::Handle h : periodics) {
    ASSERT_EQ(wheel.Cancel(id_of[h]), model.Cancel(h));
  }
  while (!wheel.empty()) {
    ASSERT_FALSE(model.empty());
    auto wf = wheel.Pop();
    const Model::Fired mf = model.Pop();
    ASSERT_EQ(handle_of.at(wf.id), mf.handle);
    ASSERT_EQ(wf.time, mf.time);
  }
  EXPECT_TRUE(model.empty());
}

// Eager cancellation in wheel buckets must keep the footprint within
// 2 * live + 1 under cancel-heavy churn.
TEST(EventQueueKernel, WheelFootprintStaysBoundedUnderChurn) {
  EventQueue q;
  util::Rng rng(99);
  std::vector<EventId> ids;
  for (int round = 0; round < 200; ++round) {
    for (int i = 0; i < 64; ++i) {
      ids.push_back(q.Schedule(rng.Uniform(0.0, 3.0e7), [] {}));
    }
    rng.Shuffle(ids);
    while (ids.size() > 16) {
      q.Cancel(ids.back());
      ids.pop_back();
    }
    ASSERT_LE(q.heap_footprint(), 2 * q.size() + 1);
  }
}

// ------------------------------------------------- PopAllUpTo batching --

using FireEntry = std::pair<Time, int>;

// A one-shot whose callback logs and reschedules itself `depth` more
// times, 0.25 ms apart — chains that must fire inside the same batched
// drain that started them.
void ScheduleChain(EventQueue& q, Time t, int depth,
                   std::vector<FireEntry>* log, int tag) {
  q.Schedule(t, [&q, t, depth, log, tag] {
    log->push_back({t, tag});
    if (depth > 0) ScheduleChain(q, t + 0.25, depth - 1, log, tag + 1000);
  });
}

// Mixed workload driven either by the classic peek/pop/FinishPeriodic loop
// or by PopAllUpTo, across several windows (including an empty one and a
// boundary-exact event). Returns the (time, tag) firing log, which must be
// identical across drivers.
std::vector<FireEntry> DriveBatchWorkload(bool batched) {
  EventQueue q;
  std::vector<FireEntry> log;
  util::Rng rng(2026);
  // Victims for mid-window cancel/rearm exercised below.
  auto victims = std::make_unique<std::vector<EventId>>();
  for (int i = 0; i < 400; ++i) {
    const double t = rng.Uniform(0.0, 5000.0);
    if (i % 7 == 0) {
      q.SchedulePeriodic(t, rng.Uniform(1.0, 400.0),
                         [&log, i] { log.push_back({-1.0, i}); });
    } else if (i % 5 == 0) {
      ScheduleChain(q, t, 3, &log, i);
    } else {
      q.Schedule(t, [&log, i, t] { log.push_back({t, i}); });
    }
  }
  for (int k = 0; k < 20; ++k) {
    victims->push_back(q.Schedule(
        2000.0 + 40.0 * k, [&log, k] { log.push_back({0.0, 9000 + k}); }));
  }
  for (int k = 0; k < 10; ++k) {
    // Cancellers fire inside window 1 and mutate window-2 state: even
    // victims die, odd victims move to the tail of window 3.
    q.Schedule(1000.0 + 50.0 * k, [&q, v = victims.get(), k] {
      q.Cancel((*v)[2 * k]);
      q.Rearm((*v)[2 * k + 1], 4000.0 + k);
    });
  }
  q.Schedule(1500.0, [&log] { log.push_back({1500.0, 777}); });  // boundary
  const auto drive = [&](Time t_end) {
    if (batched) {
      q.PopAllUpTo(t_end, [&](EventQueue::Fired& f) {
        if (f.is_periodic()) {
          (*f.periodic)();
        } else {
          f.cb();
        }
      });
    } else {
      while (!q.empty() && q.PeekTime() <= t_end) {
        auto f = q.Pop();
        if (f.is_periodic()) {
          (*f.periodic)();
          q.FinishPeriodic(f.id);
        } else {
          f.cb();
        }
      }
    }
  };
  drive(1500.0);
  drive(1500.0);  // empty window: nothing left at or before 1500
  drive(5200.0);
  return log;
}

TEST(EventQueueKernel, PopAllUpToMatchesStepLoop) {
  const auto step = DriveBatchWorkload(false);
  const auto batch = DriveBatchWorkload(true);
  EXPECT_FALSE(step.empty());
  EXPECT_EQ(step, batch);
}

TEST(EventQueueKernel, PopAllUpToReportsPeriodicsAndRearmsThem) {
  EventQueue q;
  int fired = 0;
  const EventId id = q.SchedulePeriodic(10.0, 100.0, [&fired] { ++fired; });
  q.PopAllUpTo(500.0, [&](EventQueue::Fired& f) {
    ASSERT_TRUE(f.is_periodic());
    ASSERT_EQ(f.id, id);
    (*f.periodic)();
  });
  EXPECT_EQ(fired, 5);  // 10, 110, 210, 310, 410
  EXPECT_EQ(q.size(), 1u);  // still armed for 510
  EXPECT_TRUE(q.Cancel(id));
}

// ------------------------------------------------------------ slab trim --

TEST(EventQueueKernel, SlabTrimsAfterBurstDrains) {
  EventQueue q;
  constexpr std::size_t kBurst = 50000;
  for (std::size_t i = 0; i < kBurst; ++i) {
    q.Schedule(static_cast<Time>(i + 1), [] {});
  }
  EXPECT_GE(q.slab_high_water(), kBurst);
  EXPECT_GE(q.slab_capacity(), kBurst);
  std::size_t drained = 0;
  q.PopAllUpTo(static_cast<Time>(kBurst + 1), [&](EventQueue::Fired& f) {
    (*f.periodic)();  // invoke-in-place: every batched firing presents here
    ++drained;
  });
  EXPECT_EQ(drained, kBurst);
  // The burst is gone: the slab must have given the memory back (trailing
  // free records trimmed), while the high-water mark still records the
  // burst for observability.
  EXPECT_LE(q.slab_capacity(), 2048u);
  EXPECT_GE(q.slab_high_water(), kBurst);
}

TEST(EventQueueKernel, LongRunFootprintStaysBoundedAcrossBursts) {
  // Repeated burst/drain cycles through a Simulation must not ratchet the
  // slab: capacity after each drain stays near the trim floor and the
  // deterministic gauges expose both numbers.
  Simulation sim(7);
  for (int cycle = 0; cycle < 3; ++cycle) {
    const Time base = sim.now();
    for (int i = 0; i < 20000; ++i) {
      sim.At(base + 1.0 + i * 0.01, [] {});
    }
    sim.RunUntil(base + 300.0);
    EXPECT_LE(sim.metrics().Value("kernel.slab_slots"), 2048.0)
        << "cycle " << cycle;
    EXPECT_GE(sim.metrics().Value("kernel.slab_hwm"), 20000.0);
  }
}

TEST(EventQueueKernel, StaleIdAfterTrimCannotCancelRegrownSlot) {
  EventQueue q;
  constexpr std::size_t kCount = 6000;
  std::vector<EventId> first;
  first.reserve(kCount);
  for (std::size_t i = 0; i < kCount; ++i) {
    first.push_back(q.Schedule(static_cast<Time>(i + 1), [] {}));
  }
  q.PopAllUpTo(static_cast<Time>(kCount + 1), [](EventQueue::Fired& f) {
    (*f.periodic)();  // invoke-in-place: every batched firing presents here
  });
  ASSERT_LT(q.slab_capacity(), kCount);  // the tail was trimmed
  // Regrow past the trimmed indices: every new id must differ from every
  // pre-trim id, and the stale ids must not cancel the new tenants.
  std::vector<EventId> second;
  second.reserve(kCount);
  for (std::size_t i = 0; i < kCount; ++i) {
    second.push_back(q.Schedule(static_cast<Time>(i + 1), [] {}));
  }
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_NE(first[i], second[i]) << i;
  }
  for (const EventId stale : first) {
    EXPECT_FALSE(q.Cancel(stale));
  }
  EXPECT_EQ(q.size(), kCount);  // nothing live was harmed
  for (const EventId id : second) {
    EXPECT_TRUE(q.Cancel(id));
  }
}

}  // namespace
}  // namespace p2p::sim
