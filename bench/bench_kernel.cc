// Kernel scale sweep: event-loop throughput at 1.2k / 5k / 10k hosts.
//
// Drives a synthetic protocol mix (heartbeat periodics, SOMO report
// periodics, transport delivery one-shots, failure-timeout rearm churn)
// through sim::EventQueue twice: "wheel" pops event by event (peek + pop +
// FinishPeriodic), "wheel_batched" drains each window with one PopAllUpTo
// call, which is what Simulation::RunUntil ships. Both consume the
// identical event stream, so the JSON records the batching delta. The
// historical heap and pre-wheel legacy columns are frozen in
// docs/KERNEL.md.
//
// Further sweeps ride along:
//
//   sharded_scales   the sim::ShardedSimulation lockstep kernel at 1/2/4/8
//                    shards on 10k and 50k hosts. The headline number is
//                    critical-path throughput — sum over windows of
//                    (slowest shard busy + barrier exchange) — i.e. the
//                    wall time on a machine with >= shards free cores. The
//                    design makes results bit-identical for any thread
//                    count, so the projection is sound on small hosts (the
//                    JSON records `cpus` for the reader).
//   wheel_layouts    a bench-local generic hierarchical wheel pricing the
//                    bucket-layout choice: 3 levels x 256 buckets (the
//                    production shape) against 4 levels x 64 on an
//                    identical self-rescheduling timer stream.
//   wide_area        8 geographic regions, inter-region >= 150 ms: fixed
//                    56 ms lockstep windows against the measured per-pair
//                    lookahead matrix on the same workload — the window
//                    reduction check_bench_scale.py gates.
//   run_phase_breakdown  a four-rung ladder (wheel pop / callback dispatch /
//                    transport resolve / metrics) over one identical event
//                    stream; adjacent deltas price each run-loop phase.
//
// Usage: bench_kernel [--json PATH] [--reps N] [--quick]
#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dht/ring.h"
#include "obs/json.h"
#include "sim/event_queue.h"
#include "sim/sharded.h"
#include "sim/simulation.h"
#include "somo/report.h"
#include "util/check.h"
#include "util/csv.h"
#include "util/rng.h"

namespace p2p::bench {
namespace {

// ---------------------------------------------------------------------------
// KernelDriver: sim::EventQueue behind the five calls the workload makes,
// using the first-class periodic API.
// ---------------------------------------------------------------------------
class KernelDriver {
 public:
  using Id = sim::EventId;
  static constexpr Id kNone = sim::kInvalidEventId;

  double now() const { return now_; }

  template <class F>
  void Every(double period, double first_delay, F fn) {
    q_.SchedulePeriodic(now_ + first_delay, period, std::move(fn));
  }

  template <class F>
  Id After(double dt, F fn) {
    return q_.Schedule(now_ + dt, std::move(fn));
  }

  // The heartbeat suppress pattern: push an armed timeout back without
  // cancel/reschedule churn. MakeFn is only invoked when the timeout is
  // not currently armed.
  template <class MakeFn>
  void PushBack(Id& id, double t, MakeFn make) {
    if (id != kNone && q_.Rearm(id, t)) return;
    id = q_.Schedule(t, make());
  }

  bool StepUpTo(double horizon) {
    if (q_.empty() || q_.PeekTime() > horizon) return false;
    auto fired = q_.Pop();
    now_ = fired.time;
    if (fired.is_periodic()) {
      (*fired.periodic)();
      q_.FinishPeriodic(fired.id);
    } else {
      fired.cb();
    }
    return true;
  }

  // Batched drain (Simulation::RunUntil's production path): one
  // PopAllUpTo call for the whole window, periodics re-armed internally.
  // `on_event` runs after each callback so the caller can count/sample.
  template <class OnEvent>
  std::size_t DrainUpTo(double horizon, OnEvent on_event) {
    std::size_t n = 0;
    q_.PopAllUpTo(horizon, [&](sim::EventQueue::Fired& fired) {
      now_ = fired.time;
      ++n;
      if (fired.is_periodic()) {
        (*fired.periodic)();
      } else {
        fired.cb();
      }
      on_event();
    });
    return n;
  }

  std::size_t live() const { return q_.size(); }
  std::size_t footprint() const { return q_.heap_footprint(); }

 private:
  sim::EventQueue q_;
  double now_ = 0.0;
};

// ---------------------------------------------------------------------------
// Workload: per host, a 1 Hz heartbeat that fans out two transport
// deliveries and pushes a failure timeout back (the suppress pattern), and
// a 0.5 Hz SOMO report that schedules one aggregation hop. Latencies are
// drawn up front, so the stepped and batched runs see the same
// virtual-time stream.
// ---------------------------------------------------------------------------
struct RunStats {
  std::uint64_t events = 0;
  std::uint64_t delivered = 0;  // workload checksum: must match across runs
  double wall_ns = 0.0;
  std::size_t peak_live = 0;
  std::size_t peak_footprint = 0;

  double ns_per_event() const {
    return events == 0 ? 0.0 : wall_ns / static_cast<double>(events);
  }
  double events_per_sec() const {
    return wall_ns == 0.0 ? 0.0
                          : static_cast<double>(events) * 1e9 / wall_ns;
  }
};

struct Workload {
  explicit Workload(KernelDriver& d, std::size_t hosts, std::uint64_t seed)
      : driver(d), rng(seed) {
    timeout.assign(hosts, KernelDriver::kNone);
    // Per-host fixed latency palette, drawn up front so scheduling-time
    // RNG draws cannot depend on the drain mode.
    lat.reserve(hosts);
    for (std::size_t h = 0; h < hosts; ++h)
      lat.push_back(rng.Uniform(5.0, 150.0));
    for (std::size_t h = 0; h < hosts; ++h) {
      const double phase = rng.Uniform(0.0, 1000.0);
      driver.Every(1000.0, phase, [this, h] { Heartbeat(h); });
      driver.Every(2000.0, phase + rng.Uniform(0.0, 1000.0),
                   [this, h] { SomoReport(h); });
      // Bandwidth-probe tick: a fast pure timer, like the packet-pair
      // probe pacing in bwest. No fan-out — it prices the periodic fire
      // path itself.
      driver.Every(500.0, rng.Uniform(0.0, 500.0), [this] { ++probes; });
    }
  }

  // What a transport delivery closure actually carries in the protocol
  // stack: addressing, size, and latency bookkeeping. At 32 bytes the
  // whole closure (this + h + Msg) stays inside InlineFn's 48-byte buffer.
  struct Msg {
    std::uint32_t src, dst, bytes;
    float latency;
  };

  void Heartbeat(std::size_t h) {
    for (std::uint32_t k = 0; k < 2; ++k) {
      const Msg m{static_cast<std::uint32_t>(h),
                  static_cast<std::uint32_t>((h + k + 1) % timeout.size()),
                  64, static_cast<float>(lat[h])};
      driver.After(lat[h] + 7.0 * k, [this, h, m] { Delivered(h, m); });
    }
  }

  void Delivered(std::size_t h, Msg m) {
    ++delivered;
    bytes_delivered += m.bytes;
    // Failure detector reset on every received heartbeat — the dominant
    // churn pattern in the real protocol stack. Fires only if three
    // heartbeat intervals go silent.
    driver.PushBack(timeout[h], driver.now() + 3000.0, [this, h, m] {
      return [this, h, m] { Expired(h, m.src); };
    });
  }

  void SomoReport(std::size_t h) {
    const Msg m{static_cast<std::uint32_t>(h),
                static_cast<std::uint32_t>(h / 2), 256,
                static_cast<float>(lat[h])};
    driver.After(0.5 * lat[h] + 10.0, [this, m] {
      ++delivered;
      bytes_delivered += m.bytes;
    });
  }

  void Expired(std::size_t h, std::uint32_t /*suspect*/) {
    timeout[h] = KernelDriver::kNone;
    ++expired;
  }

  KernelDriver& driver;
  util::Rng rng;
  std::vector<double> lat;
  std::vector<KernelDriver::Id> timeout;
  std::uint64_t delivered = 0;
  std::uint64_t bytes_delivered = 0;
  std::uint64_t probes = 0;
  std::uint64_t expired = 0;
};

RunStats RunOne(KernelDriver& driver, std::size_t hosts, double horizon,
                std::uint64_t seed) {
  Workload w(driver, hosts, seed);
  RunStats stats;
  const auto t0 = std::chrono::steady_clock::now();
  while (driver.StepUpTo(horizon)) {
    ++stats.events;
    if ((stats.events & 1023u) == 0) {
      stats.peak_live = std::max(stats.peak_live, driver.live());
      stats.peak_footprint = std::max(stats.peak_footprint,
                                      driver.footprint());
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  stats.wall_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  stats.peak_live = std::max(stats.peak_live, driver.live());
  stats.peak_footprint = std::max(stats.peak_footprint, driver.footprint());
  stats.delivered = w.delivered;
  P2P_CHECK_MSG(w.expired == 0, "suppress pattern must hold timeouts back");
  return stats;
}

// Same workload, but drained through PopAllUpTo in one batched call.
RunStats RunOneBatched(KernelDriver& driver, std::size_t hosts,
                       double horizon, std::uint64_t seed) {
  Workload w(driver, hosts, seed);
  RunStats stats;
  std::uint64_t n = 0;
  const auto t0 = std::chrono::steady_clock::now();
  stats.events = driver.DrainUpTo(horizon, [&] {
    if ((++n & 1023u) == 0) {
      stats.peak_live = std::max(stats.peak_live, driver.live());
      stats.peak_footprint = std::max(stats.peak_footprint,
                                      driver.footprint());
    }
  });
  const auto t1 = std::chrono::steady_clock::now();
  stats.wall_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  stats.peak_live = std::max(stats.peak_live, driver.live());
  stats.peak_footprint = std::max(stats.peak_footprint, driver.footprint());
  stats.delivered = w.delivered;
  P2P_CHECK_MSG(w.expired == 0, "suppress pattern must hold timeouts back");
  return stats;
}

RunStats BestOf(int reps, std::size_t hosts, double horizon,
                std::uint64_t seed, bool batched) {
  RunStats best;
  for (int r = 0; r < reps; ++r) {
    KernelDriver driver;
    RunStats s = batched ? RunOneBatched(driver, hosts, horizon, seed)
                         : RunOne(driver, hosts, horizon, seed);
    if (r == 0 || s.wall_ns < best.wall_ns) best = s;
  }
  return best;
}

struct ScaleResult {
  std::size_t hosts = 0;
  double horizon = 0.0;
  RunStats wheel, batched;
};

// ---------------------------------------------------------------------------
// Sharded lockstep sweep: the production ShardedSimulation driving the same
// protocol shape (heartbeat fan-out + SOMO hop + probe tick per host), with
// one of the two heartbeat deliveries aimed across the ring so multi-shard
// runs push real traffic through the mailbox barrier. Every delay is
// 56 ms + palette so local and cross-shard sends share one formula — the
// fired-event stream is identical at every shard count, which the sweep
// CHECKs (the sharded column measures the kernel, not a different load).
// ---------------------------------------------------------------------------
struct ShardedStats {
  std::uint64_t events = 0;
  std::uint64_t delivered = 0;
  double wall_ns = 0.0;
  double critical_ns = 0.0;
  std::size_t windows = 0;
  std::size_t cross = 0;

  double critical_ns_per_event() const {
    return events == 0 ? 0.0 : critical_ns / static_cast<double>(events);
  }
  double events_per_sec_critical() const {
    return critical_ns == 0.0
               ? 0.0
               : static_cast<double>(events) * 1e9 / critical_ns;
  }
};

inline double U01(std::uint64_t x) {
  return static_cast<double>(p2p::util::Mix64(x) >> 11) * 0x1.0p-53;
}

ShardedStats RunShardedOnce(std::size_t hosts, std::size_t shards,
                            double horizon, std::uint64_t seed) {
  sim::ShardedOptions opts;
  opts.shards = shards;
  opts.lookahead_ms = 56.0;  // the transit-stub structural bound
  opts.seed = seed;
  sim::ShardedSimulation ssim(opts);
  std::vector<std::uint32_t> shard_of(hosts);
  for (std::size_t h = 0; h < hosts; ++h)
    shard_of[h] = static_cast<std::uint32_t>(h * shards / hosts);

  // Per-shard tallies: callbacks only ever touch their own shard's slot.
  std::vector<std::uint64_t> delivered(shards, 0);

  struct HostCtx {
    sim::ShardedSimulation* ssim;
    const std::vector<std::uint32_t>* shard_of;
    std::vector<std::uint64_t>* delivered;
    std::size_t hosts;
    std::uint64_t seed;
  };
  auto ctx = std::make_unique<HostCtx>(
      HostCtx{&ssim, &shard_of, &delivered, hosts, seed});

  const auto send = [](HostCtx* c, std::size_t src, std::size_t dst,
                       double delay) {
    const std::uint32_t s = (*c->shard_of)[src];
    const std::uint32_t d = (*c->shard_of)[dst];
    sim::Simulation& ssrc = c->ssim->shard(s);
    auto* tally = &(*c->delivered)[d];
    if (d == s) {
      ssrc.After(delay, [tally] { ++*tally; });
    } else {
      c->ssim->Post(s, d, ssrc.now() + delay, [tally] { ++*tally; });
    }
  };

  for (std::size_t h = 0; h < hosts; ++h) {
    const std::uint32_t s = shard_of[h];
    sim::Simulation& shard_sim = ssim.shard(s);
    // Stateless per-host palette (no RNG during the run, and no draw-order
    // coupling to the shard layout).
    const double lat = 5.0 + 145.0 * U01(seed ^ (h * 0x9e3779b97f4a7c15ULL));
    const double phase = 1000.0 * U01(seed ^ (h + 0xa076'1d64'78bd'642fULL));
    HostCtx* c = ctx.get();
    shard_sim.Every(1000.0, phase, [c, h, lat, send] {
      // One near delivery (same shard under the block layout, except at
      // the boundary) and one far delivery (opposite side of the host
      // ring: cross-shard at every shard count > 1).
      send(c, h, (h + 1) % c->hosts, 56.0 + lat);
      send(c, h, (h + c->hosts / 2 + 1) % c->hosts, 63.0 + lat);
    });
    shard_sim.Every(2000.0, phase + 0.5 * lat,
                    [c, h, lat, send] { send(c, h, h / 2, 56.0 + 0.5 * lat); });
  }

  ShardedStats stats;
  const auto t0 = std::chrono::steady_clock::now();
  stats.events = ssim.RunUntil(horizon);
  const auto t1 = std::chrono::steady_clock::now();
  stats.wall_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  stats.critical_ns = ssim.critical_path_ns();
  stats.windows = ssim.windows();
  stats.cross = ssim.cross_shard_messages();
  for (const std::uint64_t d : delivered) stats.delivered += d;
  return stats;
}

struct ShardedScaleResult {
  std::size_t hosts = 0;
  double horizon = 0.0;
  std::vector<std::pair<std::size_t, ShardedStats>> runs;  // by shard count
};

// ---------------------------------------------------------------------------
// Wide-area lookahead scenario: 8 geographic regions on a ring, intra-region
// delay 56 ms + palette, inter-region >= 150 ms (continental links). Hosts
// block-map to regions and regions block-map to shards, so every cross-shard
// channel is a cross-region channel and a measured per-pair lookahead bound
// is the region latency floor (>= 152.5 ms) instead of the 56 ms structural
// constant the fixed path must assume. Same workload both ways — only the
// window schedule changes — so the row prices exactly what lookahead
// extraction buys: horizon/56 windows collapse to roughly horizon/162.
//
// (The multihomed 10k preset in `sharded_scales` cannot show this: its
// domains all meet the same transit core, so the true minimum cross-shard
// latency sits at the structural bound and extraction is a no-op there.)
// ---------------------------------------------------------------------------
constexpr std::size_t kWideRegions = 8;
// Minimum additive part of every send delay on top of the region base
// (the SOMO hop adds 0.5 * lat, lat >= 5).
constexpr double kWideMinAddMs = 2.5;

double RegionDelayMs(std::size_t r1, std::size_t r2) {
  if (r1 == r2) return 56.0;
  const std::size_t d = r1 > r2 ? r1 - r2 : r2 - r1;
  const std::size_t ring = std::min(d, kWideRegions - d);
  return 150.0 + 10.0 * static_cast<double>(ring);
}

struct WideAreaStats {
  std::uint64_t events = 0;
  std::uint64_t delivered = 0;
  std::size_t windows = 0;
  std::size_t cross = 0;
  double critical_ns = 0.0;
};

WideAreaStats RunWideAreaOnce(std::size_t hosts, std::size_t shards,
                              double horizon, std::uint64_t seed,
                              bool extracted) {
  sim::ShardedOptions opts;
  opts.shards = shards;
  opts.lookahead_ms = 56.0;  // the structural bound, geography-blind
  opts.seed = seed;
  if (extracted && shards > 1) {
    // What net::ExtractLookahead would measure here: per shard pair, the
    // cheapest inter-region base delay plus the smallest additive part any
    // send carries.
    opts.lookahead_matrix.assign(shards * shards, 0.0);
    for (std::size_t r1 = 0; r1 < kWideRegions; ++r1) {
      for (std::size_t r2 = 0; r2 < kWideRegions; ++r2) {
        const std::size_t s1 = r1 * shards / kWideRegions;
        const std::size_t s2 = r2 * shards / kWideRegions;
        if (s1 == s2) continue;
        double& cell = opts.lookahead_matrix[s1 * shards + s2];
        const double bound = RegionDelayMs(r1, r2) + kWideMinAddMs;
        if (cell == 0.0 || bound < cell) cell = bound;
      }
    }
  }
  sim::ShardedSimulation ssim(opts);

  std::vector<std::uint32_t> region_of(hosts);
  std::vector<std::uint32_t> shard_of(hosts);
  for (std::size_t h = 0; h < hosts; ++h) {
    region_of[h] = static_cast<std::uint32_t>(h * kWideRegions / hosts);
    shard_of[h] = static_cast<std::uint32_t>(region_of[h] * shards /
                                             kWideRegions);
  }
  std::vector<std::uint64_t> delivered(shards, 0);

  struct HostCtx {
    sim::ShardedSimulation* ssim;
    const std::vector<std::uint32_t>* region_of;
    const std::vector<std::uint32_t>* shard_of;
    std::vector<std::uint64_t>* delivered;
    std::size_t hosts;
  };
  auto ctx = std::make_unique<HostCtx>(
      HostCtx{&ssim, &region_of, &shard_of, &delivered, hosts});

  // `extra` rides on top of the region base delay and is >= kWideMinAddMs.
  const auto send = [](HostCtx* c, std::size_t src, std::size_t dst,
                       double extra) {
    const std::uint32_t s = (*c->shard_of)[src];
    const std::uint32_t d = (*c->shard_of)[dst];
    const double delay =
        RegionDelayMs((*c->region_of)[src], (*c->region_of)[dst]) + extra;
    sim::Simulation& ssrc = c->ssim->shard(s);
    auto* tally = &(*c->delivered)[d];
    if (d == s) {
      ssrc.After(delay, [tally] { ++*tally; });
    } else {
      c->ssim->Post(s, d, ssrc.now() + delay, [tally] { ++*tally; });
    }
  };

  for (std::size_t h = 0; h < hosts; ++h) {
    sim::Simulation& shard_sim = ssim.shard(shard_of[h]);
    const double lat = 5.0 + 145.0 * U01(seed ^ (h * 0x9e3779b97f4a7c15ULL));
    const double phase = 1000.0 * U01(seed ^ (h + 0xa076'1d64'78bd'642fULL));
    HostCtx* c = ctx.get();
    shard_sim.Every(1000.0, phase, [c, h, lat, send] {
      send(c, h, (h + 1) % c->hosts, lat);                  // near neighbour
      send(c, h, (h + c->hosts / 2 + 1) % c->hosts, 7.0 + lat);  // far side
    });
    shard_sim.Every(2000.0, phase + 0.5 * lat,
                    [c, h, lat, send] { send(c, h, h / 2, 0.5 * lat); });
  }

  WideAreaStats stats;
  stats.events = ssim.RunUntil(horizon);
  stats.critical_ns = ssim.critical_path_ns();
  stats.windows = ssim.windows();
  stats.cross = ssim.cross_shard_messages();
  for (const std::uint64_t d : delivered) stats.delivered += d;
  return stats;
}

struct WideAreaResult {
  std::size_t hosts = 0;
  double horizon = 0.0;
  struct Run {
    std::size_t shards = 0;
    WideAreaStats fixed, extracted;
    double window_reduction() const {
      return extracted.windows == 0
                 ? 0.0
                 : static_cast<double>(fixed.windows) /
                       static_cast<double>(extracted.windows);
    }
  };
  std::vector<Run> runs;
};

// ---------------------------------------------------------------------------
// Run-phase breakdown: where a serial run-loop nanosecond actually goes.
// Four rungs drive the exact same fired-event stream (CHECKed) and add one
// cost layer each, so adjacent deltas price a phase by subtraction:
//
//   wheel_pop          pop/re-arm/schedule machinery, near-empty callbacks
//   callback_dispatch  + real delivery closures (payload capture, failure-
//                        detector push-back via Rearm)
//   transport_resolve  + sends routed through the Transport bus (fault and
//                        delay resolution, accounting, in-flight slab)
//   metrics            + per-send/delivery registry counters enabled
// ---------------------------------------------------------------------------
enum class BreakPhase : int {
  kWheelPop = 0,
  kCallback = 1,
  kTransport = 2,
  kMetrics = 3,
};

struct BreakdownStats {
  std::uint64_t events = 0;
  std::uint64_t delivered = 0;
  double wall_ns = 0.0;
  double ns_per_event() const {
    return events == 0 ? 0.0 : wall_ns / static_cast<double>(events);
  }
};

BreakdownStats RunBreakdownOnce(BreakPhase phase, std::size_t hosts,
                                double horizon, std::uint64_t seed) {
  sim::Simulation sim(seed);
  if (phase == BreakPhase::kMetrics) sim.EnableMetrics();

  struct Ctx {
    sim::Simulation* sim;
    BreakPhase phase;
    std::size_t hosts;
    std::vector<double> lat;
    std::vector<sim::EventId> timeout;
    std::uint64_t delivered = 0;
    std::uint64_t bytes = 0;
  };
  auto ctx = std::make_unique<Ctx>();
  ctx->sim = &sim;
  ctx->phase = phase;
  ctx->hosts = hosts;
  ctx->timeout.assign(hosts, sim::kInvalidEventId);
  ctx->lat.reserve(hosts);
  for (std::size_t h = 0; h < hosts; ++h)
    ctx->lat.push_back(5.0 + 145.0 * U01(seed ^ (h * 0x9e3779b97f4a7c15ULL)));

  struct Msg {
    std::uint32_t src, dst, bytes;
    float latency;
  };
  // The suppress pattern (Delivered in the scale sweep's Workload): reset
  // the failure timeout on every heartbeat; it never fires within the
  // horizon, so it adds Rearm work but no events.
  const auto delivered_cb = [](Ctx* c, std::size_t h, const Msg& m) {
    ++c->delivered;
    c->bytes += m.bytes;
    const double t = c->sim->now() + 3000.0;
    if (c->timeout[h] == sim::kInvalidEventId ||
        !c->sim->Rearm(c->timeout[h], t)) {
      c->timeout[h] = c->sim->At(t, [c, h] {
        c->timeout[h] = sim::kInvalidEventId;
      });
    }
  };

  for (std::size_t h = 0; h < hosts; ++h) {
    const double phase_ms = 1000.0 * U01(seed ^ (h + 0xa076'1d64'78bd'642fULL));
    const double lat = ctx->lat[h];
    Ctx* c = ctx.get();
    sim.Every(1000.0, phase_ms, [c, h, lat, delivered_cb] {
      const Msg m{static_cast<std::uint32_t>(h),
                  static_cast<std::uint32_t>((h + 1) % c->hosts), 64,
                  static_cast<float>(lat)};
      switch (c->phase) {
        case BreakPhase::kWheelPop:
          // Same delivery event, empty body: the floor.
          c->sim->After(lat, [] {});
          break;
        case BreakPhase::kCallback:
          c->sim->After(lat, [c, h, m, delivered_cb] {
            delivered_cb(c, h, m);
          });
          break;
        case BreakPhase::kTransport:
        case BreakPhase::kMetrics: {
          sim::Message msg;
          msg.src_host = h;
          msg.dst_host = m.dst;
          msg.protocol = sim::Protocol::kOther;
          msg.bytes = m.bytes;
          sim::SendOptions so;
          so.delay_override_ms = lat;  // identical delivery times
          c->sim->transport().Send(msg,
                                   [c, h, m, delivered_cb] {
                                     delivered_cb(c, h, m);
                                   },
                                   so);
          break;
        }
      }
    });
  }

  BreakdownStats stats;
  const auto t0 = std::chrono::steady_clock::now();
  stats.events = sim.RunUntil(horizon);
  const auto t1 = std::chrono::steady_clock::now();
  stats.wall_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  stats.delivered = ctx->delivered;
  return stats;
}

struct BreakdownResult {
  std::size_t hosts = 0;
  double horizon = 0.0;
  // Indexed by BreakPhase.
  std::array<BreakdownStats, 4> phases;
};

constexpr const char* kBreakPhaseNames[4] = {
    "wheel_pop", "callback_dispatch", "transport_resolve", "metrics"};

// ---------------------------------------------------------------------------
// Per-host protocol memory (PR 9): the ring's routing state plus a full
// SOMO root aggregate, measured against the pre-SoA layouts — the seed's
// dense per-node prefix/finger allocations and the AoS aggregate
// (vector<NodeReport> + per-record coord/degree heap), both computable
// exactly from the records the sweep builds. check_bench_scale.py gates
// the 10k row on --max-bytes-per-host and the >=2x reduction.
// ---------------------------------------------------------------------------
struct MemoryScaleResult {
  std::size_t hosts = 0;
  std::size_t ring_bytes = 0;
  std::size_t aggregate_bytes = 0;
  std::size_t presoa_ring_bytes = 0;
  std::size_t presoa_aggregate_bytes = 0;
  double join_ms = 0.0;  // batch bootstrap wall time at this scale

  double bytes_per_host() const {
    return static_cast<double>(ring_bytes + aggregate_bytes) /
           static_cast<double>(hosts);
  }
  double presoa_bytes_per_host() const {
    return static_cast<double>(presoa_ring_bytes + presoa_aggregate_bytes) /
           static_cast<double>(hosts);
  }
  double reduction() const {
    return presoa_bytes_per_host() / bytes_per_host();
  }
};

MemoryScaleResult RunMemoryScale(std::size_t hosts) {
  MemoryScaleResult r;
  r.hosts = hosts;

  p2p::dht::Ring ring(16);
  const auto t0 = std::chrono::steady_clock::now();
  ring.JoinBatchHashed(0, hosts);
  r.join_ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
  r.ring_bytes = ring.MemoryBytes();
  // The seed allocated a dense 16x16 prefix table and a 64-entry inline
  // finger array per node, regardless of fill (leafsets were already
  // compact and carry over unchanged).
  r.presoa_ring_bytes =
      r.ring_bytes -
      [&ring] {
        std::size_t soa = 0;
        for (p2p::dht::NodeIndex n = 0; n < ring.size(); ++n)
          soa += ring.node(n).prefix().HeapBytes() +
                 ring.node(n).fingers().HeapBytes();
        return soa;
      }() +
      hosts * (16 * 16 + 64) * sizeof(p2p::dht::LeafsetEntry);

  p2p::somo::AggregateReport agg;
  std::size_t aos_heap = 0;
  for (std::size_t n = 0; n < hosts; ++n) {
    p2p::somo::NodeReport rep;
    rep.node = static_cast<p2p::dht::NodeIndex>(n);
    rep.host = static_cast<p2p::net::HostIdx>(n);
    rep.generated_at = static_cast<double>(n);
    rep.up_kbps = 100.0;
    rep.down_kbps = 500.0;
    rep.capacity = static_cast<double>(n % 100);
    if (n % 3 != 0)
      for (std::size_t d = 0; d < 2 + n % 3; ++d)
        rep.coordinates.push_back(static_cast<double>(d));
    if (n % 4 == 0) rep.degrees.taken.push_back({});
    if (n % 2 == 0) {
      rep.telemetry.msgs_sent = n;
      rep.telemetry.sampled_at = rep.generated_at;
    }
    aos_heap += rep.coordinates.capacity() * sizeof(double) +
                rep.degrees.taken.capacity() * sizeof(p2p::somo::DegreeSlot);
    agg.Add(rep);
  }
  r.aggregate_bytes = agg.MemoryBytes();
  // Pre-SoA aggregate: vector<NodeReport> with each record's own heap.
  r.presoa_aggregate_bytes =
      sizeof(p2p::somo::AggregateReport) +
      hosts * sizeof(p2p::somo::NodeReport) + aos_heap;
  return r;
}

// ---------------------------------------------------------------------------
// Wheel-layout model: a stripped-down hierarchical wheel generic over
// (levels, bits per level), pricing what the production 3x256 shape trades
// against a 4x64 alternative — per-level occupancy-bitmap scans and bucket
// residency on one side, cascade frequency (events touched once per level
// crossed) on the other. Schedule/drain only; cancel, re-arm, periodics
// and the due-run cursor are layout-independent and stay out of the model.
// ---------------------------------------------------------------------------
template <int Levels, int Bits>
class LayoutWheel {
 public:
  static_assert(Levels * Bits <= 32, "tick range");
  static constexpr int kBuckets = 1 << Bits;
  static constexpr std::uint64_t kMask = kBuckets - 1;

  void Schedule(double t, std::uint32_t tag) {
    Place(Item{t, next_seq_++, tag});
    ++size_;
  }

  bool empty() const { return size_ == 0; }
  std::uint64_t cascaded() const { return cascaded_; }

  template <class Fn>
  std::uint64_t DrainUpTo(double t_end, Fn fn) {
    std::uint64_t n = 0;
    while (size_ > 0) {
      if (due_cursor_ < due_.size()) {
        const Item& it = due_[due_cursor_];
        if (it.time > t_end) break;
        ++due_cursor_;
        --size_;
        ++n;
        fn(it.time, it.tag);
        if (due_cursor_ == due_.size()) {
          due_.clear();
          due_cursor_ = 0;
        }
        continue;
      }
      if (!Advance()) break;
    }
    return n;
  }

 private:
  struct Item {
    double time;
    std::uint64_t seq;
    std::uint32_t tag;
  };

  static std::uint64_t TickOf(double t) {
    return static_cast<std::uint64_t>(t);
  }

  void Place(Item it) {
    const std::uint64_t tick = TickOf(it.time);
    if (tick <= current_tick_) {
      InsertDue(it);
      return;
    }
    for (int l = 0; l < Levels; ++l) {
      const int shift = (l + 1) * Bits;
      if (shift < 64 && (tick >> shift) != (current_tick_ >> shift)) continue;
      const int idx =
          l * kBuckets + static_cast<int>((tick >> (l * Bits)) & kMask);
      buckets_[idx].push_back(it);
      occ_[l] |= Word(idx % kBuckets);
      return;
    }
    overflow_.push_back(it);
    std::push_heap(overflow_.begin(), overflow_.end(), Later);
  }

  void InsertDue(Item it) {
    // Sorted insert past the served prefix (due runs are short).
    auto pos = due_.begin() + static_cast<std::ptrdiff_t>(due_cursor_);
    while (pos != due_.end() &&
           (pos->time < it.time ||
            (pos->time == it.time && pos->seq < it.seq))) {
      ++pos;
    }
    due_.insert(pos, it);
  }

  // Move the wheel clock to the next occupied bucket; serve level 0 as the
  // due run, cascade higher levels down. Returns false when fully drained
  // into overflow-less emptiness.
  bool Advance() {
    for (int l = 0; l < Levels; ++l) {
      const int idx = FindFirst(l);
      if (idx < 0) continue;
      const std::uint64_t span = std::uint64_t{1} << (l * Bits);
      const std::uint64_t keep = ~((span << Bits) - 1);
      current_tick_ = (current_tick_ & keep) |
                      (static_cast<std::uint64_t>(idx) * span);
      auto& b = buckets_[l * kBuckets + idx];
      std::vector<Item> items;
      items.swap(b);
      occ_[l] &= ~Word(idx);
      if (l == 0) {
        std::sort(items.begin(), items.end(), [](const Item& a,
                                                 const Item& b2) {
          if (a.time != b2.time) return a.time < b2.time;
          return a.seq < b2.seq;
        });
        for (Item& it : items) InsertDue(it);
      } else {
        cascaded_ += items.size();
        for (Item& it : items) Place(it);
      }
      return true;
    }
    if (overflow_.empty()) return false;
    current_tick_ = TickOf(overflow_.front().time);
    const int top_shift = Levels * Bits;
    while (!overflow_.empty() &&
           (TickOf(overflow_.front().time) >> top_shift) ==
               (current_tick_ >> top_shift)) {
      std::pop_heap(overflow_.begin(), overflow_.end(), Later);
      Place(overflow_.back());
      overflow_.pop_back();
    }
    return true;
  }

  int FindFirst(int level) const {
    const auto& words = occ_[level];
    for (int w = 0; w < kWords; ++w) {
      if (words.bits[w] == 0) continue;
      return w * 64 + std::countr_zero(words.bits[w]);
    }
    return -1;
  }

  static bool Later(const Item& a, const Item& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }

  static constexpr int kWords = (kBuckets + 63) / 64;
  struct Occ {
    std::uint64_t bits[kWords] = {};
    Occ& operator|=(const Occ& o) {
      for (int w = 0; w < kWords; ++w) bits[w] |= o.bits[w];
      return *this;
    }
    Occ& operator&=(const Occ& o) {
      for (int w = 0; w < kWords; ++w) bits[w] &= o.bits[w];
      return *this;
    }
    Occ operator~() const {
      Occ r;
      for (int w = 0; w < kWords; ++w) r.bits[w] = ~bits[w];
      return r;
    }
  };
  static Occ Word(int idx) {
    Occ o;
    o.bits[idx / 64] = std::uint64_t{1} << (idx % 64);
    return o;
  }

  std::array<std::vector<Item>, static_cast<std::size_t>(Levels) * kBuckets>
      buckets_;
  std::array<Occ, Levels> occ_;
  std::vector<Item> due_;
  std::size_t due_cursor_ = 0;
  std::vector<Item> overflow_;
  std::uint64_t current_tick_ = 0;
  std::uint64_t next_seq_ = 1;
  std::size_t size_ = 0;
  std::uint64_t cascaded_ = 0;
};

struct LayoutStats {
  std::uint64_t events = 0;
  std::uint64_t cascaded = 0;
  double wall_ns = 0.0;
  double checksum = 0.0;

  double ns_per_event() const {
    return events == 0 ? 0.0 : wall_ns / static_cast<double>(events);
  }
};

// Self-rescheduling timer storm: `timers` chains, each hopping through a
// fixed delay palette spanning all wheel levels (sub-tick to 100 s), so
// both layouts field the same stream and differ only in where entries sit
// and how often they cascade.
template <class Wheel>
LayoutStats RunLayout(std::size_t timers, double horizon,
                      std::uint64_t seed) {
  static constexpr double kPalette[] = {6.25,   17.0,   42.0,    95.0,
                                        140.0,  500.0,  1000.0,  3000.0,
                                        9000.0, 30000.0, 100000.0};
  static constexpr std::size_t kP = sizeof(kPalette) / sizeof(kPalette[0]);
  Wheel w;
  LayoutStats stats;
  for (std::size_t i = 0; i < timers; ++i) {
    w.Schedule(1000.0 * U01(seed ^ (i * 0x2545f4914f6cdd1dULL)),
               static_cast<std::uint32_t>(i % kP));
  }
  const auto t0 = std::chrono::steady_clock::now();
  while (!w.empty()) {
    const std::uint64_t n =
        w.DrainUpTo(horizon, [&w, &stats, horizon](double t,
                                                   std::uint32_t tag) {
          stats.checksum += t;
          const double next = t + kPalette[tag];
          if (next <= horizon) {
            w.Schedule(next, static_cast<std::uint32_t>((tag + 1) % kP));
          }
        });
    stats.events += n;
    if (n == 0) break;
  }
  const auto t1 = std::chrono::steady_clock::now();
  stats.wall_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  stats.cascaded = w.cascaded();
  return stats;
}

template <class Wheel>
LayoutStats BestOfLayout(int reps, std::size_t timers, double horizon,
                         std::uint64_t seed) {
  LayoutStats best;
  for (int r = 0; r < reps; ++r) {
    LayoutStats s = RunLayout<Wheel>(timers, horizon, seed);
    if (r == 0 || s.wall_ns < best.wall_ns) best = s;
  }
  return best;
}

void WriteJson(const std::vector<ScaleResult>& results,
               const std::vector<ShardedScaleResult>& sharded,
               const std::vector<WideAreaResult>& wide,
               const BreakdownResult& breakdown,
               const std::vector<MemoryScaleResult>& memory,
               const LayoutStats& layout_3x256, const LayoutStats& layout_4x64,
               const std::string& path) {
  const unsigned cpus = std::thread::hardware_concurrency();
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("schema").String("p2pkernelbench/v1");
  w.Key("cpus").Uint(cpus);
  w.Key("memory_scales").BeginArray();
  for (const auto& m : memory) {
    w.BeginObject();
    w.Key("hosts").Uint(m.hosts);
    w.Key("ring_bytes").Uint(m.ring_bytes);
    w.Key("aggregate_bytes").Uint(m.aggregate_bytes);
    w.Key("bytes_per_host").Number(m.bytes_per_host());
    w.Key("presoa_bytes_per_host").Number(m.presoa_bytes_per_host());
    w.Key("reduction_vs_presoa").Number(m.reduction());
    w.Key("join_ms").Number(m.join_ms);
    w.EndObject();
  }
  w.EndArray();
  w.Key("scales").BeginArray();
  for (const auto& r : results) {
    const auto run = [&w](const char* name, const RunStats& s) {
      w.Key(name).BeginObject();
      w.Key("events").Uint(s.events);
      w.Key("ns_per_event").Number(s.ns_per_event());
      w.Key("events_per_sec").Number(s.events_per_sec());
      w.Key("peak_live").Uint(s.peak_live);
      w.Key("peak_footprint").Uint(s.peak_footprint);
      w.EndObject();
    };
    w.BeginObject();
    w.Key("hosts").Uint(r.hosts);
    w.Key("horizon_ms").Number(r.horizon);
    run("wheel", r.wheel);
    run("wheel_batched", r.batched);
    // The PopAllUpTo batching delta on the wheel (>1: batching wins).
    w.Key("speedup_step_over_batched")
        .Number(r.wheel.ns_per_event() / r.batched.ns_per_event());
    w.EndObject();
  }
  w.EndArray();

  // Sharded lockstep kernel: throughput against the critical-path
  // denominator (max per-shard busy + exchange, per window) — the wall
  // time on a machine with >= `shards` free cores. Bit-identical results
  // at any thread count make the projection sound; `cpus` above records
  // what this host could actually overlap.
  w.Key("sharded_scales").BeginArray();
  for (const auto& sc : sharded) {
    w.BeginObject();
    w.Key("hosts").Uint(sc.hosts);
    w.Key("horizon_ms").Number(sc.horizon);
    double base_critical = 0.0;
    w.Key("runs").BeginArray();
    for (const auto& [shards, s] : sc.runs) {
      if (shards == 1) base_critical = s.critical_ns;
      w.BeginObject();
      w.Key("shards").Uint(shards);
      // Per-row so downstream checks can flag critical-path projections
      // from hosts that could not actually overlap the shards.
      w.Key("cpus").Uint(cpus);
      w.Key("events").Uint(s.events);
      w.Key("windows").Uint(s.windows);
      w.Key("cross_shard_messages").Uint(s.cross);
      w.Key("critical_path_ns").Number(s.critical_ns);
      w.Key("critical_ns_per_event").Number(s.critical_ns_per_event());
      w.Key("events_per_sec_critical").Number(s.events_per_sec_critical());
      w.Key("wall_ns").Number(s.wall_ns);
      w.Key("speedup_critical_vs_serial")
          .Number(s.critical_ns == 0.0 ? 0.0
                                       : base_critical / s.critical_ns);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();

  // Wide-area lookahead extraction: fixed 56 ms windows vs the measured
  // per-pair matrix, same workload (see RunWideAreaOnce).
  w.Key("wide_area").BeginArray();
  for (const auto& wa : wide) {
    w.BeginObject();
    w.Key("hosts").Uint(wa.hosts);
    w.Key("horizon_ms").Number(wa.horizon);
    w.Key("regions").Uint(kWideRegions);
    w.Key("runs").BeginArray();
    for (const auto& run : wa.runs) {
      w.BeginObject();
      w.Key("shards").Uint(run.shards);
      w.Key("cpus").Uint(cpus);
      w.Key("events").Uint(run.fixed.events);
      w.Key("cross_shard_messages").Uint(run.fixed.cross);
      w.Key("windows_fixed").Uint(run.fixed.windows);
      w.Key("windows_extracted").Uint(run.extracted.windows);
      w.Key("window_reduction").Number(run.window_reduction());
      w.Key("critical_path_ns_fixed").Number(run.fixed.critical_ns);
      w.Key("critical_path_ns_extracted").Number(run.extracted.critical_ns);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();

  // Run-phase breakdown ladder: identical event stream, one cost layer per
  // rung; delta_ns prices the layer against the previous rung.
  w.Key("run_phase_breakdown").BeginObject();
  w.Key("hosts").Uint(breakdown.hosts);
  w.Key("horizon_ms").Number(breakdown.horizon);
  w.Key("events").Uint(breakdown.phases[0].events);
  w.Key("phases").BeginArray();
  for (std::size_t i = 0; i < breakdown.phases.size(); ++i) {
    const BreakdownStats& s = breakdown.phases[i];
    w.BeginObject();
    w.Key("phase").String(kBreakPhaseNames[i]);
    w.Key("ns_per_event").Number(s.ns_per_event());
    w.Key("delta_ns")
        .Number(i == 0 ? s.ns_per_event()
                       : s.ns_per_event() -
                             breakdown.phases[i - 1].ns_per_event());
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();

  // Bucket-layout model: production 3x256 against 4x64.
  w.Key("wheel_layouts").BeginArray();
  const auto layout = [&w](const char* name, const LayoutStats& s) {
    w.BeginObject();
    w.Key("layout").String(name);
    w.Key("events").Uint(s.events);
    w.Key("cascaded").Uint(s.cascaded);
    w.Key("ns_per_event").Number(s.ns_per_event());
    w.EndObject();
  };
  layout("3x256", layout_3x256);
  layout("4x64", layout_4x64);
  w.EndArray();
  w.Key("speedup_4x64_over_3x256")
      .Number(layout_4x64.ns_per_event() / layout_3x256.ns_per_event());

  w.EndObject();
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::printf("[json] FAILED to open %s\n", path.c_str());
    return;
  }
  const std::string out = w.Take();
  std::fwrite(out.data(), 1, out.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("[json] wrote %s\n", path.c_str());
}

}  // namespace
}  // namespace p2p::bench

int main(int argc, char** argv) {
  using namespace p2p::bench;

  std::string json_path;
  int reps = 3;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) json_path = argv[++i];
    if (arg == "--reps" && i + 1 < argc) reps = std::atoi(argv[++i]);
    if (arg == "--quick") quick = true;
  }

  // Horizon shrinks with scale so each sweep pops a comparable number of
  // events (~4 per host-second of virtual time).
  struct Scale {
    std::size_t hosts;
    double horizon;
  };
  std::vector<Scale> scales = {{1200, 30000.0},
                               {5000, 15000.0},
                               {10000, 10000.0}};
  if (quick) scales = {{1200, 5000.0}, {10000, 2000.0}};

  std::printf("\n=== Event-loop kernel scale sweep ===\n");
  std::printf("(wheel = timing-wheel EventQueue stepped event by event, "
              "batched = one\n PopAllUpTo drain; best of %d)\n\n", reps);

  // Untimed warm-up: the first timed configuration otherwise pays the
  // process's page faults and CPU frequency ramp and skews its ratio.
  {
    KernelDriver wheel;
    RunOne(wheel, 1200, 3000.0, 7);
  }

  std::vector<ScaleResult> results;
  p2p::util::Table table({"hosts", "events", "wheel ns/ev", "batched ns/ev",
                          "step/batched", "peak live", "peak footprint"});
  for (const auto& sc : scales) {
    ScaleResult r;
    r.hosts = sc.hosts;
    r.horizon = sc.horizon;
    const std::uint64_t seed = 1000 + sc.hosts;
    r.wheel = BestOf(reps, sc.hosts, sc.horizon, seed, /*batched=*/false);
    r.batched = BestOf(reps, sc.hosts, sc.horizon, seed, /*batched=*/true);

    // Both drain modes must agree on the logical stream: same pops, same
    // deliveries. A mismatch means the bench is comparing different
    // workloads and its ratio is meaningless.
    P2P_CHECK(r.wheel.events == r.batched.events);
    P2P_CHECK(r.wheel.delivered == r.batched.delivered);
    // Flat memory: the wheel's footprint tracks live entries (lazy garbage
    // only ever accumulates in the overflow heap).
    P2P_CHECK(r.wheel.peak_footprint <= 2 * r.wheel.peak_live + 1);

    table.AddRow({static_cast<long long>(r.hosts),
                  static_cast<long long>(r.wheel.events),
                  r.wheel.ns_per_event(), r.batched.ns_per_event(),
                  r.wheel.ns_per_event() / r.batched.ns_per_event(),
                  static_cast<long long>(r.wheel.peak_live),
                  static_cast<long long>(r.wheel.peak_footprint)});
    results.push_back(r);
  }
  std::printf("%s\n", table.ToText().c_str());

  // --- sharded lockstep sweep --------------------------------------------
  struct ShardedScale {
    std::size_t hosts;
    double horizon;
  };
  std::vector<ShardedScale> sharded_scales = {{10000, 10000.0},
                                              {50000, 4000.0}};
  if (quick) sharded_scales = {{10000, 2000.0}};
  const std::vector<std::size_t> shard_counts = {1, 2, 4, 8};

  std::printf("=== Sharded lockstep kernel (lookahead 56 ms, critical-path "
              "throughput; %u cpu(s) on this host) ===\n",
              std::thread::hardware_concurrency());
  std::vector<ShardedScaleResult> sharded_results;
  p2p::util::Table stable({"hosts", "shards", "events", "windows",
                           "cross msgs", "crit ns/ev", "ev/s (crit)",
                           "speedup"});
  for (const auto& sc : sharded_scales) {
    ShardedScaleResult r;
    r.hosts = sc.hosts;
    r.horizon = sc.horizon;
    const std::uint64_t seed = 9000 + sc.hosts;
    // Rep-major interleaving: machine speed drifts over the minutes the
    // sweep takes, and the headline ratio divides the serial row by the
    // sharded rows. Running every shard count back to back within each
    // rep keeps the runs a ratio compares seconds — not minutes — apart;
    // the per-count best across reps then comes from the machine's quiet
    // moments for every count alike.
    std::vector<ShardedStats> best(shard_counts.size());
    for (int rep = 0; rep < reps; ++rep) {
      for (std::size_t i = 0; i < shard_counts.size(); ++i) {
        ShardedStats s =
            RunShardedOnce(sc.hosts, shard_counts[i], sc.horizon, seed);
        if (rep == 0 || s.critical_ns < best[i].critical_ns) best[i] = s;
      }
    }
    for (std::size_t i = 0; i < shard_counts.size(); ++i)
      r.runs.emplace_back(shard_counts[i], best[i]);
    // One logical stream at every shard count, or the ratios are fiction.
    for (const auto& [shards, s] : r.runs) {
      P2P_CHECK_MSG(s.events == r.runs.front().second.events,
                    "fired-event mismatch at " << shards << " shards");
      P2P_CHECK_MSG(s.delivered == r.runs.front().second.delivered,
                    "delivery mismatch at " << shards << " shards");
    }
    const double base = r.runs.front().second.critical_ns;
    for (const auto& [shards, s] : r.runs) {
      stable.AddRow({static_cast<long long>(r.hosts),
                     static_cast<long long>(shards),
                     static_cast<long long>(s.events),
                     static_cast<long long>(s.windows),
                     static_cast<long long>(s.cross),
                     s.critical_ns_per_event(), s.events_per_sec_critical(),
                     base / s.critical_ns});
    }
    sharded_results.push_back(std::move(r));
  }
  std::printf("%s\n", stable.ToText().c_str());

  // --- wide-area lookahead extraction ------------------------------------
  struct WideScale {
    std::size_t hosts;
    double horizon;
  };
  std::vector<WideScale> wide_scales = {{10000, 10000.0}};
  if (quick) wide_scales = {{10000, 4000.0}};
  const std::vector<std::size_t> wide_shard_counts = {2, 4, 8};

  std::printf("=== Wide-area lookahead extraction (8 regions, inter-region "
              ">= 150 ms;\n fixed 56 ms windows vs measured per-pair "
              "matrix, same workload) ===\n");
  std::vector<WideAreaResult> wide_results;
  p2p::util::Table wtable({"hosts", "shards", "events", "win fixed",
                           "win extracted", "reduction"});
  for (const auto& sc : wide_scales) {
    WideAreaResult r;
    r.hosts = sc.hosts;
    r.horizon = sc.horizon;
    const std::uint64_t seed = 11000 + sc.hosts;
    for (const std::size_t shards : wide_shard_counts) {
      WideAreaResult::Run run;
      run.shards = shards;
      for (int rep = 0; rep < reps; ++rep) {
        WideAreaStats f =
            RunWideAreaOnce(sc.hosts, shards, sc.horizon, seed, false);
        WideAreaStats e =
            RunWideAreaOnce(sc.hosts, shards, sc.horizon, seed, true);
        if (rep == 0 || f.critical_ns < run.fixed.critical_ns) run.fixed = f;
        if (rep == 0 || e.critical_ns < run.extracted.critical_ns)
          run.extracted = e;
      }
      // Same workload either way: the matrix only reschedules the windows.
      P2P_CHECK_MSG(run.fixed.events == run.extracted.events,
                    "wide-area fired-event mismatch at " << shards
                                                         << " shards");
      P2P_CHECK_MSG(run.fixed.delivered == run.extracted.delivered,
                    "wide-area delivery mismatch at " << shards << " shards");
      P2P_CHECK_MSG(run.extracted.windows <= run.fixed.windows,
                    "extracted lookahead must not add windows");
      wtable.AddRow({static_cast<long long>(r.hosts),
                     static_cast<long long>(shards),
                     static_cast<long long>(run.fixed.events),
                     static_cast<long long>(run.fixed.windows),
                     static_cast<long long>(run.extracted.windows),
                     run.window_reduction()});
      r.runs.push_back(run);
    }
    // One logical stream at every shard count, like the lockstep sweep.
    for (const auto& run : r.runs) {
      P2P_CHECK_MSG(run.fixed.events == r.runs.front().fixed.events,
                    "wide-area stream mismatch across shard counts");
    }
    wide_results.push_back(std::move(r));
  }
  std::printf("%s\n", wtable.ToText().c_str());

  // --- run-phase breakdown -----------------------------------------------
  BreakdownResult breakdown;
  breakdown.hosts = quick ? 5000 : 10000;
  breakdown.horizon = quick ? 4000.0 : 10000.0;
  {
    const std::uint64_t seed = 13000 + breakdown.hosts;
    for (int p = 0; p < 4; ++p) {
      BreakdownStats best;
      for (int rep = 0; rep < reps; ++rep) {
        BreakdownStats s =
            RunBreakdownOnce(static_cast<BreakPhase>(p), breakdown.hosts,
                             breakdown.horizon, seed);
        if (rep == 0 || s.wall_ns < best.wall_ns) best = s;
      }
      breakdown.phases[static_cast<std::size_t>(p)] = best;
    }
    // Identical fired-event stream on every rung, or the deltas are noise.
    for (int p = 1; p < 4; ++p) {
      P2P_CHECK_MSG(breakdown.phases[p].events == breakdown.phases[0].events,
                    "breakdown rung " << kBreakPhaseNames[p]
                                      << " changed the event stream");
    }
    for (int p = 2; p < 4; ++p) {
      P2P_CHECK(breakdown.phases[p].delivered ==
                breakdown.phases[1].delivered);
    }
    std::printf("=== Run-phase breakdown (%zu hosts, identical %llu-event "
                "stream per rung) ===\n",
                breakdown.hosts,
                static_cast<unsigned long long>(
                    breakdown.phases[0].events));
    for (int p = 0; p < 4; ++p) {
      const double ns = breakdown.phases[p].ns_per_event();
      const double prev =
          p == 0 ? 0.0 : breakdown.phases[p - 1].ns_per_event();
      std::printf("  %-18s %7.1f ns/event  (+%5.1f)\n", kBreakPhaseNames[p],
                  ns, ns - prev);
    }
    std::printf("\n");
  }

  // --- per-host protocol memory ------------------------------------------
  std::vector<std::size_t> mem_hosts = {1200, 10000};
  if (quick) mem_hosts = {1200};
  std::printf("=== Per-host protocol memory (ring routing state + SOMO "
              "root aggregate,\n SoA vs the seed's dense/AoS layouts) "
              "===\n");
  std::vector<MemoryScaleResult> memory_results;
  p2p::util::Table mtable({"hosts", "B/host (SoA)", "B/host (pre-SoA)",
                           "reduction", "join ms"});
  for (const std::size_t h : mem_hosts) {
    MemoryScaleResult m = RunMemoryScale(h);
    mtable.AddRow({static_cast<long long>(m.hosts), m.bytes_per_host(),
                   m.presoa_bytes_per_host(), m.reduction(), m.join_ms});
    memory_results.push_back(m);
  }
  std::printf("%s\n", mtable.ToText().c_str());

  // --- wheel bucket-layout model -----------------------------------------
  const std::size_t layout_timers = quick ? 4000 : 20000;
  const double layout_horizon = quick ? 20000.0 : 60000.0;
  const LayoutStats l3x256 = BestOfLayout<LayoutWheel<3, 8>>(
      reps, layout_timers, layout_horizon, 77);
  const LayoutStats l4x64 = BestOfLayout<LayoutWheel<4, 6>>(
      reps, layout_timers, layout_horizon, 77);
  P2P_CHECK(l3x256.events == l4x64.events);
  P2P_CHECK(l3x256.checksum == l4x64.checksum);
  std::printf("=== Wheel bucket layouts (identical %llu-event timer storm) "
              "===\n",
              static_cast<unsigned long long>(l3x256.events));
  std::printf("  3x256 (production): %7.1f ns/event, %llu cascades\n",
              l3x256.ns_per_event(),
              static_cast<unsigned long long>(l3x256.cascaded));
  std::printf("  4x64:               %7.1f ns/event, %llu cascades\n\n",
              l4x64.ns_per_event(),
              static_cast<unsigned long long>(l4x64.cascaded));

  if (!json_path.empty())
    WriteJson(results, sharded_results, wide_results, breakdown,
              memory_results, l3x256, l4x64, json_path);
  return 0;
}
