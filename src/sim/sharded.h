// Sharded deterministic simulation kernel: N per-thread shards, each owning
// its own Simulation (timing-wheel EventQueue, slab, RNG stream, metrics
// registry, Transport bus), advancing in lockstep windows bounded by
// cross-shard lookahead — the classic conservative-lookahead PDES scheme,
// applied across cores.
//
// Correctness argument: the lookahead is a lower bound on cross-shard
// message latency — either the single structural constant `lookahead_ms`
// (net::PlanShards derives it from the transit-stub link classes), or the
// measured per-shard-pair matrix (net::ExtractLookahead). With the matrix,
// each shard j's next window ends at min over senders i of
// (C_i + matrix[i][j]) where C_i is shard i's committed time — the
// bounded-lag recurrence: a message from i sent at t >= C_i arrives at
// >= C_i + matrix[i][j] >= j's window end, never inside j's current
// window. Shards therefore process their windows with no inbound traffic
// to miss; cross-shard sends accumulate in per-(src,dst) mailboxes and are
// exchanged at the barrier. The uniform-lookahead path is the matrix path
// with every entry equal: all window ends coincide and the kernel steps in
// the classic fixed windows.
//
// Determinism contract:
//   * same seed + same shard count -> byte-identical runs, independent of
//     thread schedule. Each shard's event order is (time, seq) within its
//     own queue; mailbox drains insert in the canonical (deliver_time,
//     src_shard, send_seq) order on the owning shard's thread, so queue
//     seqs — and with them every downstream tie-break — are schedule-
//     independent. Shard RNG streams are split deterministically from the
//     master seed (ShardSeed). Window schedules depend only on the
//     lookahead configuration, never on threads.
//   * a 1-shard run IS the serial kernel: RunUntil forwards to the single
//     Simulation (no windows, no barriers), and ShardSeed(seed, 0, 1) ==
//     seed, so the event log matches sim::Simulation byte for byte
//     (tests/sim_shard_test.cc pins it).
//
// Exchange barrier: cross-shard sends stage in flat SoA columns — one
// (deliver[], cb[], order[]) column per (src, dst) pair. Each sending
// shard sorts its own columns in parallel before the barrier (a stable
// sort of the u32 `order` permutation on deliver time; the 56-byte
// callbacks never move), the barrier itself claims columns with O(1)
// vector swaps, and DrainInbox k-way merges the pre-sorted runs straight
// into the destination queue — no comparison sort over the concatenation.
//
// Cross-shard sends: SetHostShards hands every shard's Transport this
// kernel and the host -> shard map. The sending bus resolves faults, delay
// and trace and counts sent/bytes; its event (a Transport::Delivery whose
// bus pointer names the destination bus, which counts the delivery when
// the event runs) goes into the mailbox through Post as it is — no wrapper
// closure, so an event that fits InlineFn's buffer crosses without an
// allocation. Because the simulation shares one address space, the closure
// itself crosses shards; the barrier provides the happens-before edge, and
// protocol closures must only touch destination-shard-owned state
// (HeartbeatProtocol::BindShard and SomoProtocol::BindShard construct
// exactly such closures).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "obs/metrics.h"
#include "sim/simulation.h"
#include "util/thread_pool.h"

namespace p2p::sim {

struct ShardedOptions {
  std::size_t shards = 1;
  // Uniform lockstep window length; must be a lower bound on cross-shard
  // one-way latency (net::ShardPlan::lookahead_ms). Required > 0 when
  // shards > 1. Without a matrix it bounds every pair.
  double lookahead_ms = 0.0;
  // Optional measured per-pair lookahead (row-major shards x shards;
  // net::ShardPlan::lookahead_matrix). When non-empty, windows advance by
  // the binding constraint min_i (C_i + matrix[i][j]) per shard instead of
  // the uniform worst case. Every off-diagonal entry must be a sound lower
  // bound on that channel's latency and >= lookahead_ms.
  std::vector<double> lookahead_matrix;
  std::uint64_t seed = 1;
  // Worker threads for the window phase; 0 = min(shards, hardware).
  // Results are identical for any value — the barrier design makes the
  // thread schedule unobservable — so benches on small machines can run
  // shards sequentially and still measure the same event streams.
  std::size_t threads = 0;
};

// Shard s's RNG seed. Identity for the 1-shard run (serial equivalence);
// SplitMix64-derived, statistically independent streams otherwise.
std::uint64_t ShardSeed(std::uint64_t seed, std::size_t shard,
                        std::size_t shard_count);

class ShardedSimulation {
 public:
  explicit ShardedSimulation(const ShardedOptions& opts);
  ~ShardedSimulation();

  ShardedSimulation(const ShardedSimulation&) = delete;
  ShardedSimulation& operator=(const ShardedSimulation&) = delete;

  std::size_t shard_count() const { return shards_.size(); }
  double lookahead_ms() const { return lookahead_ms_; }
  // Lower bound on the latency of the (src -> dst) cross-shard channel —
  // the matrix entry, or the uniform lookahead when no matrix was given.
  double PairLookaheadMs(std::size_t src, std::size_t dst) const {
    return pair_lookahead_.empty() ? lookahead_ms_
                                   : pair_lookahead_[src * shards_.size() + dst];
  }
  // min over ordered pairs of PairLookaheadMs — the binding window bound.
  double min_lookahead_ms() const { return min_lookahead_ms_; }
  Time now() const { return now_; }

  Simulation& shard(std::size_t s) { return *shards_[s]->sim; }
  const Simulation& shard(std::size_t s) const { return *shards_[s]->sim; }

  // Install the host -> shard map and hand it, with this kernel, to every
  // shard's transport (skipped at 1 shard: every host is local and the
  // serial fast path must not pay a per-send remote test). Call once,
  // before RunUntil.
  void SetHostShards(std::vector<std::uint32_t> shard_of_host);
  std::uint32_t ShardOfHost(std::size_t host) const {
    return shard_of_host_.empty() ? 0 : shard_of_host_.at(host);
  }
  const std::vector<std::uint32_t>& host_shards() const {
    return shard_of_host_;
  }

  // Enqueue `cb` on shard `dst` at absolute virtual time `deliver_time`.
  // Callable from shard `src`'s thread during a window; the callback runs
  // on `dst` after the barrier. CHECKs the lookahead contract
  // (deliver_time >= the destination's current window end, and — with a
  // matrix — >= the sender's clock + the pair bound, which validates the
  // extraction against every observed delivery).
  void Post(std::size_t src, std::size_t dst, Time deliver_time,
            EventQueue::Callback cb);

  // Advance every shard to `t_end` in lockstep windows (or directly, at
  // 1 shard). Returns events fired across all shards during this call.
  std::size_t RunUntil(Time t_end);

  // --- introspection ------------------------------------------------------

  std::size_t fired_events() const;           // total across shards
  std::size_t windows() const { return windows_; }
  std::size_t cross_shard_messages() const { return cross_messages_; }

  // Critical-path wall time: sum over windows of (slowest shard's busy
  // time + barrier exchange time). This is the run's wall time on a
  // machine with >= shard_count() free cores; on smaller machines shards
  // run (partly) sequentially and real wall time approaches the sum of
  // busy times instead. Benches report throughput against this
  // denominator — the design guarantees bit-identical results either way,
  // so the projection prices the algorithm, not the host.
  double critical_path_ns() const { return critical_ns_; }

  // Wall-clock profile of the barrier machinery (ScopeTimer-style
  // histograms, non-deterministic): per window, "shard.drain_ms" /
  // "shard.window_ms" / "shard.sort_ms" record the slowest shard's inbox
  // drain, window advance, and outbox pre-sort, and "shard.exchange_ms"
  // the barrier-thread mailbox swap. Merge into a run report's registry to
  // surface barrier overhead per run without a bench rebuild.
  const obs::MetricsRegistry& kernel_profile() const { return profile_; }

  // Merge every shard's registry into `out` in shard order (the spec
  // order MergeFrom needs for reproducible float sums).
  void MergeMetrics(obs::MetricsRegistry& out) const;
  // Per-protocol bus totals summed across shards. `sent` counts once (on
  // the sending shard) and `delivered` once (on the receiving shard), so
  // the merged totals obey the same sent >= delivered + dropped algebra
  // as a serial run.
  TransportStats MergedTransportStats() const;

 private:
  // One (src, dst) staging column of the exchange: parallel
  // deliver/cb arrays in append (send_seq) order plus the sorted
  // permutation. Sorting moves 4-byte indices; the callbacks stay put
  // until the drain moves each exactly once into the destination queue.
  struct OutColumn {
    std::vector<Time> deliver;
    std::vector<EventQueue::Callback> cb;
    std::vector<std::uint32_t> order;  // filled by SortOutboxes
    std::size_t size() const { return deliver.size(); }
    bool empty() const { return deliver.empty(); }
    void clear() {
      deliver.clear();
      cb.clear();
      order.clear();
    }
  };
  struct Shard {
    std::unique_ptr<Simulation> sim;
    // outbox[dst]: sends posted by this shard during the current window,
    // in send order (the canonical seq component). Touched only by this
    // shard's thread inside a window and by the barrier thread outside —
    // the ParallelFor join is the synchronisation point.
    std::vector<OutColumn> outbox;
    // staged[src]: cross-shard arrivals from shard `src`, claimed at the
    // barrier by an O(1) swap with src's outbox column (ExchangeMailboxes
    // does no per-message work). This shard's own thread merges the staged
    // runs into canonical order and schedules them onto `sim` at the next
    // window's start (DrainInbox) — both the pre-sort and the queue
    // insertion parallelise instead of serialising on the barrier thread.
    std::vector<OutColumn> staged;
    std::vector<std::size_t> merge_pos;  // k-way merge cursors (scratch)
    Time window_end = 0.0;  // end of the window this shard is running/ran
    double busy_ns = 0.0;   // window phase wall time, this window
    double drain_ns = 0.0;  // inbox drain portion of busy_ns
    double sort_ns = 0.0;   // outbox pre-sort portion of busy_ns
  };

  void ExchangeMailboxes();
  void DrainInbox(Shard& shard) const;
  void SortOutboxes(Shard& shard) const;
  bool Idle() const;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::uint32_t> shard_of_host_;
  double lookahead_ms_ = 0.0;
  // Row-major per-pair bounds (empty on the uniform path) and their min.
  std::vector<double> pair_lookahead_;
  double min_lookahead_ms_ = 0.0;
  Time now_ = 0.0;  // min over shards of committed time
  std::size_t windows_ = 0;
  std::size_t cross_messages_ = 0;
  double critical_ns_ = 0.0;
  obs::MetricsRegistry profile_;  // wall-clock barrier profile (see above)
  std::unique_ptr<util::ThreadPool> pool_;  // null at 1 shard
};

}  // namespace p2p::sim
